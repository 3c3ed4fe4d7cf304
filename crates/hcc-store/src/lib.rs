//! Durable single-file dataset store and WAL'd privacy-budget ledger.
//!
//! Everything the serving tier must not forget across a crash lives
//! here: which datasets were PREPAREd (hierarchy names/parents plus
//! run-length-encoded per-node count-of-counts histograms, keyed by
//! their content digest) and — far more importantly — how much
//! privacy budget each dataset has already spent. The engine records
//! a release's epsilon *before* any noise is drawn (charge-then-
//! release), so a crash mid-release over-counts spent budget but can
//! never under-count it.
//!
//! # On-disk layout
//!
//! Two files, both little-endian, both digest-guarded (FNV-1a 64):
//!
//! - **`path.hcc`** — the page-based snapshot. Page 0 is the header
//!   (magic, version, page size, page count, the LSN the snapshot
//!   covers, payload length + digest, header digest); every following
//!   [`PAGE_SIZE`]-byte page carries a framed, digested chunk of the
//!   serialized state. The file is only ever replaced whole: a
//!   checkpoint writes `path.hcc.tmp`, fsyncs it, and atomically
//!   renames it over the snapshot.
//! - **`path.hcc.wal`** — the write-ahead log. Every mutation
//!   (dataset put, refcount change, budget charge) is appended as one
//!   self-framed record (magic, LSN, type, length, payload, digest)
//!   and fsynced *before* the mutation is acknowledged. On open the
//!   WAL is replayed into the snapshot state; records whose LSN the
//!   snapshot already covers are skipped, so replay is idempotent,
//!   and a torn tail (from a crash mid-append) is detected by the
//!   record digest and truncated away.
//!
//! The full format, the checkpoint/recovery protocol, and the budget
//! ledger's invariants are specified in `docs/store.md`.
//!
//! # Concurrency
//!
//! [`Store`] is deliberately unsynchronized (`&mut self` mutations):
//! the engine wraps it in its rank-checked mutex (`store` rank in the
//! declared lock order) so the lock-order lint sees every access.
//!
//! # Crash testing
//!
//! [`FailPolicy`] injects deterministic faults — fail/torn/short
//! writes at the Nth I/O operation, or a wedge at a named crash point
//! — so recovery tests can kill the store at every durability-
//! relevant instant and prove reopening restores a consistent state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod fault;

pub use fault::{FailPolicy, FaultKind};

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use codec::{fnv64, put_bytes, put_u128, put_u32, put_u64, Reader};

/// Size of every page in the snapshot file, header page included.
pub const PAGE_SIZE: usize = 4096;
/// Snapshot file magic (bytes 0..8 of page 0).
const MAGIC: [u8; 8] = *b"HCCSTORE";
/// Snapshot format version.
const VERSION: u32 = 1;
/// Magic opening every data page.
const PAGE_MAGIC: u32 = 0x5043_4348;
/// Magic opening every WAL record.
const WAL_MAGIC: u32 = 0x4C41_5748;
/// Bytes of page 0 covered by the header digest.
const HEADER_BODY: usize = 48;
/// Bytes of framing at the start of every data page.
const PAGE_HEADER: usize = 20;
/// Payload bytes per data page.
const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;

/// WAL record: a dataset was put (PREPARE/DERIVE/APPEND).
const REC_PUT: u8 = 1;
/// WAL record: a dataset's refcount changed (0 drops it).
const REC_REFS: u8 = 2;
/// WAL record: epsilon was charged against a dataset's budget.
const REC_CHARGE: u8 = 3;

/// WAL size past which a mutation triggers an automatic checkpoint.
const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;

/// A prepared dataset as persisted: enough to rebuild the hierarchy
/// and the per-node true histograms byte-identically, keyed by the
/// dataset's content digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetRecord {
    /// The dataset's content digest (the engine's
    /// `dataset_fingerprint`), doubling as the storage key and the
    /// reload integrity check.
    pub handle: u128,
    /// Node names in node-id order (index 0 is the root).
    pub names: Vec<String>,
    /// Parent index per node; `u64::MAX` marks the root. Parents
    /// always precede children.
    pub parents: Vec<u64>,
    /// Per-node count-of-counts histogram, run-length encoded as
    /// `(group size, group count)` pairs with zero-count sizes
    /// omitted, in ascending size order.
    pub histograms: Vec<Vec<(u64, u64)>>,
    /// Registry reference count at last persist.
    pub refs: u64,
}

impl DatasetRecord {
    /// Appends the node section: the node count, then per node its
    /// name, parent index and run-length histogram. It is the whole
    /// record but `handle` and `refs`, and the one dataset encoding
    /// both the store and the wire use (`docs/store.md`).
    pub fn encode_nodes(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::try_from(self.names.len()).unwrap_or(0));
        for (i, name) in self.names.iter().enumerate() {
            put_bytes(out, name.as_bytes());
            let parent = self.parents.get(i).copied().unwrap_or(u64::MAX);
            put_u64(out, parent);
            let pairs: &[(u64, u64)] = self.histograms.get(i).map(Vec::as_slice).unwrap_or(&[]);
            put_u64(out, u64::try_from(pairs.len()).unwrap_or(0));
            for &(size, count) in pairs {
                put_u64(out, size);
                put_u64(out, count);
            }
        }
    }

    /// Decodes a node section that fills all of `bytes`, with `handle`
    /// and `refs` zero. Checks the framing only: what the nodes say
    /// is the caller's to validate.
    pub fn decode_nodes(bytes: &[u8]) -> Result<DatasetRecord, String> {
        let mut r = Reader::new(bytes);
        let rec = decode_nodes(&mut r)?;
        if r.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after the dataset record",
                r.remaining()
            ));
        }
        Ok(rec)
    }
}

/// Everything that can go wrong opening or mutating a [`Store`].
#[derive(Debug)]
pub enum StoreError {
    /// An underlying file operation failed.
    Io(io::Error),
    /// The snapshot or WAL failed an integrity check.
    Corrupt(String),
    /// The snapshot was written by an unsupported format version.
    BadVersion(u32),
    /// A [`FailPolicy`] fault or crash point fired (the name says
    /// which); the store is now wedged.
    Injected(String),
    /// A mutation was attempted after a previous fault wedged the
    /// store; reopen the files to recover.
    Wedged,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Injected(point) => write!(f, "injected fault at {point}"),
            StoreError::Wedged => write!(f, "store wedged by an earlier fault"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The durable store: an in-memory mirror of the snapshot + WAL,
/// with every mutation WAL-appended and fsynced before it is
/// acknowledged.
pub struct Store {
    path: PathBuf,
    wal_path: PathBuf,
    wal: File,
    wal_len: u64,
    datasets: BTreeMap<u128, DatasetRecord>,
    /// Cumulative epsilon charged per dataset handle. Entries are
    /// never removed — budget is spent against the *data*, so it
    /// survives UNPREPARE and re-PREPARE of the same content.
    ledger: BTreeMap<u128, f64>,
    /// The LSN the on-disk snapshot covers; replay skips records at
    /// or below it.
    applied_lsn: u64,
    /// LSN the next WAL record will carry.
    next_lsn: u64,
    policy: FailPolicy,
    wedged: bool,
    checkpoint_bytes: u64,
}

impl Store {
    /// Opens (or creates) the store at `path`, replaying any WAL tail
    /// into the snapshot state.
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(path, FailPolicy::new())
    }

    /// [`Store::open`] with a fault-injection policy (tests only; the
    /// default policy injects nothing).
    pub fn open_with(path: impl AsRef<Path>, policy: FailPolicy) -> Result<Store, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut wal_os = path.clone().into_os_string();
        wal_os.push(".wal");
        let wal_path = PathBuf::from(wal_os);

        let (datasets, ledger, applied_lsn) = read_snapshot(&path)?.unwrap_or_default();
        let mut store = Store {
            path,
            wal_path: wal_path.clone(),
            // Never truncate here: the WAL's existing tail IS the
            // state recovery is about to replay.
            wal: OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&wal_path)?,
            wal_len: 0,
            datasets,
            ledger,
            applied_lsn,
            next_lsn: applied_lsn + 1,
            policy,
            wedged: false,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
        };
        store.replay_wal()?;
        Ok(store)
    }

    /// Replays every intact WAL record past the snapshot's LSN, then
    /// truncates any torn tail so later appends start clean.
    fn replay_wal(&mut self) -> Result<(), StoreError> {
        let buf = fs::read(&self.wal_path)?;
        let mut off = 0usize;
        let mut max_lsn = self.applied_lsn;
        while let Some((lsn, rtype, payload, used)) = decode_record(buf.get(off..).unwrap_or(&[])) {
            if lsn > self.applied_lsn {
                self.apply_record(rtype, payload)?;
                max_lsn = max_lsn.max(lsn);
            }
            off += used;
        }
        let valid = u64::try_from(off).unwrap_or(0);
        if valid < u64::try_from(buf.len()).unwrap_or(0) {
            // Torn tail from a crash mid-append: the record was never
            // acknowledged, so dropping it is correct.
            self.wal.set_len(valid)?;
            self.wal.sync_all()?;
        }
        self.wal.seek(SeekFrom::Start(valid))?;
        self.wal_len = valid;
        self.next_lsn = max_lsn + 1;
        Ok(())
    }

    /// Applies one decoded WAL record to the in-memory state.
    fn apply_record(&mut self, rtype: u8, payload: &[u8]) -> Result<(), StoreError> {
        let mut r = Reader::new(payload);
        match rtype {
            REC_PUT => {
                let rec = decode_dataset(&mut r).map_err(StoreError::Corrupt)?;
                self.datasets.insert(rec.handle, rec);
            }
            REC_REFS => {
                let handle = r.u128("refs.handle").map_err(StoreError::Corrupt)?;
                let refs = r.u64("refs.count").map_err(StoreError::Corrupt)?;
                if refs == 0 {
                    self.datasets.remove(&handle);
                } else if let Some(rec) = self.datasets.get_mut(&handle) {
                    rec.refs = refs;
                }
            }
            REC_CHARGE => {
                let handle = r.u128("charge.handle").map_err(StoreError::Corrupt)?;
                let bits = r.u64("charge.epsilon").map_err(StoreError::Corrupt)?;
                let spent = self.ledger.entry(handle).or_insert(0.0);
                *spent += f64::from_bits(bits);
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown WAL record type {other}"
                )));
            }
        }
        Ok(())
    }

    /// Persists a prepared dataset (PREPARE/DERIVE/APPEND),
    /// durably, before the caller acknowledges the handle. Re-putting
    /// an existing handle overwrites it (records are content-
    /// addressed, so the bytes are identical anyway).
    pub fn put_dataset(&mut self, rec: &DatasetRecord) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        encode_dataset(&mut payload, rec);
        self.append_record(REC_PUT, &payload, "put")?;
        self.datasets.insert(rec.handle, rec.clone());
        self.maybe_checkpoint()
    }

    /// Persists a dataset's new reference count; zero drops the
    /// dataset record. Its ledger entry survives either way.
    pub fn set_refs(&mut self, handle: u128, refs: u64) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        put_u128(&mut payload, handle);
        put_u64(&mut payload, refs);
        self.append_record(REC_REFS, &payload, "refs")?;
        if refs == 0 {
            self.datasets.remove(&handle);
        } else if let Some(rec) = self.datasets.get_mut(&handle) {
            rec.refs = refs;
        }
        self.maybe_checkpoint()
    }

    /// Durably records `epsilon` as spent against `handle`, returning
    /// the new cumulative total. Callers must invoke this *before*
    /// drawing any noise (charge-then-release): a crash after the
    /// charge but before the release over-counts spent budget, which
    /// is the safe direction. The store does not enforce any cap —
    /// that is the engine's admission decision.
    pub fn charge(&mut self, handle: u128, epsilon: f64) -> Result<f64, StoreError> {
        let mut payload = Vec::new();
        put_u128(&mut payload, handle);
        put_u64(&mut payload, epsilon.to_bits());
        self.append_record(REC_CHARGE, &payload, "charge")?;
        let spent = self.ledger.entry(handle).or_insert(0.0);
        *spent += epsilon;
        let total = *spent;
        self.maybe_checkpoint()?;
        Ok(total)
    }

    /// Cumulative epsilon charged against `handle` (0 if never
    /// charged).
    pub fn spent(&self, handle: u128) -> f64 {
        self.ledger.get(&handle).copied().unwrap_or(0.0)
    }

    /// The persisted datasets, keyed by content digest.
    pub fn datasets(&self) -> &BTreeMap<u128, DatasetRecord> {
        &self.datasets
    }

    /// The budget ledger: cumulative epsilon per dataset handle.
    pub fn ledger(&self) -> &BTreeMap<u128, f64> {
        &self.ledger
    }

    /// Total epsilon charged across every dataset.
    pub fn total_spent(&self) -> f64 {
        self.ledger.values().sum()
    }

    /// Bytes currently in the WAL (0 right after a checkpoint).
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// The LSN the on-disk snapshot covers.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault-injection policy (tests arm crash points through
    /// this).
    pub fn policy_mut(&mut self) -> &mut FailPolicy {
        &mut self.policy
    }

    /// Sets the WAL size past which mutations auto-checkpoint.
    pub fn set_checkpoint_bytes(&mut self, bytes: u64) {
        self.checkpoint_bytes = bytes;
    }

    /// Appends one WAL record and fsyncs it; only then is the
    /// mutation it describes allowed to be acknowledged. Crash points
    /// fire before the write (`append.<kind>`), after the bytes are
    /// written but before the sync (`written.<kind>`), and after the
    /// sync but before the in-memory apply (`synced.<kind>`).
    fn append_record(&mut self, rtype: u8, payload: &[u8], kind: &str) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        let rec = encode_record(self.next_lsn, rtype, payload);
        self.crash_point(&format!("append.{kind}"))?;
        self.guarded(|store| guarded_write(&mut store.wal, &mut store.policy, &rec))?;
        self.crash_point(&format!("written.{kind}"))?;
        self.guarded(|store| guarded_sync(&store.wal, &mut store.policy))?;
        self.crash_point(&format!("synced.{kind}"))?;
        self.next_lsn += 1;
        self.wal_len += u64::try_from(rec.len()).unwrap_or(0);
        Ok(())
    }

    /// Checkpoints if the WAL has outgrown the configured threshold.
    fn maybe_checkpoint(&mut self) -> Result<(), StoreError> {
        if self.wal_len >= self.checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Folds the WAL into the snapshot: serializes the full state to
    /// `path.hcc.tmp`, fsyncs it, atomically renames it over the
    /// snapshot, then truncates the WAL. A crash at any step leaves a
    /// recoverable pair of files — in particular, a crash between the
    /// rename and the truncate leaves WAL records the new snapshot
    /// already covers, which replay skips by LSN.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        let covered = self.next_lsn - 1;
        let mut payload = Vec::new();
        encode_snapshot(&mut payload, &self.datasets, &self.ledger);
        let image = build_file_image(&payload, covered);
        let tmp = {
            let mut os = self.path.clone().into_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        self.crash_point("checkpoint.begin")?;
        self.guarded(|store| {
            let mut f = File::create(&tmp)?;
            guarded_write(&mut f, &mut store.policy, &image)?;
            guarded_sync(&f, &mut store.policy)
        })?;
        self.crash_point("checkpoint.tmp")?;
        self.guarded(|store| fs::rename(&tmp, &store.path).map_err(StoreError::Io))?;
        // Make the rename itself durable. Directory fsync is
        // best-effort: some filesystems refuse to open directories.
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.crash_point("checkpoint.rename")?;
        self.guarded(|store| {
            store.wal.set_len(0)?;
            store.wal.seek(SeekFrom::Start(0))?;
            guarded_sync(&store.wal, &mut store.policy)
        })?;
        self.crash_point("checkpoint.done")?;
        self.applied_lsn = covered;
        self.wal_len = 0;
        Ok(())
    }

    /// Runs `op`, wedging the store if it fails.
    fn guarded<T>(
        &mut self,
        op: impl FnOnce(&mut Store) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let result = op(self);
        if result.is_err() {
            self.wedged = true;
        }
        result
    }

    /// Wedges and errors if the named crash point is armed.
    fn crash_point(&mut self, point: &str) -> Result<(), StoreError> {
        if self.policy.check_point(point) {
            self.wedged = true;
            return Err(StoreError::Injected(point.to_string()));
        }
        Ok(())
    }
}

/// One counted, fault-injectable write.
fn guarded_write(file: &mut File, policy: &mut FailPolicy, buf: &[u8]) -> Result<(), StoreError> {
    match policy.check_op() {
        None => file.write_all(buf).map_err(StoreError::Io),
        Some(FaultKind::Fail) => Err(StoreError::Injected("io.fail".to_string())),
        Some(FaultKind::Torn) => {
            let half = buf.len() / 2;
            let _ = file.write_all(buf.get(..half).unwrap_or(&[]));
            let _ = file.sync_all();
            Err(StoreError::Injected("io.torn".to_string()))
        }
        Some(FaultKind::Short) => {
            let keep = buf.len().saturating_sub(3);
            let _ = file.write_all(buf.get(..keep).unwrap_or(&[]));
            let _ = file.sync_all();
            Err(StoreError::Injected("io.short".to_string()))
        }
    }
}

/// One counted, fault-injectable fsync.
fn guarded_sync(file: &File, policy: &mut FailPolicy) -> Result<(), StoreError> {
    match policy.check_op() {
        None => file.sync_all().map_err(StoreError::Io),
        Some(_) => Err(StoreError::Injected("io.sync".to_string())),
    }
}

/// Frames one WAL record: magic, LSN, type, length, payload, digest
/// (FNV-1a 64 over LSN..payload).
fn encode_record(lsn: u64, rtype: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(25 + payload.len());
    put_u32(&mut out, WAL_MAGIC);
    put_u64(&mut out, lsn);
    out.push(rtype);
    put_bytes(&mut out, payload);
    let digest = fnv64(out.get(4..).unwrap_or(&[]));
    put_u64(&mut out, digest);
    out
}

/// Decodes the WAL record at the head of `buf`. `None` means the
/// bytes do not form one intact record (truncated, torn, or
/// bit-flipped) — callers treat that as the log's logical end.
fn decode_record(buf: &[u8]) -> Option<(u64, u8, &[u8], usize)> {
    let mut r = Reader::new(buf);
    if r.u32("magic").ok()? != WAL_MAGIC {
        return None;
    }
    let lsn = r.u64("lsn").ok()?;
    let rtype = r.u8("type").ok()?;
    let payload = r.bytes("payload").ok()?;
    let body_end = r.consumed();
    let digest = r.u64("digest").ok()?;
    let body = buf.get(4..body_end)?;
    if fnv64(body) != digest {
        return None;
    }
    Some((lsn, rtype, payload, r.consumed()))
}

/// Serializes one dataset record (shared by `REC_PUT` payloads and
/// the snapshot): its handle and reference count, then its node
/// section.
fn encode_dataset(out: &mut Vec<u8>, rec: &DatasetRecord) {
    put_u128(out, rec.handle);
    put_u64(out, rec.refs);
    rec.encode_nodes(out);
}

/// Inverse of [`encode_dataset`].
fn decode_dataset(r: &mut Reader<'_>) -> Result<DatasetRecord, String> {
    let handle = r.u128("dataset.handle")?;
    let refs = r.u64("dataset.refs")?;
    Ok(DatasetRecord {
        handle,
        refs,
        ..decode_nodes(r)?
    })
}

/// Inverse of [`DatasetRecord::encode_nodes`], with `handle` and
/// `refs` zero. Reads only as many nodes and pairs as the bytes
/// hold, so a declared count costs no memory the input did not pay
/// for.
fn decode_nodes(r: &mut Reader<'_>) -> Result<DatasetRecord, String> {
    let num_nodes = r.u64("dataset.num_nodes")?;
    let num_nodes = usize::try_from(num_nodes).map_err(|_| "dataset.num_nodes overflows")?;
    let mut names = Vec::new();
    let mut parents = Vec::new();
    let mut histograms = Vec::new();
    for _ in 0..num_nodes {
        names.push(r.string("node.name")?);
        parents.push(r.u64("node.parent")?);
        let pair_count = r.u64("node.pairs")?;
        let pair_count = usize::try_from(pair_count).map_err(|_| "node.pairs overflows")?;
        let mut pairs = Vec::new();
        for _ in 0..pair_count {
            let size = r.u64("pair.size")?;
            let count = r.u64("pair.count")?;
            pairs.push((size, count));
        }
        histograms.push(pairs);
    }
    Ok(DatasetRecord {
        handle: 0,
        names,
        parents,
        histograms,
        refs: 0,
    })
}

/// Serializes the whole store state (datasets + ledger) as one
/// snapshot payload.
fn encode_snapshot(
    out: &mut Vec<u8>,
    datasets: &BTreeMap<u128, DatasetRecord>,
    ledger: &BTreeMap<u128, f64>,
) {
    put_u64(out, u64::try_from(datasets.len()).unwrap_or(0));
    for rec in datasets.values() {
        encode_dataset(out, rec);
    }
    put_u64(out, u64::try_from(ledger.len()).unwrap_or(0));
    for (&handle, &spent) in ledger {
        put_u128(out, handle);
        put_u64(out, spent.to_bits());
    }
}

/// Inverse of [`encode_snapshot`].
#[allow(clippy::type_complexity)]
fn decode_snapshot(
    payload: &[u8],
) -> Result<(BTreeMap<u128, DatasetRecord>, BTreeMap<u128, f64>), String> {
    let mut r = Reader::new(payload);
    let num_datasets = r.u64("snapshot.num_datasets")?;
    let mut datasets = BTreeMap::new();
    for _ in 0..num_datasets {
        let rec = decode_dataset(&mut r)?;
        datasets.insert(rec.handle, rec);
    }
    let num_entries = r.u64("snapshot.num_ledger")?;
    let mut ledger = BTreeMap::new();
    for _ in 0..num_entries {
        let handle = r.u128("ledger.handle")?;
        let bits = r.u64("ledger.epsilon")?;
        ledger.insert(handle, f64::from_bits(bits));
    }
    if r.remaining() != 0 {
        return Err(format!("snapshot has {} trailing bytes", r.remaining()));
    }
    Ok((datasets, ledger))
}

/// Lays the snapshot payload out as a header page plus framed,
/// digested data pages.
fn build_file_image(payload: &[u8], applied_lsn: u64) -> Vec<u8> {
    let num_pages = payload.len().div_ceil(PAGE_PAYLOAD);
    let mut image = Vec::with_capacity((num_pages + 1) * PAGE_SIZE);
    let mut header = Vec::with_capacity(PAGE_SIZE);
    header.extend_from_slice(&MAGIC);
    put_u32(&mut header, VERSION);
    put_u32(&mut header, u32::try_from(PAGE_SIZE).unwrap_or(0));
    put_u64(&mut header, u64::try_from(num_pages).unwrap_or(0));
    put_u64(&mut header, applied_lsn);
    put_u64(&mut header, u64::try_from(payload.len()).unwrap_or(0));
    put_u64(&mut header, fnv64(payload));
    let header_digest = fnv64(&header);
    put_u64(&mut header, header_digest);
    header.resize(PAGE_SIZE, 0);
    image.extend_from_slice(&header);
    for (idx, chunk) in payload.chunks(PAGE_PAYLOAD).enumerate() {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        put_u32(&mut page, PAGE_MAGIC);
        put_u32(&mut page, u32::try_from(idx).unwrap_or(u32::MAX));
        put_u32(&mut page, u32::try_from(chunk.len()).unwrap_or(0));
        put_u64(&mut page, fnv64(chunk));
        page.extend_from_slice(chunk);
        page.resize(PAGE_SIZE, 0);
        image.extend_from_slice(&page);
    }
    image
}

/// Reads and verifies the snapshot file. `Ok(None)` means no snapshot
/// exists yet (first boot); corruption is an error, never silently
/// ignored.
#[allow(clippy::type_complexity)]
fn read_snapshot(
    path: &Path,
) -> Result<Option<(BTreeMap<u128, DatasetRecord>, BTreeMap<u128, f64>, u64)>, StoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    if bytes.is_empty() {
        return Ok(None);
    }
    let header = bytes
        .get(..PAGE_SIZE)
        .ok_or_else(|| StoreError::Corrupt("snapshot shorter than one page".to_string()))?;
    let mut r = Reader::new(header);
    let magic = r.take(8, "header.magic").map_err(StoreError::Corrupt)?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".to_string()));
    }
    let version = r.u32("header.version").map_err(StoreError::Corrupt)?;
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let page_size = r.u32("header.page_size").map_err(StoreError::Corrupt)?;
    if usize::try_from(page_size) != Ok(PAGE_SIZE) {
        return Err(StoreError::Corrupt(format!(
            "unsupported page size {page_size}"
        )));
    }
    let num_pages = r.u64("header.num_pages").map_err(StoreError::Corrupt)?;
    let applied_lsn = r.u64("header.applied_lsn").map_err(StoreError::Corrupt)?;
    let payload_len = r.u64("header.payload_len").map_err(StoreError::Corrupt)?;
    let payload_digest = r
        .u64("header.payload_digest")
        .map_err(StoreError::Corrupt)?;
    let header_digest = r.u64("header.digest").map_err(StoreError::Corrupt)?;
    let body = header
        .get(..HEADER_BODY)
        .ok_or_else(|| StoreError::Corrupt("header body missing".to_string()))?;
    if fnv64(body) != header_digest {
        return Err(StoreError::Corrupt("header digest mismatch".to_string()));
    }
    let num_pages = usize::try_from(num_pages)
        .map_err(|_| StoreError::Corrupt("page count overflows".to_string()))?;
    let mut payload = Vec::new();
    for idx in 0..num_pages {
        let start = (idx + 1) * PAGE_SIZE;
        let page = bytes
            .get(start..start + PAGE_SIZE)
            .ok_or_else(|| StoreError::Corrupt(format!("page {idx} missing")))?;
        let mut pr = Reader::new(page);
        if pr.u32("page.magic").map_err(StoreError::Corrupt)? != PAGE_MAGIC {
            return Err(StoreError::Corrupt(format!("page {idx}: bad magic")));
        }
        let stored_idx = pr.u32("page.index").map_err(StoreError::Corrupt)?;
        if usize::try_from(stored_idx) != Ok(idx) {
            return Err(StoreError::Corrupt(format!(
                "page {idx}: out-of-place index {stored_idx}"
            )));
        }
        let len = pr.u32("page.len").map_err(StoreError::Corrupt)?;
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("page {idx}: length overflows")))?;
        if len > PAGE_PAYLOAD {
            return Err(StoreError::Corrupt(format!(
                "page {idx}: payload {len} exceeds page capacity"
            )));
        }
        let digest = pr.u64("page.digest").map_err(StoreError::Corrupt)?;
        let chunk = pr.take(len, "page.payload").map_err(StoreError::Corrupt)?;
        if fnv64(chunk) != digest {
            return Err(StoreError::Corrupt(format!("page {idx}: digest mismatch")));
        }
        payload.extend_from_slice(chunk);
    }
    if u64::try_from(payload.len()) != Ok(payload_len) {
        return Err(StoreError::Corrupt(format!(
            "payload length {} != header's {payload_len}",
            payload.len()
        )));
    }
    if fnv64(&payload) != payload_digest {
        return Err(StoreError::Corrupt("payload digest mismatch".to_string()));
    }
    let (datasets, ledger) = decode_snapshot(&payload).map_err(StoreError::Corrupt)?;
    Ok(Some((datasets, ledger, applied_lsn)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(handle: u128) -> DatasetRecord {
        DatasetRecord {
            handle,
            names: vec!["root".into(), "a".into(), "b".into()],
            parents: vec![u64::MAX, 0, 0],
            histograms: vec![vec![(1, 5), (3, 2)], vec![(1, 5)], vec![(3, 2)]],
            refs: 1,
        }
    }

    #[test]
    fn node_section_is_the_record_after_handle_and_refs() {
        let rec = sample(7);
        let mut whole = Vec::new();
        encode_dataset(&mut whole, &rec);
        let mut nodes = Vec::new();
        rec.encode_nodes(&mut nodes);
        assert_eq!(whole[24..], nodes[..]);
        let back = DatasetRecord::decode_nodes(&nodes).unwrap();
        assert_eq!(
            back,
            DatasetRecord {
                handle: 0,
                refs: 0,
                ..rec
            }
        );
        nodes.push(0);
        assert!(DatasetRecord::decode_nodes(&nodes).is_err());
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tmpdir("reopen");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(42)).unwrap();
            assert_eq!(store.charge(42, 0.5).unwrap(), 0.5);
            assert_eq!(store.charge(42, 0.25).unwrap(), 0.75);
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.datasets().len(), 1);
        assert_eq!(store.datasets().get(&42).unwrap(), &sample(42));
        assert_eq!(store.spent(42), 0.75);
    }

    #[test]
    fn checkpoint_then_reopen_is_identical_and_wal_is_empty() {
        let dir = tmpdir("checkpoint");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(1)).unwrap();
            store.put_dataset(&sample(2)).unwrap();
            store.charge(1, 1.5).unwrap();
            store.checkpoint().unwrap();
            assert_eq!(store.wal_len(), 0);
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.datasets().len(), 2);
        assert_eq!(store.spent(1), 1.5);
        assert_eq!(store.wal_len(), 0);
    }

    #[test]
    fn unprepare_drops_dataset_but_keeps_ledger() {
        let dir = tmpdir("refs");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(9)).unwrap();
            store.charge(9, 2.0).unwrap();
            store.set_refs(9, 0).unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert!(store.datasets().is_empty());
        assert_eq!(store.spent(9), 2.0, "budget survives unprepare");
    }

    #[test]
    fn torn_wal_tail_is_dropped_on_reopen() {
        let dir = tmpdir("torn");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(7)).unwrap();
            store.charge(7, 1.0).unwrap();
            // Tear the next charge's record in half mid-write. The
            // charge was never acknowledged, so losing it is correct.
            *store.policy_mut() = FailPolicy::new().with_fault_at(0, FaultKind::Torn);
            assert!(matches!(store.charge(7, 5.0), Err(StoreError::Injected(_))));
            // The wedged store refuses everything after the fault.
            assert!(matches!(store.charge(7, 0.1), Err(StoreError::Wedged)));
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.spent(7), 1.0);
        assert_eq!(store.datasets().len(), 1);
    }

    #[test]
    fn short_write_recovers_identically() {
        let dir = tmpdir("short");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(3)).unwrap();
            *store.policy_mut() = FailPolicy::new().with_fault_at(0, FaultKind::Short);
            assert!(store.put_dataset(&sample(4)).is_err());
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.datasets().len(), 1);
        assert!(store.datasets().contains_key(&3));
    }

    #[test]
    fn crash_between_rename_and_truncate_replays_idempotently() {
        let dir = tmpdir("rename");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(5)).unwrap();
            store.charge(5, 0.5).unwrap();
            store.policy_mut().arm_crash("checkpoint.rename");
            assert!(matches!(store.checkpoint(), Err(StoreError::Injected(_))));
        }
        // Snapshot now covers the WAL's records, and the WAL still
        // holds them: replay must skip them (idempotent by LSN).
        let store = Store::open(&path).unwrap();
        assert_eq!(store.spent(5), 0.5, "charge applied exactly once");
        assert_eq!(store.datasets().len(), 1);
    }

    #[test]
    fn crash_before_sync_never_loses_acknowledged_state() {
        let dir = tmpdir("presync");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(6)).unwrap();
            store.policy_mut().arm_crash("written.charge");
            assert!(store.charge(6, 9.0).is_err());
        }
        let store = Store::open(&path).unwrap();
        // The unacknowledged charge may or may not have reached disk
        // (over-counting is allowed); the acknowledged dataset must
        // have.
        assert_eq!(store.datasets().len(), 1);
        assert!(store.spent(6) == 0.0 || store.spent(6) == 9.0);
    }

    #[test]
    fn corrupt_snapshot_is_reported_not_misread() {
        let dir = tmpdir("corrupt");
        let path = dir.join("s.hcc");
        {
            let mut store = Store::open(&path).unwrap();
            store.put_dataset(&sample(8)).unwrap();
            store.checkpoint().unwrap();
        }
        // Flip one payload byte in a data page.
        let mut bytes = fs::read(&path).unwrap();
        let at = PAGE_SIZE + PAGE_HEADER + 4;
        bytes[at] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(Store::open(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn wal_records_reject_bit_flips() {
        let rec = encode_record(3, REC_CHARGE, &[1, 2, 3, 4]);
        assert!(decode_record(&rec).is_some());
        for i in 0..rec.len() {
            let mut bad = rec.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_record(&bad).is_none(),
                "flip at byte {i} went undetected"
            );
        }
        // Every strict prefix is a torn record.
        for end in 0..rec.len() {
            assert!(decode_record(&rec[..end]).is_none(), "prefix {end}");
        }
    }

    #[test]
    fn snapshot_round_trips_multi_page_payloads() {
        let mut big = sample(11);
        big.histograms[0] = (1..2000u64).map(|s| (s, s % 7 + 1)).collect();
        let mut datasets = BTreeMap::new();
        datasets.insert(big.handle, big.clone());
        let mut ledger = BTreeMap::new();
        ledger.insert(11u128, 1.25f64);
        let mut payload = Vec::new();
        encode_snapshot(&mut payload, &datasets, &ledger);
        assert!(payload.len() > PAGE_PAYLOAD, "needs multiple pages");
        let image = build_file_image(&payload, 17);
        let dir = tmpdir("pages");
        let path = dir.join("s.hcc");
        fs::write(&path, &image).unwrap();
        let (d2, l2, lsn) = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(d2.get(&11).unwrap(), &big);
        assert_eq!(l2.get(&11).copied(), Some(1.25));
        assert_eq!(lsn, 17);
    }
}
