//! The privacy-budget ledger: everything the engine makes durable.
//!
//! Each Algorithm 1 release is ε-DP on its own, so a dataset's total
//! privacy loss over many releases is bounded by the sum of their ε
//! (sequential composition). [`Ledger`] checks the cap against that sum
//! as the durable store keeps it — its only copy, so a restart cannot
//! reset it — and owns dataset persistence and boot recovery. Accounts
//! are keyed by content digest and never removed: budget is spent
//! against the data, so it survives `UNPREPARE`, eviction and re-`PREPARE`.

use std::collections::BTreeSet;
use std::sync::Arc;

use hcc_consistency::{HierarchicalCounts, MAX_GROUP_SIZE};
use hcc_core::CountOfCounts;
use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
use hcc_store::{DatasetRecord, Store, StoreError};

use crate::fingerprint::{dataset_fingerprint, Fingerprint};
use crate::job::EngineError;
use crate::protocol::MAX_DENSE_CELLS;
use crate::registry::{DatasetHandle, DatasetRegistry};

/// The cap and the store it is checked against, behind the engine's
/// `store`-ranked mutex, so a cap check and its WAL'd charge are one
/// atomic step.
pub(crate) struct Ledger {
    /// Per-account ε cap, `None` = unlimited (charges still recorded).
    cap: Option<f64>,
    store: Store,
}

impl Ledger {
    /// Boot recovery for [`crate::Engine::start_with_store`]: rebuilds
    /// every stored dataset into `registry` at its persisted reference
    /// count, refusing one whose bytes do not reproduce its handle.
    pub(crate) fn recover(
        cap: Option<f64>,
        store: Store,
        registry: &mut DatasetRegistry,
    ) -> Result<Ledger, EngineError> {
        let mut evicted = Vec::new();
        for rec in store.datasets().values() {
            let (hierarchy, data) = rebuild_dataset(rec).map_err(EngineError::StoreFailed)?;
            let recomputed = dataset_fingerprint(&hierarchy, &data);
            if recomputed.0 != rec.handle {
                return Err(EngineError::StoreFailed(format!(
                    "dataset ds-{:032x} reloaded with fingerprint {recomputed} — \
                     the recovered bytes do not reproduce the acknowledged handle",
                    rec.handle
                )));
            }
            let (_, dropped) = registry.insert_with_refs(
                DatasetHandle(recomputed),
                Arc::new(hierarchy),
                Arc::new(data),
                rec.refs,
            )?;
            evicted.extend(dropped);
        }
        // More durable datasets than registry capacity: the LRU bound
        // wins, and the drops are persisted like any runtime eviction.
        let mut ledger = Ledger { cap, store };
        ledger.drop_evicted(&evicted)?;
        Ok(ledger)
    }

    /// Refuses with [`EngineError::BudgetExhausted`] if `epsilon` would
    /// push the account past the cap, else WAL-appends and fsyncs the
    /// charge and returns the account's new total. Callers charge before
    /// drawing noise and never refund, so a crash after it over-counts.
    pub(crate) fn charge(
        &mut self,
        account: Fingerprint,
        epsilon: f64,
    ) -> Result<f64, EngineError> {
        let spent = self.spent(account);
        if let Some(cap) = self.cap {
            if spent + epsilon > cap {
                return Err(EngineError::BudgetExhausted {
                    handle: DatasetHandle(account),
                    spent,
                    cap,
                    requested: epsilon,
                });
            }
        }
        self.store.charge(account.0, epsilon).map_err(store_failed)
    }

    /// Cumulative ε charged against an account (0 if never charged).
    pub(crate) fn spent(&self, account: Fingerprint) -> f64 {
        self.store.spent(account.0)
    }

    /// Persists a registry insert: the whole dataset on its first
    /// reference, the new count on a repeat, and a drop for every
    /// handle the insert evicted.
    pub(crate) fn persist_dataset(
        &mut self,
        handle: DatasetHandle,
        refs: u64,
        hierarchy: &Hierarchy,
        data: &HierarchicalCounts,
        evicted: &[DatasetHandle],
    ) -> Result<(), EngineError> {
        if refs == 1 {
            let record = dataset_record(handle.0 .0, hierarchy, data, refs);
            check_record(&record).map_err(|e| {
                EngineError::StoreFailed(format!("dataset {handle} would not reload: {e}"))
            })?;
            self.store.put_dataset(&record).map_err(store_failed)?;
        } else {
            self.set_refs(handle, refs)?;
        }
        self.drop_evicted(evicted)
    }

    /// Persists a dataset's reference count; zero drops its record
    /// (its account survives).
    pub(crate) fn set_refs(&mut self, handle: DatasetHandle, refs: u64) -> Result<(), EngineError> {
        self.store.set_refs(handle.0 .0, refs).map_err(store_failed)
    }

    fn drop_evicted(&mut self, evicted: &[DatasetHandle]) -> Result<(), EngineError> {
        evicted.iter().try_for_each(|&ev| self.set_refs(ev, 0))
    }

    /// Folds the WAL into the snapshot. Best-effort: recovery replays
    /// the WAL regardless, so a failure here loses nothing.
    pub(crate) fn checkpoint(&mut self) {
        let _ = self.store.checkpoint();
    }
}

fn store_failed(e: StoreError) -> EngineError {
    EngineError::StoreFailed(e.to_string())
}

/// Serializes a prepared dataset: node names and parent indices in
/// node-id order, plus each node's histogram run-length encoded as
/// ascending `(size, count)` pairs. The store persists it whole; a
/// `PREPARE` or inline `SUBMIT` carries its node section
/// ([`encode_dataset`]).
pub(crate) fn dataset_record(
    handle: u128,
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    refs: u64,
) -> DatasetRecord {
    let n = hierarchy.num_nodes();
    let mut names = Vec::with_capacity(n);
    let mut parents = Vec::with_capacity(n);
    let mut histograms = Vec::with_capacity(n);
    for node in hierarchy.iter() {
        names.push(hierarchy.name(node).to_string());
        parents.push(match hierarchy.parent(node) {
            Some(p) => p.index() as u64,
            None => u64::MAX,
        });
        histograms.push(
            data.node(node)
                .as_slice()
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(size, &count)| (size as u64, count))
                .collect(),
        );
    }
    DatasetRecord {
        handle,
        names,
        parents,
        histograms,
        refs,
    }
}

/// The dataset section of a `PREPARE` or inline `SUBMIT` frame: the
/// node section of the dataset's store record.
pub(crate) fn encode_dataset(hierarchy: &Hierarchy, data: &HierarchicalCounts) -> Vec<u8> {
    let mut out = Vec::new();
    dataset_record(0, hierarchy, data, 0).encode_nodes(&mut out);
    out
}

/// Inverse of [`encode_dataset`] for bytes off the wire: decodes the
/// node section and rebuilds it through [`rebuild_dataset`].
pub(crate) fn decode_dataset(bytes: &[u8]) -> Result<(Hierarchy, HierarchicalCounts), String> {
    rebuild_dataset(&DatasetRecord::decode_nodes(bytes)?)
}

/// Rebuilds the in-memory dataset a [`dataset_record`] was taken
/// from, for boot recovery and for the wire alike. The inverse is
/// exact — boot recovery verifies that by recomputing the content
/// fingerprint and comparing it to the stored handle. Every rule of
/// [`check_record`] holds before any histogram is built, and the
/// built histograms must sum, child to parent.
pub(crate) fn rebuild_dataset(
    rec: &DatasetRecord,
) -> Result<(Hierarchy, HierarchicalCounts), String> {
    check_record(rec)?;
    // The builder assigns sequential node ids (root = 0), and
    // `check_record` has seen every parent precede its child, so
    // pushing children in record order reproduces the original ids.
    let root = rec.names.first().ok_or("dataset record has no nodes")?;
    let mut builder = HierarchyBuilder::new(root.clone());
    let mut nodes = vec![Hierarchy::ROOT];
    for (i, (name, &parent)) in rec.names.iter().zip(&rec.parents).enumerate().skip(1) {
        let parent = usize::try_from(parent)
            .ok()
            .and_then(|p| nodes.get(p).copied())
            .ok_or_else(|| {
                format!("dataset record node {i}: parent {parent} does not precede it")
            })?;
        nodes.push(builder.add_child(parent, name.clone()));
    }
    let hierarchy = builder.build();
    let hists = rec
        .histograms
        .iter()
        .map(|pairs| {
            let mut h = CountOfCounts::new();
            for &(size, count) in pairs {
                h.add_groups(size, count);
            }
            h
        })
        .collect();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, hists)
        .map_err(|e| format!("dataset record histograms are inconsistent: {e}"))?;
    Ok((hierarchy, data))
}

/// The shape a record must have before anything is built from it.
/// Peer bytes are untrusted, so each rule bounds what a decode can
/// cost or keeps out what the CSV parser could never produce:
///
/// - one name, parent and histogram per node; node 0 is the root, and
///   every other node's parent precedes it;
/// - names are unique and hold no `,`, `\r` or `\n` and no leading
///   or trailing whitespace (release rows write them verbatim);
/// - no group size exceeds [`MAX_GROUP_SIZE`], the limit a `DERIVE`
///   or `APPEND` edit is held to as well;
/// - the group and entity totals, summed over all nodes, fit a `u64`,
///   so no per-node total and no children's sum can wrap;
/// - the dense expansion, Σ over nodes of (largest size + 1) cells,
///   is at most [`MAX_DENSE_CELLS`].
///
/// [`Ledger::persist_dataset`] runs it too, so the store never holds
/// a record that boot recovery would refuse.
fn check_record(rec: &DatasetRecord) -> Result<(), String> {
    let n = rec.names.len();
    if n == 0 {
        return Err("dataset record has no nodes".to_string());
    }
    if rec.parents.len() != n || rec.histograms.len() != n {
        return Err(format!(
            "dataset record is ragged: {n} names, {} parents, {} histograms",
            rec.parents.len(),
            rec.histograms.len()
        ));
    }
    if rec.parents.first() != Some(&u64::MAX) {
        return Err("dataset record node 0 is not a root".to_string());
    }
    let mut seen = BTreeSet::new();
    let (mut groups, mut entities, mut cells) = (0u64, 0u64, 0u64);
    let overflow = || "dataset record counts overflow a u64".to_string();
    for (i, ((name, &parent), pairs)) in rec
        .names
        .iter()
        .zip(&rec.parents)
        .zip(&rec.histograms)
        .enumerate()
    {
        if i > 0 && parent >= i as u64 {
            return Err(format!(
                "dataset record node {i}: parent {parent} does not precede it"
            ));
        }
        if name.contains([',', '\r', '\n']) || name.trim() != name {
            return Err(format!(
                "dataset record node {i}: {name:?} is not a region name \
                 (no commas, line breaks, or surrounding whitespace)"
            ));
        }
        if !seen.insert(name.as_str()) {
            return Err(format!("dataset record names region {name:?} twice"));
        }
        let mut largest = None;
        for &(size, count) in pairs {
            if size > MAX_GROUP_SIZE {
                return Err(format!(
                    "dataset record node {i}: group size {size} exceeds {MAX_GROUP_SIZE}"
                ));
            }
            groups = groups.checked_add(count).ok_or_else(overflow)?;
            let people = size.checked_mul(count).ok_or_else(overflow)?;
            entities = entities.checked_add(people).ok_or_else(overflow)?;
            if count > 0 {
                largest = largest.max(Some(size));
            }
        }
        cells += largest.map_or(0, |s| s + 1);
        if cells > MAX_DENSE_CELLS {
            return Err(format!(
                "dataset record expands to more than {MAX_DENSE_CELLS} histogram cells"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three levels, six nodes: `r` over `a` (`a1`, `a2`) and `b` (`b1`).
    fn sample() -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("r");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let bb = b.add_child(Hierarchy::ROOT, "b");
        let leaves = [
            (
                b.add_child(a, "a1"),
                CountOfCounts::from_group_sizes([1, 1, 3]),
            ),
            (b.add_child(a, "a2"), CountOfCounts::from_group_sizes([2])),
            (
                b.add_child(bb, "b1"),
                CountOfCounts::from_group_sizes([1, 4, 4]),
            ),
        ];
        let hierarchy = b.build();
        let data = HierarchicalCounts::from_leaves(&hierarchy, leaves.to_vec()).unwrap();
        (hierarchy, data)
    }

    #[test]
    fn the_wire_section_round_trips_to_the_same_fingerprint() {
        let (hierarchy, data) = sample();
        let bytes = encode_dataset(&hierarchy, &data);
        let (h2, d2) = decode_dataset(&bytes).unwrap();
        assert_eq!(h2, hierarchy);
        assert_eq!(
            dataset_fingerprint(&h2, &d2),
            dataset_fingerprint(&hierarchy, &data)
        );
    }

    /// Peer bytes never panic the decoder: every truncation and every
    /// top-bit flip of a valid section is refused, and every other
    /// single-byte value at every offset decodes or errs, never
    /// panics. (A changed name byte can spell another valid name, so
    /// only the flips that leave ASCII are sure to be refused.)
    #[test]
    fn every_truncation_and_byte_flip_is_refused_never_panics() {
        let (hierarchy, data) = sample();
        let valid = encode_dataset(&hierarchy, &data);
        for cut in 0..valid.len() {
            assert!(decode_dataset(&valid[..cut]).is_err(), "prefix of {cut}");
        }
        for at in 0..valid.len() {
            let mut bytes = valid.clone();
            for v in 0..=u8::MAX {
                bytes[at] = v;
                let _ = decode_dataset(&bytes);
            }
            bytes[at] = valid[at] ^ 0x80;
            assert!(decode_dataset(&bytes).is_err(), "byte {at} flipped");
        }
    }

    /// What boot recovery would refuse is refused before it is
    /// written: a dataset built in-process may hold a group past
    /// `MAX_GROUP_SIZE`, and such a dataset must not make the store
    /// unbootable.
    #[test]
    fn a_dataset_boot_recovery_would_refuse_is_never_persisted() {
        let dir = std::env::temp_dir().join(format!("hcc-ledger-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Store::open(dir.join("s.hcc")).unwrap();
        let mut ledger = Ledger::recover(None, store, &mut DatasetRegistry::new(4)).unwrap();
        let mut b = HierarchyBuilder::new("r");
        let leaf = b.add_child(Hierarchy::ROOT, "a");
        let hierarchy = b.build();
        let big = CountOfCounts::from_group_sizes([MAX_GROUP_SIZE + 1]);
        let data = HierarchicalCounts::from_leaves(&hierarchy, vec![(leaf, big)]).unwrap();
        let handle = DatasetHandle(dataset_fingerprint(&hierarchy, &data));
        let err = ledger
            .persist_dataset(handle, 1, &hierarchy, &data, &[])
            .unwrap_err();
        assert!(err.to_string().contains("would not reload"), "{err}");
        assert_eq!(ledger.store.wal_len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ragged_records_are_refused() {
        let (hierarchy, data) = sample();
        let mut rec = dataset_record(0, &hierarchy, &data, 0);
        rec.parents.pop();
        let err = rebuild_dataset(&rec).unwrap_err();
        assert!(err.contains("ragged"), "{err}");
        rec.parents.clear();
        rec.names.clear();
        rec.histograms.clear();
        let err = rebuild_dataset(&rec).unwrap_err();
        assert!(err.contains("no nodes"), "{err}");
    }
}
