//! The prepared-dataset registry: load once, serve many.
//!
//! The paper's evaluation (§6) is built from ε-sweeps and repeated
//! releases over the *same* hierarchy + group table, yet a naive
//! server re-parses the CSVs and re-aggregates the per-node true
//! views on every submission — the dominant cost once the hierarchy
//! is large. Classic database practice (prepared statements, shared
//! scans) says to hoist that work: `PREPARE` loads the tables once,
//! computes the per-node true views, and registers them under a
//! **content-addressed handle**; submissions then reference the
//! handle and skip parsing and aggregation entirely, and the
//! result-cache fingerprint collapses to a cheap (handle, config,
//! seed) key.
//!
//! Handles are the [`dataset_fingerprint`](crate::dataset_fingerprint)
//! of the loaded data, so preparing the same tables twice yields the
//! *same* handle (and bumps a reference count) instead of a duplicate
//! entry. Entries are ref-counted — `UNPREPARE` decrements and the
//! entry is dropped at zero — under an LRU capacity bound: when the
//! bound is exceeded the least-recently-used entry is evicted even if
//! still referenced (the registry caps server memory; clients holding
//! an evicted handle get a distinguishable error telling them to
//! re-prepare). Eviction also discards the entry's reference ledger:
//! re-preparing a previously evicted handle starts it back at one
//! reference, so every client that held the handle before the
//! eviction must re-prepare (not merely keep submitting) to count
//! itself again.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use hcc_consistency::HierarchicalCounts;
use hcc_hierarchy::Hierarchy;

use crate::fingerprint::Fingerprint;
use crate::job::EngineError;

/// How many evicted handles are remembered so that a stale client
/// gets "evicted, re-prepare" instead of "unknown handle".
const MAX_TOMBSTONES: usize = 1024;

/// Content-addressed handle of a prepared dataset: the
/// [`dataset_fingerprint`](crate::dataset_fingerprint) of its
/// hierarchy + per-node histograms, rendered as `ds-<32 hex digits>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetHandle(pub Fingerprint);

impl std::fmt::Display for DatasetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ds-{}", self.0)
    }
}

impl std::str::FromStr for DatasetHandle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix("ds-")
            .filter(|hex| hex.len() == 32)
            .and_then(|hex| u128::from_str_radix(hex, 16).ok())
            .map(|bits| DatasetHandle(Fingerprint(bits)))
            .ok_or_else(|| format!("malformed dataset handle {s:?} (expected ds-<32 hex>)"))
    }
}

/// A dataset held by the registry: the hierarchy and the aggregated
/// per-node true views, shared via [`Arc`] with every in-flight job
/// that references them.
struct Entry {
    hierarchy: Arc<Hierarchy>,
    data: Arc<HierarchicalCounts>,
    /// `PREPARE` count minus `UNPREPARE` count.
    refs: u64,
}

/// Ref-counted, LRU-bounded map from [`DatasetHandle`] to prepared
/// dataset.
pub struct DatasetRegistry {
    capacity: usize,
    /// Ordered by handle so any iteration over entries (wire listings,
    /// logs) is deterministic; LRU recency lives in `order`.
    entries: BTreeMap<DatasetHandle, Entry>,
    /// Front = least recently used.
    order: VecDeque<DatasetHandle>,
    /// Recently evicted handles, oldest first (bounded).
    tombstones: VecDeque<DatasetHandle>,
}

impl DatasetRegistry {
    /// A registry holding at most `capacity` datasets; `0` disables
    /// preparation entirely.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            tombstones: VecDeque::new(),
        }
    }

    fn touch(&mut self, handle: DatasetHandle) {
        if let Some(pos) = self.order.iter().position(|&h| h == handle) {
            self.order.remove(pos);
        }
        self.order.push_back(handle);
    }

    fn bury(&mut self, handle: DatasetHandle) {
        self.tombstones.push_back(handle);
        while self.tombstones.len() > MAX_TOMBSTONES {
            self.tombstones.pop_front();
        }
    }

    /// Registers a dataset under `handle` (one more reference if the
    /// identical content is already prepared), evicting the
    /// least-recently-used entry beyond capacity. Returns the entry's
    /// reference count after this insert plus every handle the LRU
    /// bound evicted to make room — the caller persists both.
    ///
    /// Handles are FNV-1a digests, which are not collision-resistant
    /// against adversarial inputs — so a repeat preparation is only
    /// counted as a reference after verifying the stored content
    /// actually equals the new content; a crafted collision is
    /// rejected instead of silently serving the older dataset under
    /// the forged handle.
    pub fn insert(
        &mut self,
        handle: DatasetHandle,
        hierarchy: Arc<Hierarchy>,
        data: Arc<HierarchicalCounts>,
    ) -> Result<(u64, Vec<DatasetHandle>), EngineError> {
        self.insert_with_refs(handle, hierarchy, data, 1)
    }

    /// [`DatasetRegistry::insert`] with an explicit starting reference
    /// count — the boot-reload path restores handles at the count the
    /// durable store recorded, not at one.
    pub fn insert_with_refs(
        &mut self,
        handle: DatasetHandle,
        hierarchy: Arc<Hierarchy>,
        data: Arc<HierarchicalCounts>,
        refs: u64,
    ) -> Result<(u64, Vec<DatasetHandle>), EngineError> {
        if self.capacity == 0 {
            return Err(EngineError::RegistryDisabled);
        }
        let refs_now = if let Some(entry) = self.entries.get_mut(&handle) {
            if *entry.hierarchy != *hierarchy || *entry.data != *data {
                return Err(EngineError::DatasetCollision(handle));
            }
            entry.refs += refs;
            entry.refs
        } else {
            self.entries.insert(
                handle,
                Entry {
                    hierarchy,
                    data,
                    refs,
                },
            );
            // A re-prepared handle is live again, not evicted.
            self.tombstones.retain(|&h| h != handle);
            refs
        };
        self.touch(handle);
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            if let Some(lru) = self.order.pop_front() {
                self.entries.remove(&lru);
                self.bury(lru);
                evicted.push(lru);
            }
        }
        Ok((refs_now, evicted))
    }

    /// Resolves a handle to its dataset, refreshing its recency.
    pub fn get(
        &mut self,
        handle: DatasetHandle,
    ) -> Result<(Arc<Hierarchy>, Arc<HierarchicalCounts>), EngineError> {
        if let Some(entry) = self.entries.get(&handle) {
            let out = (Arc::clone(&entry.hierarchy), Arc::clone(&entry.data));
            self.touch(handle);
            return Ok(out);
        }
        Err(self.missing(handle))
    }

    /// The reference count `handle` holds, without touching recency.
    pub(crate) fn refs(&self, handle: DatasetHandle) -> Result<u64, EngineError> {
        self.entries
            .get(&handle)
            .map(|entry| entry.refs)
            .ok_or_else(|| self.missing(handle))
    }

    /// The error for a handle with no entry.
    fn missing(&self, handle: DatasetHandle) -> EngineError {
        if self.tombstones.contains(&handle) {
            EngineError::DatasetEvicted(handle)
        } else {
            EngineError::UnknownDataset(handle)
        }
    }

    /// Drops one reference, removing the entry when none remain.
    /// Returns the number of references still held.
    pub fn release(&mut self, handle: DatasetHandle) -> Result<u64, EngineError> {
        let Some(entry) = self.entries.get_mut(&handle) else {
            return Err(self.missing(handle));
        };
        entry.refs -= 1;
        let remaining = entry.refs;
        if remaining == 0 {
            self.entries.remove(&handle);
            self.order.retain(|&h| h != handle);
            // Fully unprepared is *not* evicted: a later lookup is an
            // unknown handle, matching an explicit client decision.
        }
        Ok(remaining)
    }

    /// Number of datasets currently registered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::HierarchyBuilder;

    fn dataset(tag: u64) -> (Arc<Hierarchy>, Arc<HierarchicalCounts>) {
        let mut b = HierarchyBuilder::new("root");
        let leaf = b.add_child(Hierarchy::ROOT, format!("leaf{tag}"));
        let h = Arc::new(b.build());
        let d = Arc::new(
            HierarchicalCounts::from_leaves(
                &h,
                vec![(leaf, CountOfCounts::from_group_sizes([1, tag + 1]))],
            )
            .unwrap(),
        );
        (h, d)
    }

    fn handle(tag: u64) -> DatasetHandle {
        DatasetHandle(Fingerprint(u128::from(tag)))
    }

    #[test]
    fn handle_display_round_trips() {
        let h = DatasetHandle(Fingerprint(0xdead_beef));
        let s = h.to_string();
        assert!(s.starts_with("ds-"), "{s}");
        assert_eq!(s.parse::<DatasetHandle>().unwrap(), h);
        assert!("ds-xyz".parse::<DatasetHandle>().is_err());
        assert!("job-7".parse::<DatasetHandle>().is_err());
        assert!("ds-1234".parse::<DatasetHandle>().is_err(), "length check");
    }

    #[test]
    fn repeat_prepare_refcounts_one_entry() {
        let mut r = DatasetRegistry::new(4);
        let (h, d) = dataset(0);
        r.insert(handle(1), Arc::clone(&h), Arc::clone(&d)).unwrap();
        r.insert(handle(1), h, d).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.release(handle(1)).unwrap(), 1);
        assert!(r.get(handle(1)).is_ok(), "still one reference");
        assert_eq!(r.release(handle(1)).unwrap(), 0);
        assert!(
            matches!(r.get(handle(1)), Err(EngineError::UnknownDataset(_))),
            "fully unprepared handles are unknown, not evicted"
        );
    }

    #[test]
    fn lru_eviction_leaves_a_tombstone() {
        let mut r = DatasetRegistry::new(2);
        for tag in 1..=2 {
            let (h, d) = dataset(tag);
            r.insert(handle(tag), h, d).unwrap();
        }
        // Touch 1 so 2 becomes the LRU.
        r.get(handle(1)).unwrap();
        let (h, d) = dataset(3);
        r.insert(handle(3), h, d).unwrap();
        assert_eq!(r.len(), 2);
        assert!(matches!(
            r.get(handle(2)),
            Err(EngineError::DatasetEvicted(_))
        ));
        assert!(matches!(
            r.release(handle(2)),
            Err(EngineError::DatasetEvicted(_))
        ));
        assert!(r.get(handle(1)).is_ok());
        assert!(r.get(handle(3)).is_ok());
        // Re-preparing the evicted handle resurrects it.
        let (h, d) = dataset(2);
        r.insert(handle(2), h, d).unwrap();
        assert!(r.get(handle(2)).is_ok());
    }

    #[test]
    fn forged_handle_collision_is_rejected() {
        // FNV-1a collisions are constructible by an adversary; the
        // registry must refuse to alias different content under one
        // handle instead of silently serving the older dataset.
        let mut r = DatasetRegistry::new(4);
        let (h, d) = dataset(0);
        r.insert(handle(1), h, d).unwrap();
        let (h2, d2) = dataset(9);
        assert!(matches!(
            r.insert(handle(1), h2, d2),
            Err(EngineError::DatasetCollision(_))
        ));
        // The original content is untouched and still singly held.
        assert!(r.get(handle(1)).is_ok());
        assert_eq!(r.release(handle(1)).unwrap(), 0);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut r = DatasetRegistry::new(0);
        let (h, d) = dataset(0);
        assert!(matches!(
            r.insert(handle(1), h, d),
            Err(EngineError::RegistryDisabled)
        ));
        assert!(r.is_empty());
    }
}
