//! The privacy-budget ledger: everything the engine makes durable.
//!
//! Each Algorithm 1 release is ε-DP on its own, so a dataset's total
//! privacy loss over many releases is bounded by the sum of their ε
//! (sequential composition). [`Ledger`] checks the cap against that sum
//! as the durable store keeps it — its only copy, so a restart cannot
//! reset it — and owns dataset persistence and boot recovery. Accounts
//! are keyed by content digest and never removed: budget is spent
//! against the data, so it survives `UNPREPARE`, eviction and re-`PREPARE`.

use std::sync::Arc;

use hcc_consistency::HierarchicalCounts;
use hcc_core::CountOfCounts;
use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
use hcc_store::{DatasetRecord, Store, StoreError};

use crate::fingerprint::{dataset_fingerprint, Fingerprint};
use crate::job::EngineError;
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

/// Serializes a prepared dataset for the durable store: node names
/// and parent indices in node-id order, plus each node's histogram
/// run-length encoded as ascending `(size, count)` pairs.
fn dataset_record(
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

/// Rebuilds the in-memory dataset a [`dataset_record`] was taken
/// from. The inverse is exact — the caller verifies that by
/// recomputing the content fingerprint and comparing it to the
/// stored handle.
fn rebuild_dataset(rec: &DatasetRecord) -> Result<(Hierarchy, HierarchicalCounts), String> {
    let Some(root_name) = rec.names.first() else {
        return Err("dataset record has no nodes".to_string());
    };
    let n = rec.names.len();
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
    // The builder assigns sequential node ids (root = 0), so pushing
    // children in record order reproduces the original ids exactly.
    let mut builder = HierarchyBuilder::new(root_name.clone());
    let mut nodes = vec![Hierarchy::ROOT];
    for (off, (name, &parent)) in rec.names.iter().zip(rec.parents.iter()).skip(1).enumerate() {
        let i = off + 1;
        let parent_node = usize::try_from(parent)
            .ok()
            .filter(|&p| p < i)
            .and_then(|p| nodes.get(p).copied())
            .ok_or_else(|| {
                format!("dataset record node {i}: parent {parent} does not precede it")
            })?;
        nodes.push(builder.add_child(parent_node, name.clone()));
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
