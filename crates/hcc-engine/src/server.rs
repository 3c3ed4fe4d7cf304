//! TCP front end: serves the engine's job API over `std::net`.
//!
//! [`serve`] boots the event-driven reactor ([`crate::reactor`]): one
//! epoll thread multiplexes every connection and speaks the binary
//! framed protocol ([`crate::protocol::frame`]).
//! [`serve_reactor`](crate::serve_reactor) takes the admission and
//! transport knobs ([`ReactorConfig`]).

use std::io::{self, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use hcc_consistency::{HierarchicalCounts, TopDownConfig};
use hcc_hierarchy::{hierarchy_from_csv, Hierarchy};
use hcc_tables::CsvLoader;

use crate::protocol::{level_method, SubmitParams, MAX_BOUND};
use crate::reactor::ReactorConfig;
use crate::telemetry::{WireSnapshot, WireStats};
use crate::Engine;

/// A running TCP server; dropping the handle stops the reactor and
/// tears down its open connections.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Reactor wake pipe: one byte interrupts `epoll_wait`.
    wake: UnixStream,
    thread: Option<JoinHandle<()>>,
    wire: Arc<WireStats>,
}

impl ServerHandle {
    pub(crate) fn new(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        wake: UnixStream,
        thread: JoinHandle<()>,
        wire: Arc<WireStats>,
    ) -> Self {
        Self {
            addr,
            stop,
            wake,
            thread: Some(thread),
            wire,
        }
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the wire-level counters (connections, frames,
    /// bytes, backpressure). Always `Some`.
    pub fn wire_stats(&self) -> Option<WireSnapshot> {
        Some(self.wire.snapshot())
    }

    /// Stops the server thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_serving();
    }

    fn stop_serving(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = (&self.wake).write_all(&[1]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_serving();
    }
}

/// Binds `addr` and serves the engine through the epoll reactor with
/// the default [`ReactorConfig`] until the handle is shut down.
pub fn serve(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    crate::reactor::serve_reactor(engine, addr, ReactorConfig::default())
}

/// Parses the three CSV tables and aggregates the per-node true
/// views — the expensive load that `PREPARE` amortizes.
pub(crate) fn load_dataset(
    hierarchy_csv: &str,
    groups_csv: &str,
    entities_csv: &str,
) -> Result<(Arc<Hierarchy>, Arc<HierarchicalCounts>), String> {
    let (hierarchy, _) =
        hierarchy_from_csv(hierarchy_csv).map_err(|e| format!("hierarchy: {e}"))?;
    let mut loader = CsvLoader::new(&hierarchy);
    loader
        .load_groups(groups_csv)
        .map_err(|e| format!("groups: {e}"))?;
    loader
        .load_entities(entities_csv)
        .map_err(|e| format!("entities: {e}"))?;
    let db = loader.finish();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .map_err(|e| e.to_string())?;
    Ok((Arc::new(hierarchy), Arc::new(data)))
}

/// Builds the release configuration a request's parameters describe.
/// Runs before admission, so a refused request is never charged.
pub(crate) fn submit_config(params: &SubmitParams) -> Result<TopDownConfig, String> {
    if !(1..=MAX_BOUND).contains(&params.bound) {
        return Err(format!("bound {} is outside 1..={MAX_BOUND}", params.bound));
    }
    let method = level_method(&params.method, params.bound)?;
    Ok(TopDownConfig::new(params.epsilon).with_method(method))
}
