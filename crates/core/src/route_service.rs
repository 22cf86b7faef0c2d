//! The epoch-snapshot route-query plane: lock-free concurrent route lookups over
//! immutable snapshots of the network's limited-global fault information.
//!
//! The paper's central claim is that a node can resolve a route from the block and
//! boundary information it *holds* — no live consultation of the network required.
//! This module turns that into a service shape: the stepped [`LgfiNetwork`] is the
//! **control plane** (faults occur, labeling/identification/boundary construction
//! converge, information propagates), and on every observable information change it
//! publishes an immutable [`EpochSnapshot`] — node statuses, identified blocks, and
//! the visible-boundary CSR arena plus the mesh — into an
//! [`EpochCell`].  Any number of [`RouteReader`]s then resolve
//! source→dest queries against their checked-out epoch through a per-reader
//! recycled [`ProbeEngine`]:
//!
//! * the warm per-query path is **lock-free and allocation-free**: one atomic epoch
//!   load (the staleness check) and one Algorithm-3 probe drive over borrowed
//!   snapshot slices (enforced by `tests/alloc_regression.rs` and the `ALLOC-001`
//!   hot-path audit);
//! * a query started on epoch N completes coherently on N even if the control
//!   plane publishes N+1 mid-flight — the reader's `Arc` keeps its snapshot alive;
//! * epochs observed by a reader are monotone, and a snapshot-resolved route is
//!   bit-identical to a route resolved against the live network frozen at the same
//!   epoch (`tests/route_service_equivalence.rs`);
//! * readers need **no determinism knob**: unlike the write-side planes (labeling
//!   rounds, probe decisions, traffic cycles) there is no merge order to fix —
//!   every query is a pure function of (snapshot, router, source, dest), so any
//!   interleaving of any number of readers yields the same per-query outcomes.
//!
//! Publication is the sanctioned cold path: the publisher keeps a short recycle
//! list of retired snapshots and refills any one no reader still holds, so
//! steady-state fault churn does not grow memory, and a reader that lags an epoch
//! or two behind neither forces a fresh allocation nor frees a snapshot on its
//! query path.
//!
//! ```
//! use lgfi_core::network::{LgfiNetwork, NetworkConfig};
//! use lgfi_core::routing::LgfiRouter;
//! use lgfi_sim::FaultPlan;
//! use lgfi_topology::{coord, Mesh};
//!
//! let mesh = Mesh::cubic(8, 2);
//! let plan = FaultPlan::static_faults(&[mesh.id_of(&coord![3, 3]), mesh.id_of(&coord![4, 4]),
//!                                       mesh.id_of(&coord![3, 4]), mesh.id_of(&coord![4, 3])]);
//! let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
//! let service = net.route_service();
//! for _ in 0..60 { net.run_step(); }          // control plane: information converges + propagates
//! let mut reader = service.reader();           // query plane: any number of these, any thread
//! let q = reader.resolve(&LgfiRouter::new(), mesh.id_of(&coord![0, 0]),
//!                        mesh.id_of(&coord![7, 7]), 10_000);
//! assert!(q.outcome.delivered());
//! assert_eq!(q.epoch, service.epoch());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lgfi_sim::EpochCell;
use lgfi_topology::{Mesh, NodeId};

use crate::block::FaultyBlock;
use crate::boundary::BoundaryMap;
use crate::routing::{CsrBoundary, ProbeEngine, ProbeOutcome, RouteEnv, Router};
use crate::status::NodeStatus;

#[cfg(doc)]
use crate::network::LgfiNetwork;

/// An immutable, self-contained copy of everything a routing decision consults,
/// frozen at one information epoch: node statuses, identified faulty blocks, the
/// visible-boundary CSR arena, and the mesh (dims + strides for neighbor fill).
///
/// Snapshots are shared read-only behind `Arc`s; nothing in them can change after
/// publication, which is the whole coherence story of the query plane.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    step: u64,
    round: u64,
    mesh: Mesh,
    statuses: Vec<NodeStatus>,
    blocks: Vec<FaultyBlock>,
    /// The boundary entries visible at each node.
    boundary: BoundaryMap,
}

impl EpochSnapshot {
    /// An empty snapshot over `mesh` (no faults, no visible information), epoch 0.
    fn empty(mesh: &Mesh) -> Self {
        EpochSnapshot {
            epoch: 0,
            step: 0,
            round: 0,
            mesh: mesh.clone(),
            statuses: Vec::new(),
            blocks: Vec::new(),
            boundary: BoundaryMap::default(),
        }
    }

    /// Refills this snapshot's buffers from the live network's environment,
    /// keeping their capacity (the recycled warm path of republication).  The
    /// live arena's visible entries are packed into the snapshot's
    /// [`BoundaryMap`].
    fn fill(&mut self, epoch: u64, step: u64, round: u64, env: &RouteEnv<'_>) {
        self.epoch = epoch;
        self.step = step;
        self.round = round;
        self.statuses.clear();
        self.statuses.extend_from_slice(env.statuses);
        self.blocks.clear();
        self.blocks.extend_from_slice(env.blocks);
        self.boundary.refill(env.boundary);
    }

    /// The epoch number this snapshot was published at (0 = the snapshot taken when
    /// the service was attached).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The network step the snapshot was taken at.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The absolute information round the snapshot was taken at.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Node statuses at this epoch.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// The identified faulty blocks at this epoch.
    pub fn blocks(&self) -> &[FaultyBlock] {
        &self.blocks
    }

    /// The visible-boundary arena as a borrowed CSR view.
    pub fn boundary(&self) -> CsrBoundary<'_> {
        self.boundary.view()
    }

    /// The snapshot as the environment a route query reads.
    pub fn env(&self) -> RouteEnv<'_> {
        RouteEnv {
            statuses: &self.statuses,
            blocks: &self.blocks,
            boundary: self.boundary.view(),
        }
    }

    /// Total boundary entries visible across all nodes at this epoch.
    pub fn visible_entries(&self) -> usize {
        self.boundary.total_entries()
    }

    /// Approximate heap footprint of the snapshot's buffers in bytes (capacities ×
    /// element sizes; the blocks' member-node lists are not counted).
    pub fn heap_bytes(&self) -> u64 {
        let statuses = self.statuses.capacity() * std::mem::size_of::<NodeStatus>();
        let blocks = self.blocks.capacity() * std::mem::size_of::<FaultyBlock>();
        (statuses + blocks + self.boundary.heap_bytes()) as u64
    }

    /// [`EpochSnapshot::heap_bytes`] per mesh node — the memory-accounting figure of
    /// the analysis table (the paper's limited-information claim, in bytes).
    pub fn bytes_per_node(&self) -> f64 {
        self.heap_bytes() as f64 / self.mesh.node_count() as f64
    }
}

/// Shared state between the publisher and every service handle / reader.
#[derive(Debug)]
struct Shared {
    cell: EpochCell<EpochSnapshot>,
    /// Publishes so far, including the initial attach snapshot.
    epochs_published: AtomicU64,
    /// Publishes that refilled a recycled snapshot's buffers.
    buffers_reused: AtomicU64,
    /// Heap footprint of the most recently published snapshot.
    snapshot_heap_bytes: AtomicU64,
}

/// Counters of the query plane's publication side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteServiceStats {
    /// The current epoch number.
    pub epoch: u64,
    /// Snapshots published so far, including the initial attach snapshot (so on a
    /// static plan `epochs_published == info_changes + 1`).
    pub epochs_published: u64,
    /// Publishes that refilled a retired snapshot's buffers instead of allocating
    /// fresh ones.
    pub buffers_reused: u64,
    /// Approximate heap bytes held by the current snapshot.
    pub snapshot_heap_bytes: u64,
    /// Mesh nodes (the denominator of [`RouteServiceStats::bytes_per_node`]).
    pub nodes: usize,
}

impl RouteServiceStats {
    /// Snapshot heap bytes per mesh node.
    pub fn bytes_per_node(&self) -> f64 {
        self.snapshot_heap_bytes as f64 / self.nodes as f64
    }
}

/// One resolved route query: the epoch it was coherently resolved on and the
/// Algorithm-3 outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedQuery {
    /// The epoch of the snapshot the whole query ran against.
    pub epoch: u64,
    /// The probe outcome (status, steps, detours, ...).
    pub outcome: ProbeOutcome,
}

/// A cloneable, thread-safe handle to the query plane.  Handles mint
/// [`RouteReader`]s and expose the current epoch and publication stats; the
/// publishing side stays with the owning [`LgfiNetwork`].
#[derive(Debug, Clone)]
pub struct RouteService {
    shared: Arc<Shared>,
}

impl RouteService {
    /// The current epoch number (lock-free).
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Checks out the latest snapshot (cold path: takes the publish lock for the
    /// duration of an `Arc` clone).
    pub fn latest(&self) -> Arc<EpochSnapshot> {
        self.shared.cell.latest().1
    }

    /// Creates a new reader with its own recycled [`ProbeEngine`], checked out at
    /// the current epoch.  Readers are independent: hand one to each query thread.
    pub fn reader(&self) -> RouteReader {
        let (epoch, snapshot) = self.shared.cell.latest();
        RouteReader {
            shared: Arc::clone(&self.shared),
            epoch,
            snapshot,
            engine: ProbeEngine::new(),
        }
    }

    /// Publication-side counters.
    pub fn stats(&self) -> RouteServiceStats {
        let (epoch, snapshot) = self.shared.cell.latest();
        RouteServiceStats {
            epoch,
            epochs_published: self.shared.epochs_published.load(Ordering::Relaxed),
            buffers_reused: self.shared.buffers_reused.load(Ordering::Relaxed),
            snapshot_heap_bytes: self.shared.snapshot_heap_bytes.load(Ordering::Relaxed),
            nodes: snapshot.mesh.node_count(),
        }
    }
}

/// A per-thread route resolver over the query plane: a cached snapshot `Arc`, the
/// lock-free epoch staleness check, and a recycled [`ProbeEngine`] so warm queries
/// never allocate.
#[derive(Debug)]
pub struct RouteReader {
    shared: Arc<Shared>,
    epoch: u64,
    snapshot: Arc<EpochSnapshot>,
    engine: ProbeEngine,
}

impl RouteReader {
    /// The epoch this reader currently has checked out.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot this reader currently has checked out.
    pub fn snapshot(&self) -> &EpochSnapshot {
        &self.snapshot
    }

    /// Moves to the latest epoch if the control plane has published since this
    /// reader last looked; returns `true` if the checkout changed.  The
    /// already-current case is one atomic load — no lock, no allocation.
    pub fn refresh(&mut self) -> bool {
        self.shared
            .cell
            .refresh_into(&mut self.epoch, &mut self.snapshot)
    }

    /// Resolves one source→dest query at the latest epoch: refreshes the checkout,
    /// then drives one Algorithm-3 probe against the (immutable) snapshot.  The
    /// whole query runs coherently on the epoch observed at its start even if the
    /// control plane publishes mid-flight.
    pub fn resolve(
        &mut self,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> RoutedQuery {
        self.refresh();
        self.resolve_pinned(router, source, dest, max_steps)
    }

    /// Resolves one query on the *currently checked-out* epoch without refreshing —
    /// for callers that batch many queries against one coherent epoch and refresh
    /// explicitly between batches.
    pub fn resolve_pinned(
        &mut self,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> RoutedQuery {
        let snap = &*self.snapshot;
        let outcome = self
            .engine
            .route(&snap.mesh, &snap.env(), router, source, dest, max_steps);
        RoutedQuery {
            epoch: snap.epoch,
            outcome,
        }
    }
}

/// Retired snapshots a [`RoutePublisher`] keeps for reuse: with `k` readers each
/// holding a different retired epoch, `k + 1` slots still leave one free.
const RECYCLE_SLOTS: usize = 4;

/// The publishing side of the query plane, owned by the [`LgfiNetwork`] it is
/// attached to.  Retired snapshots go onto a short recycle list, and a publish
/// refills any one of them that no reader holds any more.
#[derive(Debug)]
pub(crate) struct RoutePublisher {
    shared: Arc<Shared>,
    /// Recently retired snapshots, oldest first, at most [`RECYCLE_SLOTS`]; one is
    /// reclaimed via [`Arc::try_unwrap`] once no reader holds it.  While the list
    /// holds a snapshot a reader drops its checkout without freeing it.
    retired: Vec<Arc<EpochSnapshot>>,
    /// The epoch number the next publish will carry (the cell assigns the same
    /// sequence; kept here so the snapshot can embed its own epoch).
    next_epoch: u64,
    /// The network's visible-arena generation (`vis_gen`) the last published
    /// snapshot copied — the unified dirty flag of the publish seam.
    published_gen: u64,
}

impl RoutePublisher {
    /// Builds the initial epoch-0 snapshot from the live state and the shared cell
    /// around it.
    pub(crate) fn attach(mesh: &Mesh, step: u64, round: u64, env: &RouteEnv<'_>) -> Self {
        let mut snapshot = EpochSnapshot::empty(mesh);
        snapshot.fill(0, step, round, env);
        let heap_bytes = snapshot.heap_bytes();
        let shared = Arc::new(Shared {
            cell: EpochCell::new(Arc::new(snapshot)),
            epochs_published: AtomicU64::new(1),
            buffers_reused: AtomicU64::new(0),
            snapshot_heap_bytes: AtomicU64::new(heap_bytes),
        });
        RoutePublisher {
            shared,
            retired: Vec::with_capacity(RECYCLE_SLOTS),
            next_epoch: 1,
            published_gen: 0,
        }
    }

    /// The arena generation the last published snapshot copied.
    pub(crate) fn published_gen(&self) -> u64 {
        self.published_gen
    }

    /// Records the arena generation just published.
    pub(crate) fn set_published_gen(&mut self, gen: u64) {
        self.published_gen = gen;
    }

    /// A cloneable service handle over this publisher's cell.
    pub(crate) fn handle(&self) -> RouteService {
        RouteService {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Publishes a new epoch from the live network state.  Cold path by contract:
    /// runs once per information change, never per query, and reuses a retired
    /// snapshot's buffers when the readers have released one.
    pub(crate) fn publish(&mut self, mesh: &Mesh, step: u64, round: u64, env: &RouteEnv<'_>) {
        let free = self.retired.iter().position(|s| Arc::strong_count(s) == 1);
        let mut snapshot = match free.map(|i| Arc::try_unwrap(self.retired.remove(i))) {
            Some(Ok(retired)) => {
                self.shared.buffers_reused.fetch_add(1, Ordering::Relaxed);
                retired
            }
            // Readers hold every retired snapshot (or this is the first
            // republish): build fresh buffers.
            _ => EpochSnapshot::empty(mesh),
        };
        snapshot.fill(self.next_epoch, step, round, env);
        self.shared
            .snapshot_heap_bytes
            .store(snapshot.heap_bytes(), Ordering::Relaxed);
        let retired = self.shared.cell.publish(Arc::new(snapshot));
        debug_assert_eq!(self.shared.cell.epoch(), self.next_epoch);
        self.next_epoch += 1;
        self.shared.epochs_published.fetch_add(1, Ordering::Relaxed);
        if self.retired.len() == RECYCLE_SLOTS {
            // Every slot is held by a reader: the oldest is left to its holders.
            self.retired.remove(0);
        }
        self.retired.push(retired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LgfiNetwork, NetworkConfig};
    use crate::routing::LgfiRouter;
    use lgfi_sim::{FaultEvent, FaultPlan};
    use lgfi_topology::coord;

    fn stabilized_net() -> (Mesh, LgfiNetwork, RouteService) {
        let mesh = Mesh::cubic(10, 2);
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        let service = net.route_service();
        for _ in 0..60 {
            net.run_step();
        }
        (mesh, net, service)
    }

    #[test]
    fn snapshot_reflects_live_state() {
        let (mesh, net, service) = stabilized_net();
        let snap = service.latest();
        assert_eq!(snap.statuses(), net.statuses());
        assert_eq!(snap.blocks(), net.blocks().blocks());
        assert_eq!(snap.mesh().node_count(), mesh.node_count());
        assert!(snap.visible_entries() > 0);
        assert!(snap.heap_bytes() > 0);
        assert!(snap.bytes_per_node() > 0.0);
        assert_eq!(snap.epoch(), service.epoch());
    }

    #[test]
    fn reader_resolves_and_reports_epoch() {
        let (mesh, _net, service) = stabilized_net();
        let mut reader = service.reader();
        let q = reader.resolve(
            &LgfiRouter::new(),
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            10_000,
        );
        assert!(q.outcome.delivered());
        assert_eq!(q.epoch, service.epoch());
        assert_eq!(reader.epoch(), service.epoch());
    }

    #[test]
    fn pinned_reader_stays_on_its_epoch_until_refreshed() {
        let (mesh, mut net, service) = stabilized_net();
        let mut reader = service.reader();
        let pinned_epoch = reader.epoch();
        // New disturbance: the control plane publishes new epochs.
        let step = net.step();
        net.run_step_with(&[FaultEvent::fail(step, mesh.id_of(&coord![7, 7]))]);
        for _ in 0..40 {
            net.run_step();
        }
        assert!(service.epoch() > pinned_epoch);
        let q = reader.resolve_pinned(
            &LgfiRouter::new(),
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            10_000,
        );
        assert_eq!(q.epoch, pinned_epoch, "pinned query stays on its epoch");
        assert!(reader.refresh());
        assert_eq!(reader.epoch(), service.epoch());
    }

    #[test]
    fn stats_count_publishes_and_reuse() {
        let (_mesh, mut net, service) = stabilized_net();
        let stats = service.stats();
        assert_eq!(stats.epoch, service.epoch());
        assert_eq!(stats.epochs_published, service.epoch() + 1);
        assert!(stats.snapshot_heap_bytes > 0);
        assert!(stats.bytes_per_node() > 0.0);
        // With no reader holding old snapshots, republishes recycle the spare.
        let before = service.stats().buffers_reused;
        let mesh = net.mesh().clone();
        for node in [coord![1, 8], coord![8, 1], coord![2, 7]] {
            let step = net.step();
            net.run_step_with(&[FaultEvent::fail(step, mesh.id_of(&node))]);
            for _ in 0..30 {
                net.run_step();
            }
        }
        assert!(service.stats().buffers_reused > before);
    }
}
