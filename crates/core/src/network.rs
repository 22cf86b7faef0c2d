//! The dynamic network: labeling, identification, boundary construction and routing
//! *hand-in-hand* (Figure 7).
//!
//! [`LgfiNetwork`] executes the step model of Section 5 over a
//! [`FaultPlan`]:
//!
//! * at the beginning of every step the fault events scheduled for that step take
//!   effect and are detected by the neighbors;
//! * the step then runs λ information rounds: the labeling advances (Algorithm 1), and
//!   once it has stabilised the affected blocks are identified (Algorithm 2) and their
//!   boundaries constructed (Definition 3); the resulting information becomes visible
//!   at each node only after the corresponding number of rounds has elapsed, so during
//!   the converging period different nodes hold *inconsistent* information — exactly
//!   the regime the paper analyses;
//! * at the end of the step every in-flight probe makes one routing decision
//!   (Algorithm 3) using whatever information its current node holds at that round,
//!   and advances one hop.
//!
//! The network records one [`ConvergenceRecord`] per disturbance (the paper's `a_i`,
//! `b_i`, `c_i`) and one [`ProbeReport`] per probe (delivery, detours, the distance
//! `D(i)` at every fault occurrence) so the experiment harness can compare measured
//! behaviour against the bounds of Theorems 3–5.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use lgfi_sim::{FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor, StepConfig};
use lgfi_topology::{Mesh, NodeId, Region};

use crate::block::{BlockId, BlockSet, FaultyBlock};
use crate::boundary::{BoundaryBuilder, BoundaryEntry};
use crate::bounds::{DetourBound, IntervalParams};
use crate::identification::IdentificationProcess;
use crate::labeling::LabelingEngine;
use crate::route_service::{RoutePublisher, RouteService};
use crate::routing::{
    CsrBoundary, Probe, ProbeEngine, ProbeOutcome, ProbeStatus, Router, RoutingDecision,
};
use crate::status::NodeStatus;

/// Configuration of the dynamic network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Information rounds per step (the paper's λ).
    pub lambda: u64,
    /// Safety cap on the number of steps a probe may take before being declared
    /// exhausted.
    pub max_probe_steps: u64,
    /// Worker threads for the information rounds (`1` = serial, `0` = one per
    /// available core).  Parallelism is an execution detail: every run is
    /// bit-identical to the serial one.
    pub threads: usize,
    /// Active-frontier scheduling for the labeling rounds (on by default): after a
    /// disturbance only the nodes around the shrinking fault region are re-evaluated.
    /// Like `threads`, an execution detail — results are bit-identical either way.
    pub frontier: bool,
    /// Worker threads for the per-step probe routing decisions (`1` = serial, `0` =
    /// one per available core).  In-flight probes are independent within a step, so
    /// their decisions shard across threads with the launch-order report merge and
    /// every run stays bit-identical to the serial one.
    pub probe_threads: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            lambda: 1,
            max_probe_steps: 100_000,
            threads: 1,
            frontier: true,
            probe_threads: 1,
        }
    }
}

/// Convergence measurements for one disturbance (one burst of fault/recovery events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceRecord {
    /// The step at which the disturbance took effect.
    pub step: u64,
    /// Rounds for the block construction (labeling) to stabilise — the paper's `a_i`.
    pub a_rounds: u64,
    /// Rounds for the identification construction — the paper's `b_i` (maximum over
    /// the blocks that had to be re-identified; 0 if none).
    pub b_rounds: u64,
    /// Rounds for the boundary construction — the paper's `c_i` (maximum over the
    /// re-built boundaries; 0 if none).
    pub c_rounds: u64,
    /// Number of block extents that appeared or changed with this disturbance.
    pub blocks_changed: usize,
}

impl ConvergenceRecord {
    /// Total information rounds for this disturbance (`a_i + b_i + c_i`).
    pub fn total_rounds(&self) -> u64 {
        self.a_rounds + self.b_rounds + self.c_rounds
    }
}

/// A boundary entry together with its visibility window in absolute rounds.
#[derive(Debug, Clone)]
struct TimedEntry {
    entry: BoundaryEntry,
    visible_from: u64,
    visible_until: Option<u64>,
}

impl TimedEntry {
    /// True if the entry is visible at the given absolute round — the single
    /// definition of the visibility window, shared by the observable
    /// [`LgfiNetwork::visible_info`] view and the routing arena so the two can
    /// never diverge.
    fn visible_at(&self, round: u64) -> bool {
        self.visible_from <= round && self.visible_until.map(|u| round < u).unwrap_or(true)
    }

    /// True if the entry's window opens or closes at `round`.
    fn transitions_at(&self, round: u64) -> bool {
        self.visible_from == round || self.visible_until == Some(round)
    }
}

/// A region whose information is distributed, with the nodes holding its entries.
#[derive(Debug)]
struct Distributed {
    region: Region,
    /// The nodes holding the region's entries, ascending.
    holders: Vec<NodeId>,
}

/// One launched probe and its bookkeeping.
struct ProbeState {
    probe: Probe,
    router: Box<dyn Router>,
    launched_at: u64,
    /// Distance to the destination recorded at every fault-occurrence step (the
    /// paper's `D(i)` series), keyed by the occurrence step.
    distance_at_fault: BTreeMap<u64, u32>,
}

/// Final report for one probe routed through the dynamic network.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The source node.
    pub source: NodeId,
    /// The destination node.
    pub dest: NodeId,
    /// Step at which the probe was launched.
    pub launched_at: u64,
    /// Step at which the probe finished (delivered, unreachable or exhausted).
    pub finished_at: u64,
    /// The routing outcome (steps, backtracks, detours, ...).
    pub outcome: ProbeOutcome,
    /// The distance to the destination at every fault occurrence while the probe was
    /// in flight (`D(i)`), keyed by the occurrence step.
    pub distance_at_fault: BTreeMap<u64, u32>,
    /// Name of the router that drove the probe.
    pub router: &'static str,
}

/// The dynamic LGFI network.
pub struct LgfiNetwork {
    mesh: Mesh,
    config: NetworkConfig,
    plan: FaultPlan,
    /// Forward scanner over `plan`, so the per-step event lookup is O(events at this
    /// step) instead of a full-plan scan-and-collect.
    plan_cursor: FaultPlanCursor,
    labeling: LabelingEngine,
    step: u64,
    round: u64,
    /// True if the labeling has pending changes that have not yet been followed by a
    /// rebuild of blocks/identification/boundaries.
    dirty: bool,
    /// Rounds spent converging since the last disturbance (for the `a_i` record).
    rounds_since_disturbance: u64,
    /// The step at which the current disturbance started.
    disturbance_step: u64,
    /// Stabilised blocks (as of the last rebuild).
    blocks: BlockSet,
    /// Per-node timed information entries.
    info: Vec<Vec<TimedEntry>>,
    /// Regions whose information is currently distributed (to avoid re-propagating
    /// unchanged blocks, the paper's reactive rule), each with its holder nodes so
    /// a vanished region's entries are deleted without scanning the mesh.
    distributed: Vec<Distributed>,
    /// Closing entries `(visible_until, node)`, one per entry marked for deletion:
    /// a rebuild drops closed entries only from the nodes whose deletion came due.
    closing: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Pending visibility transitions `(round, node)`: one per entry scheduled
    /// (`visible_from`) and one per entry marked for deletion (`visible_until`).
    transitions: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// True if a rebuild ran since the visible arena was last refreshed.
    rebuilt: bool,
    /// Buffers a rebuild refills instead of allocating.
    scratch: RebuildScratch,
    convergence: Vec<ConvergenceRecord>,
    probes: Vec<ProbeState>,
    reports: Vec<ProbeReport>,
    /// The boundary entries *currently visible* at each node.  Routing decisions
    /// borrow these slices directly instead of filtering the timed lists per hop.
    arena: SlotArena,
    /// Generation counter of the visible arena.  This is the single dirty signal
    /// the epoch publisher keys off: a step whose refresh leaves the generation
    /// unchanged (and applied no fault events) publishes nothing.
    vis_gen: u64,
    /// True while fault/recovery events applied at the current step have not yet
    /// been folded into the query plane's info-change count.
    events_pending: bool,
    /// Number of information transitions observed by the attached query plane
    /// (fault/recovery events taking effect, arena rebuilds, visibility-window
    /// openings/closings).  Only advances while a route service is attached — it
    /// is the epoch clock: the service's current epoch always equals this count.
    info_changes: u64,
    /// The epoch publisher of the attached route service, if any.
    publisher: Option<RoutePublisher>,
    /// Resolved probe-decision worker count (>= 1).
    probe_threads: usize,
    /// Recycled probes of finished launches (path + used-direction arena), reused
    /// by subsequent launches: steady-state probe turnover stops paying the
    /// `O(node_count)` arena allocation per probe, and the network's high-water
    /// memory is bounded by the maximum number of *concurrent* probes rather than
    /// the total launched.
    spare_probes: Vec<Probe>,
    /// Persistent worker pool for the sharded per-step probe decisions (spawned
    /// lazily on the first parallel decision sweep, parked between steps).
    probe_pool: lgfi_sim::PoolHandle,
}

impl LgfiNetwork {
    /// Creates a network over `mesh` with a fault plan and configuration.  No events
    /// are applied until [`LgfiNetwork::run_step`] is called.
    pub fn new(mesh: Mesh, plan: FaultPlan, config: NetworkConfig) -> Self {
        let labeling = LabelingEngine::new(mesh.clone())
            .with_threads(config.threads)
            .with_frontier(config.frontier);
        let blocks = BlockSet::extract(&mesh, labeling.statuses());
        LgfiNetwork {
            info: vec![Vec::new(); mesh.node_count()],
            arena: SlotArena::new(mesh.node_count()),
            labeling,
            blocks,
            mesh,
            config,
            plan,
            plan_cursor: FaultPlanCursor::new(),
            step: 0,
            round: 0,
            dirty: false,
            rounds_since_disturbance: 0,
            disturbance_step: 0,
            distributed: Vec::new(),
            closing: BinaryHeap::new(),
            transitions: BinaryHeap::new(),
            rebuilt: false,
            scratch: RebuildScratch::default(),
            convergence: Vec::new(),
            probes: Vec::new(),
            reports: Vec::new(),
            vis_gen: 0,
            events_pending: false,
            info_changes: 0,
            publisher: None,
            probe_threads: lgfi_sim::resolve_threads(config.probe_threads),
            spare_probes: Vec::new(),
            probe_pool: lgfi_sim::PoolHandle::new(),
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The current step number.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The absolute information round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The step configuration as a [`StepConfig`].
    pub fn step_config(&self) -> StepConfig {
        StepConfig::with_lambda(self.config.lambda)
    }

    /// The resolved worker-thread count the information rounds execute with (>= 1).
    pub fn threads(&self) -> usize {
        self.labeling.threads()
    }

    /// True if the labeling rounds run with active-frontier scheduling.
    pub fn frontier_active(&self) -> bool {
        self.labeling.frontier_active()
    }

    /// The resolved worker-thread count the probe routing decisions execute with
    /// (>= 1).
    pub fn probe_threads(&self) -> usize {
        self.probe_threads
    }

    /// Current node statuses.
    pub fn statuses(&self) -> &[NodeStatus] {
        self.labeling.statuses()
    }

    /// The blocks as of the last rebuild.
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// The fault plan driving the network.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Convergence records collected so far (one per disturbance).
    pub fn convergence_records(&self) -> &[ConvergenceRecord] {
        &self.convergence
    }

    /// Finished probe reports.
    pub fn reports(&self) -> &[ProbeReport] {
        &self.reports
    }

    /// Number of probes still in flight.
    pub fn probes_in_flight(&self) -> usize {
        self.probes.len()
    }

    /// The boundary/block information visible at a node *right now*.
    pub fn visible_info(&self, id: NodeId) -> Vec<BoundaryEntry> {
        self.info[id]
            .iter()
            .filter(|t| t.visible_at(self.round))
            .map(|t| t.entry)
            .collect()
    }

    /// Number of nodes currently holding at least one visible entry.
    pub fn nodes_with_visible_info(&self) -> usize {
        self.info
            .iter()
            .filter(|timed| timed.iter().any(|t| t.visible_at(self.round)))
            .count()
    }

    /// Launches a probe from `source` to `dest` driven by `router`.  The probe makes
    /// its first move at the end of the *next* executed step.
    pub fn launch_probe(&mut self, source: NodeId, dest: NodeId, router: Box<dyn Router>) {
        let probe = match self.spare_probes.pop() {
            Some(mut probe) => {
                probe.reset(&self.mesh, source, dest);
                probe
            }
            None => Probe::new(&self.mesh, source, dest),
        };
        self.probes.push(ProbeState {
            probe,
            router,
            launched_at: self.step,
            distance_at_fault: BTreeMap::new(),
        });
    }

    /// Executes one full step of the Figure-7 model.
    pub fn run_step(&mut self) {
        self.run_step_with(&[]);
    }

    /// [`LgfiNetwork::run_step`] with additional `external` fault events taking
    /// effect at this step, on top of those the fault plan schedules — the
    /// probe-mode twin of [`LgfiNetwork::run_traffic_step_with`], used by
    /// incremental fault sources (e.g. a churn process driving the control plane of
    /// a route service).  External events must carry the current step number
    /// ([`LgfiNetwork::step`]).
    pub fn run_step_with(&mut self, external: &[FaultEvent]) {
        self.begin_step_with(external);
        self.sync_query_plane();

        // --- Phases 3-5: reception, routing decision, sending. -----------------------
        // Every in-flight probe makes one independent decision against the shared
        // (frozen) step state, so the decisions shard across probe workers; the
        // finished scan below runs serially in launch order either way, keeping
        // parallel execution bit-identical to serial.
        if !self.probes.is_empty() {
            let mesh = &self.mesh;
            let statuses = self.labeling.statuses();
            let blocks = self.blocks.blocks();
            let boundary = self.arena.boundary();
            let max_probe_steps = self.config.max_probe_steps;
            let probes = &mut self.probes;
            let workers = self.probe_threads.min(probes.len());
            if workers > 1 {
                // Each pool chunk is a contiguous launch-order run of probes; the
                // chunk count tracks the in-flight population while the pool keeps
                // its `probe_threads` width (no re-spawn as probes come and go).
                self.probe_pool.get(self.probe_threads).run_chunked(
                    probes.as_mut_slice(),
                    workers,
                    |_, chunk| {
                        for state in chunk {
                            advance_probe(mesh, statuses, blocks, boundary, max_probe_steps, state);
                        }
                    },
                );
            } else {
                for state in probes.iter_mut() {
                    advance_probe(mesh, statuses, blocks, boundary, max_probe_steps, state);
                }
            }
        }
        // Retire finished probes.  Removals walk the finished indices in reverse, so
        // the in-flight list keeps its launch order, and the reports of probes that
        // finish in the same step are appended in *descending* launch order (steps
        // themselves append in step order).  The golden routes in
        // `tests/routing_golden.rs` pin this order.
        let finished: Vec<usize> = self
            .probes
            .iter()
            .enumerate()
            .filter(|(_, state)| state.probe.status != ProbeStatus::InFlight)
            .map(|(idx, _)| idx)
            .collect();
        for idx in finished.into_iter().rev() {
            let state = self.probes.remove(idx);
            self.reports.push(ProbeReport {
                source: state.probe.source,
                dest: state.probe.dest,
                launched_at: state.launched_at,
                finished_at: self.step,
                outcome: state.probe.outcome(),
                distance_at_fault: state.distance_at_fault,
                router: state.router.name(),
            });
            self.spare_probes.push(state.probe);
        }

        self.step += 1;
    }

    /// Phases 1–2 of the Figure-7 step, shared by [`LgfiNetwork::run_step`] and
    /// [`LgfiNetwork::run_traffic_step`]: fault detection (events scheduled for this
    /// step take effect, plus the caller's `external` events) and the λ information
    /// rounds.  Incremental fault sources (e.g. a churn process emitting events
    /// step by step) feed the network through this path without ever materialising
    /// a full plan.  External events must carry the current step number and satisfy
    /// the [`FaultPlan::validate`] rules against the network's live fault state.
    fn begin_step_with(&mut self, external: &[FaultEvent]) {
        // --- Phase 1: fault detection (events scheduled for this step take effect). --
        // The cursor returns the plan's events for this step as a contiguous slice —
        // no per-step allocation, no full-plan scan.
        let events = self.plan_cursor.events_at(&self.plan, self.step);
        let mut any_event = false;
        let mut fault_occurred = false;
        for e in events.iter().chain(external) {
            debug_assert_eq!(e.step, self.step, "event applied at the wrong step");
            any_event = true;
            match e.kind {
                FaultEventKind::Fail => {
                    fault_occurred = true;
                    self.labeling.inject_fault(e.node);
                }
                FaultEventKind::Recover => self.labeling.recover(e.node),
            }
        }
        if any_event {
            if !self.dirty {
                self.disturbance_step = self.step;
                self.rounds_since_disturbance = 0;
            }
            self.dirty = true;
        }
        self.events_pending = any_event;
        if fault_occurred {
            // Record D(i) for every in-flight probe at this fault occurrence.
            for p in &mut self.probes {
                let d = self.mesh.distance(p.probe.current, p.probe.dest);
                p.distance_at_fault.insert(self.step, d);
            }
        }

        // --- Phase 2: λ information rounds. ------------------------------------------
        for _ in 0..self.config.lambda {
            self.round += 1;
            if self.dirty {
                let changes = self.labeling.run_round();
                self.rounds_since_disturbance += 1;
                if changes == 0 {
                    // The labeling has stabilised: rebuild blocks, identification and
                    // boundaries, and schedule the visibility of the new information.
                    self.rebuild_information();
                    self.dirty = false;
                }
            }
        }
        self.refresh_visible_arena();
    }

    /// Executes one Figure-7 step whose routing phase drives the concurrent-traffic
    /// engine for one cycle instead of the independent probes: the fault events and
    /// λ information rounds run exactly as in [`LgfiNetwork::run_step`], and every
    /// in-flight packet of `traffic` then makes one contention-arbitrated hop
    /// against the boundary information visible at its node *this* round.
    ///
    /// One network step is one traffic cycle, so packet latency is measured in the
    /// same unit a probe's steps are.
    pub fn run_traffic_step(&mut self, traffic: &mut crate::traffic_engine::TrafficEngine) {
        self.run_traffic_step_with(&[], traffic);
    }

    /// [`LgfiNetwork::run_traffic_step`] with additional fault events taking effect
    /// at this step, on top of those the fault plan schedules.  This is the entry
    /// point of incremental fault sources (a `ChurnProcess` emitting millions of
    /// events one step at a time): the caller owns the event stream and the network
    /// never materialises it as a plan.  `external` events must carry the current
    /// step number ([`LgfiNetwork::step`]).
    pub fn run_traffic_step_with(
        &mut self,
        external: &[FaultEvent],
        traffic: &mut crate::traffic_engine::TrafficEngine,
    ) {
        self.begin_step_with(external);
        self.sync_query_plane();
        traffic.run_cycle(&crate::traffic_engine::CycleEnv {
            statuses: self.labeling.statuses(),
            blocks: self.blocks.blocks(),
            boundary: self.visible_boundary(),
        });
        self.step += 1;
    }

    /// The boundary entries visible at each node this round.
    fn visible_boundary(&self) -> CsrBoundary<'_> {
        self.arena.boundary()
    }

    /// Brings the visible arena up to the current round, once per step: pops the
    /// visibility transitions that came due and rewrites only their nodes' slots.
    /// Due transitions are drained even when nothing reads the arena, so they
    /// never pile up.  `vis_gen` advances iff a rebuild ran since the last refresh
    /// or a popped transition still belongs to an entry in the store.
    fn refresh_visible_arena(&mut self) {
        let mut changed = std::mem::take(&mut self.rebuilt);
        while let Some(&Reverse((round, node))) = self.transitions.peek() {
            if round > self.round {
                break;
            }
            self.transitions.pop();
            let timed = &self.info[node];
            changed = changed || timed.iter().any(|t| t.transitions_at(round));
            // Rewrite the node even if the rebuild already dropped the entry this
            // transition was scheduled for: it may still sit in the node's slots.
            self.arena.patch(node, timed, self.round);
        }
        if changed {
            self.vis_gen += 1;
        }
    }

    /// Publishes a new [`EpochSnapshot`](crate::route_service::EpochSnapshot) to the
    /// attached route service if (and only if) the information observable by the
    /// query plane changed this step: fault/recovery events took effect, a rebuild
    /// ran, or a visibility window opened/closed.  Quiescent steps publish nothing
    /// — the publish seam and the arena's dirty tracking are the same signal
    /// (`vis_gen`), so the service's epoch number always equals
    /// [`LgfiNetwork::info_changes`].
    fn sync_query_plane(&mut self) {
        let Some(mut publisher) = self.publisher.take() else {
            return;
        };
        if self.vis_gen != publisher.published_gen() || self.events_pending {
            self.info_changes += 1;
            publisher.publish(
                &self.mesh,
                self.step,
                self.round,
                self.labeling.statuses(),
                self.blocks.blocks(),
                self.visible_boundary(),
            );
            publisher.set_published_gen(self.vis_gen);
        }
        self.events_pending = false;
        self.publisher = Some(publisher);
    }

    /// Attaches the epoch-snapshot route-query plane (see
    /// [`crate::route_service`]) and returns a cloneable service handle.  The
    /// initial snapshot (epoch 0) is taken immediately from the current state;
    /// from then on every step whose information changed publishes one new epoch.
    /// Calling this again returns another handle to the same service.
    pub fn route_service(&mut self) -> RouteService {
        if let Some(publisher) = &self.publisher {
            return publisher.handle();
        }
        self.events_pending = false;
        let mut publisher = RoutePublisher::attach(
            &self.mesh,
            self.step,
            self.round,
            self.labeling.statuses(),
            self.blocks.blocks(),
            self.visible_boundary(),
        );
        publisher.set_published_gen(self.vis_gen);
        let handle = publisher.handle();
        self.publisher = Some(publisher);
        handle
    }

    /// Number of information transitions observed by the attached query plane so
    /// far (the publish seam's contract: this always equals the service's current
    /// epoch number).  0 until a service is attached.
    pub fn info_changes(&self) -> u64 {
        self.info_changes
    }

    /// Resolves one source→dest route against the live network *frozen at the
    /// current round*: the same statuses, blocks and visible-boundary arena a
    /// snapshot published right now would copy, driven through the same
    /// [`ProbeEngine::route_view`] hop loop.  The bit-equality of this and a
    /// snapshot-resolved route at the same epoch is the query plane's correctness
    /// contract (`tests/route_service_equivalence.rs`).
    pub fn resolve_live(
        &self,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
        engine: &mut ProbeEngine,
    ) -> ProbeOutcome {
        engine.route_view(
            &self.mesh,
            self.labeling.statuses(),
            self.blocks.blocks(),
            self.visible_boundary(),
            router,
            source,
            dest,
            max_steps,
        )
    }

    /// Runs steps until all probes have finished and all scheduled fault events have
    /// been applied and stabilised, or `max_steps` have been executed.  Returns the
    /// number of steps executed.
    pub fn run_to_completion(&mut self, max_steps: u64) -> u64 {
        let mut executed = 0u64;
        while executed < max_steps {
            let plan_done = self.plan.last_step().map(|s| self.step > s).unwrap_or(true);
            if self.probes.is_empty() && plan_done && !self.dirty {
                break;
            }
            self.run_step();
            executed += 1;
        }
        executed
    }

    /// Rebuilds blocks, identification outcomes and boundary maps after the labeling
    /// has stabilised, scheduling the visibility of every piece of information.
    /// Only the blocks that changed are identified and propagated, only the nodes
    /// holding a vanished block's entries are touched, and a warm rebuild reuses
    /// the buffers of the previous one.
    fn rebuild_information(&mut self) {
        let round = self.round;
        let statuses = self.labeling.statuses();
        let scratch = &mut self.scratch;
        self.blocks
            .refill(&self.mesh, statuses, &mut scratch.spare_members);
        let blocks = &self.blocks;

        // Entries whose window already closed can never become visible again —
        // dropping them keeps the store proportional to the *live* information
        // under long fail/repair churn instead of every entry ever distributed.
        // Only the nodes whose deletion came due can hold such an entry.
        let info = &mut self.info;
        while let Some(&Reverse((until, node))) = self.closing.peek() {
            if until > round {
                break;
            }
            self.closing.pop();
            info[node].retain(|t| t.visible_until.map_or(true, |u| u > round));
        }

        // Information for regions that no longer exist is deleted; the deletion wave
        // travels the same path as the original distribution, so the entry disappears
        // `arrival_offset` rounds after the deletion starts (now).
        let closing = &mut self.closing;
        let transitions = &mut self.transitions;
        self.distributed.retain_mut(|d| {
            if blocks.blocks().iter().any(|b| b.region == d.region) {
                return true;
            }
            for &node in &d.holders {
                for t in info[node]
                    .iter_mut()
                    .filter(|t| t.visible_until.is_none() && t.entry.block == d.region)
                {
                    let until = round + t.entry.arrival_offset + 1;
                    t.visible_until = Some(until);
                    transitions.push(Reverse((until, node)));
                    closing.push(Reverse((until, node)));
                }
            }
            d.holders.clear();
            scratch.spare_holders.push(std::mem::take(&mut d.holders));
            false
        });

        // Identification + boundary construction for regions that are new or changed.
        let changed = &mut scratch.changed;
        changed.clear();
        changed.extend(
            blocks
                .blocks()
                .iter()
                .filter(|b| !self.distributed.iter().any(|d| d.region == b.region))
                .map(|b| b.id),
        );
        let mut b_rounds = 0u64;
        let mut c_rounds = 0u64;
        scratch.grown.clear();
        if !changed.is_empty() {
            let ident = IdentificationProcess::default();
            scratch.builder.prepare(&self.mesh, blocks);
            for &block_id in changed.iter() {
                let region = blocks.blocks()[block_id].region;
                let b = ident
                    .completion_round(&self.mesh, &region, statuses)
                    .unwrap_or(0);
                b_rounds = b_rounds.max(b);
                // Schedule the boundary entries of this block: visible b + offset
                // rounds after now.
                let entries = &mut scratch.entries;
                scratch
                    .builder
                    .block_entries(&self.mesh, blocks, block_id, entries);
                let mut holders = scratch.spare_holders.pop().unwrap_or_default();
                for &(node, entry) in entries.iter() {
                    c_rounds = c_rounds.max(entry.arrival_offset);
                    let visible_from = round + b + entry.arrival_offset;
                    self.transitions.push(Reverse((visible_from, node)));
                    let timed = &mut info[node];
                    // Exact growth: a list keeps room for the most entries it ever
                    // held, not for a doubling of them.
                    timed.reserve_exact(1);
                    timed.push(TimedEntry {
                        entry,
                        visible_from,
                        visible_until: None,
                    });
                    // The list outgrows its slots once; record the node then.
                    if timed.len() == self.arena.slots(node) + 1 {
                        scratch.grown.push(node);
                    }
                    if holders.last() != Some(&node) {
                        holders.push(node);
                    }
                }
                self.distributed.push(Distributed { region, holders });
            }
        }
        self.arena.make_room(info, &scratch.grown, round);

        self.convergence.push(ConvergenceRecord {
            step: self.disturbance_step,
            a_rounds: self.rounds_since_disturbance,
            b_rounds,
            c_rounds,
            blocks_changed: changed.len(),
        });
        self.rebuilt = true;
    }

    /// Builds the [`DetourBound`] of Theorems 3–5 for a probe launched at `start_step`
    /// from the network's fault plan and convergence records: intervals are taken from
    /// the fault occurrence times after the routing start, `a_i` from the matching
    /// convergence records (converted to steps with λ), and `e_max` from the largest
    /// block seen.
    pub fn detour_bound_for(&self, start_step: u64) -> DetourBound {
        let cfg = self.step_config();
        let t_p = self
            .plan
            .occurrence_times_iter()
            .filter(|&t| t <= start_step)
            .max()
            .unwrap_or(0);
        let a_steps_at = |step: u64| {
            let a_rounds = self
                .convergence
                .iter()
                .find(|c| c.step == step)
                .map(|c| c.a_rounds)
                .unwrap_or(0);
            cfg.steps_for_rounds(a_rounds)
        };
        // Walk the occurrence times >= t_p pairwise without collecting them.
        let mut intervals = Vec::new();
        let mut prev: Option<u64> = None;
        for t in self.plan.occurrence_times_iter().filter(|&t| t >= t_p) {
            if let Some(p) = prev {
                intervals.push(IntervalParams {
                    d: t - p,
                    a_steps: a_steps_at(p),
                });
            }
            prev = Some(t);
        }
        // The last interval extends to "after the last fault": treat it as long enough
        // for any remaining distance (diameter of the mesh).
        if let Some(last) = prev {
            intervals.push(IntervalParams {
                d: u64::from(self.mesh.diameter()) * 4,
                a_steps: a_steps_at(last),
            });
        }
        let e_max = self.blocks.e_max() as u64;
        DetourBound {
            start_step,
            t_p,
            intervals,
            e_max,
        }
    }
}

/// Advances one in-flight probe by a single step-model decision against the frozen
/// step state: the forced backtrack off a freshly faulty node, the unreachable check
/// for a faulty destination, and otherwise one Algorithm-3 decision over the visible
/// boundary information.  Pure function of the shared step state and the probe's own
/// mutable state, so probe workers can run it concurrently with bit-identical
/// results.
fn advance_probe(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    blocks: &[FaultyBlock],
    boundary: CsrBoundary<'_>,
    max_probe_steps: u64,
    state: &mut ProbeState,
) {
    if state.probe.status != ProbeStatus::InFlight {
        return;
    }
    if state.probe.steps >= max_probe_steps {
        state.probe.status = ProbeStatus::Exhausted;
        return;
    }
    let current = state.probe.current;
    // A probe sitting on a node that just became faulty is forced back onto the
    // previous node of its reserved path.
    if statuses[current] == NodeStatus::Faulty {
        state.probe.apply(mesh, RoutingDecision::Backtrack);
        return;
    }
    if statuses[state.probe.dest] == NodeStatus::Faulty {
        state.probe.status = ProbeStatus::Unreachable;
        return;
    }
    let decision = state.probe.decide(
        mesh,
        statuses,
        blocks,
        boundary.entries(current),
        state.router.as_ref(),
    );
    state.probe.apply(mesh, decision);
}

/// Buffers [`LgfiNetwork::rebuild_information`] keeps between rebuilds, so a warm
/// rebuild refills them instead of allocating.
#[derive(Debug, Default)]
struct RebuildScratch {
    /// Member lists of vanished blocks, reused by the next block extraction.
    spare_members: Vec<Vec<NodeId>>,
    /// Holder lists of vanished regions, reused by the next distributed regions.
    spare_holders: Vec<Vec<NodeId>>,
    /// The blocks a rebuild identifies and propagates.
    changed: Vec<BlockId>,
    /// The boundary builder's adjacency and visit tables.
    builder: BoundaryBuilder,
    /// One block's boundary entries.
    entries: Vec<(NodeId, BoundaryEntry)>,
    /// The nodes a rebuild pushed past their arena slots.
    grown: Vec<NodeId>,
}

/// Slot arena of the boundary entries currently visible at each node.
///
/// Node `i` owns the slots `data[start[i]..slot_end[i]]`, at least one per entry
/// of its timed list, and its visible entries are `data[start[i]..end[i]]`.  The
/// ranges are disjoint but need not be contiguous or in node order, so one node's
/// visibility can change, and one node can grow, without touching any other node:
///
/// * a due visibility transition rewrites its node's slots in place
///   ([`SlotArena::patch`]);
/// * a node whose timed list outgrows its slots moves to fresh slots at the end
///   of the arena, one per timed entry, and its old range becomes dead;
/// * a compaction ([`SlotArena::relayout`]) lays every node out afresh, tight and
///   in node order.  It runs when a rebuild's moves would grow the buffer past
///   its capacity or leave more than half the arena dead, so moves never
///   reallocate and dead slots stay under half the arena.  A compaction leaves
///   the buffer room for twice the live slots, for the moves that follow, and
///   replaces a smaller buffer; the first layout of an empty arena (a static
///   fault set distributing once) needs room for exactly the live slots.
#[derive(Debug)]
struct SlotArena {
    data: Vec<BoundaryEntry>,
    /// Start of every node's slots, plus the sentinel `start[n] == data.len()`
    /// that [`CsrBoundary::with_slots`] checks.
    start: Vec<usize>,
    /// End of every node's visible entries.
    end: Vec<usize>,
    /// End of every node's slots.
    slot_end: Vec<usize>,
    /// Slots no node owns: the old ranges of moved nodes.
    dead: usize,
    /// Compactions so far.
    relayouts: u64,
}

impl SlotArena {
    /// An empty arena over `nodes` nodes: no slots anywhere.
    fn new(nodes: usize) -> Self {
        SlotArena {
            data: Vec::new(),
            start: vec![0; nodes + 1],
            end: vec![0; nodes],
            slot_end: vec![0; nodes],
            dead: 0,
            relayouts: 0,
        }
    }

    /// The visible entries of every node, as routing reads them.
    fn boundary(&self) -> CsrBoundary<'_> {
        CsrBoundary::with_slots(&self.data, &self.start, &self.end)
    }

    /// Number of slots `node` owns.
    fn slots(&self, node: NodeId) -> usize {
        self.slot_end[node] - self.start[node]
    }

    /// Rewrites `node`'s slots with the entries of `timed` visible at `round`.
    fn patch(&mut self, node: NodeId, timed: &[TimedEntry], round: u64) {
        let start = self.start[node];
        let visible = patch_slots(timed, round, &mut self.data[start..self.slot_end[node]]);
        self.end[node] = start + visible;
    }

    /// Gives every node of `grown`, whose timed list a rebuild pushed past its
    /// slots, one slot per timed entry: each moves to the end of the arena, or,
    /// when the moves would reallocate the buffer or leave more than half the
    /// arena dead, the whole arena is compacted instead.  Either way the slots
    /// laid out show the entries visible at `round`; every visibility change
    /// after it has a pending transition that patches the node.
    fn make_room(&mut self, info: &[Vec<TimedEntry>], grown: &[NodeId], round: u64) {
        if grown.is_empty() {
            return;
        }
        let needed: usize = grown.iter().map(|&n| info[n].len()).sum();
        let freed: usize = grown.iter().map(|&n| self.slots(n)).sum();
        let len = self.data.len() + needed;
        if len > self.data.capacity() || 2 * (self.dead + freed) > len {
            self.relayout(info, round);
            return;
        }
        for &node in grown {
            self.dead += self.slots(node);
            self.lay_out(node, &info[node], round);
        }
        self.start[info.len()] = self.data.len();
    }

    /// Compacts the arena: every node gets one slot per entry of its timed list,
    /// its entries visible at `round` first.
    fn relayout(&mut self, info: &[Vec<TimedEntry>], round: u64) {
        let live: usize = info.iter().map(Vec::len).sum();
        let capacity = if self.data.is_empty() { live } else { 2 * live };
        if self.data.capacity() < capacity {
            // A fresh buffer: growing the old one would copy slots about to be
            // overwritten.
            self.data = Vec::with_capacity(capacity);
        }
        self.data.clear();
        for (node, timed) in info.iter().enumerate() {
            self.lay_out(node, timed, round);
        }
        self.start[info.len()] = self.data.len();
        self.dead = 0;
        self.relayouts += 1;
    }

    /// Appends `node`'s slots to the arena: its entries visible at `round`, then
    /// the rest of its timed list.
    fn lay_out(&mut self, node: NodeId, timed: &[TimedEntry], round: u64) {
        let visible = |t: &&TimedEntry| t.visible_at(round);
        self.start[node] = self.data.len();
        self.data
            .extend(timed.iter().filter(visible).map(|t| t.entry));
        self.end[node] = self.data.len();
        self.data
            .extend(timed.iter().filter(|t| !visible(t)).map(|t| t.entry));
        self.slot_end[node] = self.data.len();
    }
}

/// Rewrites one node's arena slots with the entries of its timed list that are
/// visible at `round`, in list order, and returns how many there are.  Copies
/// into the existing slots, so a patch never allocates; the slots always number
/// at least the timed entries.
fn patch_slots(timed: &[TimedEntry], round: u64, slots: &mut [BoundaryEntry]) -> usize {
    let mut visible = 0;
    for t in timed.iter().filter(|t| t.visible_at(round)) {
        slots[visible] = t.entry;
        visible += 1;
    }
    visible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::LgfiRouter;
    use lgfi_sim::FaultEvent;
    use lgfi_topology::coord;

    fn mesh10() -> Mesh {
        Mesh::cubic(10, 2)
    }

    #[test]
    fn static_plan_routes_like_the_static_engine() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Let the information stabilise before launching the probe.
        for _ in 0..60 {
            net.run_step();
        }
        assert_eq!(net.blocks().len(), 1);
        assert!(net.nodes_with_visible_info() > 0);
        net.launch_probe(
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(1_000);
        assert_eq!(net.reports().len(), 1);
        let report = &net.reports()[0];
        assert!(report.outcome.delivered());
        assert_eq!(report.router, "lgfi");
        // The block does intersect the bounding box, but a detour of at most the block
        // perimeter suffices.
        assert!(report.outcome.detours().unwrap() <= 8);
    }

    #[test]
    fn convergence_records_track_each_disturbance() {
        let mesh = mesh10();
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(0, mesh.id_of(&coord![3, 3])),
            FaultEvent::fail(0, mesh.id_of(&coord![4, 4])),
            FaultEvent::fail(0, mesh.id_of(&coord![3, 4])),
            FaultEvent::fail(40, mesh.id_of(&coord![7, 7])),
            FaultEvent::fail(40, mesh.id_of(&coord![8, 8])),
            FaultEvent::fail(40, mesh.id_of(&coord![7, 8])),
        ]);
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        for _ in 0..120 {
            net.run_step();
        }
        assert_eq!(net.convergence_records().len(), 2);
        let first = net.convergence_records()[0];
        let second = net.convergence_records()[1];
        assert_eq!(first.step, 0);
        assert_eq!(second.step, 40);
        assert!(first.a_rounds >= 1);
        assert!(first.b_rounds > 0);
        assert!(first.c_rounds > 0);
        assert_eq!(first.blocks_changed, 1);
        assert_eq!(second.blocks_changed, 1);
        assert!(first.total_rounds() >= first.a_rounds);
        assert_eq!(net.blocks().len(), 2);
    }

    #[test]
    fn information_becomes_visible_gradually() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 6]),
            mesh.id_of(&coord![4, 6]),
            mesh.id_of(&coord![5, 5]),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Run just a few steps: labeling stabilises quickly, but far-away wall nodes
        // must not have the information yet.
        for _ in 0..4 {
            net.run_step();
        }
        let far_wall = mesh.id_of(&coord![3, 0]);
        let near_wall = mesh.id_of(&coord![3, 4]);
        let visible_far_early = net.visible_info(far_wall).len();
        // Keep running until everything is distributed.
        for _ in 0..60 {
            net.run_step();
        }
        let visible_far_late = net.visible_info(far_wall).len();
        let visible_near_late = net.visible_info(near_wall).len();
        assert_eq!(
            visible_far_early, 0,
            "distant wall nodes must not know the block yet"
        );
        assert!(visible_far_late > 0, "eventually the information arrives");
        assert!(visible_near_late > 0);
    }

    #[test]
    fn lambda_speeds_up_information_distribution() {
        let mesh = mesh10();
        let faults = [
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 6]),
            mesh.id_of(&coord![4, 6]),
            mesh.id_of(&coord![5, 5]),
        ];
        let steps_until_visible = |lambda: u64| {
            let plan = FaultPlan::static_faults(&faults);
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                plan,
                NetworkConfig {
                    lambda,
                    ..NetworkConfig::default()
                },
            );
            let far_wall = mesh.id_of(&coord![3, 0]);
            for step in 0..200 {
                net.run_step();
                if !net.visible_info(far_wall).is_empty() {
                    return step;
                }
            }
            panic!("information never arrived");
        };
        let slow = steps_until_visible(1);
        let fast = steps_until_visible(4);
        assert!(
            fast < slow,
            "lambda=4 ({fast}) must distribute faster than lambda=1 ({slow})"
        );
    }

    #[test]
    fn dynamic_fault_mid_route_is_survived() {
        // A fault cluster appears right in front of the probe while it travels.
        let mesh = Mesh::cubic(14, 2);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(6, mesh.id_of(&coord![7, 7])),
            FaultEvent::fail(6, mesh.id_of(&coord![8, 8])),
            FaultEvent::fail(6, mesh.id_of(&coord![7, 8])),
            FaultEvent::fail(6, mesh.id_of(&coord![8, 7])),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        net.launch_probe(
            mesh.id_of(&coord![1, 1]),
            mesh.id_of(&coord![12, 12]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(2_000);
        assert_eq!(net.reports().len(), 1);
        let report = &net.reports()[0];
        assert!(
            report.outcome.delivered(),
            "probe must survive the dynamic fault: {report:?}"
        );
        // D(i) was recorded at the fault occurrence.
        assert_eq!(report.distance_at_fault.len(), 1);
        let d_at_fault = *report.distance_at_fault.get(&6).unwrap();
        assert!(d_at_fault < 22 && d_at_fault > 0);
        // The detour bound of Theorem 4 holds.
        let bound = net.detour_bound_for(report.launched_at);
        let max_steps = bound.max_steps(u64::from(report.outcome.initial_distance));
        assert!(
            report.outcome.steps <= max_steps,
            "steps {} must be within the Theorem-4 bound {max_steps}",
            report.outcome.steps
        );
    }

    #[test]
    fn recovery_shrinks_visible_information() {
        let mesh = mesh10();
        let ids = [
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ];
        let mut plan = FaultPlan::static_faults(&ids);
        for &id in &ids {
            plan.push(FaultEvent::recover(50, id));
        }
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        for _ in 0..40 {
            net.run_step();
        }
        let with_block = net.nodes_with_visible_info();
        assert!(with_block > 0);
        assert_eq!(net.blocks().len(), 1);
        for _ in 0..80 {
            net.run_step();
        }
        assert_eq!(net.blocks().len(), 0, "all faults recovered");
        assert_eq!(
            net.nodes_with_visible_info(),
            0,
            "stale boundary information must be deleted after recovery"
        );
        assert!(net.convergence_records().len() >= 2);
    }

    #[test]
    fn exhaustion_cap_is_enforced() {
        let mesh = mesh10();
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: 1,
                max_probe_steps: 3,
                ..NetworkConfig::default()
            },
        );
        net.launch_probe(
            mesh.id_of(&coord![0, 0]),
            mesh.id_of(&coord![9, 9]),
            Box::new(LgfiRouter::new()),
        );
        net.run_to_completion(100);
        assert_eq!(net.reports().len(), 1);
        assert_eq!(net.reports()[0].outcome.status, ProbeStatus::Exhausted);
    }

    #[test]
    fn run_to_completion_stops_when_idle() {
        let mesh = Mesh::cubic(6, 2);
        let mut net = LgfiNetwork::new(mesh, FaultPlan::empty(), NetworkConfig::default());
        let executed = net.run_to_completion(1_000);
        assert_eq!(executed, 0, "an idle network does not spin");
    }

    #[test]
    fn traffic_steps_route_packets_through_dynamic_faults() {
        use crate::traffic_engine::{TrafficEngine, TrafficSpec};
        // A fault cluster appears at step 4 while a burst of packets crosses the
        // mesh concurrently; every packet must survive it, and shared links at the
        // sources must produce observable queueing.
        let mesh = Mesh::cubic(12, 2);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(4, mesh.id_of(&coord![5, 5])),
            FaultEvent::fail(4, mesh.id_of(&coord![6, 6])),
            FaultEvent::fail(4, mesh.id_of(&coord![5, 6])),
            FaultEvent::fail(4, mesh.id_of(&coord![6, 5])),
        ]);
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
            Box::new(LgfiRouter::new())
        });
        // Three packets from the same corner (they contend for the corner's two
        // outgoing links) plus one crossing the future block.
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![11, 11]));
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![11, 10]));
        traffic.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![10, 11]));
        traffic.inject(mesh.id_of(&coord![5, 0]), mesh.id_of(&coord![6, 11]));
        for _ in 0..500 {
            net.run_traffic_step(&mut traffic);
            if traffic.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(traffic.in_flight(), 0);
        assert_eq!(traffic.records().len(), 4);
        assert!(
            traffic.records().iter().all(|r| r.delivered()),
            "{:?}",
            traffic.records()
        );
        assert!(
            traffic.stats().total_stalls() > 0,
            "three packets out of one corner (2 links) must queue"
        );
        for r in traffic.records() {
            assert!(r.latency() >= u64::from(r.initial_distance));
            assert_eq!(r.latency(), r.hops + r.stalls);
        }
    }

    #[test]
    fn epoch_count_equals_info_change_count_on_a_static_plan() {
        let mesh = mesh10();
        let plan = FaultPlan::static_faults(&[
            mesh.id_of(&coord![4, 4]),
            mesh.id_of(&coord![5, 5]),
            mesh.id_of(&coord![4, 5]),
            mesh.id_of(&coord![5, 4]),
        ]);
        let mut net = LgfiNetwork::new(mesh, plan, NetworkConfig::default());
        let service = net.route_service();
        assert_eq!(service.epoch(), 0, "attach publishes the baseline epoch 0");
        assert_eq!(net.info_changes(), 0);
        for _ in 0..200 {
            net.run_step();
        }
        // The unified seam: the epoch clock IS the info-change count.
        assert_eq!(service.epoch(), net.info_changes());
        assert!(
            service.epoch() >= 2,
            "the fault burst plus at least one visibility transition must each \
             have published: {}",
            service.epoch()
        );
        // Once the static plan's information has fully distributed, further steps
        // change nothing and publish nothing.
        let settled = service.epoch();
        for _ in 0..50 {
            net.run_step();
        }
        assert_eq!(service.epoch(), settled, "quiescent steps publish nothing");
        assert_eq!(net.info_changes(), settled);
        assert_eq!(service.stats().epochs_published, settled + 1);
    }

    /// A seeded Poisson fail/recover stream over the mesh interior, the process of
    /// `lgfi_workloads::ChurnProcess`: fault arrivals with exponential gaps
    /// (`fail_rate` per step) each fail a random healthy interior node while
    /// fewer than `max_faulty` are down, and every fault recovers after an
    /// exponential downtime with mean `mean_downtime` steps.
    struct Churn {
        rng: lgfi_sim::DetRng,
        alive: Vec<NodeId>,
        repairs: BinaryHeap<Reverse<(u64, NodeId)>>,
        next_fail: f64,
        fail_rate: f64,
        mean_downtime: f64,
        max_faulty: usize,
    }

    impl Churn {
        fn new(
            mesh: &Mesh,
            seed: u64,
            fail_rate: f64,
            mean_downtime: f64,
            max_faulty: usize,
        ) -> Self {
            let interior = mesh.interior_region().unwrap();
            let mut churn = Churn {
                rng: lgfi_sim::DetRng::seed_from_u64(seed),
                alive: interior.iter_coords().map(|c| mesh.id_of(&c)).collect(),
                repairs: BinaryHeap::new(),
                next_fail: 0.0,
                fail_rate,
                mean_downtime,
                max_faulty,
            };
            churn.next_fail = churn.exponential(1.0 / fail_rate);
            churn
        }

        fn exponential(&mut self, mean: f64) -> f64 {
            -(1.0 - self.rng.unit()).ln() * mean
        }

        fn events(&mut self, step: u64) -> Vec<FaultEvent> {
            let mut out = Vec::new();
            while self.next_fail < (step + 1) as f64 {
                let gap = self.exponential(1.0 / self.fail_rate);
                if !self.alive.is_empty() && self.repairs.len() < self.max_faulty {
                    let victim = self.alive.swap_remove(self.rng.below(self.alive.len()));
                    let downtime = self.exponential(self.mean_downtime).round() as u64;
                    self.repairs.push(Reverse((step + downtime.max(1), victim)));
                    out.push(FaultEvent::fail(step, victim));
                }
                self.next_fail += gap;
            }
            while let Some(&Reverse((when, node))) = self.repairs.peek() {
                if when > step {
                    break;
                }
                self.repairs.pop();
                self.alive.push(node);
                out.push(FaultEvent::recover(step, node));
            }
            out.sort_unstable_by_key(|e| e.node);
            out
        }
    }

    /// Checks the slot arena against the timed store: ranges inside the buffer and
    /// pairwise disjoint, at least one slot per timed entry, visible prefixes equal
    /// to [`LgfiNetwork::visible_info`], dead slots counted exactly and under half
    /// the arena.
    fn assert_arena_invariants(net: &LgfiNetwork, context: &str) {
        let arena = &net.arena;
        let nodes = net.mesh.node_count();
        assert_eq!(arena.start[nodes], arena.data.len(), "{context}: sentinel");
        let mut ranges = Vec::new();
        let mut owned = 0;
        for node in 0..nodes {
            let (start, end, slot_end) = (arena.start[node], arena.end[node], arena.slot_end[node]);
            assert!(
                start <= end && end <= slot_end && slot_end <= arena.data.len(),
                "{context}: node {node} range {start}..{end}..{slot_end} outside {} slots",
                arena.data.len()
            );
            assert!(
                slot_end - start >= net.info[node].len(),
                "{context}: node {node} has {} slots for {} timed entries",
                slot_end - start,
                net.info[node].len()
            );
            assert_eq!(
                net.arena.boundary().entries(node),
                net.visible_info(node).as_slice(),
                "{context}: node {node} visible prefix"
            );
            if slot_end > start {
                ranges.push((start, slot_end));
            }
            owned += slot_end - start;
        }
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "{context}: overlapping slot ranges {pair:?}"
            );
        }
        assert_eq!(
            arena.dead,
            arena.data.len() - owned,
            "{context}: dead slots must be exactly the slots no node owns"
        );
        assert!(
            2 * arena.dead <= arena.data.len(),
            "{context}: {} dead slots in an arena of {}",
            arena.dead,
            arena.data.len()
        );
    }

    /// Fast churn on small 2-D and 3-D meshes, at λ 1 and 3, moves and compacts
    /// the arena often; its invariants must hold after every step.
    #[test]
    fn slot_arena_invariants_hold_after_every_churn_step() {
        for (mesh, seed) in [(Mesh::cubic(32, 2), 11), (Mesh::cubic(8, 3), 12)] {
            for lambda in [1, 3] {
                let context = format!("{:?} λ={lambda}", mesh.dims());
                let mut net = LgfiNetwork::new(
                    mesh.clone(),
                    FaultPlan::empty(),
                    NetworkConfig {
                        lambda,
                        ..NetworkConfig::default()
                    },
                );
                let mut churn = Churn::new(&mesh, seed, 0.2, 40.0, 12);
                let mut moved = false;
                for step in 0..1_500 {
                    let events = churn.events(step);
                    net.run_step_with(&events);
                    assert_arena_invariants(&net, &format!("{context} step {step}"));
                    moved |= net.arena.dead > 0;
                }
                assert!(moved, "{context}: the stream never moved a node");
                assert!(
                    net.arena.relayouts >= 2,
                    "{context}: the stream never compacted after its first layout"
                );
            }
        }
    }

    /// The fault stream of perfbench's `churn64` (seed 13, its rates, its
    /// warm-up and horizon): moves absorb the growth of the timed lists, so the
    /// arena compacts rarely (14 times; relaying out on every overflow gives 199).
    #[test]
    fn slot_arena_compacts_rarely_on_the_churn64_stream() {
        let mesh = Mesh::cubic(64, 2);
        let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
        let mut churn = Churn::new(&mesh, 13, 0.05, 400.0, 64);
        let (warmup, horizon) = (1_500, 4_000);
        let mut relayouts_at_warmup = 0;
        for step in 0..warmup + horizon {
            if step == warmup {
                relayouts_at_warmup = net.arena.relayouts;
            }
            let events = churn.events(step);
            net.run_step_with(&events);
        }
        let rebuilds = net.convergence_records().len();
        let relayouts = net.arena.relayouts - relayouts_at_warmup;
        assert!(
            relayouts <= 20,
            "{relayouts} full relayouts over a {horizon}-step horizon ({rebuilds} rebuilds)"
        );
        assert_arena_invariants(&net, "churn64 stream");
    }

    #[test]
    fn parallel_network_runs_are_bit_identical_to_serial() {
        let mesh = Mesh::cubic(12, 2);
        let run = |threads: usize| {
            let mut plan = FaultPlan::new(vec![
                FaultEvent::fail(0, mesh.id_of(&coord![5, 5])),
                FaultEvent::fail(0, mesh.id_of(&coord![6, 6])),
                FaultEvent::fail(0, mesh.id_of(&coord![5, 6])),
                FaultEvent::fail(25, mesh.id_of(&coord![2, 8])),
                FaultEvent::fail(25, mesh.id_of(&coord![3, 9])),
            ]);
            plan.push(FaultEvent::recover(60, mesh.id_of(&coord![5, 5])));
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                plan,
                NetworkConfig {
                    lambda: 2,
                    threads,
                    ..NetworkConfig::default()
                },
            );
            net.launch_probe(
                mesh.id_of(&coord![0, 0]),
                mesh.id_of(&coord![11, 11]),
                Box::new(LgfiRouter::new()),
            );
            net.run_to_completion(2_000);
            (
                net.statuses().to_vec(),
                net.blocks().regions(),
                net.convergence_records().to_vec(),
                net.round(),
                format!("{:?}", net.reports()),
            )
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }
}
