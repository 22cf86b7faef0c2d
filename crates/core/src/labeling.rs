//! Algorithm 1: block construction by rounds of local status exchange.
//!
//! Two equivalent implementations are provided:
//!
//! * [`LabelingEngine`] — an array-based synchronous fixpoint engine used by the rest
//!   of the library (fast, convenient access to the full status vector, measures the
//!   number of rounds to convergence, which is the paper's `a_i`);
//! * [`LabelingProtocol`] — the same rules expressed as a [`lgfi_sim::Protocol`] so
//!   that the labeling can be run on the generic round engine as a genuinely
//!   distributed protocol; the test suite checks that both produce identical fixpoints
//!   round by round.

use std::ops::Range;

use lgfi_sim::{
    NeighborView, NodeCtx, Outbox, PoolHandle, Protocol, RoundEngine, MAX_STACK_NEIGHBORS,
};
use lgfi_topology::{Coord, Direction, Mesh, NodeId};

use crate::status::{next_status, NodeStatus};

/// Per-worker scratch of a sharded labeling round: the shard's changed-id list
/// and how many nodes the worker evaluated.
#[derive(Debug, Clone, Default)]
struct LabelWorker {
    changed: Vec<NodeId>,
    evaluated: u64,
}

/// Array-based synchronous implementation of Algorithm 1.
///
/// The engine owns a zero-allocation round data plane (mirroring
/// [`RoundEngine`]'s, see `lgfi_sim::engine`): statuses are double-buffered, the
/// neighbor table is a flat CSR cache, and neighbor views are built in a
/// fixed-capacity stack array, so steady-state rounds touch no heap.  Because rules
/// 1–4 are a pure stencil of the neighbor statuses, the engine also schedules rounds
/// over the **active frontier** — only nodes whose status or neighborhood changed
/// (or that a fault/recovery touched) are re-evaluated, making post-convergence
/// rounds O(frontier) instead of O(n).  [`LabelingEngine::set_frontier`] can force
/// full evaluation; statuses, change counts and round counts are bit-identical
/// either way.
#[derive(Debug, Clone)]
pub struct LabelingEngine {
    mesh: Mesh,
    statuses: Vec<NodeStatus>,
    /// Staging double buffer: evaluated nodes whose status changes write here and the
    /// round barrier copies the changed entries back.
    next_statuses: Vec<NodeStatus>,
    /// Flat neighbor cache: `(direction, neighbor id)` pairs of node `i` live at
    /// `nbr_data[nbr_off[i]..nbr_off[i + 1]]`.
    nbr_data: Vec<(Direction, NodeId)>,
    nbr_off: Vec<usize>,
    /// Dirty nodes pending (re-)evaluation, deduplicated via `dirty`.  Maintained in
    /// both scheduling modes so [`LabelingEngine::is_stable`] and a mid-run
    /// [`LabelingEngine::set_frontier`] toggle stay sound.
    frontier: Vec<NodeId>,
    dirty: Vec<bool>,
    /// Serial-path scratch (and sharded merge target) for changed node ids.
    changed: Vec<NodeId>,
    /// Per-worker scratch for sharded rounds.
    workers: Vec<LabelWorker>,
    /// The frontier knob: when false every non-faulty node is evaluated each round.
    frontier_enabled: bool,
    rounds: u64,
    /// Total nodes evaluated over all rounds (for frontier-size reporting).
    evaluated_total: u64,
    /// Worker threads for round execution (1 = serial); results are bit-identical
    /// for every setting, exactly as for [`RoundEngine`].  Resolved once in
    /// [`LabelingEngine::set_threads`].
    threads: usize,
    /// Shard ranges for parallel rounds, recomputed only when the thread count
    /// changes so warm rounds never re-partition (or allocate).
    shards: Vec<Range<usize>>,
    /// The engine's persistent worker pool (spawned lazily on the first parallel
    /// round; a cloned engine starts with an empty handle and its own workers).
    pool: PoolHandle,
}

impl LabelingEngine {
    /// Creates an engine with every node enabled (the initial condition of
    /// Algorithm 1: "all non-faulty nodes are enabled").  The all-enabled mesh is a
    /// fixpoint of rules 1–4, so the engine starts with an empty frontier.
    pub fn new(mesh: Mesh) -> Self {
        let n = mesh.node_count();
        let mut nbr_data = Vec::new();
        let mut nbr_off = Vec::with_capacity(n + 1);
        nbr_off.push(0);
        for id in 0..n {
            nbr_data.extend(mesh.neighbor_ids(id));
            nbr_off.push(nbr_data.len());
        }
        let shards = lgfi_sim::shard_ranges(n, lgfi_sim::shard::slab_width(&mesh), 1);
        LabelingEngine {
            mesh,
            statuses: vec![NodeStatus::Enabled; n],
            next_statuses: vec![NodeStatus::Enabled; n],
            nbr_data,
            nbr_off,
            frontier: Vec::new(),
            dirty: vec![false; n],
            changed: Vec::new(),
            workers: Vec::new(),
            frontier_enabled: true,
            rounds: 0,
            evaluated_total: 0,
            threads: 1,
            shards,
            pool: PoolHandle::new(),
        }
    }

    /// Sets the number of worker threads used to execute labeling rounds: `1` runs
    /// serially, `0` resolves to one worker per available core.  The count is
    /// resolved **once**, here.  The labeling rule is a pure per-node function of
    /// the previous-round statuses, so every setting produces bit-identical status
    /// vectors and round counts.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = lgfi_sim::resolve_threads(threads);
        // Re-partition once per knob change (not per round) and pre-size the
        // per-shard scratch, keeping warm parallel rounds allocation-free.
        self.shards = lgfi_sim::shard_ranges(
            self.statuses.len(),
            lgfi_sim::shard::slab_width(&self.mesh),
            self.threads,
        );
        if self.workers.len() < self.shards.len() {
            self.workers
                .resize_with(self.shards.len(), LabelWorker::default);
        }
    }

    /// Builder-style variant of [`LabelingEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// The resolved number of worker threads (>= 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables or disables active-frontier scheduling (enabled by default).  Rules
    /// 1–4 are a pure stencil of the neighbor statuses, so statuses, change counts
    /// and round counts are bit-identical either way — this is purely a performance
    /// knob, safe to toggle mid-run.
    pub fn set_frontier(&mut self, enabled: bool) {
        self.frontier_enabled = enabled;
    }

    /// Builder-style variant of [`LabelingEngine::set_frontier`].
    pub fn with_frontier(mut self, enabled: bool) -> Self {
        self.set_frontier(enabled);
        self
    }

    /// True if rounds are scheduled over the active frontier.
    pub fn frontier_active(&self) -> bool {
        self.frontier_enabled
    }

    /// Number of nodes currently on the dirty frontier (0 iff the labeling is
    /// stable).
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Mean nodes evaluated per executed round (0.0 before any round ran): the
    /// frontier size under active-frontier scheduling, the full non-faulty node count
    /// under full evaluation.
    pub fn mean_evaluated_per_round(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.evaluated_total as f64 / self.rounds as f64
    }

    /// Creates an engine with the given faulty nodes already marked.
    pub fn with_faults(mesh: Mesh, faults: &[Coord]) -> Self {
        let mut eng = LabelingEngine::new(mesh);
        for f in faults {
            eng.inject_fault_coord(f);
        }
        eng
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of labeling rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The status vector, indexed by node id.
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// The status of a node.
    pub fn status(&self, id: NodeId) -> NodeStatus {
        self.statuses[id]
    }

    /// The status of a node given by coordinate.
    pub fn status_at(&self, c: &Coord) -> NodeStatus {
        self.statuses[self.mesh.id_of(c)]
    }

    /// Marks a node faulty (a new fault occurrence).
    pub fn inject_fault(&mut self, id: NodeId) {
        self.statuses[id] = NodeStatus::Faulty;
        self.mark_neighborhood(id);
    }

    /// Marks the node at `c` faulty.
    pub fn inject_fault_coord(&mut self, c: &Coord) {
        let id = self.mesh.id_of(c);
        self.inject_fault(id);
    }

    /// Recovers a faulty node (rule 5: faulty → clean).
    ///
    /// # Panics
    /// Panics if the node is not currently faulty.
    pub fn recover(&mut self, id: NodeId) {
        assert_eq!(
            self.statuses[id],
            NodeStatus::Faulty,
            "only a faulty node can recover"
        );
        self.statuses[id] = NodeStatus::Clean;
        self.mark_neighborhood(id);
    }

    /// Marks `id` and its neighbors as pending re-evaluation (their next status may
    /// depend on `id`'s new status).
    fn mark_neighborhood(&mut self, id: NodeId) {
        mark_dirty(&mut self.frontier, &mut self.dirty, id);
        for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
            mark_dirty(&mut self.frontier, &mut self.dirty, nid);
        }
    }

    /// Recovers the faulty node at `c`.
    pub fn recover_coord(&mut self, c: &Coord) {
        let id = self.mesh.id_of(c);
        self.recover(id);
    }

    /// Executes one synchronous round of rules 1–4; returns the number of nodes whose
    /// status changed.  With [`LabelingEngine::set_threads`] > 1 the round is
    /// executed by sharded workers (contiguous dimension-0 slabs, as in
    /// [`RoundEngine`]) with bit-identical results.
    pub fn run_round(&mut self) -> usize {
        // External marks (faults, recoveries) arrive unordered; evaluation must scan
        // ascending node ids so frontier and full rounds behave identically.
        self.frontier.sort_unstable();
        let changes = if self.threads > 1 {
            self.round_sharded()
        } else {
            self.round_serial()
        };
        self.rounds += 1;
        changes
    }

    /// The single-threaded round body.
    fn round_serial(&mut self) -> usize {
        let n = self.statuses.len();
        self.changed.clear();
        let view = StatusView {
            statuses: &self.statuses,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
        };
        self.evaluated_total += if self.frontier_enabled {
            eval_ids(
                &view,
                self.frontier.iter().copied(),
                0,
                &mut self.next_statuses,
                &mut self.changed,
            )
        } else {
            eval_ids(&view, 0..n, 0, &mut self.next_statuses, &mut self.changed)
        };
        self.commit_and_mark()
    }

    /// The sharded round body: workers evaluate contiguous dimension-0 slabs (or the
    /// frontier slice inside them) against the shared previous statuses and stage
    /// changes into disjoint regions of the shared back buffer (the double buffer is
    /// the halo exchange); the changed-id lists are merged at the round barrier in
    /// shard order.
    fn round_sharded(&mut self) -> usize {
        if self.shards.len() <= 1 {
            // A single slab cannot be split: skip the worker machinery entirely.
            return self.round_serial();
        }
        let view = StatusView {
            statuses: &self.statuses,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
        };
        let use_frontier = self.frontier_enabled;
        let frontier = &self.frontier;
        let shard_count = self.shards.len();
        self.pool.get(self.threads).run_sharded(
            &mut self.next_statuses,
            &self.shards,
            &mut self.workers[..shard_count],
            |_, base, slab, ws| {
                ws.changed.clear();
                let range = base..base + slab.len();
                ws.evaluated = if use_frontier {
                    let lo = frontier.partition_point(|&x| x < range.start);
                    let hi = frontier.partition_point(|&x| x < range.end);
                    eval_ids(
                        &view,
                        frontier[lo..hi].iter().copied(),
                        base,
                        slab,
                        &mut ws.changed,
                    )
                } else {
                    eval_ids(&view, range, base, slab, &mut ws.changed)
                };
            },
        );
        self.changed.clear();
        let (changed, workers) = (&mut self.changed, &self.workers);
        for ws in &workers[..shard_count] {
            self.evaluated_total += ws.evaluated;
            changed.extend_from_slice(&ws.changed);
        }
        self.commit_and_mark()
    }

    /// The round barrier: commits the staged statuses of changed nodes, consumes the
    /// evaluated frontier and marks the next one (changed nodes and their
    /// neighborhoods).  Returns the change count.
    fn commit_and_mark(&mut self) -> usize {
        for &id in &self.changed {
            self.statuses[id] = self.next_statuses[id];
        }
        for &id in &self.frontier {
            self.dirty[id] = false;
        }
        self.frontier.clear();
        let (frontier, dirty) = (&mut self.frontier, &mut self.dirty);
        for &id in &self.changed {
            mark_dirty(frontier, dirty, id);
            for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
                mark_dirty(frontier, dirty, nid);
            }
        }
        self.changed.len()
    }

    /// Runs rounds until no status changes; returns the number of rounds executed
    /// (this is the paper's `a_i` for the fault change that preceded the call).
    ///
    /// Returns `None` if `max_rounds` is exceeded (which would indicate a
    /// non-stabilising configuration; Algorithm 1 always stabilises, so the tests
    /// treat this as a failure).
    pub fn run_to_fixpoint(&mut self, max_rounds: u64) -> Option<u64> {
        let mut executed = 0u64;
        loop {
            if executed >= max_rounds {
                return None;
            }
            let changes = self.run_round();
            executed += 1;
            if changes == 0 {
                return Some(executed);
            }
        }
    }

    /// Convenience: inject a set of faults and run to fixpoint, returning the number
    /// of rounds (`a_i`).
    pub fn apply_faults(&mut self, faults: &[Coord]) -> u64 {
        for f in faults {
            self.inject_fault_coord(f);
        }
        self.run_to_fixpoint(self.safe_round_bound())
            // audit:allow(panic): Theorem 1 bounds stabilisation well below safe_round_bound; exceeding it means the rules themselves are broken
            .expect("labeling must stabilise")
    }

    /// Convenience: recover a set of nodes and run to fixpoint, returning the number
    /// of rounds.
    pub fn apply_recoveries(&mut self, recovered: &[Coord]) -> u64 {
        for r in recovered {
            self.recover_coord(r);
        }
        self.run_to_fixpoint(self.safe_round_bound())
            // audit:allow(panic): Theorem 1 bounds stabilisation well below safe_round_bound; exceeding it means the rules themselves are broken
            .expect("labeling must stabilise")
    }

    /// A generous upper bound on stabilisation rounds used as a watchdog: the labeling
    /// waves cannot travel further than the mesh diameter plus a constant, and the
    /// clean/enabled oscillation of a single node is bounded by a small constant, so
    /// `4 * (diameter + 4)` is far beyond anything Algorithm 1 needs.
    pub fn safe_round_bound(&self) -> u64 {
        4 * (u64::from(self.mesh.diameter()) + 4)
    }

    /// True if one more round would not change any status.
    ///
    /// Derived from the frontier bookkeeping in O(1) — no cloning, no throwaway
    /// probe round: the frontier is empty exactly when every node's inputs were
    /// unchanged by the last round (or by fault/recovery events), and rules 1–4 are a
    /// pure stencil of those inputs.  This is (conservatively) false right after an
    /// injected disturbance whose re-evaluation would turn out to change nothing; one
    /// [`LabelingEngine::run_round`] resolves it.
    pub fn is_stable(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Counts nodes by status: `(faulty, disabled, clean, enabled)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut f = 0;
        let mut d = 0;
        let mut c = 0;
        let mut e = 0;
        for s in &self.statuses {
            match s {
                NodeStatus::Faulty => f += 1,
                NodeStatus::Disabled => d += 1,
                NodeStatus::Clean => c += 1,
                NodeStatus::Enabled => e += 1,
            }
        }
        (f, d, c, e)
    }

    /// Ids of all nodes currently in a block (faulty or disabled).
    pub fn block_nodes(&self) -> Vec<NodeId> {
        (0..self.statuses.len())
            .filter(|&i| self.statuses[i].in_block())
            .collect()
    }
}

/// Marks a node dirty, keeping the frontier list deduplicated.
fn mark_dirty(frontier: &mut Vec<NodeId>, dirty: &mut [bool], id: NodeId) {
    if !dirty[id] {
        dirty[id] = true;
        frontier.push(id);
    }
}

/// The shared, read-only inputs of one labeling round.
#[derive(Clone, Copy)]
struct StatusView<'a> {
    statuses: &'a [NodeStatus],
    nbr_data: &'a [(Direction, NodeId)],
    nbr_off: &'a [usize],
}

/// Applies rules 1–4 to the non-faulty nodes of `ids` (ascending), staging changed
/// statuses into `next_slab` (indexed by `id - base`) and collecting the changed ids.
/// Neighbor views are built in a fixed-capacity stack array, so evaluation never
/// touches the heap.  Returns the number of nodes evaluated.
fn eval_ids(
    view: &StatusView<'_>,
    ids: impl Iterator<Item = NodeId>,
    base: usize,
    next_slab: &mut [NodeStatus],
    changed: &mut Vec<NodeId>,
) -> u64 {
    let mut evaluated = 0u64;
    for id in ids {
        let prev = view.statuses[id];
        if prev == NodeStatus::Faulty {
            continue;
        }
        evaluated += 1;
        let nbrs = &view.nbr_data[view.nbr_off[id]..view.nbr_off[id + 1]];
        let mut buf = [(Direction::pos(0), NodeStatus::Enabled); MAX_STACK_NEIGHBORS];
        for (slot, &(dir, nid)) in buf.iter_mut().zip(nbrs) {
            *slot = (dir, view.statuses[nid]);
        }
        let ns = next_status(prev, &buf[..nbrs.len()]);
        if ns != prev {
            next_slab[id - base] = ns;
            changed.push(id);
        }
    }
    evaluated
}

/// The same rules as a distributed [`Protocol`] for the generic round engine.
///
/// The protocol state is simply the node's [`NodeStatus`]; faults are injected with
/// [`RoundEngine::inject_fault`] (the engine then reports the neighbor as faulty) and
/// recoveries with [`RoundEngine::recover`] using [`NodeStatus::Clean`] as the
/// post-recovery state (rule 5).
#[derive(Debug, Clone, Default)]
pub struct LabelingProtocol;

impl Protocol for LabelingProtocol {
    type State = NodeStatus;
    type Msg = ();

    /// Rules 1–4 read only the previous statuses of the node and its neighbors and
    /// never send messages, so the labeling is a pure stencil: the engine may skip
    /// nodes outside the dirty frontier with bit-identical results.
    const ROUND_INVARIANT: bool = true;

    fn init(&self, _ctx: &NodeCtx<'_>) -> NodeStatus {
        NodeStatus::Enabled
    }

    fn on_round(
        &self,
        _ctx: &NodeCtx<'_>,
        prev: &NodeStatus,
        neighbors: &[NeighborView<'_, NodeStatus>],
        _inbox: &[()],
        _outbox: &mut Outbox<()>,
    ) -> NodeStatus {
        let status_of = |nb: &NeighborView<'_, NodeStatus>| {
            (
                nb.dir,
                if nb.faulty {
                    NodeStatus::Faulty
                } else {
                    // audit:allow(panic): the round engine hands every non-faulty neighbor a state; None here is engine corruption
                    *nb.state.expect("non-faulty neighbor must expose state")
                },
            )
        };
        let mut buf = [(Direction::pos(0), NodeStatus::Enabled); MAX_STACK_NEIGHBORS];
        for (slot, nb) in buf.iter_mut().zip(neighbors) {
            *slot = status_of(nb);
        }
        next_status(*prev, &buf[..neighbors.len()])
    }
}

/// Runs the distributed labeling protocol on a round engine with the given faults and
/// returns `(statuses, rounds_to_quiescence)`.  Mainly used by tests and experiments
/// to cross-validate [`LabelingEngine`].
pub fn run_distributed_labeling(mesh: &Mesh, faults: &[Coord]) -> (Vec<NodeStatus>, u64) {
    let mut engine = RoundEngine::new(mesh.clone(), LabelingProtocol);
    for f in faults {
        engine.inject_fault(mesh.id_of(f));
    }
    let rounds = engine
        .run_until_quiescent(4 * (u64::from(mesh.diameter()) + 4))
        // audit:allow(panic): the budget is 4x the diameter-based Theorem 1 bound; non-quiescence means the protocol is broken
        .expect("labeling must stabilise");
    let statuses: Vec<NodeStatus> = (0..mesh.node_count())
        .map(|id| {
            if engine.is_faulty(id) {
                NodeStatus::Faulty
            } else {
                *engine.state(id)
            }
        })
        .collect();
    (statuses, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_topology::coord;

    /// The fault set of Figure 1: (3,5,4), (4,5,4), (5,5,3), (3,6,3) in a 3-D mesh.
    fn figure1_faults() -> Vec<Coord> {
        vec![
            coord![3, 5, 4],
            coord![4, 5, 4],
            coord![5, 5, 3],
            coord![3, 6, 3],
        ]
    }

    #[test]
    fn figure1_faults_produce_the_block_3to5_5to6_3to4() {
        let mesh = Mesh::cubic(10, 3);
        let mut eng = LabelingEngine::new(mesh);
        let rounds = eng.apply_faults(&figure1_faults());
        assert!(
            rounds >= 2,
            "the example needs at least two waves of disabling"
        );
        // Every node of [3:5, 5:6, 3:4] is faulty or disabled...
        let block = lgfi_topology::Region::new(vec![3, 5, 3], vec![5, 6, 4]);
        for c in block.iter_coords() {
            assert!(
                eng.status_at(&c).in_block(),
                "{c:?} should be part of the block, got {:?}",
                eng.status_at(&c)
            );
        }
        // ... and nothing else is.
        let (f, d, _c, _e) = eng.census();
        assert_eq!(f, 4);
        assert_eq!((f + d) as u64, block.volume());
    }

    #[test]
    fn single_fault_disables_nobody() {
        let mesh = Mesh::cubic(8, 3);
        let mut eng = LabelingEngine::new(mesh);
        let rounds = eng.apply_faults(&[coord![4, 4, 4]]);
        assert_eq!(
            rounds, 1,
            "a single fault stabilises after one (no-change) round"
        );
        let (f, d, c, e) = eng.census();
        assert_eq!((f, d, c), (1, 0, 0));
        assert_eq!(e, 8 * 8 * 8 - 1);
    }

    #[test]
    fn l_shaped_fault_pair_disables_the_corner_node() {
        // Faults at (2,3) and (3,2): node (2,2)... has neighbors (2,3) [Y] and (3,2)?
        // (3,2) is not a neighbor of (2,2). Use the classic staircase: faults (2,3),
        // (3,2) leave (2,2) and (3,3) each with two faulty neighbors in different
        // dimensions? (2,2)'s neighbors: (1,2),(3,2),(2,1),(2,3) -> (3,2) faulty [X],
        // (2,3) faulty [Y] -> disabled. Same for (3,3).
        let mesh = Mesh::cubic(8, 2);
        let mut eng = LabelingEngine::new(mesh);
        eng.apply_faults(&[coord![2, 3], coord![3, 2]]);
        assert_eq!(eng.status_at(&coord![2, 2]), NodeStatus::Disabled);
        assert_eq!(eng.status_at(&coord![3, 3]), NodeStatus::Disabled);
        let (f, d, _, _) = eng.census();
        assert_eq!(f, 2);
        assert_eq!(d, 2);
    }

    #[test]
    fn distributed_protocol_matches_array_engine() {
        let mesh = Mesh::cubic(9, 3);
        let faults = figure1_faults();
        let mut array = LabelingEngine::new(mesh.clone());
        array.apply_faults(&faults);
        let (distributed, _rounds) = run_distributed_labeling(&mesh, &faults);
        assert_eq!(array.statuses(), distributed.as_slice());
    }

    #[test]
    fn distributed_protocol_matches_on_random_fault_sets() {
        use lgfi_sim::DetRng;
        let mesh = Mesh::cubic(7, 3);
        let interior = mesh.interior_region().unwrap();
        let interior_nodes: Vec<Coord> = interior.iter_coords().collect();
        for seed in 0..5u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let picks = rng.sample_indices(interior_nodes.len(), 12);
            let faults: Vec<Coord> = picks.iter().map(|&i| interior_nodes[i]).collect();
            let mut array = LabelingEngine::new(mesh.clone());
            array.apply_faults(&faults);
            let (distributed, _) = run_distributed_labeling(&mesh, &faults);
            assert_eq!(array.statuses(), distributed.as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn figure4_recovery_sequence() {
        // Figure 4: after the Figure-1 block is stable, node (5,5,3) recovers.
        let mesh = Mesh::cubic(10, 3);
        let mut eng = LabelingEngine::new(mesh);
        eng.apply_faults(&figure1_faults());
        eng.recover_coord(&coord![5, 5, 3]);
        // Round 1: the recovered node is clean; its disabled neighbors that do not
        // have two faults in different dimensions turn clean next round.
        eng.run_round();
        assert_eq!(eng.status_at(&coord![4, 5, 3]), NodeStatus::Clean);
        assert_eq!(eng.status_at(&coord![5, 6, 3]), NodeStatus::Clean);
        assert_eq!(eng.status_at(&coord![5, 5, 4]), NodeStatus::Clean);
        // (3,5,3) must never become clean: it has faulty neighbors (3,5,4) and (3,6,3)
        // in different dimensions.
        let mut saw_clean_353 = false;
        for _ in 0..20 {
            if eng.run_round() == 0 {
                break;
            }
            saw_clean_353 |= eng.status_at(&coord![3, 5, 3]) == NodeStatus::Clean;
        }
        assert!(!saw_clean_353, "(3,5,3) must stay disabled throughout");
        assert_eq!(eng.status_at(&coord![3, 5, 3]), NodeStatus::Disabled);
        // (4,5,3) ends up disabled again: after turning enabled it still has the
        // faulty neighbor (4,5,4) and the disabled neighbor (3,5,3) in different
        // dimensions (the worked example in the paper).
        assert_eq!(eng.status_at(&coord![4, 5, 3]), NodeStatus::Disabled);
        // The recovered node itself ends enabled: the stabilised block shrinks to
        // [3:4, 5:6, 3:4] and no longer reaches x = 5 (Figure 4 (b)).
        assert_eq!(eng.status_at(&coord![5, 5, 3]), NodeStatus::Enabled);
        assert_eq!(eng.status_at(&coord![5, 5, 4]), NodeStatus::Enabled);
        assert_eq!(eng.status_at(&coord![5, 6, 3]), NodeStatus::Enabled);
        let new_block = lgfi_topology::Region::new(vec![3, 5, 3], vec![4, 6, 4]);
        for c in new_block.iter_coords() {
            assert!(
                eng.status_at(&c).in_block(),
                "{c:?} should remain in the shrunken block"
            );
        }
        // No clean nodes remain once stable.
        let (_, _, c, _) = eng.census();
        assert_eq!(c, 0);
    }

    #[test]
    fn full_recovery_returns_mesh_to_all_enabled() {
        let mesh = Mesh::cubic(8, 2);
        let mut eng = LabelingEngine::new(mesh);
        let faults = [coord![3, 3], coord![4, 4], coord![3, 4], coord![4, 3]];
        eng.apply_faults(&faults);
        let (f, d, _, _) = eng.census();
        assert_eq!(f, 4);
        assert!(d > 0 || f == 4);
        for fault in &faults {
            eng.recover_coord(fault);
        }
        eng.run_to_fixpoint(200).unwrap();
        let (f, d, c, e) = eng.census();
        assert_eq!((f, d, c), (0, 0, 0));
        assert_eq!(e, 64);
    }

    #[test]
    fn convergence_rounds_scale_with_cluster_size_not_mesh_size() {
        // a_i depends on how far the disabling wave travels, not on the mesh size.
        let faults = [coord![4, 5], coord![5, 4], coord![6, 5], coord![5, 6]];
        let mut small = LabelingEngine::new(Mesh::cubic(11, 2));
        let r_small = small.apply_faults(&faults);
        let mut large = LabelingEngine::new(Mesh::cubic(41, 2));
        let r_large = large.apply_faults(&faults);
        assert_eq!(r_small, r_large);
    }

    #[test]
    fn is_stable_and_census_are_consistent() {
        let mesh = Mesh::cubic(6, 2);
        let mut eng = LabelingEngine::new(mesh);
        assert!(eng.is_stable());
        eng.inject_fault_coord(&coord![2, 2]);
        eng.inject_fault_coord(&coord![3, 3]);
        eng.inject_fault_coord(&coord![2, 3]);
        assert!(!eng.is_stable());
        eng.run_to_fixpoint(100).unwrap();
        assert!(eng.is_stable());
        let blocked = eng.block_nodes().len();
        let (f, d, _, _) = eng.census();
        assert_eq!(blocked, f + d);
    }

    #[test]
    #[should_panic(expected = "only a faulty node can recover")]
    fn recovering_a_healthy_node_panics() {
        let mesh = Mesh::cubic(5, 2);
        let mut eng = LabelingEngine::new(mesh);
        eng.recover_coord(&coord![1, 1]);
    }

    #[test]
    fn sharded_labeling_rounds_match_serial_exactly() {
        for dims in [vec![10, 10], vec![7, 6, 5], vec![4, 4, 3, 3]] {
            let mesh = Mesh::new(&dims);
            let faults: Vec<Coord> = mesh
                .interior_region()
                .map(|r| r.iter_coords().step_by(7).take(10).collect())
                .unwrap_or_default();
            let run = |threads: usize| {
                let mut eng = LabelingEngine::new(mesh.clone()).with_threads(threads);
                let mut per_round = Vec::new();
                for f in &faults {
                    eng.inject_fault_coord(f);
                }
                loop {
                    let c = eng.run_round();
                    per_round.push(c);
                    if c == 0 {
                        break;
                    }
                }
                // A recovery wave afterwards, still identical.
                if let Some(f) = faults.first() {
                    eng.recover_coord(f);
                    loop {
                        let c = eng.run_round();
                        per_round.push(c);
                        if c == 0 {
                            break;
                        }
                    }
                }
                (eng.statuses().to_vec(), eng.rounds(), per_round)
            };
            let serial = run(1);
            for threads in [2, 3, 8] {
                assert_eq!(serial, run(threads), "dims {dims:?} threads {threads}");
            }
        }
    }

    #[test]
    fn labeling_threads_knob_resolves() {
        let eng = LabelingEngine::new(Mesh::cubic(4, 2)).with_threads(0);
        assert!(eng.threads() >= 1);
        let eng = LabelingEngine::new(Mesh::cubic(4, 2)).with_threads(3);
        assert_eq!(eng.threads(), 3);
    }
}
