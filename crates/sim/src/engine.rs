//! The round-synchronous stencil engine.
//!
//! A [`Protocol`] is a purely local rule: in every round each non-faulty node computes
//! its next state from its previous state and a view of each neighbor — either the
//! neighbor's previous state or the fact that the neighbor is faulty — and from
//! nothing else.
//!
//! The [`RoundEngine`] executes a protocol over a [`Mesh`], double-buffering node
//! states so that every update within a round reads only previous-round information —
//! exactly the "rounds of status exchanges among neighbors" of Algorithm 1.
//!
//! # Round data plane
//!
//! The engine owns every buffer the hot round loop touches, so steady-state rounds
//! perform **zero heap allocations** (asserted by `tests/alloc_regression.rs`):
//!
//! * node states live in two persistent buffers; evaluated nodes stage their next
//!   state in the back buffer and the round commit swaps only the changed entries;
//! * neighbor views are built in a fixed-capacity stack array of
//!   [`MAX_STACK_NEIGHBORS`] entries, which covers every mesh
//!   ([`Mesh::new`] admits at most [`MAX_DIMS`] dimensions);
//! * round statistics ([`EngineStats`]) are running totals, so recording a round
//!   never allocates and a long-lived engine stays the same size.
//!
//! # Active-frontier scheduling
//!
//! A rule's inputs are exactly the previous state and the neighbor views, so a node
//! none of whose inputs changed recomputes its own state.  The engine therefore keeps
//! a **dirty set** — the nodes whose state changed in the last round, their
//! neighbors, and the neighborhood of every [`RoundEngine::set_state`],
//! [`RoundEngine::inject_fault`] and [`RoundEngine::recover`] — and evaluates only
//! those frontier nodes.  Post-convergence rounds cost O(frontier) instead of O(n),
//! and states and change counts are bit-identical to full evaluation for every
//! protocol.  A fresh engine seeds the set in one pass over the mesh with the nodes
//! whose first evaluation would change their state, so a protocol whose initial
//! configuration is already a fixpoint (the all-enabled labeling of Algorithm 1)
//! starts with an empty frontier.  [`RoundEngine::set_frontier`] can force full
//! evaluation for comparison; the knob never changes results.
//!
//! # Parallel execution
//!
//! Because every round reads only previous-round data, the engine can execute rounds
//! in parallel without changing protocol semantics: [`RoundEngine::set_threads`]
//! partitions the mesh into contiguous slabs along the highest-stride dimension (see
//! [`crate::shard`]) and gives each slab to a worker of the engine's persistent
//! [`WorkerPool`](crate::shard::WorkerPool) (spawned lazily on the first parallel
//! round, parked on a generation barrier between rounds).
//! Workers read the shared previous-round state (the halo exchange is implicit in the
//! double buffer), write their staged states into disjoint regions of the shared
//! back buffer and list the ids that changed; the round commit walks those lists in
//! shard order, exactly as it walks the serial one.  Parallel runs are therefore
//! **bit-identical** to serial runs for any protocol — parallelism is an execution
//! detail, not a semantics change, and it composes with active-frontier scheduling
//! (each worker evaluates the frontier slice of its own slab).  Shard ranges are
//! computed once per [`RoundEngine::set_threads`] call and the per-shard scratch is
//! owned by the engine, so warm parallel rounds stay allocation-free.

use std::ops::Range;

use lgfi_topology::coord::MAX_DIMS;
use lgfi_topology::{Coord, Direction, Mesh, NodeId};

use crate::shard::{resolve_threads, shard_ranges, slab_width, PoolHandle};
use crate::stats::EngineStats;

/// Capacity of the stack-allocated neighbor-view scratch: the `2n` neighbors of a
/// node in a mesh of the largest admitted dimensionality, [`MAX_DIMS`].
pub const MAX_STACK_NEIGHBORS: usize = 2 * MAX_DIMS;

/// What a node can see of one of its neighbors during a round.
#[derive(Debug)]
pub struct NeighborView<'a, S> {
    /// Direction from the current node towards this neighbor.
    pub dir: Direction,
    /// The neighbor's node id.
    pub id: NodeId,
    /// The neighbor's previous-round state; `None` iff the neighbor is currently
    /// faulty (detected at the fault-detection phase of the enclosing step).
    pub state: Option<&'a S>,
}

/// Static per-node context handed to the protocol.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// The mesh the protocol runs on.
    pub mesh: &'a Mesh,
    /// The node executing the rule.
    pub id: NodeId,
}

impl<'a> NodeCtx<'a> {
    /// Coordinate of the executing node.
    pub fn coord(&self) -> Coord {
        self.mesh.coord_of(self.id)
    }
}

/// A synchronous, purely local stencil rule.
///
/// The rule must be a pure function of its inputs, and states are plain data
/// (`Send + Sync`), so the engine may skip nodes whose inputs did not change and may
/// evaluate different nodes of the same round on different worker threads; see the
/// module docs.
pub trait Protocol: Sync {
    /// Per-node protocol state.
    type State: Clone + PartialEq + Send + Sync;

    /// The initial state of node `ctx.id`.
    fn init(&self, ctx: &NodeCtx<'_>) -> Self::State;

    /// Computes the next state of a non-faulty node from its previous state `prev`
    /// and the views of all its in-mesh neighbors.
    fn on_round(
        &self,
        ctx: &NodeCtx<'_>,
        prev: &Self::State,
        neighbors: &[NeighborView<'_, Self::State>],
    ) -> Self::State;
}

/// Reusable evaluation scratch of one shard (the serial path uses the first): the
/// ids whose state changed, ascending, and the number of nodes evaluated.
#[derive(Default)]
struct ShardScratch {
    changed: Vec<NodeId>,
    evaluated: u64,
}

/// Executes a [`Protocol`] over a mesh in synchronous rounds.
pub struct RoundEngine<P: Protocol> {
    mesh: Mesh,
    protocol: P,
    /// Previous-round (committed) state per node.
    states: Vec<P::State>,
    /// The staging double buffer: evaluated nodes whose state changes write here and
    /// the round commit swaps the changed entries into `states`.
    next_states: Vec<P::State>,
    /// Faulty flag per node.
    faulty: Vec<bool>,
    /// Flat neighbor cache: `(direction, neighbor id)` pairs for node `i` live at
    /// `nbr_data[nbr_off[i]..nbr_off[i + 1]]`.
    nbr_data: Vec<(Direction, NodeId)>,
    nbr_off: Vec<usize>,
    /// One evaluation scratch per shard (never fewer than one); a round fills the
    /// first one, or one per shard, and the commit reads them in shard order.
    scratch: Vec<ShardScratch>,
    /// Dirty nodes pending evaluation (kept consistent with `dirty_flag`); maintained
    /// whether or not rounds are scheduled over it.
    frontier: Vec<NodeId>,
    dirty_flag: Vec<bool>,
    /// The frontier knob: when false the engine evaluates every node (results are
    /// bit-identical either way).
    frontier_on: bool,
    round: u64,
    stats: EngineStats,
    /// Number of worker threads for round execution (1 = serial), resolved once in
    /// [`RoundEngine::set_threads`].
    threads: usize,
    /// The shard ranges parallel rounds execute over; recomputed only when the
    /// thread count changes, so warm rounds never re-partition (or allocate).
    shards: Vec<Range<usize>>,
    /// The engine's persistent worker pool (workers spawn lazily on the first
    /// parallel round and park between rounds).
    pool: PoolHandle,
}

impl<P: Protocol> RoundEngine<P> {
    /// Creates an engine with every node non-faulty and in its initial protocol state,
    /// and evaluates every node once to seed the frontier (see the module docs);
    /// nothing is committed.
    pub fn new(mesh: Mesh, protocol: P) -> Self {
        let n = mesh.node_count();
        let mut nbr_data = Vec::new();
        let mut nbr_off = Vec::with_capacity(n + 1);
        nbr_off.push(0);
        for id in 0..n {
            nbr_data.extend(mesh.neighbor_ids(id));
            nbr_off.push(nbr_data.len());
        }
        let states: Vec<P::State> = (0..n)
            .map(|id| protocol.init(&NodeCtx { mesh: &mesh, id }))
            .collect();
        let mut engine = RoundEngine {
            protocol,
            next_states: states.clone(),
            states,
            faulty: vec![false; n],
            nbr_data,
            nbr_off,
            scratch: vec![ShardScratch::default()],
            frontier: Vec::new(),
            dirty_flag: vec![false; n],
            frontier_on: true,
            round: 0,
            stats: EngineStats::default(),
            threads: 1,
            shards: shard_ranges(n, slab_width(&mesh), 1),
            pool: PoolHandle::new(),
            mesh,
        };
        engine.seed_frontier();
        engine
    }

    /// Puts on the frontier every node whose first evaluation would change its state.
    /// Every other node keeps recomputing its own state until one of its inputs
    /// changes, which marks it dirty, so skipping it is bit-identical to evaluating it.
    fn seed_frontier(&mut self) {
        let filled = self.evaluate(false);
        for ws in &self.scratch[..filled] {
            for &id in &ws.changed {
                mark_dirty(&mut self.frontier, &mut self.dirty_flag, id);
            }
        }
    }

    /// Sets the number of worker threads used to execute rounds: `1` runs serially,
    /// `0` resolves to one worker per available core, any other value is used as-is.
    /// The count is resolved **once**, here; rounds and [`EngineStats::threads`]
    /// use the resolved value from then on.  Results are bit-identical for every
    /// setting (see the module docs).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = resolve_threads(threads);
        self.stats.set_threads(self.threads);
        // Re-partition once per knob change (not per round) and pre-size the
        // per-shard scratch, keeping warm parallel rounds allocation-free.
        self.shards = shard_ranges(self.states.len(), slab_width(&self.mesh), self.threads);
        if self.scratch.len() < self.shards.len() {
            self.scratch
                .resize_with(self.shards.len(), ShardScratch::default);
        }
    }

    /// Builder-style variant of [`RoundEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// The resolved number of worker threads (>= 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables or disables active-frontier scheduling (enabled by default).  Results
    /// are bit-identical either way, so this is purely a performance knob, safe to
    /// toggle mid-run.
    pub fn set_frontier(&mut self, enabled: bool) {
        self.frontier_on = enabled;
    }

    /// Builder-style variant of [`RoundEngine::set_frontier`].
    pub fn with_frontier(mut self, enabled: bool) -> Self {
        self.set_frontier(enabled);
        self
    }

    /// True if rounds are scheduled over the active frontier.
    pub fn frontier_active(&self) -> bool {
        self.frontier_on
    }

    /// Number of nodes currently on the dirty frontier; when it is 0 the next round
    /// changes nothing.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// The mesh the engine runs on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current round number (number of rounds executed so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Accumulated engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The committed state of a node.
    pub fn state(&self, id: NodeId) -> &P::State {
        &self.states[id]
    }

    /// All committed states, indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Overwrites the state of a node (used by higher layers for event injection).
    pub fn set_state(&mut self, id: NodeId, state: P::State) {
        self.states[id] = state;
        self.mark_neighborhood(id);
    }

    /// True if the node is currently faulty.
    pub fn is_faulty(&self, id: NodeId) -> bool {
        self.faulty[id]
    }

    /// Marks a node faulty.  A faulty node stops executing the protocol and its state
    /// is invisible to neighbors (they only see `faulty = true`).
    pub fn inject_fault(&mut self, id: NodeId) {
        self.faulty[id] = true;
        self.mark_neighborhood(id);
    }

    /// Recovers a faulty node: it becomes non-faulty again with the given state
    /// (protocols usually supply their "recovered / clean" state here, per rule 5 of
    /// Algorithm 1).
    pub fn recover(&mut self, id: NodeId, state: P::State) {
        self.faulty[id] = false;
        self.states[id] = state;
        self.mark_neighborhood(id);
    }

    /// Ids of all currently faulty nodes.
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        (0..self.states.len()).filter(|&i| self.faulty[i]).collect()
    }

    /// Marks `id` and all its neighbors dirty (their views change when `id`'s state
    /// or fault flag changes from outside the round loop).
    fn mark_neighborhood(&mut self, id: NodeId) {
        mark_dirty(&mut self.frontier, &mut self.dirty_flag, id);
        for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
            mark_dirty(&mut self.frontier, &mut self.dirty_flag, nid);
        }
    }

    /// Executes one synchronous round; returns the number of nodes whose state
    /// changed.  With [`RoundEngine::set_threads`] > 1 the round is executed by
    /// sharded workers with bit-identical results.
    pub fn run_round(&mut self) -> usize {
        if self.frontier_on {
            // Marks arrive unordered; shards slice the frontier by ascending id.
            self.frontier.sort_unstable();
        }
        let filled = self.evaluate(self.frontier_on);
        self.commit(filled)
    }

    /// Evaluates every node, or only the (sorted) frontier, against the committed
    /// states — on this thread, or one slab per pool worker — and returns how many
    /// shard scratches it filled.  A worker panic completes the barrier and re-raises
    /// here, so no half-evaluated round is ever committed.
    fn evaluate(&mut self, use_frontier: bool) -> usize {
        let view = RoundView {
            mesh: &self.mesh,
            protocol: &self.protocol,
            states: &self.states,
            faulty: &self.faulty,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
        };
        let frontier = use_frontier.then_some(&self.frontier[..]);
        if self.threads <= 1 || self.shards.len() <= 1 {
            // Serial, or a single slab that cannot be split: evaluate inline.
            eval_slab(
                &view,
                frontier,
                0,
                &mut self.next_states,
                &mut self.scratch[0],
            );
            return 1;
        }
        let shard_count = self.shards.len();
        self.pool.get(self.threads).run_sharded(
            &mut self.next_states,
            &self.shards,
            &mut self.scratch[..shard_count],
            |_, base, slab, ws| eval_slab(&view, frontier, base, slab, ws),
        );
        shard_count
    }

    /// The round barrier, shared by serial and sharded rounds: swaps the staged state
    /// of every changed node into the committed buffer (the first `filled` scratches,
    /// in shard order), advances the frontier and records the round; returns the
    /// number of changes.
    fn commit(&mut self, filled: usize) -> usize {
        let mut changes = 0usize;
        let mut evaluated = 0u64;
        for ws in &self.scratch[..filled] {
            for &id in &ws.changed {
                std::mem::swap(&mut self.states[id], &mut self.next_states[id]);
            }
            changes += ws.changed.len();
            evaluated += ws.evaluated;
        }
        self.update_frontier(filled);
        self.round += 1;
        self.stats.record_round(changes as u64, evaluated);
        changes
    }

    /// Consumes the evaluated frontier and marks the next one: every node whose state
    /// changed and the neighbors of every changed node.
    fn update_frontier(&mut self, filled: usize) {
        for &id in &self.frontier {
            self.dirty_flag[id] = false;
        }
        self.frontier.clear();
        let (frontier, dirty) = (&mut self.frontier, &mut self.dirty_flag);
        for ws in &self.scratch[..filled] {
            for &id in &ws.changed {
                mark_dirty(frontier, dirty, id);
                for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
                    mark_dirty(frontier, dirty, nid);
                }
            }
        }
    }

    /// Runs rounds until one changes no state.  Returns the number of rounds
    /// executed, or `None` if `max_rounds` was reached without quiescence.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> Option<u64> {
        (1..=max_rounds).find(|_| self.run_round() == 0)
    }

    /// Runs exactly `rounds` rounds (the per-step λ budget of the Figure-7 model);
    /// returns the total number of state changes observed.
    pub fn run_rounds(&mut self, rounds: u64) -> usize {
        let mut total = 0usize;
        for _ in 0..rounds {
            total += self.run_round();
        }
        total
    }
}

/// Marks a node dirty, keeping the frontier list deduplicated.
fn mark_dirty(frontier: &mut Vec<NodeId>, dirty: &mut [bool], id: NodeId) {
    if !dirty[id] {
        dirty[id] = true;
        frontier.push(id);
    }
}

/// A fixed-capacity stack scratch of neighbor views, overwritten per evaluated node.
fn empty_views<'a, S>() -> [NeighborView<'a, S>; MAX_STACK_NEIGHBORS] {
    std::array::from_fn(|_| NeighborView {
        dir: Direction::pos(0),
        id: 0,
        state: None,
    })
}

/// Evaluates the slab of ids starting at `base` that `next_slab` covers: every node
/// of it, or only the slab's slice of the ascending `frontier`.
fn eval_slab<P: Protocol>(
    view: &RoundView<'_, P>,
    frontier: Option<&[NodeId]>,
    base: usize,
    next_slab: &mut [P::State],
    ws: &mut ShardScratch,
) {
    let range = base..base + next_slab.len();
    match frontier {
        Some(frontier) => {
            let lo = frontier.partition_point(|&x| x < range.start);
            let hi = frontier.partition_point(|&x| x < range.end);
            eval_span(view, frontier[lo..hi].iter().copied(), base, next_slab, ws);
        }
        None => eval_span(view, range, base, next_slab, ws),
    }
}

/// Evaluates the non-faulty nodes of `ids` (ascending) against the shared
/// previous-round view, staging changed states into `next_slab` (indexed by
/// `id - base`) and listing the changed ids in the shard scratch.  The stack
/// neighbor-view scratch lives here, initialised once per span and overwritten per
/// node.
fn eval_span<'a, P: Protocol>(
    view: &RoundView<'a, P>,
    ids: impl Iterator<Item = NodeId>,
    base: usize,
    next_slab: &mut [P::State],
    ws: &mut ShardScratch,
) {
    ws.changed.clear();
    let mut views = empty_views();
    let mut evaluated = 0u64;
    for id in ids {
        if view.faulty[id] {
            continue;
        }
        evaluated += 1;
        let next = view.eval(id, &mut views);
        if next != view.states[id] {
            next_slab[id - base] = next;
            ws.changed.push(id);
        }
    }
    ws.evaluated = evaluated;
}

/// The shared, read-only inputs of one round, as seen by every worker.
struct RoundView<'a, P: Protocol> {
    mesh: &'a Mesh,
    protocol: &'a P,
    states: &'a [P::State],
    faulty: &'a [bool],
    nbr_data: &'a [(Direction, NodeId)],
    nbr_off: &'a [usize],
}

impl<'a, P: Protocol> RoundView<'a, P> {
    /// Evaluates one non-faulty node against the previous-round state: builds the
    /// neighbor views in the caller's fixed-capacity stack scratch and returns the
    /// rule's next state.
    fn eval(
        &self,
        id: NodeId,
        views: &mut [NeighborView<'a, P::State>; MAX_STACK_NEIGHBORS],
    ) -> P::State {
        let nbrs = &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]];
        for (slot, &(dir, nid)) in views.iter_mut().zip(nbrs) {
            *slot = NeighborView {
                dir,
                id: nid,
                state: (!self.faulty[nid]).then(|| &self.states[nid]),
            };
        }
        let ctx = NodeCtx {
            mesh: self.mesh,
            id,
        };
        self.protocol
            .on_round(&ctx, &self.states[id], &views[..nbrs.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_topology::coord;

    /// A toy protocol: every node stores the minimum value it has seen among its own
    /// and its neighbors' states; a single seed node starts with 0, everyone else
    /// with its node id + 1.  The minimum floods the mesh one hop per round.
    struct MinFlood {
        seed: NodeId,
    }

    impl Protocol for MinFlood {
        type State = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            if ctx.id == self.seed {
                0
            } else {
                ctx.id as u64 + 1
            }
        }

        fn on_round(
            &self,
            _ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
        ) -> u64 {
            let mut best = *prev;
            for nb in neighbors {
                if let Some(&s) = nb.state {
                    best = best.min(s);
                }
            }
            best
        }
    }

    /// Runs `rounds` rounds and returns each one's change count.
    fn record_rounds<P: Protocol>(eng: &mut RoundEngine<P>, rounds: u64) -> Vec<usize> {
        (0..rounds).map(|_| eng.run_round()).collect()
    }

    /// [`RoundEngine::run_until_quiescent`], driven round by round so every round's
    /// change count is recorded.
    fn record_until_quiescent<P: Protocol>(
        eng: &mut RoundEngine<P>,
        max_rounds: u64,
    ) -> Vec<usize> {
        let mut log = Vec::new();
        loop {
            assert!((log.len() as u64) < max_rounds, "no quiescence");
            let changes = eng.run_round();
            log.push(changes);
            if changes == 0 {
                return log;
            }
        }
    }

    #[test]
    fn min_flood_converges_in_eccentricity_rounds() {
        let mesh = Mesh::cubic(5, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let rounds = eng.run_until_quiescent(1000).expect("must converge");
        // The value spreads one hop per round; the farthest node is 8 hops away, plus
        // one final no-change round for quiescence detection.
        assert_eq!(rounds, 9);
        for id in mesh.node_ids() {
            assert_eq!(*eng.state(id), 0, "node {id} did not learn the minimum");
        }
    }

    #[test]
    fn faulty_nodes_do_not_participate_or_relay() {
        // Cut the 1-D mesh in the middle: the minimum cannot cross the faulty node.
        let mesh = Mesh::new(&[9]);
        let seed = mesh.id_of(&coord![0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let blocker = mesh.id_of(&coord![4]);
        eng.inject_fault(blocker);
        eng.run_until_quiescent(1000).expect("must converge");
        assert_eq!(*eng.state(mesh.id_of(&coord![3])), 0);
        // Beyond the faulty node the original values survive.
        assert_ne!(*eng.state(mesh.id_of(&coord![5])), 0);
        assert_eq!(eng.faulty_nodes(), vec![blocker]);
    }

    #[test]
    fn recovery_restores_participation() {
        let mesh = Mesh::new(&[9]);
        let seed = mesh.id_of(&coord![0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let blocker = mesh.id_of(&coord![4]);
        eng.inject_fault(blocker);
        eng.run_until_quiescent(1000).unwrap();
        assert_ne!(*eng.state(mesh.id_of(&coord![8])), 0);
        // Recover with a large value; the flood resumes and reaches the far end.
        eng.recover(blocker, 1_000);
        eng.run_until_quiescent(1000).unwrap();
        assert_eq!(*eng.state(mesh.id_of(&coord![8])), 0);
    }

    #[test]
    fn auto_thread_count_is_resolved_once_and_stable_across_rounds() {
        // `threads = 0` means "one worker per available core", resolved exactly
        // once in `set_threads`; every round and every stats snapshot must then
        // report the same concrete count, never a re-query of the machine.
        let mesh = Mesh::cubic(8, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed }).with_threads(0);
        let resolved = eng.threads();
        assert!(resolved >= 1, "auto must resolve to a concrete count");
        assert_eq!(eng.stats().threads(), resolved);
        for _ in 0..10 {
            eng.run_round();
            assert_eq!(eng.threads(), resolved, "thread count drifted mid-run");
            assert_eq!(
                eng.stats().threads(),
                resolved,
                "stats thread count drifted mid-run"
            );
        }
        // Explicit re-resolution is the only way the count changes.
        eng.set_threads(resolved + 1);
        assert_eq!(eng.threads(), resolved + 1);
        assert_eq!(eng.stats().threads(), resolved + 1);
    }

    #[test]
    fn information_travels_one_hop_per_round() {
        /// Hop distance from node 0, learned from the neighbors' previous states.
        struct HopDistance;
        impl Protocol for HopDistance {
            type State = Option<u64>;

            fn init(&self, ctx: &NodeCtx<'_>) -> Self::State {
                (ctx.id == 0).then_some(0)
            }

            fn on_round(
                &self,
                _ctx: &NodeCtx<'_>,
                prev: &Self::State,
                neighbors: &[NeighborView<'_, Self::State>],
            ) -> Self::State {
                prev.or_else(|| {
                    neighbors
                        .iter()
                        .filter_map(|nb| nb.state.copied().flatten())
                        .min()
                        .map(|d| d + 1)
                })
            }
        }

        let mesh = Mesh::new(&[6]);
        let mut eng = RoundEngine::new(mesh.clone(), HopDistance);
        for round in 1..=5u64 {
            assert_eq!(eng.run_round(), 1, "exactly one node learns per round");
            for x in 0..6 {
                let learned = *eng.state(mesh.id_of(&coord![x]));
                let expected = (x as u64 <= round).then_some(x as u64);
                assert_eq!(learned, expected, "node {x} after round {round}");
            }
        }
        assert_eq!(eng.run_round(), 0);
    }

    #[test]
    fn stats_track_rounds_changes_and_evaluations() {
        let mesh = Mesh::cubic(4, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed }).with_frontier(false);
        eng.run_until_quiescent(100).unwrap();
        let stats = eng.stats();
        assert_eq!(stats.rounds(), eng.round());
        assert!(stats.total_state_changes() > 0);
        // Full evaluation evaluates every non-faulty node.
        assert_eq!(stats.mean_evaluated_per_round(), 16.0);
        assert_eq!(stats.total_evaluated(), 16 * eng.round());
    }

    #[test]
    fn run_rounds_executes_exactly_that_many() {
        let mesh = Mesh::cubic(3, 3);
        let seed = mesh.id_of(&coord![0, 0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed });
        eng.run_rounds(4);
        assert_eq!(eng.round(), 4);
    }

    #[test]
    fn quiescence_times_out_when_protocol_never_settles() {
        /// A protocol that toggles forever.
        struct Blinker;
        impl Protocol for Blinker {
            type State = bool;
            fn init(&self, _ctx: &NodeCtx<'_>) -> bool {
                false
            }
            fn on_round(
                &self,
                _ctx: &NodeCtx<'_>,
                prev: &bool,
                _neighbors: &[NeighborView<'_, bool>],
            ) -> bool {
                !*prev
            }
        }
        let mesh = Mesh::new(&[4]);
        let mut eng = RoundEngine::new(mesh, Blinker);
        assert_eq!(eng.run_until_quiescent(16), None);
        assert_eq!(eng.round(), 16);
    }

    /// A never-settling gossip rule that folds the neighbor states in direction order
    /// with a non-commutative mix, so any deviation in shard merging or halo reads
    /// changes the states within a round or two.
    struct OrderSensitiveGossip;

    impl Protocol for OrderSensitiveGossip {
        type State = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.id as u64 + 1
        }

        fn on_round(
            &self,
            _ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
        ) -> u64 {
            let mut h = *prev;
            for nb in neighbors {
                let s = nb.state.copied().unwrap_or(0xFA);
                h = h.rotate_left(7) ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            h
        }
    }

    fn run_gossip(mesh: &Mesh, threads: usize, rounds: u64) -> (Vec<u64>, Vec<usize>) {
        let mut eng = RoundEngine::new(mesh.clone(), OrderSensitiveGossip).with_threads(threads);
        eng.inject_fault(mesh.node_count() / 2);
        let log = record_rounds(&mut eng, rounds);
        (eng.states().to_vec(), log)
    }

    #[test]
    fn sharded_rounds_are_bit_identical_to_serial() {
        for dims in [vec![16], vec![8, 6], vec![4, 4, 3], vec![3, 3, 2, 2]] {
            let mesh = Mesh::new(&dims);
            let (serial_states, serial_stats) = run_gossip(&mesh, 1, 16);
            for threads in [2, 3, 5, 8] {
                let (par_states, par_stats) = run_gossip(&mesh, threads, 16);
                assert_eq!(serial_states, par_states, "dims {dims:?} threads {threads}");
                assert_eq!(serial_stats, par_stats, "dims {dims:?} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_min_flood_matches_serial_round_counts() {
        let mesh = Mesh::cubic(6, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut serial = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let mut parallel = RoundEngine::new(mesh, MinFlood { seed }).with_threads(4);
        let r1 = record_until_quiescent(&mut serial, 1000);
        let r2 = record_until_quiescent(&mut parallel, 1000);
        assert_eq!(r1, r2);
        assert_eq!(serial.states(), parallel.states());
        assert_eq!(parallel.threads(), 4);
        assert_eq!(parallel.stats().threads(), 4);
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        let mesh = Mesh::new(&[9]);
        let eng = RoundEngine::new(mesh, MinFlood { seed: 0 }).with_threads(0);
        assert!(eng.threads() >= 1);
    }

    #[test]
    fn more_threads_than_slabs_still_works() {
        // dims[0] = 2 hyperplanes but 8 requested workers: shards collapse to 2.
        let mesh = Mesh::new(&[2, 5]);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut serial = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let mut parallel = RoundEngine::new(mesh, MinFlood { seed }).with_threads(8);
        serial.run_until_quiescent(100).unwrap();
        parallel.run_until_quiescent(100).unwrap();
        assert_eq!(serial.states(), parallel.states());
    }

    #[test]
    fn faults_and_recovery_mid_run_stay_identical_in_parallel() {
        let mesh = Mesh::cubic(7, 2);
        let run = |threads: usize| {
            let mut eng =
                RoundEngine::new(mesh.clone(), OrderSensitiveGossip).with_threads(threads);
            let mut log = record_rounds(&mut eng, 3);
            eng.inject_fault(mesh.id_of(&coord![3, 3]));
            eng.inject_fault(mesh.id_of(&coord![0, 6]));
            log.extend(record_rounds(&mut eng, 4));
            eng.recover(mesh.id_of(&coord![3, 3]), 42);
            log.extend(record_rounds(&mut eng, 5));
            (eng.states().to_vec(), log)
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads {threads}");
        }
    }

    /// A settling stencil: every node takes the max of its own value and its
    /// neighbors' values.
    struct MaxStencil;

    impl Protocol for MaxStencil {
        type State = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.id as u64
        }

        fn on_round(
            &self,
            _ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
        ) -> u64 {
            let mut best = *prev;
            for nb in neighbors {
                if let Some(&s) = nb.state {
                    best = best.max(s);
                }
            }
            best
        }
    }

    #[test]
    fn fresh_engine_seeds_only_the_nodes_with_work() {
        // Every node but the far corner (the one local maximum of the ids) sees a
        // larger neighbor, so only the corner's first evaluation changes nothing.
        let mesh = Mesh::cubic(8, 2);
        let mut eng = RoundEngine::new(mesh, MaxStencil);
        assert_eq!(eng.frontier_len(), 63);
        eng.run_round();
        assert_eq!(eng.stats().total_evaluated(), 63);
    }

    #[test]
    fn frontier_shrinks_after_convergence_and_skips_work() {
        let mesh = Mesh::cubic(8, 2);
        let mut eng = RoundEngine::new(mesh, MaxStencil);
        assert!(eng.frontier_active());
        eng.run_until_quiescent(100).unwrap();
        assert_eq!(eng.frontier_len(), 0);
        // Post-convergence rounds evaluate nobody.
        let before = eng.stats().total_evaluated();
        eng.run_rounds(3);
        assert_eq!(eng.stats().total_evaluated(), before);
        // Disturb one node: only its neighborhood wakes up.
        eng.set_state(0, 1_000);
        eng.run_round();
        let evaluated = eng.stats().total_evaluated() - before;
        assert!(evaluated <= 3, "evaluated {evaluated} nodes, expected ≤ 3");
    }

    #[test]
    fn frontier_and_full_evaluation_are_bit_identical() {
        let mesh = Mesh::cubic(9, 2);
        let run = |frontier: bool, threads: usize| {
            let mut eng = RoundEngine::new(mesh.clone(), MaxStencil)
                .with_frontier(frontier)
                .with_threads(threads);
            let mut log = record_rounds(&mut eng, 5);
            eng.inject_fault(mesh.id_of(&coord![4, 4]));
            log.extend(record_rounds(&mut eng, 4));
            eng.recover(mesh.id_of(&coord![4, 4]), 7_777);
            eng.set_state(mesh.id_of(&coord![0, 8]), 9_999);
            log.extend(record_until_quiescent(&mut eng, 200));
            (eng.states().to_vec(), log)
        };
        let reference = run(false, 1);
        for threads in [1, 3] {
            assert_eq!(reference, run(true, threads), "threads {threads}");
        }
    }
}
