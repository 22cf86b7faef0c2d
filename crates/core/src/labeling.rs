//! Algorithm 1: block construction by rounds of local status exchange.
//!
//! There is one implementation.  [`LabelingProtocol`] states rules 1–4 as a
//! [`lgfi_sim::Protocol`], and [`LabelingEngine`] runs it on the generic round engine
//! as a genuinely distributed protocol: one round is one synchronous exchange of
//! statuses among neighbors.  The engine adds what the rest of the library reads —
//! the status vector with faulty nodes marked [`NodeStatus::Faulty`], rule 5 on
//! recovery, and the number of rounds to convergence, which is the paper's `a_i`.

use lgfi_sim::{NeighborView, NodeCtx, Protocol, RoundEngine, MAX_STACK_NEIGHBORS};
use lgfi_topology::{Coord, Direction, Mesh, NodeId};

use crate::status::{next_status, NodeStatus};

/// Algorithm 1 on the generic round engine.
///
/// A thin wrapper around one [`RoundEngine`] running [`LabelingProtocol`], which
/// supplies the round data plane: double-buffered statuses, active-frontier
/// scheduling (rules 1–4 are a pure stencil, so once the labeling has converged a
/// round costs O(frontier) instead of O(n)) and sharded parallel rounds.  Faults
/// live in the status vector: [`LabelingEngine::inject_fault`] sets the engine's
/// fault flag and writes [`NodeStatus::Faulty`] into the node's state, so
/// [`LabelingEngine::statuses`] is the engine's state vector.  Statuses, change
/// counts and round counts are bit-identical for every thread count and frontier
/// setting.
pub struct LabelingEngine {
    engine: RoundEngine<LabelingProtocol>,
}

impl LabelingEngine {
    /// Creates an engine with every node enabled (the initial condition of
    /// Algorithm 1: "all non-faulty nodes are enabled").  The all-enabled mesh is a
    /// fixpoint of rules 1–4, so the engine starts with an empty frontier.
    pub fn new(mesh: Mesh) -> Self {
        LabelingEngine {
            engine: RoundEngine::new(mesh, LabelingProtocol),
        }
    }

    /// Sets the number of worker threads used to execute labeling rounds: `1` runs
    /// serially, `0` resolves to one worker per available core.  The count is
    /// resolved **once**, here.  The labeling rule is a pure per-node function of
    /// the previous-round statuses, so every setting produces bit-identical status
    /// vectors and round counts.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// Builder-style variant of [`LabelingEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// The resolved number of worker threads (>= 1).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Enables or disables active-frontier scheduling (enabled by default).  Rules
    /// 1–4 are a pure stencil of the neighbor statuses, so statuses, change counts
    /// and round counts are bit-identical either way — this is purely a performance
    /// knob, safe to toggle mid-run.
    pub fn set_frontier(&mut self, enabled: bool) {
        self.engine.set_frontier(enabled);
    }

    /// Builder-style variant of [`LabelingEngine::set_frontier`].
    pub fn with_frontier(mut self, enabled: bool) -> Self {
        self.set_frontier(enabled);
        self
    }

    /// True if rounds are scheduled over the active frontier.
    pub fn frontier_active(&self) -> bool {
        self.engine.frontier_active()
    }

    /// Number of nodes currently on the dirty frontier (0 iff the labeling is
    /// stable).
    pub fn frontier_len(&self) -> usize {
        self.engine.frontier_len()
    }

    /// Mean nodes evaluated per executed round (0.0 before any round ran): the
    /// frontier size under active-frontier scheduling, the full non-faulty node count
    /// under full evaluation.
    pub fn mean_evaluated_per_round(&self) -> f64 {
        self.engine.stats().mean_evaluated_per_round()
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        self.engine.mesh()
    }

    /// Number of labeling rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.engine.round()
    }

    /// The status vector, indexed by node id.
    pub fn statuses(&self) -> &[NodeStatus] {
        self.engine.states()
    }

    /// The status of a node.
    pub fn status(&self, id: NodeId) -> NodeStatus {
        *self.engine.state(id)
    }

    /// The status of a node given by coordinate.
    pub fn status_at(&self, c: &Coord) -> NodeStatus {
        self.status(self.mesh().id_of(c))
    }

    /// Marks a node faulty (a new fault occurrence).
    pub fn inject_fault(&mut self, id: NodeId) {
        self.engine.set_state(id, NodeStatus::Faulty);
        self.engine.inject_fault(id);
    }

    /// Marks the node at `c` faulty.
    pub fn inject_fault_coord(&mut self, c: &Coord) {
        let id = self.mesh().id_of(c);
        self.inject_fault(id);
    }

    /// Recovers a faulty node (rule 5: faulty → clean).
    ///
    /// # Panics
    /// Panics if the node is not currently faulty.
    pub fn recover(&mut self, id: NodeId) {
        assert_eq!(
            self.status(id),
            NodeStatus::Faulty,
            "only a faulty node can recover"
        );
        self.engine.recover(id, NodeStatus::Clean);
    }

    /// Recovers the faulty node at `c`.
    pub fn recover_coord(&mut self, c: &Coord) {
        let id = self.mesh().id_of(c);
        self.recover(id);
    }

    /// Executes one synchronous round of rules 1–4; returns the number of nodes whose
    /// status changed.
    pub fn run_round(&mut self) -> usize {
        self.engine.run_round()
    }

    /// Runs rounds until no status changes; returns the number of rounds executed
    /// (this is the paper's `a_i` for the fault change that preceded the call).
    ///
    /// Returns `None` if `max_rounds` is exceeded (which would indicate a
    /// non-stabilising configuration; Algorithm 1 always stabilises, so the tests
    /// treat this as a failure).
    pub fn run_to_fixpoint(&mut self, max_rounds: u64) -> Option<u64> {
        self.engine.run_until_quiescent(max_rounds)
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
        4 * (u64::from(self.mesh().diameter()) + 4)
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
        self.frontier_len() == 0
    }

    /// Counts nodes by status: `(faulty, disabled, clean, enabled)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut f = 0;
        let mut d = 0;
        let mut c = 0;
        let mut e = 0;
        for s in self.statuses() {
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
        let statuses = self.statuses();
        (0..statuses.len())
            .filter(|&i| statuses[i].in_block())
            .collect()
    }
}

/// Rules 1–4 as a distributed [`Protocol`] for the generic round engine.
///
/// The protocol state is simply the node's [`NodeStatus`]; a faulty neighbor (whose
/// state the engine hides) reads as [`NodeStatus::Faulty`].  [`LabelingEngine`]
/// injects faults with [`RoundEngine::inject_fault`] and recoveries with
/// [`RoundEngine::recover`] using [`NodeStatus::Clean`] as the post-recovery state
/// (rule 5).
#[derive(Debug, Clone, Default)]
pub struct LabelingProtocol;

impl Protocol for LabelingProtocol {
    type State = NodeStatus;

    fn init(&self, _ctx: &NodeCtx<'_>) -> NodeStatus {
        NodeStatus::Enabled
    }

    fn on_round(
        &self,
        _ctx: &NodeCtx<'_>,
        prev: &NodeStatus,
        neighbors: &[NeighborView<'_, NodeStatus>],
    ) -> NodeStatus {
        let mut buf = [(Direction::pos(0), NodeStatus::Enabled); MAX_STACK_NEIGHBORS];
        for (slot, nb) in buf.iter_mut().zip(neighbors) {
            *slot = (nb.dir, nb.state.map_or(NodeStatus::Faulty, |s| *s));
        }
        next_status(*prev, &buf[..neighbors.len()])
    }
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
