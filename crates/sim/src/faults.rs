//! Dynamic fault schedules.
//!
//! Section 5 of the paper assumes at most `F` faulty nodes; fault `f_i` occurs at time
//! `t_i` and the gap between consecutive occurrences is `d_i = t_{i+1} - t_i` (all
//! measured in *steps*).  Recoveries (Definition 4, rule 5) are modelled the same way.
//! A [`FaultPlan`] is the ordered list of these events plus query helpers used by the
//! step loop, the workload generators and the detour-bound evaluators.

use lgfi_topology::{Mesh, NodeId};

/// Whether an event makes a node faulty or recovers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEventKind {
    /// The node becomes faulty at the given step.
    Fail,
    /// The node recovers from faulty status at the given step (rule 5: it re-enters
    /// the labeling as a `clean` node).
    Recover,
}

/// A single scheduled fault occurrence or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// The step `t_i` at which the event takes effect (events at step `t` are applied
    /// during the fault-detection phase of step `t`).
    pub step: u64,
    /// The affected node.
    pub node: NodeId,
    /// Fail or recover.
    pub kind: FaultEventKind,
}

impl FaultEvent {
    /// A fault occurrence at `step`.
    pub fn fail(step: u64, node: NodeId) -> Self {
        FaultEvent {
            step,
            node,
            kind: FaultEventKind::Fail,
        }
    }

    /// A recovery at `step`.
    pub fn recover(step: u64, node: NodeId) -> Self {
        FaultEvent {
            step,
            node,
            kind: FaultEventKind::Recover,
        }
    }
}

/// An ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the static, fault-free case).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from a list of events (sorted by step internally).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.step, e.node));
        FaultPlan { events }
    }

    /// A plan in which all the given nodes fail at step 0 (static pre-existing
    /// faults).
    pub fn static_faults(nodes: &[NodeId]) -> Self {
        FaultPlan::new(nodes.iter().map(|&n| FaultEvent::fail(0, n)).collect())
    }

    /// Adds an event (keeping the plan sorted).
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self
            .events
            .partition_point(|e| (e.step, e.node) <= (event.step, event.node));
        self.events.insert(pos, event);
    }

    /// All events, ordered by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events taking effect exactly at `step`, found by binary search in the
    /// sorted plan.
    pub fn events_at(&self, step: u64) -> impl Iterator<Item = &FaultEvent> {
        let start = self.events.partition_point(|e| e.step < step);
        let len = self.events[start..].partition_point(|e| e.step == step);
        self.events[start..start + len].iter()
    }

    /// The events with `t_i <= step` (the paper's "first p faults have already
    /// occurred" before the routing start time `t`).
    pub fn events_up_to(&self, step: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.step <= step)
    }

    /// The number of fault *occurrences* (not recoveries) with `t_i <= step`; this is
    /// the paper's `p = max{l | t_l <= t}` for a routing starting at step `t`.
    pub fn occurrences_before(&self, step: u64) -> usize {
        self.events
            .iter()
            .filter(|e| e.step <= step && e.kind == FaultEventKind::Fail)
            .count()
    }

    /// The step of the last event, if any.
    pub fn last_step(&self) -> Option<u64> {
        self.events.last().map(|e| e.step)
    }

    /// The occurrence times `t_i` of fault occurrences (not recoveries), in order,
    /// without allocating (use [`FaultPlan::occurrence_times`] when a `Vec` is
    /// actually wanted).
    pub fn occurrence_times_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.events
            .iter()
            .filter(|e| e.kind == FaultEventKind::Fail)
            .map(|e| e.step)
    }

    /// The occurrence times `t_i` of fault occurrences (not recoveries), in order.
    pub fn occurrence_times(&self) -> Vec<u64> {
        self.occurrence_times_iter().collect()
    }

    /// The intervals `d_i = t_{i+1} - t_i` between consecutive fault occurrences.
    pub fn intervals(&self) -> Vec<u64> {
        let times = self.occurrence_times();
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Fills `out` with the set of nodes that are faulty at the *end* of step `step`
    /// (after all events with `t_i <= step` have been applied), sorted by node id.
    /// Reuses `out`'s capacity, so repeated queries perform no steady-state
    /// allocation.
    pub fn faulty_at_into(&self, step: u64, out: &mut Vec<NodeId>) {
        out.clear();
        for e in self.events_up_to(step) {
            match e.kind {
                FaultEventKind::Fail => out.push(e.node),
                FaultEventKind::Recover => {
                    if let Some(pos) = out.iter().position(|&n| n == e.node) {
                        out.swap_remove(pos);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// The set of nodes that are faulty at the *end* of step `step` (i.e. after all
    /// events with `t_i <= step` have been applied).
    pub fn faulty_at(&self, step: u64) -> Vec<NodeId> {
        let mut faulty = Vec::new();
        self.faulty_at_into(step, &mut faulty);
        faulty
    }

    /// Checks the paper's structural assumptions against a mesh:
    ///
    /// * every event targets a node inside the mesh,
    /// * no fault occurs on the outermost surface of the mesh (Section 5),
    /// * a recovery only targets a node that is faulty at that time (so a recovery
    ///   never precedes the fault it undoes),
    /// * no node fails twice without recovering in between,
    /// * no node has two events scheduled at the same step.
    ///
    /// Returns the list of violations (empty = valid).
    pub fn validate(&self, mesh: &Mesh) -> Vec<String> {
        let mut problems = Vec::new();
        let mut faulty = std::collections::BTreeSet::new();
        for w in self.events.windows(2) {
            if w[0].step == w[1].step && w[0].node == w[1].node {
                problems.push(format!(
                    "node {} has two events at step {} ({:?} and {:?})",
                    w[0].node, w[0].step, w[0].kind, w[1].kind
                ));
            }
        }
        for e in &self.events {
            if e.node >= mesh.node_count() {
                problems.push(format!("event {e:?}: node id out of range"));
                continue;
            }
            let c = mesh.coord_of(e.node);
            match e.kind {
                FaultEventKind::Fail => {
                    if mesh.on_outermost_surface(&c) {
                        problems.push(format!(
                            "fault at step {} on outermost-surface node {c:?}",
                            e.step
                        ));
                    }
                    if !faulty.insert(e.node) {
                        problems.push(format!(
                            "node {c:?} fails at step {} while already faulty",
                            e.step
                        ));
                    }
                }
                FaultEventKind::Recover => {
                    if !faulty.remove(&e.node) {
                        problems.push(format!(
                            "node {c:?} recovers at step {} while not faulty",
                            e.step
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Maximum number of nodes simultaneously faulty at any point of the plan.
    pub fn peak_fault_count(&self) -> usize {
        let mut faulty = std::collections::BTreeSet::new();
        let mut peak = 0usize;
        for e in &self.events {
            match e.kind {
                FaultEventKind::Fail => {
                    faulty.insert(e.node);
                }
                FaultEventKind::Recover => {
                    faulty.remove(&e.node);
                }
            }
            peak = peak.max(faulty.len());
        }
        peak
    }
}

/// An allocation-free forward scanner over a [`FaultPlan`].
///
/// [`FaultPlan::events_at`] binary-searches the sorted plan on every call, so a
/// long churn run pays O(log events) per step.  A cursor remembers where the last
/// query left off: the plan is sorted by `(step, node)`, so the events of any step are
/// one contiguous slice and successive queries with non-decreasing steps advance the
/// cursor monotonically, O(1) per step amortised.  Querying the same step again
/// returns the same slice; the engines' step loop holds one cursor per plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlanCursor {
    idx: usize,
}

impl FaultPlanCursor {
    /// A cursor positioned before the first event.
    pub fn new() -> Self {
        FaultPlanCursor::default()
    }

    /// Rewinds the cursor to the start of the plan.
    pub fn reset(&mut self) {
        self.idx = 0;
    }

    /// The events taking effect exactly at `step`, as a contiguous slice.
    ///
    /// Steps must be queried in non-decreasing order between resets; events at steps
    /// skipped over are never returned again.
    pub fn events_at<'a>(&mut self, plan: &'a FaultPlan, step: u64) -> &'a [FaultEvent] {
        let events = plan.events();
        while self.idx < events.len() && events[self.idx].step < step {
            self.idx += 1;
        }
        let mut end = self.idx;
        while end < events.len() && events[end].step == step {
            end += 1;
        }
        &events[self.idx..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_topology::coord;

    #[test]
    fn plan_is_sorted_and_queryable() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(7, 3),
            FaultEvent::fail(2, 1),
            FaultEvent::recover(9, 1),
            FaultEvent::fail(2, 0),
        ]);
        let steps: Vec<u64> = plan.events().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 2, 7, 9]);
        assert_eq!(plan.events_at(2).count(), 2);
        assert_eq!(plan.occurrences_before(2), 2);
        assert_eq!(plan.occurrences_before(100), 3);
        assert_eq!(plan.last_step(), Some(9));
    }

    #[test]
    fn intervals_between_occurrences() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(5, 0),
            FaultEvent::fail(12, 1),
            FaultEvent::recover(14, 0),
            FaultEvent::fail(30, 2),
        ]);
        assert_eq!(plan.occurrence_times(), vec![5, 12, 30]);
        assert_eq!(plan.intervals(), vec![7, 18]);
    }

    #[test]
    fn faulty_at_tracks_fail_and_recover() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(1, 5),
            FaultEvent::fail(3, 7),
            FaultEvent::recover(6, 5),
        ]);
        assert_eq!(plan.faulty_at(0), Vec::<NodeId>::new());
        assert_eq!(plan.faulty_at(2), vec![5]);
        assert_eq!(plan.faulty_at(4), vec![5, 7]);
        assert_eq!(plan.faulty_at(6), vec![7]);
        assert_eq!(plan.peak_fault_count(), 2);
    }

    #[test]
    fn validate_rejects_outermost_surface_faults() {
        let mesh = Mesh::cubic(5, 2);
        let surface = mesh.id_of(&coord![0, 2]);
        let interior = mesh.id_of(&coord![2, 2]);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(0, surface),
            FaultEvent::fail(0, interior),
        ]);
        let problems = plan.validate(&mesh);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("outermost-surface"));
    }

    #[test]
    fn validate_rejects_double_fail_and_bad_recover() {
        let mesh = Mesh::cubic(6, 2);
        let n = mesh.id_of(&coord![3, 3]);
        let m = mesh.id_of(&coord![2, 2]);
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(0, n),
            FaultEvent::fail(4, n),
            FaultEvent::recover(5, m),
        ]);
        let problems = plan.validate(&mesh);
        assert_eq!(problems.len(), 2);
    }

    #[test]
    fn static_faults_all_occur_at_step_zero() {
        let plan = FaultPlan::static_faults(&[4, 9, 2]);
        assert_eq!(plan.len(), 3);
        assert!(plan.events().iter().all(|e| e.step == 0));
        assert_eq!(plan.faulty_at(0), vec![2, 4, 9]);
        assert!(plan.intervals().iter().all(|&d| d == 0));
    }

    #[test]
    fn faulty_at_into_reuses_buffer() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(1, 9),
            FaultEvent::fail(1, 4),
            FaultEvent::recover(3, 9),
            FaultEvent::fail(5, 2),
        ]);
        let mut buf = Vec::with_capacity(8);
        plan.faulty_at_into(2, &mut buf);
        assert_eq!(buf, vec![4, 9]);
        plan.faulty_at_into(6, &mut buf);
        assert_eq!(buf, vec![2, 4]);
        assert_eq!(plan.faulty_at(6), buf);
    }

    #[test]
    fn occurrence_times_iter_matches_collected() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(5, 0),
            FaultEvent::recover(7, 0),
            FaultEvent::fail(11, 1),
        ]);
        let collected: Vec<u64> = plan.occurrence_times_iter().collect();
        assert_eq!(collected, plan.occurrence_times());
        assert_eq!(collected, vec![5, 11]);
    }

    #[test]
    fn cursor_returns_contiguous_step_slices() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(2, 3),
            FaultEvent::fail(2, 1),
            FaultEvent::fail(5, 7),
            FaultEvent::recover(9, 1),
        ]);
        let mut cursor = FaultPlanCursor::new();
        assert!(cursor.events_at(&plan, 0).is_empty());
        assert!(cursor.events_at(&plan, 1).is_empty());
        let at2 = cursor.events_at(&plan, 2);
        assert_eq!(at2.len(), 2);
        assert_eq!(at2[0].node, 1);
        assert_eq!(at2[1].node, 3);
        // Re-querying the same step is idempotent.
        assert_eq!(cursor.events_at(&plan, 2).len(), 2);
        // Skipping steps works, and skipped events are gone.
        assert_eq!(cursor.events_at(&plan, 9).len(), 1);
        assert!(cursor.events_at(&plan, 10).is_empty());
        cursor.reset();
        assert_eq!(cursor.events_at(&plan, 5).len(), 1);
    }

    #[test]
    fn cursor_agrees_with_events_at_over_a_sweep() {
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(0, 5),
            FaultEvent::fail(3, 6),
            FaultEvent::recover(3, 5),
            FaultEvent::fail(3, 8),
            FaultEvent::recover(12, 6),
        ]);
        let mut cursor = FaultPlanCursor::new();
        for step in 0..15u64 {
            let via_cursor: Vec<FaultEvent> = cursor.events_at(&plan, step).to_vec();
            let via_scan: Vec<FaultEvent> = plan.events_at(step).copied().collect();
            assert_eq!(via_cursor, via_scan, "step {step}");
            let via_filter: Vec<FaultEvent> = plan
                .events()
                .iter()
                .filter(|e| e.step == step)
                .copied()
                .collect();
            assert_eq!(via_scan, via_filter, "step {step}");
        }
    }

    #[test]
    fn validate_rejects_out_of_mesh_nodes() {
        let mesh = Mesh::cubic(4, 2);
        let plan = FaultPlan::new(vec![FaultEvent::fail(0, mesh.node_count() + 3)]);
        let problems = plan.validate(&mesh);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("out of range"));
    }

    #[test]
    fn validate_rejects_recover_before_fail() {
        let mesh = Mesh::cubic(6, 2);
        let n = mesh.id_of(&coord![3, 3]);
        let plan = FaultPlan::new(vec![FaultEvent::recover(2, n), FaultEvent::fail(5, n)]);
        let problems = plan.validate(&mesh);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("recovers at step 2 while not faulty"));
    }

    #[test]
    fn validate_rejects_duplicate_same_step_events() {
        let mesh = Mesh::cubic(6, 2);
        let n = mesh.id_of(&coord![2, 3]);
        let m = mesh.id_of(&coord![3, 2]);
        // Same-step fail+recover on one node, and same-step double fail on another.
        let plan = FaultPlan::new(vec![
            FaultEvent::fail(4, n),
            FaultEvent::recover(4, n),
            FaultEvent::fail(4, m),
            FaultEvent::fail(4, m),
        ]);
        let problems = plan.validate(&mesh);
        let dupes = problems
            .iter()
            .filter(|p| p.contains("two events at step"))
            .count();
        assert_eq!(dupes, 2, "problems: {problems:?}");
    }

    #[test]
    fn push_keeps_order() {
        let mut plan = FaultPlan::empty();
        assert!(plan.is_empty());
        plan.push(FaultEvent::fail(9, 1));
        plan.push(FaultEvent::fail(3, 2));
        plan.push(FaultEvent::recover(5, 2));
        let steps: Vec<u64> = plan.events().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![3, 5, 9]);
    }
}
