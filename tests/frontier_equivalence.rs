//! Property tests for active-frontier scheduling: for any seeded scenario — mixed
//! mesh shapes, fault/recovery patterns, external posts, worker-thread counts — a
//! frontier-scheduled run produces **bit-identical** states, statistics and traces
//! to a full-evaluation run.  The frontier, like sharded parallelism, is an
//! execution detail, not a semantics change; this suite extends the determinism
//! contract of `tests/parallel_equivalence.rs` to the frontier × threads matrix
//! (see `docs/ARCHITECTURE.md`).

use lgfi::prelude::*;
use lgfi::sim::{NeighborView, NodeCtx, Outbox, Protocol, RoundEngine, RoundStats};
use lgfi_core::labeling::LabelingEngine;
use lgfi_core::network::{LgfiNetwork, NetworkConfig};

/// The mesh shapes the properties quantify over (the `parallel_equivalence` set):
/// 1-D lines, asymmetric 2-D and 3-D meshes, a 4-D hypermesh, and a mesh with fewer
/// dimension-0 hyperplanes than the largest tested worker count.
fn shapes() -> Vec<Vec<i32>> {
    vec![
        vec![23],
        vec![9, 7],
        vec![12, 12],
        vec![5, 4, 6],
        vec![3, 3, 3, 3],
        vec![2, 9, 5],
    ]
}

/// Samples `count` distinct node ids from the mesh with a seeded [`DetRng`].
fn sample_nodes(mesh: &Mesh, rng: &mut DetRng, count: usize) -> Vec<NodeId> {
    rng.sample_indices(mesh.node_count(), count.min(mesh.node_count()))
}

/// A `ROUND_INVARIANT` stencil that also exercises messages and the inbox: every
/// node takes the maximum of its value, its neighbors' values and its inbox, and
/// announces increases by message.  A node with unchanged inputs recomputes its
/// value and stays silent, as the frontier contract requires — but any missed dirty
/// mark (a skipped neighbor, a dropped post, a stale fault flag) changes the
/// fixpoint or the per-round statistics.
struct MaxGossip;

impl Protocol for MaxGossip {
    type State = u64;
    type Msg = u64;
    const ROUND_INVARIANT: bool = true;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
    }

    fn on_round(
        &self,
        _ctx: &NodeCtx<'_>,
        prev: &u64,
        neighbors: &[NeighborView<'_, u64>],
        inbox: &[u64],
        outbox: &mut Outbox<u64>,
    ) -> u64 {
        let mut best = *prev;
        for &m in inbox {
            best = best.max(m);
        }
        for nb in neighbors {
            if let Some(&s) = nb.state {
                best = best.max(s);
            }
        }
        if best > *prev {
            for nb in neighbors {
                outbox.send(nb.id, best);
            }
        }
        best
    }
}

/// Runs one round and returns its counters, read from the return value and the
/// change in the engine's running totals.
fn record_round<P: Protocol>(eng: &mut RoundEngine<P>) -> RoundStats {
    let sent = eng.stats().total_messages();
    let changes = eng.run_round();
    RoundStats {
        state_changes: changes as u64,
        messages_sent: eng.stats().total_messages() - sent,
    }
}

/// Runs [`MaxGossip`] under a seeded fault/recovery/post schedule and returns every
/// observable: states, fault set and per-round stats.
fn gossip_run(
    mesh: &Mesh,
    seed: u64,
    frontier: bool,
    threads: usize,
) -> (Vec<u64>, Vec<NodeId>, Vec<RoundStats>) {
    gossip_run_schedule(mesh, seed, frontier, [threads; 4])
}

/// Like [`gossip_run`], but re-targets the worker count at every phase boundary so
/// the persistent pool is torn down and re-spawned mid-run.
fn gossip_run_schedule(
    mesh: &Mesh,
    seed: u64,
    frontier: bool,
    schedule: [usize; 4],
) -> (Vec<u64>, Vec<NodeId>, Vec<RoundStats>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut eng = RoundEngine::new(mesh.clone(), MaxGossip)
        .with_frontier(frontier)
        .with_threads(schedule[0]);
    assert_eq!(eng.frontier_active(), frontier);
    let faults = sample_nodes(mesh, &mut rng, 1 + (seed as usize % 4));
    let posts = sample_nodes(mesh, &mut rng, 2);
    let mut per_round = Vec::new();
    for phase in 0..4u64 {
        eng.set_threads(schedule[phase as usize]);
        match phase {
            0 => {}
            1 => {
                for &f in &faults {
                    eng.inject_fault(f);
                }
            }
            2 => {
                // Wake a quiet corner of the mesh from outside the protocol.
                for &p in &posts {
                    if !eng.is_faulty(p) {
                        eng.post(p, u64::MAX / 2 + seed);
                    }
                }
                eng.set_state(0, seed);
            }
            _ => {
                if let Some(&f) = faults.first() {
                    eng.recover(f, 3 ^ seed);
                }
            }
        }
        for _ in 0..7 {
            per_round.push(record_round(&mut eng));
        }
    }
    // `run_until_quiescent`, driven round by round to record each round.
    loop {
        assert!(per_round.len() < 10_000, "max gossip settles");
        let round = record_round(&mut eng);
        per_round.push(round);
        if round.state_changes == 0 && eng.pending_messages() == 0 {
            break;
        }
    }
    (eng.states().to_vec(), eng.faulty_nodes(), per_round)
}

#[test]
fn frontier_runs_are_bit_identical_to_full_evaluation() {
    for dims in shapes() {
        let mesh = Mesh::new(&dims);
        for seed in 0..4u64 {
            let reference = gossip_run(&mesh, seed, false, 1);
            for threads in [1usize, 2, 3, 8] {
                let frontier = gossip_run(&mesh, seed, true, threads);
                assert_eq!(
                    reference, frontier,
                    "frontier run diverged: dims {dims:?} seed {seed} threads {threads}"
                );
            }
        }
    }
}

/// Pool-lifecycle cross-check with the frontier on: width changes at phase
/// boundaries (pool re-creation mid-run) must not disturb the frontier's
/// dirty-set bookkeeping — the run stays bit-identical to the full serial
/// evaluation.
#[test]
fn frontier_runs_survive_pool_recreation_mid_schedule() {
    let mesh = Mesh::cubic(12, 2);
    for seed in 0..3u64 {
        let reference = gossip_run(&mesh, seed, false, 1);
        for schedule in [[2usize, 4, 1, 3], [3, 3, 1, 1], [1, 2, 4, 8]] {
            let switched = gossip_run_schedule(&mesh, seed, true, schedule);
            assert_eq!(
                reference, switched,
                "frontier run with schedule {schedule:?} diverged: seed {seed}"
            );
        }
    }
}

#[test]
fn frontier_skips_work_after_convergence_without_changing_results() {
    let mesh = Mesh::cubic(16, 2);
    let mut eng = RoundEngine::new(mesh, MaxGossip);
    eng.run_until_quiescent(1_000).unwrap();
    // The recipients of the final delivery keep one deferred drain-round wake (their
    // inbox transitioned non-empty → empty); a single flush round consumes it.
    eng.run_round();
    assert_eq!(eng.frontier_len(), 0);
    let evaluated_before = eng.stats().total_evaluated();
    eng.run_rounds(5);
    assert_eq!(
        eng.stats().total_evaluated(),
        evaluated_before,
        "post-convergence rounds must evaluate nobody"
    );
    // Full evaluation of the same engine still changes nothing.
    eng.set_frontier(false);
    assert_eq!(eng.run_round(), 0);
}

#[test]
fn labeling_engine_frontier_matches_full_evaluation() {
    for dims in shapes() {
        let mesh = Mesh::new(&dims);
        for seed in 20..23u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let faults = sample_nodes(&mesh, &mut rng, 2 + (seed as usize % 5));
            let run = |frontier: bool, threads: usize| {
                let mut eng = LabelingEngine::new(mesh.clone())
                    .with_frontier(frontier)
                    .with_threads(threads);
                let mut per_round = Vec::new();
                for &f in &faults {
                    eng.inject_fault(f);
                }
                loop {
                    let c = eng.run_round();
                    per_round.push(c);
                    if c == 0 {
                        break;
                    }
                }
                assert!(eng.is_stable());
                // A recovery wave afterwards, still identical.
                if let Some(&f) = faults.first() {
                    eng.recover(f);
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
            let reference = run(false, 1);
            for (frontier, threads) in [(true, 1), (true, 2), (true, 8), (false, 3)] {
                assert_eq!(
                    reference,
                    run(frontier, threads),
                    "dims {dims:?} seed {seed} frontier {frontier} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn labeling_frontier_shrinks_to_the_disturbed_region() {
    // a_i work should scale with the cluster, not the mesh: after convergence the
    // frontier is empty, and a single recovery wakes only its neighborhood.
    let mesh = Mesh::cubic(48, 2);
    let n = mesh.node_count() as f64;
    let mut eng = LabelingEngine::new(mesh);
    assert!(eng.is_stable());
    eng.apply_faults(&[
        coord![20, 20],
        coord![21, 21],
        coord![20, 21],
        coord![21, 20],
    ]);
    assert!(eng.is_stable());
    assert_eq!(eng.frontier_len(), 0);
    assert!(
        eng.mean_evaluated_per_round() < n / 10.0,
        "frontier rounds must evaluate a small fraction of the mesh, got {}",
        eng.mean_evaluated_per_round()
    );
    eng.recover_coord(&coord![20, 20]);
    assert!(!eng.is_stable());
    assert!(
        eng.frontier_len() <= 5,
        "recovery wakes only its neighborhood"
    );
}

/// End-to-end: the full dynamic network (labeling + identification + boundary +
/// routing under a fault/recovery schedule) is bit-identical across the frontier ×
/// threads matrix — states, blocks, convergence records, probe reports and visible
/// information.
#[test]
fn dynamic_network_runs_are_bit_identical_across_frontier_and_threads() {
    for (dims, lambda) in [(vec![14, 14], 1u64), (vec![8, 8, 8], 2)] {
        let mesh = Mesh::new(&dims);
        let run = |frontier: bool, threads: usize| {
            let mut generator = FaultGenerator::new(mesh.clone(), 21);
            let plan = generator.dynamic_plan(
                DynamicFaultConfig {
                    fault_count: 6,
                    first_step: 2,
                    interval: 25,
                    with_recovery: true,
                    recovery_delay: 90,
                },
                FaultPlacement::Clustered { clusters: 2 },
            );
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                plan,
                NetworkConfig {
                    lambda,
                    threads,
                    frontier,
                    ..NetworkConfig::default()
                },
            );
            assert_eq!(net.frontier_active(), frontier);
            net.launch_probe(0, mesh.node_count() - 1, Box::new(LgfiRouter::new()));
            net.run_to_completion(3_000);
            (
                net.statuses().to_vec(),
                net.blocks().regions(),
                net.convergence_records().to_vec(),
                net.round(),
                net.nodes_with_visible_info(),
                format!("{:?}", net.reports()),
            )
        };
        let reference = run(false, 1);
        for (frontier, threads) in [(true, 1), (true, 2), (true, 4), (false, 2)] {
            assert_eq!(
                reference,
                run(frontier, threads),
                "dims {dims:?} frontier {frontier} threads {threads}"
            );
        }
    }
}
