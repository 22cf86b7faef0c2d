//! Property tests for active-frontier scheduling: for any seeded scenario — mixed
//! mesh shapes, fault/recovery patterns, `set_state` disturbances, worker-thread
//! counts — a frontier-scheduled run produces **bit-identical** states, statistics
//! and traces to a full-evaluation run, for every stencil protocol.  The frontier,
//! like sharded parallelism, is an execution detail, not a semantics change; this
//! suite extends the determinism contract of `tests/parallel_equivalence.rs` to the
//! frontier × threads matrix (see `docs/ARCHITECTURE.md`).

use lgfi::prelude::*;
use lgfi::sim::{NeighborView, NodeCtx, Protocol, RoundEngine};
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

/// A settling stencil: every node takes the maximum of its value and its neighbors'
/// values.  Any missed dirty mark (a skipped neighbor, a dropped disturbance, a
/// stale fault flag) changes the fixpoint or the per-round change counts.
struct MaxStencil;

impl Protocol for MaxStencil {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
    }

    fn on_round(&self, _ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        let mut best = *prev;
        for nb in neighbors {
            if let Some(&s) = nb.state {
                best = best.max(s);
            }
        }
        best
    }
}

/// What a faulty neighbor reads as in [`PacedStencil`]'s fold.
const FAULTY_NEIGHBOR: u64 = 0xFA17_FA17_FA17_FA17;

/// A never-settling, order-sensitive stencil: every eleventh node is a pacemaker
/// that flips its low bit each round; every other node folds its own and its
/// neighbors' states in direction order with a non-commutative mix (a faulty
/// neighbor reads as [`FAULTY_NEIGHBOR`]) and takes the fold as its new state only
/// when the fold's top three bits are clear.  Activity never dies out, yet most
/// nodes sit most rounds out, so the frontier is a moving strict subset of the mesh
/// and any missed dirty mark or misordered neighbor changes the run.
struct PacedStencil;

impl Protocol for PacedStencil {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64 + 1).wrapping_mul(0xD134_2543_DE82_EF95)
    }

    fn on_round(&self, ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        if ctx.id % 11 == 0 {
            return prev ^ 1;
        }
        let mut h = *prev;
        for nb in neighbors {
            let s = nb.state.copied().unwrap_or(FAULTY_NEIGHBOR);
            h = h.rotate_left(9) ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        if h.leading_zeros() >= 3 {
            h
        } else {
            *prev
        }
    }
}

/// Drives `protocol` through the suite's seeded schedule — quiet rounds, a fault
/// burst, `set_state` disturbances, a recovery, seven rounds each — re-targeting the
/// worker count at every phase boundary, so a width change (and the pool re-creation
/// it triggers) can land mid-run.  Returns the engine and every round's change count.
fn scheduled_run<P: Protocol<State = u64>>(
    protocol: P,
    mesh: &Mesh,
    seed: u64,
    frontier: bool,
    schedule: [usize; 4],
) -> (RoundEngine<P>, Vec<usize>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut eng = RoundEngine::new(mesh.clone(), protocol)
        .with_frontier(frontier)
        .with_threads(schedule[0]);
    assert_eq!(eng.frontier_active(), frontier);
    let faults = sample_nodes(mesh, &mut rng, 1 + (seed as usize % 4));
    let disturbed = sample_nodes(mesh, &mut rng, 2);
    let mut per_round = Vec::new();
    for (phase, &threads) in schedule.iter().enumerate() {
        eng.set_threads(threads);
        match phase {
            0 => {}
            1 => {
                for &f in &faults {
                    eng.inject_fault(f);
                }
            }
            2 => {
                // Wake a quiet corner of the mesh from outside the protocol.
                for &p in &disturbed {
                    if !eng.is_faulty(p) {
                        eng.set_state(p, u64::MAX / 2 + seed);
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
            per_round.push(eng.run_round());
        }
    }
    (eng, per_round)
}

/// Runs [`MaxStencil`] through [`scheduled_run`] and then to quiescence, and returns
/// every observable: states, fault set and per-round change counts.
fn max_run(mesh: &Mesh, seed: u64, frontier: bool, threads: usize) -> MaxRun {
    max_run_schedule(mesh, seed, frontier, [threads; 4])
}

/// The observables of a [`MaxStencil`] run: states, fault set, per-round changes.
type MaxRun = (Vec<u64>, Vec<NodeId>, Vec<usize>);

/// Like [`max_run`], with the worker count re-targeted at every phase boundary.
fn max_run_schedule(mesh: &Mesh, seed: u64, frontier: bool, schedule: [usize; 4]) -> MaxRun {
    let (mut eng, mut per_round) = scheduled_run(MaxStencil, mesh, seed, frontier, schedule);
    // `run_until_quiescent`, driven round by round to record each round.
    loop {
        assert!(per_round.len() < 10_000, "the max stencil settles");
        let changes = eng.run_round();
        per_round.push(changes);
        if changes == 0 {
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
            let reference = max_run(&mesh, seed, false, 1);
            for threads in [1usize, 2, 3, 8] {
                let frontier = max_run(&mesh, seed, true, threads);
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
        let reference = max_run(&mesh, seed, false, 1);
        for schedule in [[2usize, 4, 1, 3], [3, 3, 1, 1], [1, 2, 4, 8]] {
            let switched = max_run_schedule(&mesh, seed, true, schedule);
            assert_eq!(
                reference, switched,
                "frontier run with schedule {schedule:?} diverged: seed {seed}"
            );
        }
    }
}

/// Frontier scheduling needs no opt-in: a never-settling, order-sensitive stencil
/// under faults, recoveries and `set_state` disturbances, frontier-scheduled at 1, 2
/// and 3 threads and with the worker count changed mid-run, matches full
/// evaluation in states, fault sets and per-round change counts — while evaluating
/// strictly fewer nodes.
#[test]
fn frontier_scheduling_is_sound_for_every_stencil() {
    for dims in shapes() {
        let mesh = Mesh::new(&dims);
        for seed in 0..4u64 {
            let run = |frontier: bool, schedule: [usize; 4]| {
                let (eng, per_round) = scheduled_run(PacedStencil, &mesh, seed, frontier, schedule);
                assert!(
                    per_round.iter().all(|&c| c > 0),
                    "the stencil never settles"
                );
                let observed = (eng.states().to_vec(), eng.faulty_nodes(), per_round);
                (observed, eng.stats().total_evaluated())
            };
            let (reference, full_work) = run(false, [1; 4]);
            for schedule in [[1; 4], [2; 4], [3; 4], [1, 3, 2, 1]] {
                let tag = format!("dims {dims:?} seed {seed} schedule {schedule:?}");
                let (observed, work) = run(true, schedule);
                assert_eq!(reference, observed, "frontier run diverged: {tag}");
                assert!(work < full_work, "the frontier skipped nothing: {tag}");
            }
        }
    }
}

#[test]
fn frontier_skips_work_after_convergence_without_changing_results() {
    let mesh = Mesh::cubic(16, 2);
    let mut eng = RoundEngine::new(mesh, MaxStencil);
    eng.run_until_quiescent(1_000).unwrap();
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
