//! Property tests for the determinism contract of the sharded parallel engines:
//! for any seeded scenario — mixed mesh shapes, fault patterns, recoveries, traffic —
//! a parallel run produces **bit-identical** final states, statistics and traces to
//! the serial run.  Parallelism is an execution detail, not a semantics change
//! (see `docs/ARCHITECTURE.md`).

use lgfi::prelude::*;
use lgfi::sim::{EngineStats, NeighborView, NodeCtx, Protocol, RoundEngine};
use lgfi_core::labeling::{LabelingEngine, LabelingProtocol};
use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_sim::FaultEventKind;

/// The mesh shapes the properties quantify over: 1-D lines, asymmetric 2-D and 3-D
/// meshes, a 4-D hypermesh, and a mesh with fewer dimension-0 hyperplanes than the
/// largest tested worker count.
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

/// A never-settling gossip rule: every node mixes its neighbors' states into its
/// own, and a faulty neighbor flips a constant pattern, so any deviation in shard
/// merging, halo reads or fault visibility changes the result within a round or two.
struct MixingGossip;

impl Protocol for MixingGossip {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn on_round(&self, _ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        let mut h = *prev;
        for nb in neighbors {
            match nb.state {
                Some(&s) => h = h.wrapping_add(s.rotate_right(13)),
                None => h ^= 0xFAu64 << 17,
            }
        }
        h
    }
}

/// Everything a bit-identical comparison of two gossip runs needs: final states,
/// fault set, engine statistics and the per-round trace of `(phase, round, changes)`.
struct GossipRun {
    states: Vec<u64>,
    faulty: Vec<NodeId>,
    stats: EngineStats,
    trace: Vec<(u64, u64, usize)>,
}

/// Runs the gossip protocol with a seeded fault/recovery schedule and records a full
/// trace of per-round activity.
fn gossip_run(mesh: &Mesh, seed: u64, threads: usize) -> GossipRun {
    gossip_run_schedule(mesh, seed, [threads; 3])
}

/// Like [`gossip_run`], but re-targets the engine's worker count at the start of
/// each phase, so a width change (and the worker-pool re-creation it triggers)
/// lands mid-schedule.
fn gossip_run_schedule(mesh: &Mesh, seed: u64, schedule: [usize; 3]) -> GossipRun {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut eng = RoundEngine::new(mesh.clone(), MixingGossip).with_threads(schedule[0]);
    let mut trace = Vec::new();
    let faults = sample_nodes(mesh, &mut rng, 1 + (seed as usize % 4));
    for phase in 0..3u64 {
        eng.set_threads(schedule[phase as usize]);
        match phase {
            0 => {}
            1 => {
                for &f in &faults {
                    eng.inject_fault(f);
                }
            }
            _ => {
                if let Some(&f) = faults.first() {
                    eng.recover(f, 0x5EED ^ seed);
                }
            }
        }
        for _ in 0..6 {
            let changes = eng.run_round();
            trace.push((phase, eng.round(), changes));
        }
    }
    GossipRun {
        states: eng.states().to_vec(),
        faulty: eng.faulty_nodes(),
        stats: eng.stats().clone(),
        trace,
    }
}

#[test]
fn gossip_serial_and_parallel_runs_are_bit_identical() {
    for dims in shapes() {
        let mesh = Mesh::new(&dims);
        for seed in 0..4u64 {
            let serial = gossip_run(&mesh, seed, 1);
            for threads in [2usize, 3, 8] {
                let parallel = gossip_run(&mesh, seed, threads);
                let tag = format!("dims {dims:?} seed {seed} threads {threads}");
                assert_eq!(serial.states, parallel.states, "states diverged: {tag}");
                assert_eq!(serial.faulty, parallel.faulty, "fault sets diverged: {tag}");
                assert_eq!(serial.trace, parallel.trace, "traces diverged: {tag}");
                assert_eq!(
                    parallel.stats.threads(),
                    threads,
                    "thread count not recorded"
                );
            }
        }
    }
}

/// Pool-lifecycle cross-check: an engine whose worker pool is torn down and
/// re-created mid-schedule (by changing the width between phases — the pooled
/// analogue of the old scoped-threads world, where every round got fresh
/// workers) must stay bit-identical to both the serial run and the
/// steady-width pooled run.
#[test]
fn gossip_pool_recreation_mid_schedule_is_bit_identical() {
    for dims in [vec![12, 12], vec![5, 4, 6]] {
        let mesh = Mesh::new(&dims);
        for seed in 0..3u64 {
            let serial = gossip_run(&mesh, seed, 1);
            let steady = gossip_run(&mesh, seed, 3);
            for schedule in [[2usize, 4, 3], [3, 1, 3], [1, 2, 1]] {
                let switched = gossip_run_schedule(&mesh, seed, schedule);
                let tag = format!("dims {dims:?} seed {seed} schedule {schedule:?}");
                assert_eq!(serial.states, switched.states, "states diverged: {tag}");
                assert_eq!(
                    steady.states, switched.states,
                    "pooled runs diverged: {tag}"
                );
                assert_eq!(serial.faulty, switched.faulty, "fault sets diverged: {tag}");
                assert_eq!(serial.trace, switched.trace, "traces diverged: {tag}");
            }
        }
    }
}

#[test]
fn labeling_protocol_serial_and_parallel_fixpoints_are_bit_identical() {
    for dims in shapes() {
        let mesh = Mesh::new(&dims);
        for seed in 10..13u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let faults = sample_nodes(&mesh, &mut rng, 2 + (seed as usize % 5));
            let run = |threads: usize| {
                let mut eng =
                    RoundEngine::new(mesh.clone(), LabelingProtocol).with_threads(threads);
                for &f in &faults {
                    eng.inject_fault(f);
                }
                // `run_until_quiescent`, driven round by round to record each round.
                let bound = 4 * (u64::from(mesh.diameter()) + 4);
                let mut per_round = Vec::new();
                loop {
                    assert!((per_round.len() as u64) < bound, "labeling must stabilise");
                    let changes = eng.run_round();
                    per_round.push(changes);
                    if changes == 0 {
                        break;
                    }
                }
                (eng.states().to_vec(), eng.round(), per_round)
            };
            let serial = run(1);
            for threads in [2usize, 4] {
                assert_eq!(
                    serial,
                    run(threads),
                    "dims {dims:?} seed {seed} threads {threads}"
                );
            }
        }
    }
}

#[test]
fn labeling_engine_matches_itself_across_thread_counts() {
    for dims in [vec![11, 11], vec![6, 7, 5]] {
        let mesh = Mesh::new(&dims);
        let interior: Vec<Coord> = match mesh.interior_region() {
            Some(r) => r.iter_coords().collect(),
            None => continue,
        };
        for seed in 0..3u64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let picks = rng.sample_indices(interior.len(), 8.min(interior.len()));
            let faults: Vec<Coord> = picks.iter().map(|&i| interior[i]).collect();
            let mut serial = LabelingEngine::new(mesh.clone());
            let serial_rounds = serial.apply_faults(&faults);
            for threads in [2usize, 3, 8] {
                let mut parallel = LabelingEngine::new(mesh.clone()).with_threads(threads);
                let parallel_rounds = parallel.apply_faults(&faults);
                assert_eq!(serial.statuses(), parallel.statuses());
                assert_eq!(serial_rounds, parallel_rounds);
            }
        }
    }
}

/// End-to-end: the full dynamic network (labeling + identification + boundary +
/// routing under a fault/recovery schedule) is bit-identical across thread counts —
/// states, blocks, convergence records, probe reports and visible information.
#[test]
fn dynamic_network_runs_are_bit_identical_across_thread_counts() {
    for (dims, lambda) in [(vec![14, 14], 1u64), (vec![8, 8, 8], 2)] {
        let mesh = Mesh::new(&dims);
        let run = |threads: usize| {
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
                    ..NetworkConfig::default()
                },
            );
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
        let serial = run(1);
        for threads in [2usize, 4] {
            assert_eq!(serial, run(threads), "dims {dims:?} threads {threads}");
        }
    }
}

/// The fault plan is replayed identically whichever engine executes it, so the event
/// schedule itself cannot introduce divergence between modes.
#[test]
fn fault_plans_are_mode_independent() {
    let mesh = Mesh::cubic(10, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 3);
    let plan = generator.dynamic_plan(
        DynamicFaultConfig {
            fault_count: 5,
            first_step: 1,
            interval: 10,
            with_recovery: true,
            recovery_delay: 30,
        },
        FaultPlacement::UniformInterior,
    );
    let events: Vec<(u64, usize, bool)> = plan
        .events()
        .iter()
        .map(|e| (e.step, e.node, e.kind == FaultEventKind::Fail))
        .collect();
    let mut generator2 = FaultGenerator::new(mesh, 3);
    let plan2 = generator2.dynamic_plan(
        DynamicFaultConfig {
            fault_count: 5,
            first_step: 1,
            interval: 10,
            with_recovery: true,
            recovery_delay: 30,
        },
        FaultPlacement::UniformInterior,
    );
    let events2: Vec<(u64, usize, bool)> = plan2
        .events()
        .iter()
        .map(|e| (e.step, e.node, e.kind == FaultEventKind::Fail))
        .collect();
    assert_eq!(events, events2);
}
