//! Bit-identity of the incremental control plane with its full recompute.
//!
//! `LgfiNetwork` keeps its visible-boundary arena current by patching only the
//! nodes whose visibility changes, and rebuilds boundaries only for the blocks
//! that changed.  The oracle here is the full recompute:
//! [`LgfiNetwork::visible_info`] filters a node's whole timed store at the
//! current round, independently of the arena.  Churn campaigns on a 32×32 and an
//! 8×8×8 mesh, at λ = 1 and λ = 3, in probe mode and in traffic mode, run with a
//! route service attached, and after every step:
//!
//! * every node's entries in the latest epoch snapshot (a copy of the arena)
//!   equal the full recompute;
//! * the service's epoch equals [`LgfiNetwork::info_changes`];
//! * for one 32×32 campaign, the steps at which the epoch advanced equal a golden
//!   list recorded with the full-recompute control plane (whole-store arena
//!   rebuild and whole-mesh boundary construction).
//!
//! A second golden list covers the one case churn rarely produces: a block that
//! vanishes before its identification finished, so its entries are dropped from
//! the store before they ever became visible.  Their pending arrivals must then
//! publish nothing.
//!
//! The execution knobs `LGFI_THREADS`, `LGFI_FRONTIER`, `LGFI_PROBE_THREADS` and
//! `LGFI_TRAFFIC_THREADS` are honoured, so every leg of the CI determinism matrix
//! checks the same golden list.

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::routing::LgfiRouter;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
use lgfi_sim::{FaultEvent, FaultPlan, FaultPlanCursor, InjectionProcess};
use lgfi_topology::{coord, Mesh};
use lgfi_workloads::{ChurnConfig, ChurnProcess, TrafficGenerator, TrafficPattern};

/// Steps of every churn campaign.
const STEPS: u64 = 400;

/// Churn that keeps the control plane busy: a fault every ~7 steps.
const BUSY: ChurnConfig = ChurnConfig {
    fail_rate: 0.15,
    mean_downtime: 30.0,
    max_faulty: 10,
};

/// Churn with quiet stretches between the bursts of information changes.
const QUIET: ChurnConfig = ChurnConfig {
    fail_rate: 0.02,
    mean_downtime: 60.0,
    max_faulty: 10,
};

/// The steps at which the epoch advanced in the 32×32, λ = 1, traffic-mode
/// [`QUIET`] campaign of seed 7, as inclusive runs `(first, last)` of
/// consecutive steps, recorded with the full-recompute control plane.
const GOLDEN_EPOCH_RUNS: &[(u64, u64)] = &[
    (2, 2),
    (10, 58),
    (89, 119),
    (178, 178),
    (183, 248),
    (250, 274),
    (277, 332),
    (375, 375),
    (383, 399),
];

/// The epoch steps of [`vanishing_block_plan`] on a 16×16 mesh at λ = 1 in probe
/// mode, as inclusive runs, recorded with the full-recompute control plane.
const GOLDEN_VANISHING_RUNS: &[(u64, u64)] = &[(0, 0), (9, 10), (19, 41)];

/// A diagonal fault chain labels into a 10×10 block whose identification takes
/// tens of rounds.  Every fault recovers at step 10, before the identification
/// finished, so the block's entries are marked for deletion before any of them
/// became visible.  A short-lived fault at step 19 triggers two more rebuilds,
/// which drop those entries from the store while their arrival rounds are still
/// pending.
fn vanishing_block_plan(mesh: &Mesh) -> FaultPlan {
    let mut events = Vec::new();
    for i in 3..=12 {
        events.push(FaultEvent::fail(0, mesh.id_of(&coord![i, i])));
        events.push(FaultEvent::recover(10, mesh.id_of(&coord![i, i])));
    }
    events.push(FaultEvent::fail(19, mesh.id_of(&coord![1, 14])));
    events.push(FaultEvent::recover(22, mesh.id_of(&coord![1, 14])));
    FaultPlan::new(events)
}

/// Expands inclusive `(first, last)` runs into the steps they cover.
fn expand(runs: &[(u64, u64)]) -> Vec<u64> {
    runs.iter()
        .flat_map(|&(first, last)| first..=last)
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Probe,
    Traffic,
}

/// The `LGFI_*` execution knobs of the CI determinism matrix (serial defaults).
fn knobs() -> (NetworkConfig, usize) {
    let knob = |name: &str| -> usize {
        match std::env::var(name) {
            Ok(s) if !s.trim().is_empty() => s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}")),
            _ => 1,
        }
    };
    let config = NetworkConfig {
        threads: knob("LGFI_THREADS"),
        probe_threads: knob("LGFI_PROBE_THREADS"),
        frontier: !matches!(
            std::env::var("LGFI_FRONTIER").as_deref().map(str::trim),
            Ok("0") | Ok("false") | Ok("off")
        ),
        ..NetworkConfig::default()
    };
    (config, knob("LGFI_TRAFFIC_THREADS"))
}

/// The first [`STEPS`] steps of a churn stream.
fn churn_plan(mesh: &Mesh, seed: u64, churn: ChurnConfig) -> FaultPlan {
    ChurnProcess::new(mesh.clone(), seed, churn).plan(STEPS)
}

/// Runs `plan` for `steps` steps, feeding its events as external events and
/// checking the snapshot against the full recompute after every step, and
/// returns the steps at which the epoch advanced.
fn campaign(
    mesh: &Mesh,
    lambda: u64,
    mode: Mode,
    seed: u64,
    plan: &FaultPlan,
    steps: u64,
) -> Vec<u64> {
    let label = format!("{:?} λ={lambda} {mode:?} seed {seed}", mesh.dims());
    let (config, traffic_threads) = knobs();
    let mut net = LgfiNetwork::new(
        mesh.clone(),
        FaultPlan::empty(),
        NetworkConfig { lambda, ..config },
    );
    let service = net.route_service();
    let mut cursor = FaultPlanCursor::new();
    let mut requests = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed);
    let mut injection = InjectionProcess::new(0.5);
    let mut traffic = TrafficEngine::new(
        mesh.clone(),
        TrafficSpec::at_rate(0.5).traffic_threads(traffic_threads),
        &|| Box::new(LgfiRouter::new()),
    );
    let mut advanced = Vec::new();
    for _ in 0..steps {
        let step = net.step();
        let events = cursor.events_at(plan, step);
        let launches = match mode {
            Mode::Probe => usize::from(step % 4 == 0),
            Mode::Traffic => injection.packets_this_cycle(),
        };
        for _ in 0..launches {
            let statuses = net.statuses();
            let Some(r) = requests.next_request(|id| statuses[id] == NodeStatus::Enabled) else {
                continue;
            };
            match mode {
                Mode::Probe => net.launch_probe(r.source, r.dest, Box::new(LgfiRouter::new())),
                Mode::Traffic => {
                    traffic.inject(r.source, r.dest);
                }
            }
        }
        let before = service.epoch();
        match mode {
            Mode::Probe => net.run_step_with(events),
            Mode::Traffic => net.run_traffic_step_with(events, &mut traffic),
        }
        if service.epoch() != before {
            advanced.push(step);
        }
        assert_eq!(
            service.epoch(),
            net.info_changes(),
            "{label}: epoch and info-change count diverged at step {step}"
        );
        let snapshot = service.latest();
        let boundary = snapshot.boundary();
        for node in 0..mesh.node_count() {
            assert_eq!(
                boundary.entries(node),
                net.visible_info(node).as_slice(),
                "{label}: node {node} at step {step} differs from the full recompute"
            );
        }
    }
    assert!(
        net.convergence_records().len() > 2,
        "{label}: the faults must keep the control plane working"
    );
    advanced
}

#[test]
fn epoch_steps_of_a_32x32_campaign_match_the_full_recompute_golden_list() {
    let mesh = Mesh::cubic(32, 2);
    let plan = churn_plan(&mesh, 7, QUIET);
    let steps = campaign(&mesh, 1, Mode::Traffic, 7, &plan, STEPS);
    assert_eq!(steps, expand(GOLDEN_EPOCH_RUNS));
}

#[test]
fn entries_dropped_before_arrival_publish_nothing() {
    let mesh = Mesh::cubic(16, 2);
    let plan = vanishing_block_plan(&mesh);
    let steps = campaign(&mesh, 1, Mode::Probe, 3, &plan, 120);
    assert_eq!(steps, expand(GOLDEN_VANISHING_RUNS));
}

#[test]
fn snapshots_match_the_full_recompute_on_a_32x32_mesh() {
    let mesh = Mesh::cubic(32, 2);
    for lambda in [1, 3] {
        for mode in [Mode::Probe, Mode::Traffic] {
            campaign(&mesh, lambda, mode, 11, &churn_plan(&mesh, 11, BUSY), STEPS);
        }
    }
}

#[test]
fn snapshots_match_the_full_recompute_on_an_8x8x8_mesh() {
    let mesh = Mesh::cubic(8, 3);
    for lambda in [1, 3] {
        for mode in [Mode::Probe, Mode::Traffic] {
            campaign(&mesh, lambda, mode, 5, &churn_plan(&mesh, 5, BUSY), STEPS);
        }
    }
}
