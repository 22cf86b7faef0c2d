//! Golden routes: Algorithm 3's decisions pinned across commits.
//!
//! The equivalence suites compare the code with itself (serial vs sharded,
//! snapshot vs live, warm vs cold), so a change that alters every route the same
//! way passes all of them.  This suite pins the routes themselves: each case folds
//! the outcomes of a seeded, deterministic routing run into a 64-bit FNV-1a
//! fingerprint and compares it with a value recorded once.  The expected values
//! were computed with the library as it stood before the one-pass hop kernel
//! (carried coordinates, one-pass direction classification, 16-bit direction
//! sets) replaced the per-direction classification; a routing change that is
//! meant to be bit-identical must leave every fingerprint untouched.
//!
//! The cases cover the four places a hop decision is made:
//!
//! * `StaticLayout::sweep` over 4,096 seeded pairs on a 64×64 mesh with 160 clustered
//!   faults, for the LGFI router (default and reactive) and every baseline router;
//! * the same over 1,024 pairs on a 3-D 12×12×12 mesh;
//! * the probe reports of a seeded `LgfiNetwork` run under Poisson churn;
//! * the packet records of a 4-flit, 2-VC wormhole `TrafficEngine` run on the
//!   64×64 layout.
//!
//! Five further cases pin the two traffic drivers, `Scenario::run_traffic` and
//! `SloCampaign::run`, with expected values recorded before the two were folded
//! onto one loop:
//!
//! * `run_traffic` on the dynamic scenarios of `traffic_equivalence` and
//!   `wormhole_equivalence`, on a wormhole scenario whose plan fails one node per
//!   step while the worms drain (a drain without plan events moves it), and on
//!   `exp_traffic`'s static scenario (60 warm-up steps) at rate 2.0;
//! * `SloCampaign::run` on a plan campaign with events right after its horizon,
//!   which its event-free drain must not apply, and on
//!   `SloCampaign::small_churn()`.
//!
//! The hash is test-local (no std hasher), so the fingerprints do not depend on
//! the standard library's hashing algorithm.

use lgfi::prelude::*;
use lgfi_core::slo::SloObserver;
use lgfi_sim::{Histogram, SloTracker};
use lgfi_topology::NodeId;
use lgfi_workloads::{
    CampaignFaults, CampaignResult, ChurnConfig, ChurnProcess, DynamicFaultConfig, FaultGenerator,
    FaultPlacement, SloCampaign, TrafficPattern,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

fn status_code(s: ProbeStatus) -> u64 {
    match s {
        ProbeStatus::InFlight => 0,
        ProbeStatus::Delivered => 1,
        ProbeStatus::Unreachable => 2,
        ProbeStatus::Exhausted => 3,
        ProbeStatus::Failed => 4,
        ProbeStatus::Deadlocked => 5,
    }
}

fn fold_outcome(h: &mut Fnv, o: &ProbeOutcome) {
    h.word(status_code(o.status));
    h.word(o.steps);
    h.word(o.backtracks);
    h.word(o.path_length);
    h.word(u64::from(o.initial_distance));
}

/// Folds every field of each packet record, in order.
fn fold_records(h: &mut Fnv, records: &[PacketRecord]) {
    for r in records {
        h.word(r.id);
        h.word(r.source as u64);
        h.word(r.dest as u64);
        h.word(r.injected_at);
        h.word(r.finished_at);
        h.word(status_code(r.status));
        h.word(r.hops);
        h.word(r.stalls);
        h.word(u64::from(r.flits));
        h.word(u64::from(r.initial_distance));
    }
}

/// Folds a histogram's count and every bucket up to its largest value.
fn fold_histogram(h: &mut Fnv, hist: &Histogram) {
    h.word(hist.count());
    for v in 0..=hist.max().unwrap_or(0) {
        h.word(hist.count_of(v));
    }
}

fn fold_traffic_stats(h: &mut Fnv, s: &TrafficStats) {
    h.word(s.injected());
    h.word(s.delivered());
    h.word(s.failed());
    h.word(s.deadlocked());
    h.word(s.cycles());
    h.word(s.total_hops());
    h.word(s.total_stalls());
    fold_histogram(h, s.latency_histogram());
}

fn fold_tracker(h: &mut Fnv, t: &SloTracker) {
    for n in t.per_node() {
        h.word(n.injected);
        h.word(n.delivered);
        h.word(n.unreachable);
        h.word(n.failed);
        h.word(n.latency_sum);
        h.word(n.detour_violations);
    }
    fold_histogram(h, t.latency());
    fold_histogram(h, t.reconverge());
    h.word(t.bursts());
    h.word(t.detour_violations());
    h.word(t.unreachable());
}

/// `faults` clustered faults drawn by `FaultGenerator` seed 13 (the fault layout
/// of the `wormhole64` benchmark workload on 64×64), stabilised.
fn clustered_layout(dims: &[i32], faults: usize, clusters: usize) -> StaticLayout {
    let mesh = Mesh::new(dims);
    let placed =
        FaultGenerator::new(mesh.clone(), 13).place(faults, FaultPlacement::Clustered { clusters });
    StaticLayout::new(mesh, &placed)
}

/// `count` seeded source/destination pairs among the enabled nodes.
fn enabled_pairs(statuses: &[NodeStatus], count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let enabled: Vec<NodeId> = (0..statuses.len())
        .filter(|&id| statuses[id] == NodeStatus::Enabled)
        .collect();
    let mut rng = DetRng::seed_from_u64(seed);
    (0..count)
        .map(|_| (*rng.choose(&enabled), *rng.choose(&enabled)))
        .collect()
}

type MakeRouter = fn() -> Box<dyn Router>;

/// The routers every static sweep is pinned for, by name.
fn routers() -> [(&'static str, MakeRouter); 6] {
    [
        ("lgfi", || Box::new(LgfiRouter::new())),
        ("lgfi-reactive", || Box::new(LgfiRouter::default())),
        ("dimension-order", || Box::new(DimensionOrderRouter::new())),
        ("local-only", || Box::new(LocalInfoRouter::new())),
        ("global-info", || Box::new(GlobalInfoRouter::new())),
        ("static-block", || Box::new(StaticBlockRouter::new())),
    ]
}

/// Sweeps `pairs` through `layout` with every router and checks each router's
/// outcome fingerprint against `expected` (same order as [`routers`]).
fn assert_sweeps(layout: &StaticLayout, pairs: &[(NodeId, NodeId)], expected: [u64; 6]) {
    let mut actual = Vec::new();
    for (name, make) in routers() {
        let outcomes = layout.sweep(&make, pairs, 20_000, 2);
        let mut h = Fnv::new();
        for o in &outcomes {
            fold_outcome(&mut h, o);
        }
        let delivered = outcomes.iter().filter(|o| o.delivered()).count();
        actual.push((h.0, format!("{name}: {:#018x}, {delivered} delivered", h.0)));
    }
    let got: Vec<u64> = actual.iter().map(|a| a.0).collect();
    let report: Vec<&str> = actual.iter().map(|a| a.1.as_str()).collect();
    assert_eq!(
        got, expected,
        "static sweep fingerprints moved: {report:#?}"
    );
}

#[test]
fn static_sweeps_on_64x64_match_the_golden_routes() {
    let layout = clustered_layout(&[64, 64], 160, 20);
    let pairs = enabled_pairs(layout.statuses(), 4_096, 0x601D_0002);
    assert_sweeps(
        &layout,
        &pairs,
        [
            0x576c_2f83_bed1_b36e,
            0x1e6d_8c69_a73a_abd8,
            0xedbd_3b79_118e_936c,
            0xdba2_9b9e_f6ae_1e6e,
            0x4729_f226_cb44_b1ab,
            0x49dc_ed1a_6cdc_9f8c,
        ],
    );
}

#[test]
fn static_sweeps_on_a_3d_mesh_match_the_golden_routes() {
    let layout = clustered_layout(&[12, 12, 12], 48, 6);
    let pairs = enabled_pairs(layout.statuses(), 1_024, 0x601D_0003);
    assert_sweeps(
        &layout,
        &pairs,
        [
            0xe459_cc52_6b31_2030,
            0x8307_e5c6_2aad_cd73,
            0xdad8_3187_f279_8400,
            0xaffd_1d4f_7ea4_5130,
            0x42a2_a287_8aca_9430,
            0x5841_5514_c11e_1ed4,
        ],
    );
}

#[test]
fn network_probe_reports_under_churn_match_the_golden_routes() {
    const HORIZON: u64 = 600;
    let mesh = Mesh::cubic(32, 2);
    let churn = ChurnConfig {
        fail_rate: 0.05,
        mean_downtime: 120.0,
        max_faulty: 24,
    };
    let plan = ChurnProcess::new(mesh.clone(), 13, churn).plan(HORIZON);
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let mut rng = DetRng::seed_from_u64(0x601D_0004);
    let n = mesh.node_count();
    for step in 0..HORIZON {
        if step % 3 == 0 {
            for k in 0..3u64 {
                let (s, d) = (rng.below(n), rng.below(n));
                let router: Box<dyn Router> = match (step / 3 + k) % 4 {
                    0 | 1 => Box::new(LgfiRouter::new()),
                    2 => Box::new(LocalInfoRouter::new()),
                    _ => Box::new(DimensionOrderRouter::new()),
                };
                net.launch_probe(s, d, router);
            }
        }
        net.run_step();
    }
    let mut drain = 0;
    while net.probes_in_flight() > 0 && drain < 20_000 {
        net.run_step();
        drain += 1;
    }
    assert_eq!(net.probes_in_flight(), 0, "every probe finishes");
    let mut h = Fnv::new();
    for r in net.reports() {
        h.word(r.source as u64);
        h.word(r.dest as u64);
        h.word(r.launched_at);
        h.word(r.finished_at);
        fold_outcome(&mut h, &r.outcome);
        h.word(r.distance_at_fault.len() as u64);
        for (&step, &d) in &r.distance_at_fault {
            h.word(step);
            h.word(u64::from(d));
        }
        h.text(r.router);
    }
    let delivered = net
        .reports()
        .iter()
        .filter(|r| r.outcome.delivered())
        .count();
    assert_eq!(
        (net.reports().len(), delivered, h.0),
        (600, 576, 0xd9ee_8611_1272_3275),
        "network probe reports moved: (reports, delivered, fingerprint)"
    );
}

#[test]
fn wormhole_packet_records_match_the_golden_routes() {
    const CYCLES: u64 = 1_500;
    let layout = clustered_layout(&[64, 64], 160, 20);
    let env = layout.env();
    let spec = TrafficSpec::new()
        .flits_per_packet(4)
        .vc_count(2)
        .escape_vc(true)
        .max_packet_cycles(2_000);
    let mut traffic =
        TrafficEngine::new(layout.mesh().clone(), spec, &|| Box::new(LgfiRouter::new()));
    let pairs = enabled_pairs(layout.statuses(), CYCLES as usize, 0x601D_0005);
    for &(s, d) in &pairs {
        traffic.inject(s, d);
        traffic.run_static_cycles(&env, 1);
    }
    traffic.drain_static(&env, 10_000);
    assert_eq!(traffic.in_flight(), 0, "every worm finishes");
    let mut h = Fnv::new();
    fold_records(&mut h, traffic.records());
    let delivered = traffic.records().iter().filter(|r| r.delivered()).count();
    assert_eq!(
        (traffic.records().len(), delivered, h.0),
        (1_500, 1_500, 0xd811_e292_0bf0_bcb1),
        "wormhole packet records moved: (records, delivered, fingerprint)"
    );
}

/// A traffic scenario with clustered faults, seeded, on a `side`×`side` mesh.
fn traffic_scenario(
    side: i32,
    seed: u64,
    fault_count: usize,
    clusters: usize,
    dynamic: Option<DynamicFaultConfig>,
    launch_step: u64,
) -> Scenario {
    Scenario {
        dims: vec![side, side],
        seed,
        fault_count,
        placement: FaultPlacement::Clustered { clusters },
        dynamic,
        lambda: 1,
        traffic: TrafficPattern::UniformRandom,
        messages: 0,
        launch_step,
        max_steps: 50_000,
        threads: 1,
        frontier: true,
        probe_threads: 1,
    }
}

/// Runs `scenario` under `spec` with the LGFI router and returns
/// `(records, delivered, fingerprint)` over the records and the engine stats.
fn traffic_fingerprint(scenario: &Scenario, spec: TrafficSpec) -> (usize, u64, u64) {
    let result = scenario.run_traffic(spec, &|| Box::new(LgfiRouter::new()));
    assert_eq!(
        result.records.len() as u64,
        result.stats.delivered() + result.stats.failed(),
        "records are the finished packets"
    );
    let mut h = Fnv::new();
    fold_records(&mut h, &result.records);
    fold_traffic_stats(&mut h, &result.stats);
    (result.records.len(), result.stats.delivered(), h.0)
}

/// The plan events of a run without warm-up that take effect after its
/// injection window, while packets are still draining.
fn plan_events_in_the_drain(scenario: &Scenario, spec: TrafficSpec) -> usize {
    let result = scenario.run_traffic(spec, &|| Box::new(LgfiRouter::new()));
    let last = result.records.iter().map(|r| r.finished_at).max().unwrap();
    scenario
        .fault_plan()
        .events()
        .iter()
        .filter(|e| e.step >= spec.cycles && e.step <= last)
        .count()
}

#[test]
fn dynamic_traffic_run_matches_the_golden_records() {
    let scenario = traffic_scenario(
        14,
        23,
        8,
        2,
        Some(DynamicFaultConfig {
            fault_count: 8,
            first_step: 10,
            interval: 20,
            with_recovery: true,
            recovery_delay: 60,
        }),
        0,
    );
    let spec = TrafficSpec::at_rate(1.5)
        .cycles(80)
        .drain_cycles(5_000)
        .max_packet_cycles(scenario.max_steps);
    assert_eq!(
        traffic_fingerprint(&scenario, spec),
        (120, 119, 0x8dad_8a35_8a88_2266),
        "dynamic traffic run moved: (records, delivered, fingerprint)"
    );
}

#[test]
fn dynamic_wormhole_run_matches_the_golden_records() {
    let scenario = traffic_scenario(
        12,
        29,
        6,
        2,
        Some(DynamicFaultConfig {
            fault_count: 6,
            first_step: 10,
            interval: 25,
            with_recovery: true,
            recovery_delay: 70,
        }),
        0,
    );
    let spec = TrafficSpec::at_rate(1.2)
        .cycles(60)
        .drain_cycles(5_000)
        .flits_per_packet(4)
        .vc_count(2)
        .escape_vc(true)
        .max_packet_cycles(scenario.max_steps);
    // The plan keeps firing while the worms drain: this pin covers it.
    assert!(plan_events_in_the_drain(&scenario, spec) > 0);
    assert_eq!(
        traffic_fingerprint(&scenario, spec),
        (72, 72, 0x303c_2bde_10c9_af69),
        "dynamic wormhole run moved: (records, delivered, fingerprint)"
    );
}

#[test]
fn traffic_run_applies_plan_events_through_the_drain() {
    // One fault per step from the end of the injection window on, each
    // recovering 6 steps later: worms still in flight meet them.
    let scenario = traffic_scenario(
        12,
        31,
        12,
        2,
        Some(DynamicFaultConfig {
            fault_count: 12,
            first_step: 40,
            interval: 1,
            with_recovery: true,
            recovery_delay: 6,
        }),
        0,
    );
    let spec = TrafficSpec::at_rate(1.2)
        .cycles(40)
        .drain_cycles(5_000)
        .flits_per_packet(4)
        .vc_count(2)
        .escape_vc(true)
        .max_packet_cycles(scenario.max_steps);
    assert!(plan_events_in_the_drain(&scenario, spec) > 10);
    assert_eq!(
        traffic_fingerprint(&scenario, spec),
        (48, 47, 0x1d25_6707_9e13_b4b5),
        "drain-fault traffic run moved: (records, delivered, fingerprint)"
    );
}

#[test]
fn static_traffic_run_after_warm_up_matches_the_golden_records() {
    // `exp_traffic`'s scenario: 60 warm-up steps before the first injection.
    let mut scenario = traffic_scenario(16, 21, 12, 3, None, 60);
    scenario.max_steps = 100_000;
    assert_eq!(
        traffic_fingerprint(&scenario, TrafficSpec::at_rate(2.0)),
        (400, 400, 0xc5e0_7af0_995f_86d3),
        "static traffic run moved: (records, delivered, fingerprint)"
    );
}

fn campaign_fingerprint(result: &CampaignResult) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    fold_tracker(&mut h, &result.tracker);
    h.word(result.drained);
    h.word(result.e_max_seen);
    h.word(result.a_steps_max);
    (result.tracker.injected(), result.drained, h.0)
}

#[test]
fn plan_campaign_drain_ignores_events_after_the_horizon() {
    const HORIZON: u64 = 300;
    let mesh = Mesh::cubic(12, 2);
    // Faults every 2 steps from 6 steps before the horizon, each recovering 10
    // steps later: most of the plan lies after the horizon.
    let plan = FaultGenerator::new(mesh, 5).dynamic_plan(
        DynamicFaultConfig {
            fault_count: 8,
            first_step: HORIZON - 6,
            interval: 2,
            with_recovery: true,
            recovery_delay: 10,
        },
        FaultPlacement::UniformInterior,
    );
    let small = SloCampaign::small_churn();
    let campaign = SloCampaign {
        traffic: small.traffic.cycles(HORIZON).rate(2.0),
        faults: CampaignFaults::Plan(plan.clone()),
        ..small
    };
    let result = campaign.run(&|| Box::new(LgfiRouter::new()));
    let skipped = plan
        .events()
        .iter()
        .filter(|e| e.step >= HORIZON && e.step < HORIZON + result.drained)
        .count();
    assert!(skipped > 0, "the drain must run through plan events");
    assert_eq!(
        campaign_fingerprint(&result),
        (600, 9, 0xb601_6b59_9e1b_6164),
        "plan campaign moved: (injected, drained, fingerprint)"
    );
}

#[test]
fn small_churn_campaign_matches_the_golden_slos() {
    let result = SloCampaign::small_churn().run(&|| Box::new(LgfiRouter::new()));
    assert_eq!(
        campaign_fingerprint(&result),
        (750, 7, 0x27e3_cd7c_2a13_d8ab),
        "churn campaign moved: (injected, drained, fingerprint)"
    );
}

#[test]
fn slo_observer_on_a_network_with_its_own_plan_matches_the_golden_slos() {
    // The campaign drivers build their networks with an empty plan and pass
    // each step's events as `external`.  Here the network carries the plan, so
    // the observer finds the step's bursts through `LgfiNetwork::plan`.
    const INJECTION: u64 = 80;
    let mesh = Mesh::cubic(16, 2);
    let plan = FaultGenerator::new(mesh.clone(), 37).dynamic_plan(
        DynamicFaultConfig {
            fault_count: 10,
            first_step: 6,
            interval: 7,
            with_recovery: true,
            recovery_delay: 25,
        },
        FaultPlacement::Clustered { clusters: 3 },
    );
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let mut engine = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
        Box::new(LgfiRouter::new())
    });
    let mut observer = SloObserver::new(mesh.node_count());
    let mut rng = DetRng::seed_from_u64(0x601D_0006);
    let n = mesh.node_count();
    let mut step = 0;
    while step < INJECTION || (engine.in_flight() > 0 && step < INJECTION + 5_000) {
        if step < INJECTION {
            for _ in 0..2 {
                let (s, d) = (rng.below(n), rng.below(n));
                if net.statuses()[s] == NodeStatus::Enabled
                    && net.statuses()[d] == NodeStatus::Enabled
                {
                    engine.inject(s, d);
                }
            }
        }
        net.run_traffic_step(&mut engine);
        observer.observe_step(&net, &engine, &[]);
        step += 1;
    }
    assert_eq!(engine.in_flight(), 0, "every packet finishes");
    let tracker = observer.tracker();
    assert!(tracker.bursts() > 0, "the plan's failures are bursts");
    let mut h = Fnv::new();
    fold_tracker(&mut h, tracker);
    h.word(observer.e_max_seen());
    h.word(observer.a_steps_max());
    assert_eq!(
        (tracker.injected(), tracker.bursts(), h.0),
        (157, 10, 0xf7b0_6670_5b38_8ede),
        "observer on a planned network moved: (injected, bursts, fingerprint)"
    );
}
