//! The `churn64` and `wormhole64` workloads: the loop of `SloCampaign::run`,
//! stepped through a fixed simulated horizon and timed, then route queries
//! against the state the horizon ends in.

use std::sync::Arc;
use std::time::Instant;

use lgfi_core::network::{ConvergenceRecord, LgfiNetwork, NetworkConfig};
use lgfi_core::routing::{ProbeStatus, Router};
use lgfi_core::slo::SloObserver;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::{PacketRecord, TrafficEngine, TrafficSpec};
use lgfi_sim::{
    FaultEvent, FaultEventKind, FaultPlan, FaultPlanCursor, InjectionProcess, SloTracker,
    TrafficStats,
};
use lgfi_topology::Mesh;
use lgfi_workloads::{
    CampaignFaults, ChurnConfig, ChurnProcess, FaultGenerator, FaultPlacement, SloCampaign,
    TrafficGenerator, TrafficPattern,
};

use crate::query::{self, Reader};
use crate::trace::{
    fastest_sum, make_router, median, record_step, DecideProbe, StepClass, StepLog, Tracer,
};
use crate::{Checks, Metrics, Run};

/// The fault stream of `churn64` and `query_churn64` (about 20 nodes faulty
/// in steady state).
pub const CHURN: ChurnConfig = ChurnConfig {
    fail_rate: 0.05,
    mean_downtime: 400.0,
    max_faulty: 64,
};

/// Seed of the fixed fault stream (`churn64`, `query_churn64`) and fault
/// layout (`wormhole64`).  Host cost and tail latency depend on where faults
/// land far more than on the traffic: over one run, two churn streams differ
/// by up to a quarter in host time.  So the faults are part of the workload,
/// and `--seed` drives only the traffic and the queries.
pub const FAULT_SEED: u64 = 13;

/// One traffic workload: the campaign it runs and how long.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Poisson churn (`true`) or clustered faults present from step 0.
    churn: bool,
    /// Clustered faults at step 0 (eight per cluster) when not churning.
    static_faults: usize,
    /// The traffic: rate, worm shape, packet budget, drain window.
    spec: TrafficSpec,
    /// Steps of warm-up in each set-up.
    warmup: u64,
    /// Measured steps after warm-up, repeated in every repetition.
    horizon: u64,
    /// Steps per timed block (`horizon` is a multiple).
    block: u64,
    /// Steps of the cold-start prefix compared with `SloCampaign::run` and
    /// across `traffic_threads` 1 and 2.
    prefix: u64,
    /// Host seconds of route queries per repetition.
    query_secs: f64,
}

/// `churn64`: uniform single-flit traffic at 1.0 packet/cycle under Poisson
/// churn (the fixed stream, materialised as a plan).
pub fn churn64() -> Workload {
    Workload {
        churn: true,
        static_faults: 0,
        spec: TrafficSpec::at_rate(1.0)
            .max_packet_cycles(2_000)
            .drain_cycles(2_000),
        warmup: 1_500,
        horizon: 4_000,
        block: 100,
        prefix: 600,
        query_secs: 0.25,
    }
}

/// `wormhole64`: 4-flit worms on 2 VCs with the escape class, uniform at 0.5
/// packet/cycle, around 160 clustered faults (a fixed layout) present from
/// step 0.  At 1.0 packet/cycle this mesh is past its knee: about 300 worms
/// stay in flight and 6% of them exhaust their cycle budget.
pub fn wormhole64() -> Workload {
    Workload {
        churn: false,
        static_faults: 160,
        spec: TrafficSpec::at_rate(0.5)
            .flits_per_packet(4)
            .vc_count(2)
            .escape_vc(true)
            .max_packet_cycles(2_000)
            .drain_cycles(2_000),
        warmup: 1_000,
        horizon: 300_000,
        block: 5_000,
        prefix: 20_000,
        query_secs: 0.25,
    }
}

impl Workload {
    /// The campaign of this workload over `cycles` steps.
    fn campaign(&self, seed: u64, cycles: u64, traffic_threads: usize) -> SloCampaign {
        let mesh = Mesh::cubic(64, 2);
        let plan = if self.churn {
            ChurnProcess::new(mesh, FAULT_SEED, CHURN).plan(cycles)
        } else {
            let clusters = self.static_faults / 8;
            FaultGenerator::new(mesh, FAULT_SEED)
                .static_plan(self.static_faults, FaultPlacement::Clustered { clusters })
        };
        SloCampaign {
            dims: vec![64, 64],
            seed,
            lambda: 1,
            threads: 1,
            frontier: true,
            probe_threads: 1,
            traffic: self.spec.cycles(cycles).traffic_threads(traffic_threads),
            pattern: TrafficPattern::UniformRandom,
            faults: CampaignFaults::Plan(plan),
        }
    }

    /// Construction plus warm-up.
    fn setup(&self, seed: u64, probe: Option<&Arc<DecideProbe>>, tr: &mut Tracer) -> Sim {
        // The campaign length only sizes reservations.
        let campaign = self.campaign(seed, self.warmup + 2 * self.horizon, 1);
        let mut sim = Sim::new(&campaign, &|| make_router(probe));
        for _ in 0..self.warmup {
            sim.step(tr);
        }
        sim
    }

    /// Steps `sim` through the horizon in timed blocks; returns the block
    /// times and the simulated state at the horizon.
    fn measure(&self, sim: &mut Sim, tr: &mut Tracer) -> (Vec<f64>, Snapshot) {
        let mut block_secs = Vec::new();
        for _ in 0..self.horizon / self.block {
            let block_start = Instant::now();
            for _ in 0..self.block {
                sim.step(tr);
            }
            block_secs.push(block_start.elapsed().as_secs_f64());
        }
        (block_secs, sim.snapshot())
    }

    /// Steps a cold-start prefix of `campaign` and drains it; returns the
    /// simulated result and the host seconds of the stepping.
    fn prefix_run(&self, campaign: &SloCampaign, tr: &mut Tracer) -> ((Snapshot, u64), f64) {
        let mut sim = Sim::new(campaign, &|| make_router(None));
        let start = Instant::now();
        for _ in 0..campaign.traffic.cycles {
            sim.step(tr);
        }
        let secs = start.elapsed().as_secs_f64();
        let drained = sim.drain(campaign.traffic.drain_cycles);
        ((sim.snapshot(), drained), secs)
    }

    /// The prefix checks: the loop equals `SloCampaign::run`, and the result
    /// is the same at `traffic_threads` 1 and 2.  Returns the t1/t2 speed-up.
    fn prefix_checks(&self, seed: u64, checks: &mut Checks) -> f64 {
        let mut off = Tracer::new(false);
        let c1 = self.campaign(seed, self.prefix, 1);
        let reference = c1.run(&|| make_router(None));
        let (t1, t1_secs) = self.prefix_run(&c1, &mut off);
        checks.check(
            "loop equals SloCampaign::run",
            reference.tracker == t1.0.tracker
                && reference.drained == t1.1
                && reference.e_max_seen == t1.0.e_max_seen
                && reference.a_steps_max == t1.0.a_steps_max,
            format!("{}-step prefix, {} drained", self.prefix, t1.1),
        );
        let c2 = self.campaign(seed, self.prefix, 2);
        let (t2, t2_secs) = self.prefix_run(&c2, &mut off);
        checks.check(
            "identical at traffic_threads 1 and 2",
            t1 == t2,
            format!("{}-step prefix", self.prefix),
        );
        t1_secs / t2_secs
    }
}

/// Finished packets by final status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    delivered: u64,
    unreachable: u64,
    exhausted: u64,
    failed: u64,
    deadlocked: u64,
}

impl Outcomes {
    fn tally(&mut self, records: &[PacketRecord]) {
        for r in records {
            match r.status {
                ProbeStatus::Delivered => self.delivered += 1,
                ProbeStatus::Unreachable => self.unreachable += 1,
                ProbeStatus::Exhausted => self.exhausted += 1,
                ProbeStatus::Deadlocked => self.deadlocked += 1,
                ProbeStatus::Failed | ProbeStatus::InFlight => self.failed += 1,
            }
        }
    }

    fn undelivered(&self) -> u64 {
        self.unreachable + self.exhausted + self.failed + self.deadlocked
    }
}

/// Everything the simulation decided up to a step: equal across thread knobs
/// and between traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    steps: u64,
    tracker: SloTracker,
    stats: TrafficStats,
    outcomes: Outcomes,
    in_flight: u64,
    in_flight_sum: u64,
    e_max_seen: u64,
    a_steps_max: u64,
    statuses: Vec<NodeStatus>,
    convergence: Vec<ConvergenceRecord>,
}

/// The state `SloCampaign::run` builds for a campaign with a fault plan,
/// stepped one campaign-loop iteration at a time.
pub struct Sim {
    net: LgfiNetwork,
    engine: TrafficEngine,
    traffic: TrafficGenerator,
    injection: InjectionProcess,
    obs: SloObserver,
    plan: FaultPlan,
    cursor: FaultPlanCursor,
    events: Vec<FaultEvent>,
    outcomes: Outcomes,
    in_flight_sum: u64,
    steps: u64,
    log: StepLog,
}

impl Sim {
    /// Builds exactly what `SloCampaign::run` builds for `c`.
    fn new(c: &SloCampaign, make_router: &dyn Fn() -> Box<dyn Router>) -> Sim {
        let mesh = c.mesh();
        let horizon = c.traffic.cycles;
        let net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                lambda: c.lambda,
                max_probe_steps: horizon + c.traffic.drain_cycles,
                threads: c.threads,
                frontier: c.frontier,
                probe_threads: c.probe_threads,
            },
        );
        let mut engine = TrafficEngine::new(mesh.clone(), c.traffic, make_router);
        let traffic = TrafficGenerator::new(mesh.clone(), c.pattern, c.seed ^ 0x00AF_F1C0);
        let injection = InjectionProcess::new(c.traffic.injection_rate);
        let mut obs = SloObserver::new(mesh.node_count());
        let CampaignFaults::Plan(plan) = &c.faults else {
            panic!("benchmark campaigns carry a materialised fault plan");
        };
        let max_bursts = plan
            .events()
            .iter()
            .filter(|e| e.kind == FaultEventKind::Fail)
            .count();
        obs.reserve(c.traffic.max_packet_cycles + 2, 4_096, max_bursts);
        engine.reserve(
            64 + (c.traffic.injection_rate.ceil() as usize) * 64,
            c.traffic.max_packet_cycles + 2,
        );
        Sim {
            net,
            engine,
            traffic,
            injection,
            obs,
            plan: plan.clone(),
            cursor: FaultPlanCursor::new(),
            events: Vec::with_capacity(32),
            outcomes: Outcomes::default(),
            in_flight_sum: 0,
            steps: 0,
            log: StepLog::default(),
        }
    }

    /// One iteration of the campaign loop.
    fn step(&mut self, tr: &mut Tracer) {
        let t0 = tr.now();
        self.events.clear();
        self.events
            .extend_from_slice(self.cursor.events_at(&self.plan, self.net.step()));
        for _ in 0..self.injection.packets_this_cycle() {
            let statuses = self.net.statuses();
            if let Some(req) = self
                .traffic
                .next_request(|id| statuses[id] == NodeStatus::Enabled)
            {
                self.engine.inject(req.source, req.dest);
            }
        }
        let t1 = tr.now();
        let before = self.net.convergence_records().len();
        self.net
            .run_traffic_step_with(&self.events, &mut self.engine);
        let t2 = tr.now();
        self.outcomes.tally(self.engine.records());
        self.obs.observe_step(&self.net, &self.engine, &self.events);
        self.engine.clear_records();
        self.obs.notify_records_cleared();
        let t3 = tr.now();
        self.in_flight_sum += self.engine.in_flight() as u64;
        self.steps += 1;
        let settled = self.net.convergence_records().len() > before;
        record_step(
            tr,
            &mut self.log,
            "network.run_traffic_step_with",
            [t0, t1, t2, t3],
            self.events.len(),
            settled,
        );
    }

    /// The campaign's event-free drain: lets in-flight packets finish.
    fn drain(&mut self, max: u64) -> u64 {
        let mut drained = 0;
        while self.engine.in_flight() > 0 && drained < max {
            self.net.run_traffic_step_with(&[], &mut self.engine);
            self.outcomes.tally(self.engine.records());
            self.obs.observe_step(&self.net, &self.engine, &[]);
            self.engine.clear_records();
            self.obs.notify_records_cleared();
            drained += 1;
        }
        drained
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            steps: self.steps,
            tracker: self.obs.tracker().clone(),
            stats: self.engine.stats().clone(),
            outcomes: self.outcomes,
            in_flight: self.engine.in_flight() as u64,
            in_flight_sum: self.in_flight_sum,
            e_max_seen: self.obs.e_max_seen(),
            a_steps_max: self.obs.a_steps_max(),
            statuses: self.net.statuses().to_vec(),
            convergence: self.net.convergence_records().to_vec(),
        }
    }
}

/// Packet conservation and agreement between the engine, the status tally and
/// the SLO tracker.
fn check_conservation(s: &Snapshot, checks: &mut Checks) {
    let st = &s.stats;
    checks.check(
        "packet conservation",
        st.injected() == st.delivered() + st.failed() + s.in_flight,
        format!(
            "injected {} = delivered {} + undelivered {} + in flight {}",
            st.injected(),
            st.delivered(),
            st.failed(),
            s.in_flight
        ),
    );
    checks.check(
        "status tally agrees with engine and tracker",
        s.outcomes.delivered == st.delivered()
            && s.outcomes.undelivered() == st.failed()
            && s.outcomes.deadlocked == st.deadlocked()
            && s.tracker.injected() == st.delivered() + st.failed()
            && s.tracker.delivered() == st.delivered(),
        format!("{:?}", s.outcomes),
    );
}

/// Repetitions of set-up plus horizon per untraced run (more if time allows).
const MIN_REPS: usize = 3;
/// Workload steps timed with the route service attached, in traced runs.
const PUBLISH_STEPS: u64 = 200;

/// Runs one traffic workload: repetitions of set-up, the horizon, and route
/// queries against the state at the horizon.  The simulation is identical in
/// each repetition, so its host time is taken block by block at the fastest
/// repetition; the query blocks of all repetitions are pooled.
pub fn run(w: &Workload, seed: u64, secs: f64, traced: bool, checks: &mut Checks) -> Run {
    let probe = traced.then(|| Arc::new(DecideProbe::default()));
    let mut tr = Tracer::new(traced);
    let mut setup_secs = Vec::new();
    let mut reps = Vec::new();
    let mut first: Option<Snapshot> = None;
    let reader_probe = traced.then(|| Arc::new(DecideProbe::default()));
    let mut acc = Reader::new(64 * 64, seed);
    let start = Instant::now();
    let (mut sim, service, mut reader) = loop {
        let setup_start = Instant::now();
        let mut sim = w.setup(seed, probe.as_ref(), &mut tr);
        setup_secs.push(setup_start.elapsed().as_secs_f64());
        let (blocks, snap) = w.measure(&mut sim, &mut tr);
        eprintln!(
            "[rep] {}: set-up {:.4} s, horizon {:.4} s",
            reps.len() + 1,
            setup_secs[setup_secs.len() - 1],
            blocks.iter().sum::<f64>()
        );
        reps.push(blocks);
        match &first {
            None => first = Some(snap),
            Some(f) => checks.check(
                "simulation identical across repetitions",
                *f == snap,
                format!("repetition {}", reps.len()),
            ),
        }
        // Route queries against the state at the horizon.
        let service = sim.net.route_service();
        let reader = query::read_solo(
            &service,
            &mut acc,
            w.query_secs,
            traced,
            reader_probe.as_ref(),
        );
        if traced || (reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= secs) {
            break (sim, service, reader);
        }
    };
    let snap = first.expect("at least one repetition");
    check_conservation(&snap, checks);
    eprintln!(
        "[result] finished packets by status at the horizon: {:?}, in flight {}",
        snap.outcomes, snap.in_flight
    );

    let mut m = Metrics::default();
    let mut overhead = 0.0;
    if traced {
        // The untraced twin must simulate exactly the same.
        let mut off = Tracer::new(false);
        let mut twin = w.setup(seed, None, &mut off);
        let (twin_blocks, twin_snap) = w.measure(&mut twin, &mut off);
        drop(twin);
        checks.check(
            "simulated metrics identical traced and untraced",
            twin_snap == snap,
            format!("{} steps", w.warmup + w.horizon),
        );
        overhead = reps[0].iter().sum::<f64>() / twin_blocks.iter().sum::<f64>();
        network_layer(&mut m, &sim.log, sim.net.convergence_records());
        traffic_layer(&mut m, Some(&snap));
        let probe = probe.as_ref().expect("traced runs wrap the router");
        m.push(
            "routing.decide_calls_per_step",
            probe.calls() as f64 / sim.steps as f64,
            "count",
        );
        m.push("routing.decide_ns", probe.mean_ns(), "ns");
        slo_workloads_layers(&mut m, &tr, snap.tracker.detour_violations());
        // The workload's steps with the route service attached.
        let writer = query::write_loop(&service, PUBLISH_STEPS, &mut tr, |tr| sim.step(tr));
        query::route_service_layer(&mut m, &service, &writer, &acc);
    }
    query::check_after_stop(&mut sim.net, &service, &mut reader, &acc, seed, checks);
    let t2_speedup = w.prefix_checks(seed, checks);

    if traced {
        m.push("shard.t2_speedup", t2_speedup, "x");
        m.push("trace.overhead", overhead, "x");
    } else {
        m.push("setup_s", median(&setup_secs), "s");
        m.push("cycles_per_s", w.horizon as f64 / fastest_sum(&reps), "1/s");
        m.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
        m.push("delivery_rate", snap.tracker.delivery_rate(), "ratio");
        latency_metrics(&mut m, &snap.tracker);
        query::query_metrics(&mut m, &acc);
    }
    Run {
        metrics: m,
        attempted: reps.len() as u64 * w.horizon + acc.queries,
        tracer: tr,
    }
}

/// Simulated latency quantiles of the delivered packets (or routes), in cycles.
pub fn latency_metrics(m: &mut Metrics, t: &SloTracker) {
    for (name, q) in [
        ("latency_p50_cycles", 0.5),
        ("latency_p99_cycles", 0.99),
        ("latency_p999_cycles", 0.999),
    ] {
        m.push(name, t.latency().quantile(q).unwrap_or(0) as f64, "cycles");
    }
}

/// The network layer: step host time by class, and control-plane work counts.
pub fn network_layer(m: &mut Metrics, log: &StepLog, records: &[ConvergenceRecord]) {
    m.push("network.event_step_us", log.p50_us(StepClass::Event), "us");
    m.push(
        "network.settle_step_us",
        log.p50_us(StepClass::Settle),
        "us",
    );
    m.push("network.other_step_us", log.p50_us(StepClass::Other), "us");
    m.push("network.step_p99_us", log.p99_us(), "us");
    m.push("network.event_share", log.share(StepClass::Event), "ratio");
    m.push(
        "network.settle_share",
        log.share(StepClass::Settle),
        "ratio",
    );
    m.push("network.other_share", log.share(StepClass::Other), "ratio");
    m.push("network.fault_events", log.fault_events as f64, "count");
    m.push("network.rebuilds", records.len() as f64, "count");
    let changed: usize = records.iter().map(|r| r.blocks_changed).sum();
    m.push("network.blocks_changed", changed as f64, "count");
    let rounds: u64 = records.iter().map(|r| r.a_rounds).sum();
    m.push("network.label_rounds", rounds as f64, "count");
}

/// The traffic-engine layer (all zero on a workload without packets).
pub fn traffic_layer(m: &mut Metrics, snap: Option<&Snapshot>) {
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let (mean, stalls, hops, o) = match snap {
        Some(s) => {
            let finished = s.stats.delivered() + s.stats.failed();
            (
                ratio(s.in_flight_sum, s.steps),
                ratio(s.stats.total_stalls(), s.stats.total_hops()),
                ratio(s.stats.total_hops(), finished),
                s.outcomes,
            )
        }
        None => (0.0, 0.0, 0.0, Outcomes::default()),
    };
    m.push("traffic.in_flight_mean", mean, "count");
    m.push("traffic.stalls_per_hop", stalls, "ratio");
    m.push("traffic.hops_per_packet", hops, "count");
    m.push("traffic.deadlocked", o.deadlocked as f64, "count");
    m.push("traffic.exhausted", o.exhausted as f64, "count");
    m.push("traffic.unreachable", o.unreachable as f64, "count");
    m.push("traffic.failed", o.failed as f64, "count");
}

/// The SLO observer and the workload generators: host time per step, and the
/// Theorem-4 detour violations the observer flagged.
pub fn slo_workloads_layers(m: &mut Metrics, tr: &Tracer, detour_violations: u64) {
    m.push(
        "slo.observe_us_per_step",
        tr.mean_us("slo.observe_step"),
        "us",
    );
    m.push("slo.detour_violations", detour_violations as f64, "count");
    m.push(
        "workloads.gen_us_per_step",
        tr.mean_us("workloads.gen"),
        "us",
    );
}
