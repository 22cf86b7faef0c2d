//! Route queries served against a running or finished control plane, and the
//! `query_churn64` workload.
//!
//! [`serve`] runs one writer on the calling thread (a fixed number of workload
//! steps, which publish epochs through the attached route service) and one
//! closed-loop reader on a second thread: the reader refreshes its checkout,
//! draws a seeded source/destination pair enabled in that snapshot and resolves
//! it, then starts the next query.  [`read_solo`] runs the same reader alone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lgfi_core::network::{ConvergenceRecord, LgfiNetwork, NetworkConfig};
use lgfi_core::route_service::{RouteReader, RouteService};
use lgfi_core::routing::{LgfiRouter, ProbeEngine, ProbeStatus};
use lgfi_core::slo::SloObserver;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
use lgfi_sim::{DetRng, FaultEvent, FaultPlan, SloOutcome, SloTracker};
use lgfi_topology::{Mesh, NodeId};
use lgfi_workloads::ChurnProcess;

use crate::trace::{
    fastest, fastest_sum, make_router, median, record_step, DecideProbe, StepLog, Tracer,
};
use crate::traffic::{self, CHURN, FAULT_SEED};
use crate::{Checks, Metrics, Run};

/// Steps a query probe may take before it counts as exhausted.
pub const MAX_QUERY_STEPS: u64 = 100_000;
/// Salt of the reader's pair stream (the workload seed is xor-ed with it).
const READER_SALT: u64 = 0x0005_EED0_F2EA_D000;
/// Salt of the pair batch compared against `resolve_live` after the writer stops.
const CHECK_SALT: u64 = 0x0000_C0DE_C4EC_0000;
/// Writer steps per timed block.
const WRITER_BLOCK: u64 = 100;
/// Queries per timed block (enough for a p99 with 20 samples beyond it).
const QUERY_BLOCK: usize = 2_000;
/// Pairs compared against `resolve_live` after the writer stops.
const CHECK_PAIRS: usize = 256;

/// What the writer did.
#[derive(Debug, Default)]
pub struct Writer {
    /// Steps executed.
    pub steps: u64,
    /// Host seconds of each block of [`WRITER_BLOCK`] steps.
    block_secs: Vec<f64>,
    /// Host nanoseconds of each step (traced only).
    pub step_ns: Vec<u64>,
    /// Epochs published meanwhile.
    pub epochs: u64,
}

/// One block of [`QUERY_BLOCK`] queries: host seconds, and the median and
/// 99th-percentile query latency in nanoseconds.
#[derive(Debug, Clone, Copy)]
struct QueryBlock {
    secs: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// What the closed-loop reader saw, accumulated over every phase it ran.
#[derive(Debug)]
pub struct Reader {
    /// The reader's pair stream.
    rng: DetRng,
    /// Queries resolved.
    pub queries: u64,
    /// Queries delivered.
    pub delivered: u64,
    /// Hops over all queries.
    pub hops: u64,
    /// Completed blocks of queries; a query's latency covers the refresh, the
    /// pair draw and the resolve.
    blocks: Vec<QueryBlock>,
    /// Query outcomes as SLO records (latency = route length in hops).
    pub tracker: SloTracker,
    /// True while every query's epoch was at least the previous one's.
    pub monotone: bool,
    /// Refreshes that moved the checkout to a newer epoch.
    pub checkouts: u64,
    /// Host nanoseconds in `refresh` (traced only).
    pub refresh_ns: u64,
    /// Host nanoseconds in `resolve_pinned` (traced only).
    pub resolve_ns: u64,
    /// Sum over queries of `service.epoch() - reader.epoch()` after the
    /// resolve (traced only).
    pub lag_sum: u64,
}

impl Reader {
    /// An empty reader for a mesh of `nodes` nodes, its pairs drawn from `seed`.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let mut tracker = SloTracker::new(nodes);
        tracker.reserve(4_096, 0);
        Reader {
            rng: DetRng::seed_from_u64(seed ^ READER_SALT),
            queries: 0,
            delivered: 0,
            hops: 0,
            blocks: Vec::new(),
            tracker,
            monotone: true,
            checkouts: 0,
            refresh_ns: 0,
            resolve_ns: 0,
            lag_sum: 0,
        }
    }

    fn fastest(&self, field: fn(&QueryBlock) -> f64) -> f64 {
        fastest(&self.blocks.iter().map(field).collect::<Vec<_>>())
    }

    /// Queries per host second, from the fastest block.
    pub fn queries_per_s(&self) -> f64 {
        QUERY_BLOCK as f64 / self.fastest(|b| b.secs)
    }

    /// Median query latency in microseconds (fastest block).
    pub fn p50_us(&self) -> f64 {
        self.fastest(|b| b.p50_ns as f64) / 1e3
    }

    /// 99th-percentile query latency in microseconds (fastest block).
    pub fn p99_us(&self) -> f64 {
        self.fastest(|b| b.p99_ns as f64) / 1e3
    }

    /// Share of queries delivered.
    pub fn delivery_rate(&self) -> f64 {
        self.delivered as f64 / self.queries.max(1) as f64
    }
}

/// Sets the flag when dropped, so a panicking writer still stops the reader.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs `steps` writer steps while one reader thread resolves queries against
/// `service` into `acc`; returns the writer and the route reader once the
/// reader has stopped.  With `probe`, the reader's router is the timing
/// wrapper.
pub fn serve(
    service: &RouteService,
    acc: &mut Reader,
    steps: u64,
    probe: Option<&Arc<DecideProbe>>,
    tr: &mut Tracer,
    step: impl FnMut(&mut Tracer),
) -> (Writer, RouteReader) {
    let stop = AtomicBool::new(false);
    let traced = tr.on();
    let mut reader = service.reader();
    let writer = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            read_loop(acc, &mut reader, service, traced, probe, &|| {
                !stop.load(Ordering::Acquire)
            });
        });
        let writer = {
            let _stop = StopOnDrop(&stop);
            write_loop(service, steps, tr, step)
        };
        handle.join().expect("the reader thread panicked");
        writer
    });
    (writer, reader)
}

/// Runs the reader alone on this thread for `secs` host seconds.
pub fn read_solo(
    service: &RouteService,
    acc: &mut Reader,
    secs: f64,
    traced: bool,
    probe: Option<&Arc<DecideProbe>>,
) -> RouteReader {
    let mut reader = service.reader();
    let start = Instant::now();
    read_loop(acc, &mut reader, service, traced, probe, &|| {
        start.elapsed().as_secs_f64() < secs
    });
    reader
}

/// Runs `steps` writer steps in timed blocks.
pub fn write_loop(
    service: &RouteService,
    steps: u64,
    tr: &mut Tracer,
    mut step: impl FnMut(&mut Tracer),
) -> Writer {
    let mut w = Writer::default();
    let epoch0 = service.epoch();
    let mut block_start = Instant::now();
    while w.steps < steps {
        let t0 = tr.now();
        step(tr);
        if tr.on() {
            w.step_ns.push(tr.now() - t0);
        }
        w.steps += 1;
        if w.steps.is_multiple_of(WRITER_BLOCK) {
            let now = Instant::now();
            w.block_secs.push((now - block_start).as_secs_f64());
            block_start = now;
        }
    }
    w.epochs = service.epoch() - epoch0;
    w
}

fn read_loop(
    r: &mut Reader,
    reader: &mut RouteReader,
    service: &RouteService,
    traced: bool,
    probe: Option<&Arc<DecideProbe>>,
    keep_going: &dyn Fn() -> bool,
) {
    let router = make_router(probe);
    let mut last_epoch = reader.epoch();
    let mut latencies: Vec<u64> = Vec::with_capacity(QUERY_BLOCK);
    let mut block_start = Instant::now();
    while keep_going() {
        let t0 = Instant::now();
        let moved = reader.refresh();
        let t1 = traced.then(Instant::now);
        let Some((source, dest)) = draw_pair(&mut r.rng, reader.snapshot().statuses()) else {
            continue;
        };
        let t2 = traced.then(Instant::now);
        let q = reader.resolve_pinned(&*router, source, dest, MAX_QUERY_STEPS);
        let t3 = Instant::now();
        latencies.push((t3 - t0).as_nanos() as u64);
        r.queries += 1;
        r.hops += q.outcome.steps;
        r.delivered += u64::from(q.outcome.delivered());
        r.tracker.record_packet(
            source,
            slo_outcome(q.outcome.status),
            q.outcome.steps,
            false,
        );
        r.monotone &= q.epoch >= last_epoch;
        last_epoch = q.epoch;
        r.checkouts += u64::from(moved);
        if let (Some(t1), Some(t2)) = (t1, t2) {
            r.refresh_ns += (t1 - t0).as_nanos() as u64;
            r.resolve_ns += (t3 - t2).as_nanos() as u64;
            r.lag_sum += service.epoch().saturating_sub(reader.epoch());
        }
        if latencies.len() == QUERY_BLOCK {
            let p50_ns = *latencies.select_nth_unstable(QUERY_BLOCK / 2 - 1).1;
            let p99_ns = *latencies.select_nth_unstable(QUERY_BLOCK * 99 / 100 - 1).1;
            r.blocks.push(QueryBlock {
                secs: (t3 - block_start).as_secs_f64(),
                p50_ns,
                p99_ns,
            });
            latencies.clear();
            block_start = Instant::now();
        }
    }
}

/// The SLO outcome of a finished probe, as `SloObserver` maps packet statuses.
pub fn slo_outcome(status: ProbeStatus) -> SloOutcome {
    match status {
        ProbeStatus::Delivered => SloOutcome::Delivered,
        ProbeStatus::Unreachable => SloOutcome::Unreachable,
        _ => SloOutcome::Failed,
    }
}

/// Draws a distinct source/destination pair, both enabled in `statuses`.
fn draw_pair(rng: &mut DetRng, statuses: &[NodeStatus]) -> Option<(NodeId, NodeId)> {
    for _ in 0..10_000 {
        let s = rng.below(statuses.len());
        let d = rng.below(statuses.len());
        if s != d && statuses[s] == NodeStatus::Enabled && statuses[d] == NodeStatus::Enabled {
            return Some((s, d));
        }
    }
    None
}

/// The checks made once the writer has stopped: the epoch clock equals the
/// network's info-change count, and the reader's routes equal routes resolved
/// against the live network for a seeded batch of pairs.
pub fn check_after_stop(
    net: &mut LgfiNetwork,
    service: &RouteService,
    reader: &mut RouteReader,
    r: &Reader,
    seed: u64,
    checks: &mut Checks,
) {
    checks.check(
        "reader epochs are monotone",
        r.monotone,
        format!("{} queries", r.queries),
    );
    checks.check(
        "reader timed enough query blocks",
        r.blocks.len() >= 8,
        format!("{} blocks of {QUERY_BLOCK}", r.blocks.len()),
    );
    checks.check(
        "service epoch equals info changes",
        service.epoch() == net.info_changes(),
        format!("epoch {} vs {}", service.epoch(), net.info_changes()),
    );
    reader.refresh();
    let router = LgfiRouter::new();
    let mut engine = ProbeEngine::new();
    let mut rng = DetRng::seed_from_u64(seed ^ CHECK_SALT);
    let mut compared = 0;
    let mut mismatches = 0;
    for _ in 0..CHECK_PAIRS {
        let Some((s, d)) = draw_pair(&mut rng, net.statuses()) else {
            break;
        };
        let snap = reader.resolve_pinned(&router, s, d, MAX_QUERY_STEPS);
        let live = net.resolve_live(&router, s, d, MAX_QUERY_STEPS, &mut engine);
        compared += 1;
        mismatches += usize::from(snap.outcome != live || snap.epoch != service.epoch());
    }
    checks.check(
        "reader routes equal resolve_live",
        compared == CHECK_PAIRS && mismatches == 0,
        format!("{mismatches} of {compared} differ"),
    );
}

/// The control plane of `query_churn64`: a 64x64 network under the fixed
/// churn64 fault stream with a route service attached, observed by an SLO
/// observer (bursts and reconvergence; it carries no packets).
pub struct QueryNet {
    net: LgfiNetwork,
    churn: ChurnProcess,
    events: Vec<FaultEvent>,
    idle: TrafficEngine,
    obs: SloObserver,
    log: StepLog,
}

/// Everything the writer's simulation decides: equal across thread knobs and
/// between traced and untraced runs.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    step: u64,
    round: u64,
    info_changes: u64,
    epoch: u64,
    statuses: Vec<NodeStatus>,
    convergence: Vec<ConvergenceRecord>,
    tracker: SloTracker,
}

impl QueryNet {
    fn new(threads: usize) -> (Self, RouteService) {
        let mesh = Mesh::cubic(64, 2);
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::empty(),
            NetworkConfig {
                threads,
                ..NetworkConfig::default()
            },
        );
        let service = net.route_service();
        let qn = QueryNet {
            churn: ChurnProcess::new(mesh.clone(), FAULT_SEED, CHURN),
            events: Vec::with_capacity(32),
            idle: TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| make_router(None)),
            obs: SloObserver::new(mesh.node_count()),
            log: StepLog::default(),
            net,
        };
        (qn, service)
    }

    fn step(&mut self, tr: &mut Tracer) {
        let t0 = tr.now();
        self.churn.events_at(self.net.step(), &mut self.events);
        let t1 = tr.now();
        let before = self.net.convergence_records().len();
        self.net.run_step_with(&self.events);
        let t2 = tr.now();
        self.obs.observe_step(&self.net, &self.idle, &self.events);
        let t3 = tr.now();
        let settled = self.net.convergence_records().len() > before;
        record_step(
            tr,
            &mut self.log,
            "network.run_step_with",
            [t0, t1, t2, t3],
            self.events.len(),
            settled,
        );
    }

    fn fingerprint(&self, service: &RouteService) -> Fingerprint {
        Fingerprint {
            step: self.net.step(),
            round: self.net.round(),
            info_changes: self.net.info_changes(),
            epoch: service.epoch(),
            statuses: self.net.statuses().to_vec(),
            convergence: self.net.convergence_records().to_vec(),
            tracker: self.obs.tracker().clone(),
        }
    }
}

/// Construction plus warm-up of the writer's network.
const WARMUP: u64 = 1_500;
/// Writer steps per repetition, after warm-up.
const STEPS: u64 = 2_500;
/// Repetitions of set-up plus writer steps per untraced run (more if time
/// allows).
const MIN_REPS: usize = 3;
/// Steps of the cold-start prefix compared across thread knobs and tracing.
const PREFIX: u64 = 800;

/// Runs the prefix from a cold start at the given labeling thread count;
/// returns the fingerprint and the host seconds of the stepping.
fn prefix(threads: usize, tr: &mut Tracer) -> (Fingerprint, f64) {
    let (mut qn, service) = QueryNet::new(threads);
    let start = Instant::now();
    for _ in 0..PREFIX {
        qn.step(tr);
    }
    let secs = start.elapsed().as_secs_f64();
    (qn.fingerprint(&service), secs)
}

/// The `query_churn64` workload: repetitions of set-up plus a fixed number of
/// writer steps beside the reader.  The writer's work is identical in every
/// repetition, so its host time is taken block by block at the fastest
/// repetition; the reader's blocks are pooled.
pub fn run(seed: u64, secs: f64, traced: bool, checks: &mut Checks) -> Run {
    let mut tr = Tracer::new(traced);
    let probe = traced.then(|| Arc::new(DecideProbe::default()));
    let mut acc = Reader::new(64 * 64, seed);
    let mut setup_secs = Vec::new();
    let mut reps = Vec::new();
    let mut first = None;
    let start = Instant::now();
    let (qn, service, writer) = loop {
        let setup_start = Instant::now();
        let (mut qn, service) = QueryNet::new(1);
        for _ in 0..WARMUP {
            qn.step(&mut tr);
        }
        setup_secs.push(setup_start.elapsed().as_secs_f64());
        let (writer, mut reader) =
            serve(&service, &mut acc, STEPS, probe.as_ref(), &mut tr, |tr| {
                qn.step(tr)
            });
        reps.push(writer.block_secs.clone());
        let fingerprint = qn.fingerprint(&service);
        match &first {
            None => first = Some(fingerprint),
            Some(f) => checks.check(
                "writer identical across repetitions",
                *f == fingerprint,
                format!("repetition {}", reps.len()),
            ),
        }
        if traced || (reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= secs) {
            check_after_stop(&mut qn.net, &service, &mut reader, &acc, seed, checks);
            break (qn, service, writer);
        }
    };

    // Thread-knob and tracing invariance on a cold-start prefix.
    let mut off = Tracer::new(false);
    let (t1, t1_secs) = prefix(1, &mut off);
    let (t2, t2_secs) = prefix(2, &mut off);
    checks.check(
        "writer identical at threads 1 and 2",
        t1 == t2,
        format!("{PREFIX}-step prefix"),
    );

    let mut m = Metrics::default();
    if traced {
        let (t1_traced, traced_secs) = prefix(1, &mut Tracer::new(true));
        checks.check(
            "writer identical traced and untraced",
            t1 == t1_traced,
            format!("{PREFIX}-step prefix"),
        );
        traffic::network_layer(&mut m, &qn.log, qn.net.convergence_records());
        traffic::traffic_layer(&mut m, None);
        let probe = probe.expect("traced runs wrap the router");
        m.push(
            "routing.decide_calls_per_step",
            probe.calls() as f64 / writer.steps as f64,
            "count",
        );
        m.push("routing.decide_ns", probe.mean_ns(), "ns");
        traffic::slo_workloads_layers(&mut m, &tr, qn.obs.tracker().detour_violations());
        route_service_layer(&mut m, &service, &writer, &acc);
        m.push("shard.t2_speedup", t1_secs / t2_secs, "x");
        m.push("trace.overhead", traced_secs / t1_secs, "x");
    } else {
        m.push("setup_s", median(&setup_secs), "s");
        m.push("cycles_per_s", STEPS as f64 / fastest_sum(&reps), "1/s");
        m.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
        let t = &acc.tracker;
        m.push("delivery_rate", t.delivery_rate(), "ratio");
        traffic::latency_metrics(&mut m, t);
        query_metrics(&mut m, &acc);
    }
    Run {
        metrics: m,
        attempted: reps.len() as u64 * STEPS + acc.queries,
        tracer: tr,
    }
}

/// The end-to-end query metrics of a reader.
pub fn query_metrics(m: &mut Metrics, r: &Reader) {
    m.push("queries_per_s", r.queries_per_s(), "1/s");
    m.push("query_p50_us", r.p50_us(), "us");
    m.push("query_p99_us", r.p99_us(), "us");
    m.push("query_delivery_rate", r.delivery_rate(), "ratio");
}

/// The per-layer metrics of the route service, from a traced [`serve`].
/// `publish_step_us` is the median writer step with the service attached,
/// whether or not the step published (on `query_churn64` nearly all do).
pub fn route_service_layer(m: &mut Metrics, service: &RouteService, w: &Writer, r: &Reader) {
    let stats = service.stats();
    let queries = r.queries.max(1) as f64;
    m.push(
        "route_service.publish_step_us",
        crate::trace::quantile(&w.step_ns, 0.5) / 1e3,
        "us",
    );
    m.push(
        "route_service.epochs_per_step",
        w.epochs as f64 / w.steps.max(1) as f64,
        "count",
    );
    m.push(
        "route_service.buffers_reused_ratio",
        stats.buffers_reused as f64 / stats.epochs_published.max(1) as f64,
        "ratio",
    );
    m.push(
        "route_service.snapshot_bytes_per_node",
        stats.bytes_per_node(),
        "B",
    );
    m.push(
        "route_service.refresh_ns",
        r.refresh_ns as f64 / queries,
        "ns",
    );
    m.push(
        "route_service.checkouts_per_query",
        r.checkouts as f64 / queries,
        "count",
    );
    m.push(
        "route_service.resolve_us",
        r.resolve_ns as f64 / queries / 1e3,
        "us",
    );
    m.push(
        "route_service.hops_per_query",
        r.hops as f64 / queries,
        "count",
    );
    m.push(
        "route_service.epoch_lag",
        r.lag_sum as f64 / queries,
        "count",
    );
    m.push(
        "route_service.queries_undelivered",
        (r.queries - r.delivered) as f64,
        "count",
    );
}
