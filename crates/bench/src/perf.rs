//! Machine-readable engine performance records (`BENCH_engine.json`).
//!
//! The criterion benches print human-readable medians; this module additionally
//! measures the hot round loops deterministically and appends structured records to a
//! JSON file (one record per line inside a top-level array) so the performance
//! trajectory of the round data plane is tracked across PRs.  The
//! `convergence_scaling` bench emits these records after its criterion groups run;
//! `LGFI_BENCH_JSON` overrides the output path and `LGFI_BENCH_VARIANT` tags the
//! measured code/config variant.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lgfi_core::labeling::LabelingEngine;
use lgfi_core::layout::StaticLayout;
use lgfi_core::status::NodeStatus;
use lgfi_sim::{NeighborView, NodeCtx, Protocol, RoundEngine};
use lgfi_topology::{Mesh, NodeId};
use lgfi_workloads::{FaultGenerator, FaultPlacement, TrafficGenerator, TrafficPattern};

/// One measured round-engine configuration, as recorded in `BENCH_engine.json`.
#[derive(Debug, Clone)]
pub struct EngineBenchRecord {
    /// Benchmark id, e.g. `labeling_sweep_64x64_48_faults_f1` or
    /// `stencil_64x64_40_rounds`.
    pub bench: String,
    /// The code/config variant that produced the number, e.g. `pre_rework` or
    /// `frontier_on` (from `LGFI_BENCH_VARIANT` when emitted by the bench).
    pub variant: String,
    /// Mesh shape, e.g. `64x64`.
    pub mesh: String,
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Rounds executed per measured run (deterministic across runs).
    pub rounds: u64,
    /// Median nanoseconds per round over the timed runs.
    pub ns_per_round: f64,
    /// Mean messages sent per round: always 0, since the round engine exchanges
    /// states only; the field keeps the format the committed records share.
    pub messages_per_round: f64,
    /// Mean evaluated nodes per round: the active-frontier size, or the full node
    /// count when the engine evaluates every node.
    pub mean_frontier: f64,
}

impl EngineBenchRecord {
    /// Renders the record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"mesh\":\"{}\",\"threads\":{},\
             \"rounds\":{},\"ns_per_round\":{:.1},\"messages_per_round\":{:.2},\
             \"mean_frontier\":{:.1}}}",
            escape(&self.bench),
            escape(&self.variant),
            escape(&self.mesh),
            self.threads,
            self.rounds,
            self.ns_per_round,
            self.messages_per_round,
            self.mean_frontier,
        );
        s
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The default output path: `BENCH_engine.json` at the workspace root, overridable
/// with the `LGFI_BENCH_JSON` environment variable.
pub fn default_json_path() -> PathBuf {
    if let Ok(p) = std::env::var("LGFI_BENCH_JSON") {
        if !p.trim().is_empty() {
            return PathBuf::from(p);
        }
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json")
}

/// The variant tag for emitted records: `LGFI_BENCH_VARIANT`, defaulting to
/// `current`.
pub fn variant_tag() -> String {
    match std::env::var("LGFI_BENCH_VARIANT") {
        Ok(v) if !v.trim().is_empty() => v.trim().to_string(),
        _ => "current".to_string(),
    }
}

/// Appends records to the JSON file at `path`, keeping the file a valid JSON array
/// with one record per line (existing records are preserved).
pub fn append_records(path: &Path, records: &[EngineBenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    append_json_lines(path, &lines)
}

/// One measured probe-sweep configuration of the routing data plane, as recorded in
/// `BENCH_engine.json` alongside the round-engine records.
#[derive(Debug, Clone)]
pub struct RoutingBenchRecord {
    /// Benchmark id, e.g. `routing_sweep_32x32_40_faults`.
    pub bench: String,
    /// The code/config variant that produced the number (`LGFI_BENCH_VARIANT`).
    pub variant: String,
    /// Mesh shape, e.g. `32x32`.
    pub mesh: String,
    /// The router that drove the probes.
    pub router: String,
    /// Worker threads the probe sweep ran with (1 = serial).
    pub threads: usize,
    /// Probes routed per measured run.
    pub probes: usize,
    /// Median nanoseconds per routed probe over the timed runs.
    pub ns_per_probe: f64,
    /// Mean hops (forward + backtrack steps) per probe — a determinism fingerprint:
    /// it must be identical across variants and thread counts.
    pub hops_per_probe: f64,
    /// Number of delivered probes (also a determinism fingerprint).
    pub delivered: usize,
}

impl RoutingBenchRecord {
    /// Renders the record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"mesh\":\"{}\",\"router\":\"{}\",\
             \"threads\":{},\"probes\":{},\"ns_per_probe\":{:.1},\"hops_per_probe\":{:.2},\
             \"delivered\":{}}}",
            escape(&self.bench),
            escape(&self.variant),
            escape(&self.mesh),
            escape(&self.router),
            self.threads,
            self.probes,
            self.ns_per_probe,
            self.hops_per_probe,
            self.delivered,
        );
        s
    }
}

/// Appends routing records to the JSON file at `path` (same one-record-per-line array
/// format as [`append_records`]).
pub fn append_routing_records(path: &Path, records: &[RoutingBenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    append_json_lines(path, &lines)
}

fn append_json_lines(path: &Path, new_lines: &[String]) -> std::io::Result<()> {
    let mut lines: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let t = line.trim().trim_end_matches(',');
            if t.starts_with('{') {
                lines.push(t.to_string());
            }
        }
    }
    lines.extend(new_lines.iter().cloned());
    let mut out = String::from("[\n");
    for (i, l) in lines.iter().enumerate() {
        out.push_str("  ");
        out.push_str(l);
        out.push_str(if i + 1 < lines.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out.push('\n');
    std::fs::write(path, out)
}

/// One measured concurrent-traffic configuration, as recorded in
/// `BENCH_engine.json` alongside the round-engine and routing records.
///
/// `bench = "traffic_load_16x16_12_faults"` records hold one latency-vs-offered-load
/// point each; `bench = "traffic_saturation_16x16_12_faults"` records hold the
/// saturation throughput of one router (the largest accepted throughput over the
/// load sweep).
#[derive(Debug, Clone)]
pub struct TrafficBenchRecord {
    /// Benchmark id.
    pub bench: String,
    /// The code/config variant that produced the number (`LGFI_BENCH_VARIANT`).
    pub variant: String,
    /// Mesh shape, e.g. `16x16`.
    pub mesh: String,
    /// The router that drove the packets.
    pub router: String,
    /// Traffic decision workers the engine ran with (1 = serial).
    pub threads: usize,
    /// Offered load in packets per cycle.
    pub offered_load: f64,
    /// Injection-window cycles.
    pub cycles: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Accepted throughput in packets per cycle — a determinism fingerprint
    /// alongside `delivered`: identical across variants and thread counts.
    pub accepted_throughput: f64,
    /// Mean delivered latency in cycles (queueing included).
    pub mean_latency: f64,
    /// Nearest-rank 99th-percentile delivered latency in cycles.
    pub p99_latency: u64,
    /// Mean stall cycles per packet.
    pub mean_stalls: f64,
    /// Flits per packet (1 = the packet-per-cycle model, >1 = wormhole worms).
    pub flits: u32,
    /// Virtual channels per directed link.
    pub vcs: u32,
    /// Worms torn down by the deadlock detector (0 with escape VCs).
    pub deadlocked: u64,
}

impl TrafficBenchRecord {
    /// Renders the record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"mesh\":\"{}\",\"router\":\"{}\",\
             \"threads\":{},\"offered_load\":{:.3},\"cycles\":{},\"injected\":{},\
             \"delivered\":{},\"accepted_throughput\":{:.4},\"mean_latency\":{:.2},\
             \"p99_latency\":{},\"mean_stalls\":{:.2},\"flits\":{},\"vcs\":{},\
             \"deadlocked\":{}}}",
            escape(&self.bench),
            escape(&self.variant),
            escape(&self.mesh),
            escape(&self.router),
            self.threads,
            self.offered_load,
            self.cycles,
            self.injected,
            self.delivered,
            self.accepted_throughput,
            self.mean_latency,
            self.p99_latency,
            self.mean_stalls,
            self.flits,
            self.vcs,
            self.deadlocked,
        );
        s
    }
}

/// Appends traffic records to the JSON file at `path` (same one-record-per-line
/// array format as [`append_records`]).
pub fn append_traffic_records(path: &Path, records: &[TrafficBenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    append_json_lines(path, &lines)
}

/// One fault-campaign SLO measurement, as recorded in `BENCH_engine.json`
/// alongside the engine, routing and traffic records.  One record per
/// (router, campaign shape) point of the `exp_slo` sweep.
#[derive(Debug, Clone)]
pub struct SloBenchRecord {
    /// Benchmark id, e.g. `slo_churn_16x16`.
    pub bench: String,
    /// The code/config variant that produced the number (`LGFI_BENCH_VARIANT`).
    pub variant: String,
    /// Mesh shape, e.g. `16x16`.
    pub mesh: String,
    /// The router that drove the packets.
    pub router: String,
    /// Traffic decision workers the campaign ran with (1 = serial).
    pub threads: usize,
    /// Campaign shape tag (`L`, `ring`, `front`, `outage`, `churn`, ...).
    pub shape: String,
    /// Fault density: peak simultaneous faults per interior node.
    pub density: f64,
    /// Injection cycles of the campaign.
    pub horizon: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered — a determinism fingerprint: identical across variants
    /// and thread counts.
    pub delivered: u64,
    /// Mesh-wide delivery rate.
    pub delivery_rate: f64,
    /// Median delivered latency in cycles.
    pub p50_latency: u64,
    /// 99th-percentile delivered latency in cycles.
    pub p99_latency: u64,
    /// 99.9th-percentile delivered latency in cycles.
    pub p999_latency: u64,
    /// Delivered packets whose detour exceeded the Theorem-4 budget.
    pub detour_violations: u64,
    /// Packets dropped because their destination became unreachable.
    pub unreachable: u64,
    /// Fault bursts observed.
    pub bursts: u64,
    /// Mean steps from a fault burst to labeling re-stabilisation.
    pub mean_reconverge: f64,
    /// The worst per-node delivery rate over nodes that injected anything.
    pub worst_node_delivery: f64,
}

impl SloBenchRecord {
    /// Renders the record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"mesh\":\"{}\",\"router\":\"{}\",\
             \"threads\":{},\"shape\":\"{}\",\"density\":{:.4},\"horizon\":{},\
             \"injected\":{},\"delivered\":{},\"delivery_rate\":{:.4},\"p50_latency\":{},\
             \"p99_latency\":{},\"p999_latency\":{},\"detour_violations\":{},\
             \"unreachable\":{},\"bursts\":{},\"mean_reconverge\":{:.2},\
             \"worst_node_delivery\":{:.4}}}",
            escape(&self.bench),
            escape(&self.variant),
            escape(&self.mesh),
            escape(&self.router),
            self.threads,
            escape(&self.shape),
            self.density,
            self.horizon,
            self.injected,
            self.delivered,
            self.delivery_rate,
            self.p50_latency,
            self.p99_latency,
            self.p999_latency,
            self.detour_violations,
            self.unreachable,
            self.bursts,
            self.mean_reconverge,
            self.worst_node_delivery,
        );
        s
    }
}

/// Appends SLO records to the JSON file at `path` (same one-record-per-line array
/// format as [`append_records`]).
pub fn append_slo_records(path: &Path, records: &[SloBenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    append_json_lines(path, &lines)
}

/// One measured configuration of the epoch-snapshot route-query service, as
/// recorded in `BENCH_engine.json`.
#[derive(Debug, Clone)]
pub struct RouteServiceBenchRecord {
    /// Benchmark id, e.g. `route_service_32x32_40_faults`.
    pub bench: String,
    /// The code/config variant that produced the number (`LGFI_BENCH_VARIANT`).
    pub variant: String,
    /// Mesh shape, e.g. `32x32`.
    pub mesh: String,
    /// The router the readers resolved with.
    pub router: String,
    /// Concurrent reader threads.
    pub readers: usize,
    /// True if the control plane was churning faults concurrently with the reads.
    pub churn: bool,
    /// Total queries resolved across all readers.
    pub queries: u64,
    /// Median wall-nanoseconds per query (aggregate wall time / total queries).
    pub ns_per_query: f64,
    /// Aggregate queries per second across all readers.
    pub qps: f64,
    /// Mean hops (forward + backtrack steps) per query.  Without churn this is a
    /// determinism fingerprint: identical across reader counts and variants, and
    /// bit-identical to the live network frozen at the same epoch.
    pub hops_per_query: f64,
    /// Delivered queries (fingerprint under the same caveat as `hops_per_query`).
    pub delivered: u64,
    /// Epochs published by the control plane while the readers ran (0 without
    /// churn).
    pub epochs: u64,
    /// Heap bytes per mesh node held by the published snapshot.
    pub bytes_per_node: f64,
}

impl RouteServiceBenchRecord {
    /// Renders the record as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"mesh\":\"{}\",\"router\":\"{}\",\
             \"readers\":{},\"churn\":{},\"queries\":{},\"ns_per_query\":{:.1},\
             \"qps\":{:.0},\"hops_per_query\":{:.2},\"delivered\":{},\"epochs\":{},\
             \"bytes_per_node\":{:.1}}}",
            escape(&self.bench),
            escape(&self.variant),
            escape(&self.mesh),
            escape(&self.router),
            self.readers,
            self.churn,
            self.queries,
            self.ns_per_query,
            self.qps,
            self.hops_per_query,
            self.delivered,
            self.epochs,
            self.bytes_per_node,
        );
        s
    }
}

/// Appends route-service records to the JSON file at `path` (same
/// one-record-per-line array format as [`append_records`]).
pub fn append_route_service_records(
    path: &Path,
    records: &[RouteServiceBenchRecord],
) -> std::io::Result<()> {
    let lines: Vec<String> = records.iter().map(|r| r.to_json()).collect();
    append_json_lines(path, &lines)
}

/// Runs the standard C5 traffic scenario (16×16 mesh, 12 clustered static faults,
/// 200 injection cycles) once for one router at one offered load and traffic
/// pattern, and returns the latency-vs-load record.
pub fn measure_traffic_load(
    router_name: &str,
    rate: f64,
    pattern: lgfi_workloads::TrafficPattern,
    traffic_threads: usize,
    variant: &str,
) -> TrafficBenchRecord {
    use lgfi_core::traffic_engine::TrafficSpec;
    let pattern_tag = match pattern {
        lgfi_workloads::TrafficPattern::Hotspot => "hotspot_",
        _ => "",
    };
    measure_traffic_spec(
        &format!("traffic_load_{pattern_tag}16x16_12_faults"),
        router_name,
        TrafficSpec::at_rate(rate),
        pattern,
        traffic_threads,
        variant,
    )
}

/// Runs the standard C5 traffic scenario once for one router under an arbitrary
/// [`TrafficSpec`](lgfi_core::traffic_engine::TrafficSpec) — the wormhole-aware
/// generalisation of [`measure_traffic_load`] used by the `exp_wormhole`
/// latency-vs-offered-load sweep.
pub fn measure_traffic_spec(
    bench: &str,
    router_name: &str,
    spec: lgfi_core::traffic_engine::TrafficSpec,
    pattern: lgfi_workloads::TrafficPattern,
    traffic_threads: usize,
    variant: &str,
) -> TrafficBenchRecord {
    let mut scenario = crate::harness::traffic_scenario(1);
    scenario.traffic = pattern;
    let spec = spec.traffic_threads(traffic_threads);
    let result = scenario.run_traffic(spec, &|| crate::harness::router_by_name(router_name));
    TrafficBenchRecord {
        bench: bench.into(),
        variant: variant.into(),
        mesh: "16x16".into(),
        router: router_name.into(),
        threads: result.traffic_threads,
        offered_load: spec.injection_rate,
        cycles: result.measured_cycles,
        injected: result.stats.injected(),
        delivered: result.stats.delivered(),
        accepted_throughput: result.accepted_throughput(),
        mean_latency: result.mean_latency(),
        p99_latency: result.p99_latency(),
        mean_stalls: result.stats.mean_stalls(),
        flits: spec.flits_per_packet,
        vcs: spec.vc_count,
        deadlocked: result.deadlocked(),
    }
}

/// Runs the standard traffic measurements — a uniform latency-vs-offered-load sweep
/// for all five routers plus one saturation-throughput record per router (the
/// largest accepted throughput over the sweep), a hot-spot sweep for every router
/// (the pattern whose single destination genuinely saturates: at most `2n` inbound
/// links' worth of packets can be accepted per cycle), and the LGFI router again at
/// 2 and 4 traffic workers — and appends the records to [`default_json_path`].
pub fn emit_traffic_records() {
    use lgfi_workloads::TrafficPattern;
    let variant = variant_tag();
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let loads = [0.1f64, 0.5, 1.0, 2.0, 4.0];
    let mut records = Vec::new();
    for router in routers {
        let mut saturation: Option<TrafficBenchRecord> = None;
        for &rate in &loads {
            let rec =
                measure_traffic_load(router, rate, TrafficPattern::UniformRandom, 1, &variant);
            let better = saturation
                .as_ref()
                .map(|s| rec.accepted_throughput > s.accepted_throughput)
                .unwrap_or(true);
            if better {
                saturation = Some(rec.clone());
            }
            records.push(rec);
        }
        let mut sat = saturation.expect("at least one load measured");
        sat.bench = "traffic_saturation_16x16_12_faults".into();
        records.push(sat);
        for &rate in &[1.0f64, 4.0] {
            records.push(measure_traffic_load(
                router,
                rate,
                TrafficPattern::Hotspot,
                1,
                &variant,
            ));
        }
    }
    for threads in [2usize, 4] {
        records.push(measure_traffic_load(
            "lgfi",
            1.0,
            TrafficPattern::UniformRandom,
            threads,
            &variant,
        ));
    }
    let path = default_json_path();
    match append_traffic_records(&path, &records) {
        Ok(()) => {
            for r in &records {
                println!("BENCH_engine {}", r.to_json());
            }
            println!("BENCH_engine.json updated: {}", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Runs the standard wormhole measurements — a latency-vs-offered-load sweep for
/// all five routers with `LGFI_FLITS`-flit worms over `LGFI_VCS` virtual channels
/// (escape class on), plus one wormhole saturation record per router (the largest
/// accepted throughput over the sweep) — and appends the records to
/// [`default_json_path`].
pub fn emit_wormhole_records() {
    use lgfi_core::traffic_engine::TrafficSpec;
    use lgfi_workloads::TrafficPattern;
    let variant = variant_tag();
    let flits = crate::harness::configured_flits();
    let vcs = crate::harness::configured_vcs().max(2);
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let loads = [0.1f64, 0.5, 1.0, 2.0];
    let mut records = Vec::new();
    for router in routers {
        let mut saturation: Option<TrafficBenchRecord> = None;
        for &rate in &loads {
            let spec = TrafficSpec::at_rate(rate)
                .flits_per_packet(flits)
                .vc_count(vcs);
            let rec = measure_traffic_spec(
                "wormhole_load_16x16_12_faults",
                router,
                spec,
                TrafficPattern::UniformRandom,
                1,
                &variant,
            );
            let better = saturation
                .as_ref()
                .map(|s| rec.accepted_throughput > s.accepted_throughput)
                .unwrap_or(true);
            if better {
                saturation = Some(rec.clone());
            }
            records.push(rec);
        }
        let mut sat = saturation.expect("at least one load measured");
        sat.bench = "wormhole_saturation_16x16_12_faults".into();
        records.push(sat);
    }
    let path = default_json_path();
    match append_traffic_records(&path, &records) {
        Ok(()) => {
            for r in &records {
                println!("BENCH_engine {}", r.to_json());
            }
            println!("BENCH_engine.json updated: {}", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The standard routing-sweep workload: a 32×32 mesh with 40 clustered faults
/// (stabilised) and 256 uniform-random source/destination pairs over enabled nodes.
/// Deterministic (fixed seeds), so every variant and thread count routes the exact
/// same probes.
pub struct RoutingWorkload {
    /// The stabilised fault layout.
    pub layout: StaticLayout,
    /// The source/destination pairs.
    pub pairs: Vec<(NodeId, NodeId)>,
}

impl RoutingWorkload {
    /// Builds the standard 32×32 workload.
    pub fn standard() -> Self {
        let mesh = Mesh::cubic(32, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 13);
        let faults = generator.place(40, FaultPlacement::Clustered { clusters: 5 });
        let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, 17);
        let layout = StaticLayout::new(mesh, &faults);
        let statuses = layout.statuses();
        let pairs = traffic
            .requests(256, |id| statuses[id] == NodeStatus::Enabled)
            .into_iter()
            .map(|r| (r.source, r.dest))
            .collect();
        RoutingWorkload { layout, pairs }
    }
}

/// Routes the whole workload once with `threads` sweep workers and returns
/// `(total_steps, delivered)`.  Every thread count — including the serial `1` —
/// goes through [`StaticLayout::sweep`] with recycled per-worker
/// engines, so the recorded thread-scaling numbers compare the same data plane.
fn route_workload(w: &RoutingWorkload, router_name: &str, threads: usize) -> (u64, usize) {
    let mut steps = 0u64;
    let mut delivered = 0usize;
    let outcomes = w.layout.sweep(
        &|| crate::harness::router_by_name(router_name),
        &w.pairs,
        100_000,
        threads,
    );
    for out in outcomes {
        steps += out.steps;
        delivered += usize::from(out.delivered());
    }
    (steps, delivered)
}

/// Measures the standard routing sweep for one router at the given probe-sweep
/// worker count, reported as nanoseconds per probe.
pub fn measure_routing_sweep(
    router_name: &str,
    threads: usize,
    variant: &str,
) -> RoutingBenchRecord {
    let w = RoutingWorkload::standard();
    let mut samples = Vec::with_capacity(RUNS);
    let mut steps = 0u64;
    let mut delivered = 0usize;
    for run in 0..=RUNS {
        let start = Instant::now();
        let (s, d) = route_workload(&w, router_name, threads);
        let elapsed = start.elapsed();
        steps = s;
        delivered = d;
        if run > 0 {
            samples.push(elapsed.as_nanos() as f64 / w.pairs.len() as f64);
        }
    }
    RoutingBenchRecord {
        bench: "routing_sweep_32x32_40_faults".into(),
        variant: variant.into(),
        mesh: "32x32".into(),
        router: router_name.into(),
        threads,
        probes: w.pairs.len(),
        ns_per_probe: median(&mut samples),
        hops_per_probe: steps as f64 / w.pairs.len() as f64,
        delivered,
    }
}

/// Runs the standard routing measurements (every router serially, plus the LGFI
/// router at 2 and 4 sweep workers) and appends the records to
/// [`default_json_path`].
pub fn emit_routing_records() {
    let variant = variant_tag();
    let mut records = vec![
        measure_routing_sweep("lgfi", 1, &variant),
        measure_routing_sweep("global-info", 1, &variant),
        measure_routing_sweep("local-only", 1, &variant),
        measure_routing_sweep("wu-minimal-block", 1, &variant),
        measure_routing_sweep("dimension-order", 1, &variant),
    ];
    for threads in [2usize, 4] {
        records.push(measure_routing_sweep("lgfi", threads, &variant));
    }
    let path = default_json_path();
    match append_routing_records(&path, &records) {
        Ok(()) => {
            for r in &records {
                println!("BENCH_engine {}", r.to_json());
            }
            println!("BENCH_engine.json updated: {}", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// A never-settling stencil, shared by the criterion bench and the JSON
/// measurements: every node mixes its neighbors' states into its own each round, so
/// every node stays on the frontier and a fixed round budget measures raw
/// round-engine throughput rather than convergence luck.
pub struct ThroughputStencil;

impl Protocol for ThroughputStencil {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }

    fn on_round(&self, _ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        let mut h = *prev;
        for nb in neighbors {
            if let Some(&s) = nb.state {
                h = h.wrapping_add(s.rotate_right(11));
            }
        }
        h
    }
}

/// Median of a non-empty slice (sorts a copy).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// The number of timed runs per measurement (after one warm-up run).
const RUNS: usize = 5;

/// Measures the 64×64 labeling sweep of the `labeling_threads` criterion bench: 48
/// clustered faults run to fixpoint plus a fixed 32-round tail, reported as
/// nanoseconds per round, with active-frontier scheduling on or off.
pub fn measure_labeling_sweep(threads: usize, frontier: bool, variant: &str) -> EngineBenchRecord {
    let mesh = Mesh::cubic(64, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 9);
    let faults = generator.place(48, FaultPlacement::Clustered { clusters: 6 });
    let mut samples = Vec::with_capacity(RUNS);
    let mut rounds = 0u64;
    let mut mean_frontier = 0.0f64;
    for run in 0..=RUNS {
        let start = Instant::now();
        let mut eng = LabelingEngine::new(mesh.clone())
            .with_threads(threads)
            .with_frontier(frontier);
        for f in &faults {
            eng.inject_fault_coord(f);
        }
        eng.run_to_fixpoint(1_000).expect("labeling stabilises");
        for _ in 0..32 {
            eng.run_round();
        }
        let elapsed = start.elapsed();
        std::hint::black_box(eng.census());
        rounds = eng.rounds();
        mean_frontier = eng.mean_evaluated_per_round();
        if run > 0 {
            samples.push(elapsed.as_nanos() as f64 / rounds as f64);
        }
    }
    EngineBenchRecord {
        bench: format!("labeling_sweep_64x64_48_faults_f{}", u8::from(frontier)),
        variant: variant.into(),
        mesh: "64x64".into(),
        threads,
        rounds,
        ns_per_round: median(&mut samples),
        messages_per_round: 0.0,
        mean_frontier,
    }
}

/// Measures 40 rounds of [`ThroughputStencil`] on a 64×64 mesh (the
/// `round_engine_threads` criterion bench), reported as nanoseconds per round.
pub fn measure_stencil_rounds(threads: usize, variant: &str) -> EngineBenchRecord {
    let mesh = Mesh::cubic(64, 2);
    let mut samples = Vec::with_capacity(RUNS);
    let mut frontier = 0.0f64;
    const ROUNDS: u64 = 40;
    for run in 0..=RUNS {
        let start = Instant::now();
        let mut eng = RoundEngine::new(mesh.clone(), ThroughputStencil).with_threads(threads);
        eng.run_rounds(ROUNDS);
        let elapsed = start.elapsed();
        std::hint::black_box(eng.states()[0]);
        frontier = eng.stats().mean_evaluated_per_round();
        if run > 0 {
            samples.push(elapsed.as_nanos() as f64 / ROUNDS as f64);
        }
    }
    EngineBenchRecord {
        bench: "stencil_64x64_40_rounds".into(),
        variant: variant.into(),
        mesh: "64x64".into(),
        threads,
        rounds: ROUNDS,
        ns_per_round: median(&mut samples),
        messages_per_round: 0.0,
        mean_frontier: frontier,
    }
}

/// Runs the standard engine measurements (labeling sweep and stencil rounds at 1, 2
/// and 4 pooled workers) and appends the records to [`default_json_path`].
pub fn emit_engine_records() {
    let variant = variant_tag();
    let records = vec![
        measure_labeling_sweep(1, true, &variant),
        measure_labeling_sweep(1, false, &variant),
        measure_labeling_sweep(2, true, &variant),
        measure_labeling_sweep(4, true, &variant),
        measure_stencil_rounds(1, &variant),
        measure_stencil_rounds(2, &variant),
        measure_stencil_rounds(4, &variant),
    ];
    let path = default_json_path();
    match append_records(&path, &records) {
        Ok(()) => {
            for r in &records {
                println!("BENCH_engine {}", r.to_json());
            }
            println!("BENCH_engine.json updated: {}", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_render_as_json_lines_in_an_array() {
        let rec = EngineBenchRecord {
            bench: "b".into(),
            variant: "v".into(),
            mesh: "8x8".into(),
            threads: 2,
            rounds: 10,
            ns_per_round: 123.4,
            messages_per_round: 5.25,
            mean_frontier: 64.0,
        };
        let json = rec.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"bench\":\"b\""));
        assert!(json.contains("\"threads\":2"));

        let dir = std::env::temp_dir().join("lgfi_bench_json_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_engine.json");
        let _ = std::fs::remove_file(&path);
        append_records(&path, std::slice::from_ref(&rec)).unwrap();
        append_records(&path, &[rec]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.trim_start().starts_with('['));
        assert!(content.trim_end().ends_with(']'));
        assert_eq!(content.matches("\"bench\":\"b\"").count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
