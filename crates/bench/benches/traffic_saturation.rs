//! Criterion bench for the concurrent-traffic data plane: cycle cost of the traffic
//! engine under contention, thread scaling of the decision phase, and (after the
//! criterion groups) the machine-readable latency-vs-offered-load and
//! saturation-throughput records appended to `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgfi_bench::harness::{router_by_name, traffic_scenario};
use lgfi_core::traffic_engine::TrafficSpec;

/// One full traffic run (warm-up + 200 injection cycles + drain) per iteration, at
/// a moderate load, for every router.
fn bench_traffic_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic_saturation");
    group.sample_size(10);
    for router in [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ] {
        group.bench_with_input(
            BenchmarkId::new("traffic_16x16_load_1.0", router),
            &router,
            |b, router| {
                let scenario = traffic_scenario(1);
                let load = TrafficSpec::at_rate(1.0);
                b.iter(|| {
                    let result = scenario.run_traffic(load, &|| router_by_name(router));
                    std::hint::black_box((result.stats.delivered(), result.stats.total_stalls()))
                });
            },
        );
    }
    group.finish();
}

/// Decision-phase thread scaling at a heavy load (many packets in flight).
/// Thread counts are part of the benchmark id; the results themselves are
/// bit-identical across counts (`tests/traffic_equivalence.rs`).
fn bench_traffic_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("traffic_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("lgfi_16x16_load_4.0", format!("t{threads}")),
            &threads,
            |b, &threads| {
                let scenario = traffic_scenario(1);
                let load = TrafficSpec::at_rate(4.0).traffic_threads(threads);
                b.iter(|| {
                    let result = scenario.run_traffic(load, &|| router_by_name("lgfi"));
                    std::hint::black_box(result.stats.delivered())
                });
            },
        );
    }
    group.finish();
}

/// Appends the machine-readable traffic records (latency-vs-load sweep plus one
/// saturation-throughput record per router) to `BENCH_engine.json`.  Skipped in
/// `-- --test` smoke mode: a single-iteration pass should neither spend time on the
/// timed measurements nor append noise records to the tracked trajectory file.
fn bench_emit_json(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test" || a == "--quick") {
        println!("BENCH_engine.json emission skipped (smoke mode)");
        return;
    }
    lgfi_bench::perf::emit_traffic_records();
}

criterion_group!(
    benches,
    bench_traffic_cycles,
    bench_traffic_threads,
    bench_emit_json
);
criterion_main!(benches);
