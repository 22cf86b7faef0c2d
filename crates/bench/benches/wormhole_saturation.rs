//! Criterion bench for the wormhole data plane: cycle cost of multi-flit worms
//! contending for virtual channels and flit-buffer credits, VC-count scaling,
//! and (after the criterion groups) the machine-readable wormhole
//! latency-vs-offered-load and saturation records appended to `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgfi_bench::harness::{router_by_name, traffic_scenario};
use lgfi_core::traffic_engine::TrafficSpec;

/// One full wormhole traffic run (warm-up + 200 injection cycles + drain) per
/// iteration, 4-flit worms at a moderate load, for every router.
fn bench_wormhole_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("wormhole_saturation");
    group.sample_size(10);
    for router in [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ] {
        group.bench_with_input(
            BenchmarkId::new("wormhole_16x16_f4_load_1.0", router),
            &router,
            |b, router| {
                let scenario = traffic_scenario(1);
                let spec = TrafficSpec::at_rate(1.0).flits_per_packet(4);
                b.iter(|| {
                    let result = scenario.run_traffic(spec, &|| router_by_name(router));
                    std::hint::black_box((result.stats.delivered(), result.deadlocked()))
                });
            },
        );
    }
    group.finish();
}

/// VC-count scaling: more virtual channels relieve head-of-line blocking at a
/// fixed offered load, at the cost of a wider allocation scan per head move.
fn bench_wormhole_vcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("wormhole_vcs");
    group.sample_size(10);
    for vcs in [2u32, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("lgfi_16x16_f4_load_2.0", format!("vc{vcs}")),
            &vcs,
            |b, &vcs| {
                let scenario = traffic_scenario(1);
                let spec = TrafficSpec::at_rate(2.0).flits_per_packet(4).vc_count(vcs);
                b.iter(|| {
                    let result = scenario.run_traffic(spec, &|| router_by_name("lgfi"));
                    std::hint::black_box(result.stats.delivered())
                });
            },
        );
    }
    group.finish();
}

/// Appends the machine-readable wormhole records (latency-vs-load sweep plus one
/// saturation record per router) to `BENCH_engine.json`.  Skipped in `-- --test`
/// smoke mode, like the other record-emitting benches.
fn bench_emit_json(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test" || a == "--quick") {
        println!("BENCH_engine.json emission skipped (smoke mode)");
        return;
    }
    lgfi_bench::perf::emit_wormhole_records();
}

criterion_group!(
    benches,
    bench_wormhole_cycles,
    bench_wormhole_vcs,
    bench_emit_json
);
criterion_main!(benches);
