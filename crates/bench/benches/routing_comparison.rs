//! Criterion bench for claim C2: routing cost of the LGFI router vs. the baselines on
//! the same static fault pattern (per-probe decision + probe engine cost, and whole
//! batches of probes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgfi_baselines::{GlobalInfoRouter, LocalInfoRouter, StaticBlockRouter};
use lgfi_core::layout::StaticLayout;
use lgfi_core::routing::{LgfiRouter, Router};
use lgfi_core::status::NodeStatus;
use lgfi_topology::Mesh;
use lgfi_workloads::{FaultGenerator, FaultPlacement, TrafficGenerator, TrafficPattern};

fn bench_routing(c: &mut Criterion) {
    let mesh = Mesh::cubic(24, 2);
    let faults = FaultGenerator::new(mesh.clone(), 11).place(20, FaultPlacement::UniformInterior);
    let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, 7);
    let layout = StaticLayout::new(mesh, &faults);
    let statuses = layout.statuses();
    let pairs: Vec<(usize, usize)> = traffic
        .requests(50, |id| statuses[id] == NodeStatus::Enabled)
        .into_iter()
        .map(|r| (r.source, r.dest))
        .collect();
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(LgfiRouter::new()),
        Box::new(GlobalInfoRouter::new()),
        Box::new(LocalInfoRouter::new()),
        Box::new(StaticBlockRouter::new()),
    ];
    let mut group = c.benchmark_group("routing_comparison");
    group.sample_size(20);
    for router in &routers {
        group.bench_with_input(
            BenchmarkId::new("route_50_probes", router.name()),
            router,
            |b, router| {
                b.iter(|| {
                    let mut delivered = 0usize;
                    let mut steps = 0u64;
                    for &(s, d) in &pairs {
                        let out = layout.route(router.as_ref(), s, d, 100_000);
                        steps += out.steps;
                        delivered += usize::from(out.delivered());
                    }
                    std::hint::black_box((delivered, steps))
                });
            },
        );
    }
    group.finish();
}

/// Serial-vs-parallel batched probe sweeps on the standard 32×32 faulty-mesh
/// workload: the whole 256-pair batch is routed through `StaticLayout::sweep` at 1/2/4
/// probe workers.  Thread counts are part of the benchmark id; outcomes themselves
/// are bit-identical across counts (`tests/probe_batch_equivalence.rs`).
fn bench_probe_sweep_threads(c: &mut Criterion) {
    use lgfi_bench::perf::RoutingWorkload;
    let w = RoutingWorkload::standard();
    let mut group = c.benchmark_group("probe_sweep_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("lgfi_sweep_32x32_256_probes", format!("t{threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let outcomes =
                        w.layout
                            .sweep(&|| Box::new(LgfiRouter::new()), &w.pairs, 100_000, threads);
                    std::hint::black_box(outcomes.iter().map(|o| o.steps).sum::<u64>())
                });
            },
        );
    }
    group.finish();
}

/// Appends the machine-readable routing records to `BENCH_engine.json` (runs after
/// the criterion groups; see `lgfi_bench::perf`).  Skipped in `-- --test` smoke mode:
/// a single-iteration pass should neither spend time on the timed measurements nor
/// append noise records to the tracked trajectory file.
fn bench_emit_json(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test" || a == "--quick") {
        println!("BENCH_engine.json emission skipped (smoke mode)");
        return;
    }
    lgfi_bench::perf::emit_routing_records();
}

criterion_group!(
    benches,
    bench_routing,
    bench_probe_sweep_threads,
    bench_emit_json
);
criterion_main!(benches);
