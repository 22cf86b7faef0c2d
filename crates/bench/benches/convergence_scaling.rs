//! Criterion bench for claim C1: the end-to-end convergence of all three fault
//! information constructions (a_i + b_i + c_i) inside the dynamic step loop, for
//! growing mesh sizes — the "fault information can be distributed quickly" claim —
//! plus the serial-vs-parallel throughput of the sharded round engines at 1/2/4/8
//! worker threads on a 64x64 mesh, with and without active-frontier scheduling.
//! Thread counts and the frontier knob are part of the benchmark id, so the report
//! records which execution mode produced each number; results themselves are
//! bit-identical across modes.
//!
//! After the criterion groups run, the bench appends machine-readable records (bench
//! id, mesh, threads, ns/round, messages/round, frontier size) to `BENCH_engine.json`
//! via [`lgfi_bench::perf`], so the perf trajectory of the round data plane is
//! tracked across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lgfi_bench::perf::{self, ThroughputStencil};
use lgfi_core::labeling::LabelingEngine;
use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_sim::RoundEngine;
use lgfi_topology::Mesh;
use lgfi_workloads::{DynamicFaultConfig, FaultGenerator, FaultPlacement};

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("convergence_scaling");
    group.sample_size(10);
    for dims in [
        vec![16, 16],
        vec![32, 32],
        vec![10, 10, 10],
        vec![14, 14, 14],
    ] {
        let mesh = Mesh::new(&dims);
        let mut generator = FaultGenerator::new(mesh.clone(), 5);
        let plan = generator.dynamic_plan(
            DynamicFaultConfig {
                fault_count: 6,
                first_step: 0,
                interval: 40,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::UniformInterior,
        );
        group.bench_with_input(
            BenchmarkId::new("dynamic_step_loop", format!("{dims:?}")),
            &(mesh, plan),
            |b, (mesh, plan)| {
                b.iter(|| {
                    let mut net =
                        LgfiNetwork::new(mesh.clone(), plan.clone(), NetworkConfig::default());
                    net.run_to_completion(2_000);
                    std::hint::black_box(
                        net.convergence_records()
                            .iter()
                            .map(|r| r.total_rounds())
                            .max()
                            .unwrap_or(0),
                    )
                });
            },
        );
    }
    group.finish();
}

/// Serial-vs-parallel round-engine throughput on a 64x64 mesh: 40 rounds of a
/// never-settling stencil per iteration at 1/2/4/8 worker threads.
fn bench_round_engine_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine_threads");
    group.sample_size(10);
    let mesh = Mesh::cubic(64, 2);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("stencil_64x64_40_rounds", format!("t{threads}")),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut eng =
                        RoundEngine::new(mesh.clone(), ThroughputStencil).with_threads(threads);
                    eng.run_rounds(40);
                    std::hint::black_box(eng.states()[0])
                });
            },
        );
    }
    group.finish();
}

/// Serial-vs-parallel labeling throughput on a 64x64 mesh: the Algorithm-1 status
/// rules over a large clustered fault burst, run to fixpoint plus a fixed extra
/// budget, at 1/2/4/8 worker threads — with active-frontier scheduling on and off
/// (the `f1`/`f0` id suffix); the statuses and round counts are bit-identical
/// between the two.
fn bench_labeling_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("labeling_threads");
    group.sample_size(10);
    let mesh = Mesh::cubic(64, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 9);
    let faults = generator.place(48, FaultPlacement::Clustered { clusters: 6 });
    for frontier in [true, false] {
        for threads in [1usize, 2, 4, 8] {
            let tag = format!("t{threads}_f{}", u8::from(frontier));
            group.bench_with_input(
                BenchmarkId::new("labeling_64x64_48_faults", tag),
                &threads,
                |b, &threads| {
                    b.iter(|| {
                        let mut eng = LabelingEngine::new(mesh.clone())
                            .with_threads(threads)
                            .with_frontier(frontier);
                        for f in &faults {
                            eng.inject_fault_coord(f);
                        }
                        // Fixpoint plus a fixed 32-round tail so every thread count does
                        // identical work regardless of when the labeling stabilises.
                        eng.run_to_fixpoint(1_000).expect("labeling stabilises");
                        for _ in 0..32 {
                            eng.run_round();
                        }
                        std::hint::black_box(eng.census())
                    });
                },
            );
        }
    }
    group.finish();
}

/// Appends the machine-readable engine records to `BENCH_engine.json` (runs after
/// the criterion groups; see `lgfi_bench::perf`).  Skipped in `-- --test` smoke
/// mode: a single-iteration pass should neither spend time on the timed
/// measurements nor append noise records to the tracked trajectory file.
fn bench_emit_json(_c: &mut Criterion) {
    if std::env::args().any(|a| a == "--test" || a == "--quick") {
        println!("BENCH_engine.json emission skipped (smoke mode)");
        return;
    }
    perf::emit_engine_records();
}

criterion_group!(
    benches,
    bench_convergence,
    bench_round_engine_threads,
    bench_labeling_threads,
    bench_emit_json
);
criterion_main!(benches);
