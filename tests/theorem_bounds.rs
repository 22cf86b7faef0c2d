//! Integration tests for the analytic results: Theorem 2 (safe sources), Theorems 3–5
//! (progress and detour bounds under dynamic faults), across crates.

use lgfi::analysis::{check_theorem3, check_theorem4};
use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;

/// Routes a corner-to-corner probe through a dynamic fault schedule and returns the
/// report plus the Theorem-4 bound derived from the network's own measurements.
fn dynamic_run(
    dims: &[i32],
    fault_count: usize,
    interval: u64,
    seed: u64,
) -> (ProbeReport, DetourBound) {
    let mesh = Mesh::new(dims);
    let mut generator = FaultGenerator::new(mesh.clone(), seed);
    let plan = generator.dynamic_plan(
        DynamicFaultConfig {
            fault_count,
            first_step: 5,
            interval,
            with_recovery: false,
            recovery_delay: 0,
        },
        FaultPlacement::UniformInterior,
    );
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    let source = mesh.id_of(&Coord::origin(mesh.ndim()));
    let dest = mesh.id_of(&Coord::new(
        mesh.dims().iter().map(|&k| k - 1).collect::<Vec<i32>>(),
    ));
    net.launch_probe(source, dest, Box::new(LgfiRouter::new()));
    net.run_to_completion(50_000);
    let report = net.reports()[0].clone();
    let bound = net.detour_bound_for(report.launched_at);
    (report, bound)
}

#[test]
fn theorem2_safe_sources_get_minimal_paths() {
    let mesh = Mesh::cubic(14, 2);
    for seed in 0..6u64 {
        let mut generator = FaultGenerator::new(mesh.clone(), seed);
        let faults = generator.place(10, FaultPlacement::UniformInterior);
        let layout = StaticLayout::new(mesh.clone(), &faults);
        let mut traffic = TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed);
        let statuses = layout.statuses();
        for req in traffic.requests(25, |id| statuses[id] == NodeStatus::Enabled) {
            let s = mesh.coord_of(req.source);
            let d = mesh.coord_of(req.dest);
            if !is_safe_source_in(&s, &d, layout.blocks()) {
                continue;
            }
            let out = layout.route(&LgfiRouter::new(), req.source, req.dest, 10_000);
            assert!(out.delivered());
            assert_eq!(out.detours(), Some(0), "safe {s:?}->{d:?} must be minimal");
        }
    }
}

#[test]
fn theorem3_progress_holds_under_dynamic_faults() {
    for seed in 0..5u64 {
        let (report, bound) = dynamic_run(&[16, 16], 4, 50, seed);
        assert!(report.outcome.delivered(), "seed {seed}");
        for check in check_theorem3(&report, &bound) {
            assert!(check.holds, "seed {seed}: {check:?}");
        }
    }
}

#[test]
fn theorem4_detour_bound_holds_under_dynamic_faults() {
    for (dims, faults, interval) in [
        (vec![16, 16], 3usize, 60u64),
        (vec![12, 12], 5, 40),
        (vec![8, 8, 8], 4, 60),
    ] {
        for seed in 0..4u64 {
            let (report, bound) = dynamic_run(&dims, faults, interval, seed);
            assert!(report.outcome.delivered(), "{dims:?} seed {seed}");
            let check = check_theorem4(&report, &bound);
            assert!(check.holds, "{dims:?} seed {seed}: {check:?}");
        }
    }
}

#[test]
fn theorem5_bound_holds_for_unsafe_sources() {
    // A static block sits across the straight line between source and destination, so
    // the source is unsafe; dynamic faults appear later.  The Theorem-5 bound uses the
    // length of an existing path (here: the measured reserved path).
    let mesh = Mesh::cubic(16, 2);
    let mut events = Vec::new();
    for c in [coord![7, 7], coord![8, 8], coord![7, 8], coord![8, 7]] {
        events.push(FaultEvent::fail(0, mesh.id_of(&c)));
    }
    for c in [coord![3, 11], coord![4, 12], coord![3, 12], coord![4, 11]] {
        events.push(FaultEvent::fail(40, mesh.id_of(&c)));
    }
    let plan = FaultPlan::new(events);
    let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
    for _ in 0..20 {
        net.run_step();
    }
    let source = mesh.id_of(&coord![7, 1]);
    let dest = mesh.id_of(&coord![8, 14]);
    assert!(!is_safe_source_in(
        &mesh.coord_of(source),
        &mesh.coord_of(dest),
        net.blocks()
    ));
    net.launch_probe(source, dest, Box::new(LgfiRouter::new()));
    net.run_to_completion(20_000);
    let report = net.reports()[0].clone();
    assert!(report.outcome.delivered());
    let bound = net.detour_bound_for(report.launched_at);
    let l = report
        .outcome
        .path_length
        .max(u64::from(report.outcome.initial_distance));
    assert!(report.outcome.steps <= bound.max_steps(l));
}

#[test]
fn theorem1_recovery_never_hurts_over_many_random_cases() {
    let mesh = Mesh::cubic(12, 2);
    let mut violations = 0usize;
    let mut cases = 0usize;
    for seed in 0..5u64 {
        let mut generator = FaultGenerator::new(mesh.clone(), seed);
        let faults = generator.place(6, FaultPlacement::Clustered { clusters: 1 });
        let mut labeling = LabelingEngine::new(mesh.clone());
        labeling.apply_faults(&faults);
        let layout_before = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
        // Recover half the faults.
        let recovered: Vec<Coord> = faults.iter().take(faults.len() / 2).copied().collect();
        labeling.apply_recoveries(&recovered);
        let layout_after = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
        let mut traffic =
            TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed + 99);
        let (sb, sa) = (layout_before.statuses(), layout_after.statuses());
        for req in traffic.requests(15, |id| {
            sb[id] == NodeStatus::Enabled && sa[id] == NodeStatus::Enabled
        }) {
            let before = layout_before.route(&LgfiRouter::new(), req.source, req.dest, 10_000);
            let after = layout_after.route(&LgfiRouter::new(), req.source, req.dest, 10_000);
            if before.delivered() && after.delivered() {
                cases += 1;
                if after.steps > before.steps {
                    violations += 1;
                }
            }
        }
    }
    assert!(cases > 30, "enough comparable cases must exist ({cases})");
    // The theorem concerns the stabilised constructions; tiny tie-break differences
    // may flip individual pairs by a hop or two, but systematically the recovered
    // network must not be worse.
    assert!(
        violations * 10 <= cases,
        "recovery made routing worse in {violations}/{cases} cases"
    );
}
