//! Router comparison — the "graceful degradation" claim (C2) in miniature.
//!
//! Runs the paper's fault-information-based router against the four baselines on the
//! same dynamic-fault scenarios and prints a table of delivery ratio, mean detours and
//! mean path stretch per fault count.
//!
//! Run with: `cargo run --release --example routing_comparison`

use lgfi::analysis::Table;
use lgfi::core::routing::Router;
use lgfi::prelude::*;
use lgfi::workloads::DynamicFaultConfig;

fn router_by_name(name: &str) -> Box<dyn Router> {
    match name {
        "lgfi" => Box::new(LgfiRouter::new()),
        "global-info" => Box::new(GlobalInfoRouter::new()),
        "local-only" => Box::new(LocalInfoRouter::new()),
        "wu-minimal-block" => Box::new(StaticBlockRouter::new()),
        "dimension-order" => Box::new(DimensionOrderRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

fn main() {
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let fault_counts = [0usize, 6, 12, 18];
    let seeds = 4u64;

    let mut table = Table::new(
        "routing under dynamic faults (16x16 mesh, 15 uniform-random probes per seed)",
        &[
            "router",
            "faults",
            "delivery",
            "mean detours",
            "mean stretch",
        ],
    );
    for router in routers {
        for &faults in &fault_counts {
            let mut delivery = 0.0;
            let mut detours = 0.0;
            let mut stretch = 0.0;
            for seed in 0..seeds {
                let scenario = Scenario {
                    dims: vec![16, 16],
                    seed,
                    fault_count: faults,
                    placement: FaultPlacement::UniformInterior,
                    dynamic: Some(DynamicFaultConfig {
                        fault_count: faults,
                        first_step: 0,
                        interval: 30,
                        with_recovery: false,
                        recovery_delay: 0,
                    }),
                    lambda: 1,
                    traffic: TrafficPattern::UniformRandom,
                    messages: 15,
                    launch_step: 10,
                    max_steps: 100_000,
                    threads: 1,
                    frontier: true,
                    probe_threads: 1,
                };
                let result = scenario.run(&|| router_by_name(router));
                delivery += result.delivery_ratio();
                detours += result.mean_detours();
                stretch += result.mean_stretch();
            }
            table.row(&[
                router.to_string(),
                faults.to_string(),
                format!("{:.1}%", 100.0 * delivery / seeds as f64),
                format!("{:.2}", detours / seeds as f64),
                format!("{:.2}", stretch / seeds as f64),
            ]);
        }
    }
    println!("{table}");
    println!("Reading guide:");
    println!("  * dimension-order collapses as soon as faults land on its unique path;");
    println!("  * wu-minimal-block only succeeds when a minimal path survives;");
    println!("  * local-only always delivers but wastes steps inside detour areas;");
    println!("  * lgfi tracks global-info closely while storing information only on block");
    println!("    frames and boundaries — the paper's graceful-degradation claim.");
}
