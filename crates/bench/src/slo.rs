//! The C6 `exp_slo` experiment: availability SLOs under adversarial fault campaigns.
//!
//! Sweeps fault campaigns of increasing nastiness — shaped concave clusters (L,
//! ring), a fault front sweeping the interior, correlated regional outages and
//! streaming Poisson churn — against the LGFI router and the global-information
//! baseline, accumulating per-router SLOs (delivery rate, p50/p99/p999 latency,
//! Theorem-4 detour violations, unreachable drops, time-to-reconverge) through the
//! SLO plane of `lgfi-core`.
//!
//! `LGFI_SLO_CYCLES` scales the injection horizon (default 600; CI smoke uses a
//! smaller value, the long-horizon churn leg a much larger one).  Like every other
//! experiment, the output is bit-identical across `LGFI_THREADS` and
//! `LGFI_TRAFFIC_THREADS`.

use lgfi_analysis::{SloReport, SloRow};
use lgfi_core::traffic_engine::TrafficSpec;
use lgfi_sim::FaultPlan;
use lgfi_topology::Mesh;
use lgfi_workloads::{
    CampaignFaults, ChurnConfig, ClusterShape, DynamicFaultConfig, FaultFrontConfig,
    FaultGenerator, FaultPlacement, RegionalOutageConfig, SloCampaign, TrafficPattern,
};

use crate::harness::{configured_frontier, knob, router_by_name};
use crate::perf::SloBenchRecord;

/// The injection horizon of the `exp_slo` campaigns: `LGFI_SLO_CYCLES`, defaulting
/// to 600 cycles.
pub fn configured_slo_cycles() -> u64 {
    knob("LGFI_SLO_CYCLES") as u64
}

/// The mesh every standard campaign runs on.
fn campaign_mesh() -> Mesh {
    Mesh::cubic(16, 2)
}

/// Interior node count of the campaign mesh (the denominator of fault density).
fn interior_nodes(mesh: &Mesh) -> f64 {
    mesh.interior_region()
        .map(|r| r.volume())
        .unwrap_or(mesh.node_count() as u64) as f64
}

/// One campaign of the standard suite: a shape tag, its fault density and the
/// campaign itself.
pub struct SuitePoint {
    /// Shape tag (`L`, `ring`, `front`, `outage`, `churn`).
    pub shape: &'static str,
    /// Peak simultaneous faults per interior node.
    pub density: f64,
    /// The campaign (router-independent; the router is chosen per run).
    pub campaign: SloCampaign,
}

/// Builds the standard campaign suite over a 16×16 mesh: shaped concave clusters,
/// a fault front, correlated regional outages and Poisson churn, all over `horizon`
/// injection cycles.  Deterministic in `horizon`.
pub fn standard_suite(horizon: u64) -> Vec<SuitePoint> {
    let mesh = campaign_mesh();
    let interior = interior_nodes(&mesh);
    let base = SloCampaign {
        dims: mesh.dims().to_vec(),
        seed: 17,
        lambda: 1,
        threads: knob("LGFI_THREADS"),
        frontier: configured_frontier(),
        probe_threads: knob("LGFI_PROBE_THREADS"),
        traffic: TrafficSpec::at_rate(0.5)
            .cycles(horizon)
            .drain_cycles(2_000)
            .max_packet_cycles(2_000)
            .traffic_threads(knob("LGFI_TRAFFIC_THREADS")),
        pattern: TrafficPattern::UniformRandom,
        faults: CampaignFaults::Plan(FaultPlan::empty()),
    };
    let shaped = |shape: ClusterShape, seed: u64| -> FaultPlan {
        FaultGenerator::new(mesh.clone(), seed).dynamic_plan(
            DynamicFaultConfig {
                fault_count: 8,
                first_step: 20,
                interval: 30,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::Shaped(shape),
        )
    };
    let front = FaultGenerator::new(mesh.clone(), 23).front_plan(FaultFrontConfig {
        first_step: 10,
        interval: (horizon / 16).max(4),
        thickness: 2,
    });
    let outage = FaultGenerator::new(mesh.clone(), 29).regional_outage_plan(RegionalOutageConfig {
        outages: 2,
        max_extent: 3,
        first_step: 20,
        spacing: (horizon / 3).max(40),
        duration: 60,
    });
    let churn = ChurnConfig {
        fail_rate: 0.02,
        mean_downtime: 100.0,
        max_faulty: 8,
    };
    let mut suite = Vec::new();
    let mut push_plan = |shape: &'static str, plan: FaultPlan| {
        let density = plan.peak_fault_count() as f64 / interior;
        suite.push(SuitePoint {
            shape,
            density,
            campaign: SloCampaign {
                faults: CampaignFaults::Plan(plan),
                ..base.clone()
            },
        });
    };
    push_plan("L", shaped(ClusterShape::L, 11));
    push_plan("ring", shaped(ClusterShape::Ring, 13));
    push_plan("front", front);
    push_plan("outage", outage);
    suite.push(SuitePoint {
        shape: "churn",
        density: churn.max_faulty as f64 / interior,
        campaign: SloCampaign {
            faults: CampaignFaults::Churn(churn),
            ..base
        },
    });
    suite
}

/// Runs the standard suite for the LGFI router and the global-information baseline
/// and returns the rendered report plus the machine-readable records.
pub fn run_slo_suite(horizon: u64) -> (String, Vec<SloBenchRecord>) {
    let variant = crate::perf::variant_tag();
    let mut report = SloReport::new();
    let mut records = Vec::new();
    for router in ["lgfi", "global-info"] {
        for point in standard_suite(horizon) {
            let result = point.campaign.run(&|| router_by_name(router));
            let row =
                SloRow::from_tracker(router, point.shape, point.density, horizon, &result.tracker);
            records.push(SloBenchRecord {
                bench: format!("slo_{}_16x16", point.shape),
                variant: variant.clone(),
                mesh: "16x16".into(),
                router: router.into(),
                threads: result.traffic_threads,
                shape: point.shape.into(),
                density: row.density,
                horizon,
                injected: row.injected,
                delivered: row.delivered,
                delivery_rate: row.delivery_rate,
                p50_latency: row.p50_latency,
                p99_latency: row.p99_latency,
                p999_latency: row.p999_latency,
                detour_violations: row.detour_violations,
                unreachable: row.unreachable,
                bursts: row.bursts,
                mean_reconverge: row.mean_reconverge,
                worst_node_delivery: row.worst_node_delivery,
            });
            report.push(row);
        }
    }
    let title = format!(
        "C6  availability SLOs under adversarial fault campaigns (16x16 mesh, uniform traffic at 0.5 pkt/cycle, {horizon} injection cycles, traffic_threads={})",
        lgfi_sim::resolve_threads(knob("LGFI_TRAFFIC_THREADS")),
    );
    (report.table(&title).render(), records)
}

/// Experiment C6: availability SLOs under adversarial fault campaigns (the table
/// only; the `exp_slo` binary additionally appends the records to
/// `BENCH_engine.json`).
pub fn exp_slo() -> String {
    run_slo_suite(configured_slo_cycles()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_shape_and_both_routers() {
        let (table, records) = run_slo_suite(120);
        for shape in ["L", "ring", "front", "outage", "churn"] {
            assert!(table.contains(shape), "missing {shape} in:\n{table}");
        }
        assert!(table.contains("lgfi") && table.contains("global-info"));
        assert_eq!(records.len(), 10, "2 routers x 5 campaigns");
        for r in &records {
            assert!(r.injected > 0, "{}: no traffic observed", r.bench);
            assert!(r.density > 0.0);
            let json = r.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"shape\":"));
        }
        // At least one campaign actually produced fault bursts within the horizon.
        assert!(records.iter().any(|r| r.bursts > 0));
    }

    #[test]
    fn suite_is_deterministic() {
        let (a, ra) = run_slo_suite(100);
        let (b, rb) = run_slo_suite(100);
        assert_eq!(a, b);
        assert_eq!(
            ra.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            rb.iter().map(|r| r.to_json()).collect::<Vec<_>>()
        );
    }
}
