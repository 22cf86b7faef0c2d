//! Golden experiment tables: every deterministic section of the experiment
//! report, at explicit worker knobs, compared with a committed text.
//!
//! The sections are F1–F5, F7, T1–T5, C1–C5 and C8; the worker counts and the
//! wormhole's worm length and VC count are passed explicitly, so the text does
//! not depend on `LGFI_THREADS`, `LGFI_TRAFFIC_THREADS`, `LGFI_FLITS` or
//! `LGFI_VCS`.  Two sections stay out: C6's title reads `LGFI_TRAFFIC_THREADS`
//! from the environment, and C7 prints wall-clock throughput.
//!
//! `golden/experiment_tables.txt` was recorded with the library as it stood
//! before the static fault layout became one type.  A change that is meant to
//! leave the experiments' results untouched must leave this text untouched;
//! never re-record it to make a change pass.

use lgfi_bench::harness::*;

/// The report, one headed section per experiment, in the experiments binary's
/// format.
fn tables() -> String {
    type Section = (&'static str, fn() -> String);
    let sections: [Section; 17] = [
        ("F1", exp_fig1_block),
        ("F2", exp_fig2_corners),
        ("F3", exp_fig3_boundaries),
        ("F4", exp_fig4_recovery),
        ("F5", exp_fig5_identification),
        ("F7", || exp_fig7_steps_with(1)),
        ("T1", exp_thm1_recovery),
        ("T2", exp_thm2_safety),
        ("T3", exp_thm3_progress),
        ("T4", exp_thm4_detours),
        ("T5", exp_thm5_unsafe),
        ("C1", || exp_convergence_with(1)),
        ("C2", || exp_graceful_degradation_with(1)),
        ("C3", exp_memory_overhead),
        ("C4", || exp_dynamic_convergence_with(1)),
        ("C5", || exp_traffic_with(1, 1)),
        ("C8", || exp_wormhole_with(1, 1, 4, 2)),
    ];
    let mut out = String::new();
    for (name, f) in sections {
        out.push_str(&format!(
            "\n############ experiment {name} ############\n\n{}\n",
            f()
        ));
    }
    out
}

#[test]
fn experiment_tables_match_the_golden_text() {
    let golden = include_str!("golden/experiment_tables.txt");
    let actual = tables();
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "experiment tables moved at line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "experiment tables gained or lost lines"
    );
}
