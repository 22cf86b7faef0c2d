//! Golden-file self-tests: one fixture per lint, scanned through the public
//! [`lgfi_audit::scan_source`] entry point with synthetic workspace-relative
//! paths, plus the meta-test that the committed `AUDIT_baseline.json` matches
//! a fresh run of the audit over this workspace.

use lgfi_audit::manifest::HotPath;
use lgfi_audit::report::{ratchet, Baseline, Violation};
use lgfi_audit::{load_baseline, run_audit, scan_source};
use std::path::Path;

const CLEAN: &str = include_str!("fixtures/clean_tricky.rs");
const DET001: &str = include_str!("fixtures/det001_hash.rs");
const DET002: &str = include_str!("fixtures/det002_clock.rs");
const DET003: &str = include_str!("fixtures/det003_spawn.rs");
const ALLOC001: &str = include_str!("fixtures/alloc001_hot.rs");
const PANIC001: &str = include_str!("fixtures/panic001_lib.rs");
const LINT001: &str = include_str!("fixtures/lint001_allow.rs");

/// Collapse violations to `(lint id, line)` pairs for golden comparison.
fn hits(violations: &[Violation]) -> Vec<(&'static str, u32)> {
    violations.iter().map(|v| (v.lint.id(), v.line)).collect()
}

#[test]
fn tricky_tokens_fixture_is_clean_under_the_strictest_scope() {
    // Engine-crate library path: every pass except ALLOC-001 is active.
    let violations = scan_source("crates/core/src/clean.rs", CLEAN, &[]);
    assert_eq!(
        hits(&violations),
        Vec::<(&str, u32)>::new(),
        "lint keywords inside strings/comments must never fire"
    );
}

#[test]
fn det_001_flags_hash_containers_but_exempts_test_scope() {
    let violations = scan_source("crates/core/src/hash.rs", DET001, &[]);
    assert_eq!(
        hits(&violations),
        vec![("DET-001", 3), ("DET-001", 5), ("DET-001", 6)],
        "use + signature + construction fire; the #[cfg(test)] HashSet does not"
    );
    // Outside the engine crates the same source is in scope for nothing.
    let violations = scan_source("crates/workloads/src/hash.rs", DET001, &[]);
    assert_eq!(hits(&violations), Vec::<(&str, u32)>::new());
}

#[test]
fn det_002_flags_clock_and_thread_identity_reads() {
    let violations = scan_source("crates/workloads/src/clock.rs", DET002, &[]);
    assert_eq!(
        hits(&violations),
        vec![
            ("DET-002", 6),
            ("DET-002", 7),
            ("DET-002", 8),
            ("DET-002", 9),
        ],
        "Instant::now, SystemTime::now, thread::current, RandomState fire; \
         the audit:allow(clock) line is waived"
    );
    // The measurement harness is exempt: reading wall-clock time is its job.
    for rel in ["crates/bench/src/clock.rs", "perfbench/src/clock.rs"] {
        let violations = scan_source(rel, DET002, &[]);
        assert_eq!(hits(&violations), Vec::<(&str, u32)>::new(), "{rel}");
    }
}

#[test]
fn perfbench_is_scoped_as_measurement_harness_and_engine_code_still_fires() {
    // The end-to-end benchmark reads clocks, spawns its reader thread and fails
    // loudly on a broken check; the same source in an engine crate still fires.
    for (fixture, lint) in [
        (DET002, "DET-002"),
        (DET003, "DET-003"),
        (PANIC001, "PANIC-001"),
    ] {
        let harness = scan_source("perfbench/src/fixture.rs", fixture, &[]);
        assert!(
            hits(&harness).iter().all(|(id, _)| *id != lint),
            "{lint} must not apply to perfbench/"
        );
        let engine = scan_source("crates/core/src/fixture.rs", fixture, &[]);
        assert!(
            hits(&engine).iter().any(|(id, _)| *id == lint),
            "{lint} must still fire in crates/core"
        );
    }
}

#[test]
fn det_003_flags_spawns_everywhere_except_the_sharding_layer() {
    let violations = scan_source("crates/core/src/spawn.rs", DET003, &[]);
    let det003: Vec<_> = hits(&violations)
        .into_iter()
        .filter(|(id, _)| *id == "DET-003")
        .collect();
    assert_eq!(det003, vec![("DET-003", 4), ("DET-003", 5)]);
    // The sanctioned spawn site.
    let violations = scan_source("crates/sim/src/shard.rs", DET003, &[]);
    assert!(
        hits(&violations).iter().all(|(id, _)| *id != "DET-003"),
        "lgfi_sim::shard owns the launch-order-merge contract and may spawn"
    );
}

#[test]
fn alloc_001_scans_only_manifest_registered_functions() {
    let rel = "crates/bench/src/hot.rs"; // harness path: no PANIC/DET noise
    let hp = HotPath {
        file: rel.to_string(),
        fns: vec!["round_serial".to_string()],
        contract: "fixture".to_string(),
    };
    let violations = scan_source(rel, ALLOC001, std::slice::from_ref(&hp));
    assert_eq!(
        hits(&violations),
        vec![("ALLOC-001", 5), ("ALLOC-001", 6), ("ALLOC-001", 7)],
        "Vec::new, vec! and format! fire; the annotated clone is waived and \
         the unregistered cold_helper is not scanned"
    );
}

#[test]
fn alloc_001_rejects_stale_manifest_entries() {
    let rel = "crates/bench/src/hot.rs";
    let hp = HotPath {
        file: rel.to_string(),
        fns: vec!["renamed_away".to_string()],
        contract: "fixture".to_string(),
    };
    let violations = scan_source(rel, ALLOC001, std::slice::from_ref(&hp));
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].lint.id(), "ALLOC-001");
    assert!(
        violations[0].message.contains("stale"),
        "a hot-path fn that no longer exists must be reported, not ignored"
    );
}

#[test]
fn panic_001_fires_in_library_code_only() {
    let violations = scan_source("crates/core/src/panics.rs", PANIC001, &[]);
    assert_eq!(
        hits(&violations),
        vec![("PANIC-001", 4), ("PANIC-001", 5), ("PANIC-001", 7)],
        "unwrap, expect and panic! fire; the audit:allow(panic) line is waived"
    );
    // Integration tests and bins are out of PANIC-001 scope.
    for rel in ["tests/panics.rs", "crates/core/src/bin/panics.rs"] {
        let violations = scan_source(rel, PANIC001, &[]);
        assert!(
            hits(&violations).iter().all(|(id, _)| *id != "PANIC-001"),
            "{rel} must not be in PANIC-001 scope"
        );
    }
}

#[test]
fn lint_001_enforces_commented_allows_and_annotation_grammar() {
    let violations = scan_source("crates/core/src/allows.rs", LINT001, &[]);
    assert_eq!(
        hits(&violations),
        vec![("LINT-001", 3), ("LINT-001", 10), ("LINT-001", 13)],
        "uncommented #[allow], missing reason, unknown key fire; the \
         commented #[allow] does not"
    );
}

/// Workspace root, resolved from this crate's manifest directory.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/audit sits two levels below the workspace root")
}

#[test]
fn committed_baseline_matches_a_fresh_audit_run_and_ratchets() {
    let root = workspace_root();
    let outcome = run_audit(root).expect("audit runs on the shipped tree");
    let committed = load_baseline(root).expect("committed baseline parses");

    // Meta-test: the committed AUDIT_baseline.json is exactly a fresh run.
    let fresh = Baseline::from_violations(&outcome.violations);
    assert_eq!(
        fresh, committed,
        "AUDIT_baseline.json is stale — run `cargo run -p lgfi-audit -- --write-baseline`"
    );

    // The shipped tree is clean against its own baseline (exit 0).
    let diff = ratchet(&outcome.violations, &committed);
    assert!(
        diff.is_clean(),
        "shipped tree regressed its own baseline: {:?}",
        diff.regressions
    );

    // An injected violation is a ratchet regression (exit 1): scan a fixture
    // full of DET-001 hits as if it were a new engine-crate source file.
    let mut violations = outcome.violations;
    violations.extend(scan_source("crates/core/src/injected.rs", DET001, &[]));
    let diff = ratchet(&violations, &committed);
    assert!(
        !diff.is_clean(),
        "injected DET-001 hits must fail the ratchet"
    );
    assert!(diff
        .regressions
        .iter()
        .any(|(file, lint, _, _)| file == "crates/core/src/injected.rs" && lint == "DET-001"));
}
