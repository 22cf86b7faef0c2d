//! Experiment binary: prints the `graceful_degradation` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.
//!
//! Accepts `--threads N` (or `LGFI_THREADS`) to run the per-scenario information
//! rounds on N sharded workers; `0` = one worker per core.  Output is bit-identical
//! for every setting.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_graceful_degradation",
        "delivery degradation vs. fault density",
    ) {
        return;
    }
    let threads = lgfi_bench::harness::cli_threads();
    println!(
        "{}",
        lgfi_bench::harness::exp_graceful_degradation_with(threads)
    );
}
