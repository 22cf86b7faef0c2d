//! Experiment binary: prints the `dynamic_convergence` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.
//!
//! Accepts `--threads N` (or `LGFI_THREADS`) to run the information rounds on N
//! sharded workers; `0` = one worker per core.  Output is bit-identical for every
//! setting.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_dynamic_convergence",
        "re-convergence after dynamic fault arrivals",
    ) {
        return;
    }
    let threads = lgfi_bench::harness::cli_threads();
    println!(
        "{}",
        lgfi_bench::harness::exp_dynamic_convergence_with(threads)
    );
}
