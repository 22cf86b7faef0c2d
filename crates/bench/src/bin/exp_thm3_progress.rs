//! Experiment binary: prints the `thm3_progress` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_thm3_progress",
        "theorem 3: progress guarantee",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_thm3_progress());
}
