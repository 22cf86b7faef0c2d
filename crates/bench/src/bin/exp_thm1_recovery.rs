//! Experiment binary: prints the `thm1_recovery` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_thm1_recovery",
        "theorem 1: recovery bound",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_thm1_recovery());
}
