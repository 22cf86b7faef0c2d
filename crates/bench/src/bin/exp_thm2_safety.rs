//! Experiment binary: prints the `thm2_safety` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_thm2_safety",
        "theorem 2: safety of fault-block detours",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_thm2_safety());
}
