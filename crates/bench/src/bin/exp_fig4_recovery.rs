//! Experiment binary: prints the `fig4_recovery` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_fig4_recovery",
        "recovery after fault repair (figure 4)",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_fig4_recovery());
}
