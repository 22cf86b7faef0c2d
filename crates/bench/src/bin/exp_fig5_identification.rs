//! Experiment binary: prints the `fig5_identification` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_fig5_identification",
        "faulty-region identification (figure 5)",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_fig5_identification());
}
