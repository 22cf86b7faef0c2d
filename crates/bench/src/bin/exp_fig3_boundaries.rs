//! Experiment binary: prints the `fig3_boundaries` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_fig3_boundaries",
        "boundary fault chains (figure 3)",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_fig3_boundaries());
}
