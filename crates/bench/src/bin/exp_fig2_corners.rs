//! Experiment binary: prints the `fig2_corners` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_fig2_corners",
        "concave corner handling (figure 2)",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_fig2_corners());
}
