//! Experiment binary: prints the `thm5_unsafe` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_thm5_unsafe",
        "theorem 5: unsafe-node classification",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_thm5_unsafe());
}
