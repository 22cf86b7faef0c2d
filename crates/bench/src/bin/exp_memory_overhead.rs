//! Experiment binary: prints the `memory_overhead` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_memory_overhead",
        "per-router memory overhead",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_memory_overhead());
}
