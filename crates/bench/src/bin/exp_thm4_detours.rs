//! Experiment binary: prints the `thm4_detours` experiment table(s).
//! The paper-artifact map in `docs/ARCHITECTURE.md` indexes the experiments, and
//! the `experiments` binary prints every table in one report.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_thm4_detours",
        "theorem 4: detour length bounds",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::exp_thm4_detours());
}
