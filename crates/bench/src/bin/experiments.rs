//! Runs every experiment of the reproduction in order (figures F1-F7, theorems T1-T5,
//! claims C1-C7) and prints the full report.  The paper-artifact map in
//! `docs/ARCHITECTURE.md` names the module behind each section.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "experiments",
        "every experiment (F1-F7, T1-T5, C1-C8) in order",
    ) {
        return;
    }
    println!("{}", lgfi_bench::harness::run_all_experiments());
}
