//! Experiment binary: prints the C5 concurrent-traffic experiment table —
//! delivery, accepted throughput and mean/p99 queueing latency for every router as
//! the offered load grows towards saturation.
//!
//! Accepts `--threads N` (or `LGFI_THREADS`) for the information rounds and
//! `LGFI_TRAFFIC_THREADS` for the per-cycle traffic decisions; `0` = one worker per
//! core.  Output is bit-identical for every setting.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_traffic",
        "concurrent packet traffic vs. offered load",
    ) {
        return;
    }
    let threads = lgfi_bench::harness::cli_threads();
    let traffic_threads = lgfi_bench::harness::knob("LGFI_TRAFFIC_THREADS");
    println!(
        "{}",
        lgfi_bench::harness::exp_traffic_with(threads, traffic_threads)
    );
}
