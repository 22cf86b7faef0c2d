//! Experiment binary: prints the C8 wormhole-traffic experiment table — delivery,
//! accepted throughput, queueing latency and deadlock teardowns for every router
//! as multi-flit worms contend for virtual channels around the fault blocks —
//! and appends machine-readable wormhole records to `BENCH_engine.json`.
//!
//! `LGFI_FLITS` sets the worm length (default 4) and `LGFI_VCS` the virtual
//! channels per link (default 2, VC 0 reserved as the escape class); `--threads N`
//! (or `LGFI_THREADS`) and `LGFI_TRAFFIC_THREADS` select worker counts (`0` = one
//! per core).  Output is bit-identical for every thread setting.

fn main() {
    if lgfi_bench::harness::print_help_if_requested(
        "exp_wormhole",
        "wormhole traffic with virtual channels vs. offered load",
    ) {
        return;
    }
    let threads = lgfi_bench::harness::cli_threads();
    let traffic_threads = lgfi_bench::harness::knob("LGFI_TRAFFIC_THREADS");
    let flits = lgfi_bench::harness::configured_flits();
    let vcs = lgfi_bench::harness::configured_vcs();
    println!(
        "{}",
        lgfi_bench::harness::exp_wormhole_with(threads, traffic_threads, flits, vcs)
    );
    lgfi_bench::perf::emit_wormhole_records();
}
