//! Allocation-regression guard for the round *and* routing data planes.
//!
//! The engines own every buffer their hot loops touch (double-buffered states, the
//! flat neighbor cache, the frontier and stack-allocated neighbor views for the
//! round loop; inline coordinates, the direction-indexed neighbor-slot scratch, the
//! recycled path and the flat used-direction arena for the probe loop), so
//! **steady-state rounds and probe hops perform zero heap allocations** — in the
//! serial engines *and* in the warm pooled parallel ones:
//! the persistent worker pool hands each generation's job to its parked workers as
//! a raw pointer and the per-shard scratch is pre-sized when the thread count is
//! set, so a warm parallel round touches the heap exactly as much as a serial one
//! (not at all).  This test installs a counting global allocator and proves both:
//! after a warm-up (where buffers reach their high-water capacity and the pool has
//! spawned), further rounds — and further probes through a warm [`ProbeEngine`] —
//! must not allocate.
//!
//! Everything runs inside a single `#[test]` because the allocation counter is
//! process-global and the libtest harness runs separate tests on separate threads.

// The counting allocator is the one sanctioned use of `unsafe` in this workspace
// (see the lint note in the root Cargo.toml): `GlobalAlloc` cannot be implemented
// without it, and there is no other way to observe allocator traffic.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use lgfi_core::labeling::{LabelingEngine, LabelingProtocol};
use lgfi_core::layout::StaticLayout;
use lgfi_core::routing::{LgfiRouter, ProbeEngine, ProbeOutcome, Router};
use lgfi_sim::{NeighborView, NodeCtx, Protocol, RoundEngine};
use lgfi_topology::{coord, Mesh, NodeId};

/// Counts allocator calls (alloc, realloc, alloc_zeroed) while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns the number of allocator calls it made.
///
/// The counter is process-global, so a stray allocation on *another* thread (libtest
/// bookkeeping, lazily-initialised runtime machinery) while the section is armed
/// would be charged to `f`.  A genuine data-plane regression allocates
/// deterministically on every run, so a non-zero first measurement is retried once
/// on cold caches before being believed; one-off cross-thread noise vanishes on the
/// retry, a real per-round/per-hop allocation does not.
fn count_allocations<R>(mut f: impl FnMut() -> R) -> (u64, R) {
    let measure = |f: &mut dyn FnMut() -> R| {
        ALLOCATIONS.store(0, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let out = f();
        ARMED.store(false, Ordering::SeqCst);
        (ALLOCATIONS.load(Ordering::SeqCst), out)
    };
    let (allocs, out) = measure(&mut f);
    if allocs == 0 {
        return (allocs, out);
    }
    measure(&mut f)
}

/// The min-flood protocol of the engine's own tests: converges, then stays put.
struct MinFlood;

impl Protocol for MinFlood {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        if ctx.id == 0 {
            0
        } else {
            ctx.id as u64 + 1
        }
    }

    fn on_round(&self, _ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        let mut best = *prev;
        for nb in neighbors {
            if let Some(&s) = nb.state {
                best = best.min(s);
            }
        }
        best
    }
}

const STEADY_ROUNDS: u64 = 64;

#[test]
fn steady_state_rounds_allocate_nothing_in_the_serial_engines() {
    // --- RoundEngine + LabelingProtocol, frontier scheduling (the default). -------
    let mesh = Mesh::cubic(32, 2);
    let mut eng = RoundEngine::new(mesh.clone(), LabelingProtocol);
    for c in [
        coord![10, 10],
        coord![11, 11],
        coord![10, 11],
        coord![16, 5],
    ] {
        eng.inject_fault(mesh.id_of(&c));
    }
    eng.run_until_quiescent(1_000).expect("labeling stabilises");
    let (allocs, changes) = count_allocations(|| eng.run_rounds(STEADY_ROUNDS));
    assert_eq!(changes, 0, "quiescent mesh must stay quiescent");
    assert_eq!(
        allocs, 0,
        "frontier rounds of the serial RoundEngine must not allocate"
    );

    // --- RoundEngine + LabelingProtocol, full evaluation (frontier off). ----------
    let mut eng = RoundEngine::new(mesh.clone(), LabelingProtocol).with_frontier(false);
    for c in [coord![10, 10], coord![11, 11], coord![10, 11]] {
        eng.inject_fault(mesh.id_of(&c));
    }
    eng.run_until_quiescent(1_000).expect("labeling stabilises");
    let (allocs, changes) = count_allocations(|| eng.run_rounds(STEADY_ROUNDS));
    assert_eq!(changes, 0);
    assert_eq!(
        allocs, 0,
        "full-evaluation rounds of the serial RoundEngine must not allocate"
    );

    // --- RoundEngine + min-flood, every node evaluated every round. -------------
    let mut eng = RoundEngine::new(mesh.clone(), MinFlood).with_frontier(false);
    eng.run_until_quiescent(1_000).expect("min-flood converges");
    let (allocs, changes) = count_allocations(|| eng.run_rounds(STEADY_ROUNDS));
    assert_eq!(changes, 0);
    assert_eq!(
        allocs, 0,
        "post-convergence every-node rounds of min-flood must not allocate"
    );

    // --- LabelingEngine, frontier scheduling and full evaluation. -----------------
    for frontier in [true, false] {
        let mut eng = LabelingEngine::new(mesh.clone()).with_frontier(frontier);
        for c in [
            coord![10, 10],
            coord![11, 11],
            coord![10, 11],
            coord![16, 5],
        ] {
            eng.inject_fault_coord(&c);
        }
        eng.run_to_fixpoint(1_000).expect("labeling stabilises");
        let (allocs, changes) = count_allocations(|| {
            let mut total = 0usize;
            for _ in 0..STEADY_ROUNDS {
                total += eng.run_round();
            }
            total
        });
        assert_eq!(changes, 0);
        assert_eq!(
            allocs, 0,
            "steady-state LabelingEngine rounds must not allocate (frontier={frontier})"
        );
    }

    // --- Routing data plane: warm ProbeEngine, LGFI and DOR routers. --------------
    // A faulty 32x32 mesh with stabilised blocks and boundaries; the first pass over
    // the probe batch warms the engine's recycled buffers (path, used-direction
    // arena, neighbor slots), after which routing the same batch again — thousands
    // of hops including backtracks and boundary-informed detours — must not touch
    // the heap at all: zero steady-state allocations per hop.
    let mesh = Mesh::cubic(32, 2);
    let mut faults = Vec::new();
    for (x, y) in [
        (8, 8),
        (9, 9),
        (8, 9),
        (9, 8),
        (20, 14),
        (21, 15),
        (20, 15),
        (21, 14),
    ] {
        faults.push(coord![x, y]);
    }
    faults.push(coord![14, 22]);
    let layout = StaticLayout::new(mesh.clone(), &faults);
    let env = layout.env();
    // Pairs crossing the blocks' shadows (forcing detours and backtracking) plus
    // plain corner-to-corner traffic.
    let pairs: Vec<(NodeId, NodeId)> = vec![
        (mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![31, 31])),
        (mesh.id_of(&coord![8, 1]), mesh.id_of(&coord![9, 30])),
        (mesh.id_of(&coord![1, 8]), mesh.id_of(&coord![30, 9])),
        (mesh.id_of(&coord![20, 2]), mesh.id_of(&coord![21, 29])),
        (mesh.id_of(&coord![31, 0]), mesh.id_of(&coord![0, 31])),
        (mesh.id_of(&coord![2, 30]), mesh.id_of(&coord![29, 3])),
    ];
    let route_batch = |engine: &mut ProbeEngine, router: &dyn Router| -> (u64, usize) {
        let mut steps = 0u64;
        let mut delivered = 0usize;
        for &(s, d) in &pairs {
            let out: ProbeOutcome = engine.route(&mesh, &env, router, s, d, 100_000);
            steps += out.steps;
            delivered += usize::from(out.delivered());
        }
        (steps, delivered)
    };
    // LGFI router (Algorithm 3, boundary-informed, backtracking).
    let lgfi = LgfiRouter::new();
    let mut engine = ProbeEngine::new();
    let warm = route_batch(&mut engine, &lgfi);
    assert_eq!(warm.1, pairs.len(), "all LGFI probes deliver");
    let (allocs, steady) = count_allocations(|| route_batch(&mut engine, &lgfi));
    assert_eq!(steady, warm, "warm re-run must route identically");
    assert!(steady.0 > 200, "the batch exercises hundreds of hops");
    assert_eq!(
        allocs, 0,
        "routing through a warm ProbeEngine must not allocate per hop (LGFI)"
    );
    // Dimension-order router (deterministic baseline) through the same engine.
    let dor = lgfi_baselines::DimensionOrderRouter::new();
    let warm = route_batch(&mut engine, &dor);
    let (allocs, steady) = count_allocations(|| route_batch(&mut engine, &dor));
    assert_eq!(steady, warm);
    assert_eq!(
        allocs, 0,
        "routing through a warm ProbeEngine must not allocate per hop (DOR)"
    );

    // --- Route-query plane: warm RouteReader on a checked-out epoch snapshot. -----
    // The reader's warm path is one Acquire epoch load (no publish pending → no
    // checkout) plus the recycled ProbeEngine probe loop over the immutable
    // snapshot arena, so resolving the same batch through a warm reader must not
    // touch the heap either — the zero-alloc proof behind the route-service
    // throughput numbers in `BENCH_engine.json`.
    {
        use lgfi_core::network::{LgfiNetwork, NetworkConfig};
        use lgfi_sim::FaultPlan;
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            FaultPlan::static_faults(&faults.iter().map(|c| mesh.id_of(c)).collect::<Vec<_>>()),
            NetworkConfig::default(),
        );
        let service = net.route_service();
        for _ in 0..400 {
            net.run_step();
        }
        let mut reader = service.reader();
        let resolve_batch =
            |reader: &mut lgfi_core::route_service::RouteReader| -> (u64, usize, u64) {
                let mut steps = 0u64;
                let mut delivered = 0usize;
                let mut epoch = 0u64;
                for &(s, d) in &pairs {
                    let q = reader.resolve(&lgfi, s, d, 100_000);
                    steps += q.outcome.steps;
                    delivered += usize::from(q.outcome.delivered());
                    epoch = q.epoch;
                }
                (steps, delivered, epoch)
            };
        let warm = resolve_batch(&mut reader);
        assert_eq!(warm.1, pairs.len(), "all route-service probes deliver");
        let (allocs, steady) = count_allocations(|| resolve_batch(&mut reader));
        assert_eq!(
            steady, warm,
            "warm route-service re-run must route identically"
        );
        assert_eq!(
            allocs, 0,
            "a warm RouteReader must not allocate per query (publish-free window)"
        );
    }

    // --- Probe plane: warm LgfiNetwork steps with launched probes. ---------------
    // The dynamic network's per-step probe decisions run the same hop kernel as
    // the ProbeEngine, against the network's visible-boundary arena.  With the
    // faults stabilised, a first batch of probes routes to completion so the
    // network holds warm spare probes; the relaunched batch then takes the same
    // routes, and every step before the first probe finishes (no fault fires, no
    // report is written) must not touch the heap.  Launching itself allocates
    // (the boxed router), so the launch stays outside the measured window.
    {
        use lgfi_core::network::{LgfiNetwork, NetworkConfig};
        use lgfi_sim::FaultPlan;
        for probe_threads in [1, 2] {
            let mut net = LgfiNetwork::new(
                mesh.clone(),
                FaultPlan::static_faults(&faults.iter().map(|c| mesh.id_of(c)).collect::<Vec<_>>()),
                NetworkConfig {
                    probe_threads,
                    ..NetworkConfig::default()
                },
            );
            for _ in 0..400 {
                net.run_step();
            }
            // The outcomes of the batch's reports from `before` on, in pair order.
            let batch_outcomes = |net: &LgfiNetwork, before: usize| -> Vec<ProbeOutcome> {
                let mut rows: Vec<(NodeId, NodeId, ProbeOutcome)> = net.reports()[before..]
                    .iter()
                    .map(|r| (r.source, r.dest, r.outcome))
                    .collect();
                rows.sort_by_key(|&(s, d, _)| (s, d));
                rows.into_iter().map(|(_, _, o)| o).collect()
            };
            let run_batch = |net: &mut LgfiNetwork| -> Vec<ProbeOutcome> {
                let before = net.reports().len();
                for &(s, d) in &pairs {
                    net.launch_probe(s, d, Box::new(LgfiRouter::new()));
                }
                while net.probes_in_flight() > 0 {
                    net.run_step();
                }
                batch_outcomes(net, before)
            };
            let warm = run_batch(&mut net);
            assert!(
                warm.iter().all(|o| o.delivered()),
                "all network probes deliver"
            );
            let shortest = warm.iter().map(|o| o.steps).min().unwrap_or(0);
            assert!(
                shortest >= 20,
                "the batch routes long paths ({shortest} hops)"
            );
            // Relaunch, then measure half the steps before the first probe can
            // finish (count_allocations may re-run its body once).
            for &(s, d) in &pairs {
                net.launch_probe(s, d, Box::new(LgfiRouter::new()));
            }
            let window = (shortest - 1) / 2;
            let (allocs, ()) = count_allocations(|| {
                for _ in 0..window {
                    net.run_step();
                }
            });
            assert_eq!(net.probes_in_flight(), pairs.len(), "no probe finished yet");
            assert_eq!(
                allocs, 0,
                "warm LgfiNetwork steps with in-flight probes must not allocate \
                 (probe_threads={probe_threads})"
            );
            while net.probes_in_flight() > 0 {
                net.run_step();
            }
            let again = batch_outcomes(&net, net.reports().len() - pairs.len());
            assert_eq!(again, warm, "the relaunched batch routes identically");
        }
    }

    // --- Traffic data plane: warm TrafficEngine, concurrent packets, contention. --
    // The same faulty 32x32 environment, read as a static cycle env.  A
    // cohort of packets (several sharing source corners, so links genuinely
    // contend and stalls occur) is injected and drained twice to warm the engine:
    // the second run fixes the recycled-buffer assignment, so the measured third
    // run — injection, every cycle's decision/arbitration/retirement, and record
    // keeping — must not touch the heap at all: zero steady-state allocations per
    // cycle.
    use lgfi_core::traffic_engine::{TrafficEngine, TrafficSpec};
    let mut traffic = TrafficEngine::new(mesh.clone(), TrafficSpec::new(), &|| {
        Box::new(LgfiRouter::new())
    });
    // Each pair twice: the twin packets fight for the very same links, so every
    // cycle exercises the arbitration (stall) path as well as the granted path.
    let traffic_pairs: Vec<(NodeId, NodeId)> =
        pairs.iter().copied().chain(pairs.iter().copied()).collect();
    let run_batch = |eng: &mut TrafficEngine| -> (u64, u64, u64) {
        let before = eng.records().len();
        for &(s, d) in &traffic_pairs {
            eng.inject(s, d);
        }
        eng.drain_static(&env, 10_000);
        let recs = &eng.records()[before..];
        let delivered = recs.iter().filter(|r| r.delivered()).count() as u64;
        let stalls: u64 = recs.iter().map(|r| r.stalls).sum();
        let max_latency = recs.iter().map(|r| r.latency()).max().unwrap_or(0);
        (delivered, stalls, max_latency)
    };
    let first = run_batch(&mut traffic);
    let warm = run_batch(&mut traffic);
    assert_eq!(first, warm, "warm traffic re-runs must be identical");
    assert_eq!(warm.0, traffic_pairs.len() as u64, "all packets deliver");
    assert!(warm.1 > 0, "shared source corners must produce stalls");
    // Reserve for two measured sections: count_allocations may re-run its body
    // once to reject cross-thread noise.
    traffic.reserve(2 * traffic_pairs.len(), warm.2);
    let (allocs, steady) = count_allocations(|| run_batch(&mut traffic));
    assert_eq!(steady, warm, "measured run must route identically");
    assert_eq!(
        allocs, 0,
        "a warm serial TrafficEngine must not allocate per cycle"
    );

    // --- Pooled round plane: warm parallel rounds are allocation-free too. --------
    // The persistent worker pool spawns its threads and sizes the per-shard scratch
    // during the warm-up (`set_threads` pre-computes the shard ranges, the first
    // parallel round spawns the workers), after which a round submits a job as a
    // raw pointer hand-off and parks on futex-backed condvars: no heap traffic on
    // any thread.  The counter is process-global, so the workers' own allocations
    // (if any) would be charged to the armed section.
    let mesh = Mesh::cubic(32, 2);
    let mut eng = RoundEngine::new(mesh.clone(), LabelingProtocol).with_threads(4);
    for c in [coord![10, 10], coord![11, 11], coord![10, 11]] {
        eng.inject_fault(mesh.id_of(&c));
    }
    eng.run_until_quiescent(1_000).expect("labeling stabilises");
    let (allocs, changes) = count_allocations(|| eng.run_rounds(STEADY_ROUNDS));
    assert_eq!(changes, 0);
    assert_eq!(
        allocs, 0,
        "warm pooled RoundEngine rounds must not allocate (threads=4)"
    );

    // --- Pooled labeling plane. ---------------------------------------------------
    let mut eng = LabelingEngine::new(mesh.clone()).with_threads(4);
    for c in [coord![10, 10], coord![11, 11], coord![10, 11]] {
        eng.inject_fault_coord(&c);
    }
    eng.run_to_fixpoint(1_000).expect("labeling stabilises");
    let (allocs, changes) = count_allocations(|| {
        let mut total = 0usize;
        for _ in 0..STEADY_ROUNDS {
            total += eng.run_round();
        }
        total
    });
    assert_eq!(changes, 0);
    assert_eq!(
        allocs, 0,
        "warm pooled LabelingEngine rounds must not allocate (threads=4)"
    );

    // --- Pooled traffic plane: warm parallel decision cycles. ---------------------
    let mut traffic =
        TrafficEngine::new(mesh.clone(), TrafficSpec::new().traffic_threads(4), &|| {
            Box::new(LgfiRouter::new())
        });
    let first = run_batch(&mut traffic);
    let warm = run_batch(&mut traffic);
    assert_eq!(first, warm, "warm pooled traffic re-runs must be identical");
    assert_eq!(warm.0, traffic_pairs.len() as u64, "all packets deliver");
    // Reserve for two measured sections: count_allocations may re-run its body
    // once to reject cross-thread noise.
    traffic.reserve(2 * traffic_pairs.len(), warm.2);
    let (allocs, steady) = count_allocations(|| run_batch(&mut traffic));
    assert_eq!(steady, warm, "measured pooled run must route identically");
    assert_eq!(
        allocs, 0,
        "a warm pooled TrafficEngine must not allocate per cycle (threads=4)"
    );

    // --- Wormhole data plane: warm multi-flit cycles are allocation-free too. -----
    // 4-flit worms over 4 virtual channels: head allocation, credit accounting,
    // body-flit advancement, VC release and the deadlock detector's stamp walk all
    // run in the measured section.  The worm link queues, the VC table and the
    // flit-buffer pools are recycled buffers, so a warm engine must stay off the
    // heap even though every packet now occupies a path of links head-to-tail.
    let mut traffic = TrafficEngine::new(
        mesh,
        TrafficSpec::new().flits_per_packet(4).vc_count(4),
        &|| Box::new(LgfiRouter::new()),
    );
    let first = run_batch(&mut traffic);
    let warm = run_batch(&mut traffic);
    assert_eq!(first, warm, "warm wormhole re-runs must be identical");
    // One extra warm run: worm link queues are recycled per packet slot, and the
    // slot-to-packet assignment (hence each queue's high-water path length) takes
    // one more run to reach its fixed point than the single-flit plane.
    let warm2 = run_batch(&mut traffic);
    assert_eq!(warm, warm2, "wormhole re-runs must stay identical");
    assert_eq!(warm.0, traffic_pairs.len() as u64, "all worms deliver");
    assert!(warm.1 > 0, "multi-flit worms must contend for links");
    // Reserve for two measured sections: count_allocations may re-run its body
    // once to reject cross-thread noise.
    traffic.reserve(2 * traffic_pairs.len(), warm.2);
    let (allocs, steady) = count_allocations(|| run_batch(&mut traffic));
    assert_eq!(steady, warm, "measured wormhole run must route identically");
    assert_eq!(
        allocs, 0,
        "a warm wormhole TrafficEngine must not allocate per flit cycle"
    );

    // Sanity: the counter actually observes allocator traffic.
    let (allocs, v) = count_allocations(|| vec![1u8]);
    assert!(allocs > 0, "the counting allocator must see allocations");
    drop(v);
}
