//! Allocation-regression guard for the incremental control plane.
//!
//! Once a rebuild has scheduled a block's boundary entries, the information
//! reaches the boundary nodes one round at a time.  Each of those steps drains the
//! visibility transitions that came due and rewrites only those nodes' arena
//! slots, cloning into the slots in place.  This test installs a counting global
//! allocator and proves that such steps perform **zero heap allocations**, even
//! though the visible information changes at every one of them.  So do the steps
//! between a fault burst and its rebuild, which only advance the labeling by one
//! round each: the round engine's buffers and statistics stay at their warm size.
//! And so does a warm rebuild: once a fault cluster has come and gone, the same
//! burst at the same place rebuilds blocks, identification and boundaries in the
//! buffers the first one left behind, even when it recurs at another place in the
//! ring of the round calendar that schedules the transitions, so that its
//! arrivals wrap the ring.
//!
//! The counter is per thread, so each test counts only its own allocations and
//! the libtest harness may run the tests side by side.

// The counting allocator is the one sanctioned use of `unsafe` in this workspace
// (see the lint note in the root Cargo.toml): `GlobalAlloc` cannot be implemented
// without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_sim::{FaultEvent, FaultPlan};
use lgfi_topology::{coord, Coord, Mesh, NodeId};

/// Counts the allocator calls (alloc, realloc, alloc_zeroed) of the armed thread.
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with this thread's counter armed and returns the number of
/// allocator calls it made.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steps_that_only_patch_visibility_allocate_nothing() {
    let mesh = Mesh::cubic(32, 2);
    let faults: Vec<_> = [
        coord![15, 15],
        coord![16, 16],
        coord![15, 16],
        coord![16, 15],
    ]
    .iter()
    .map(|c| mesh.id_of(c))
    .collect();
    let mut net = LgfiNetwork::new(
        mesh.clone(),
        FaultPlan::static_faults(&faults),
        NetworkConfig::default(),
    );
    // Run until the block's information has started to arrive: the rebuild (which
    // allocates) is behind us, and the arrival wave is still travelling.
    while net.nodes_with_visible_info() == 0 {
        net.run_step();
        assert!(net.step() < 200, "the block's information never arrived");
    }
    assert_eq!(net.convergence_records().len(), 1, "one rebuild, then none");

    let mut reached = vec![net.nodes_with_visible_info()];
    for _ in 0..6 {
        let allocs = count_allocations(|| {
            net.run_step();
            net.run_step();
        });
        assert_eq!(
            allocs,
            0,
            "a step that only patches visibility must not allocate (step {})",
            net.step()
        );
        reached.push(net.nodes_with_visible_info());
    }
    assert!(
        reached.windows(2).all(|w| w[0] < w[1]),
        "every measured pair of steps must reveal information to more nodes: {reached:?}"
    );
    assert_eq!(net.convergence_records().len(), 1);

    // --- Steps that only run a labeling round (λ = 1). ---------------------------
    // A diagonal of five faults disables its bounding box one anti-diagonal per
    // round.  A first diagonal warms the round buffers to this shape's high-water
    // mark; a second one, elsewhere, is measured from the step after its burst up
    // to the step that rebuilds (which allocates the new blocks).
    let diagonal =
        |x: i32, y: i32| -> Vec<Coord> { (0..5).map(|k| coord![x + k, y + k]).collect() };
    for (cluster, measured) in [(diagonal(3, 3), false), (diagonal(23, 3), true)] {
        let step = net.step();
        let burst: Vec<FaultEvent> = cluster
            .iter()
            .map(|c| FaultEvent::fail(step, mesh.id_of(c)))
            .collect();
        let rebuilds = net.convergence_records().len();
        net.run_step_with(&burst);
        let mut labeling_steps = 0u64;
        loop {
            let allocs = count_allocations(|| net.run_step());
            if net.convergence_records().len() > rebuilds {
                break;
            }
            assert!(
                !measured || allocs == 0,
                "a step that only runs a labeling round must not allocate \
                 (step {}: {allocs} allocations)",
                net.step()
            );
            labeling_steps += 1;
        }
        let record = net.convergence_records().last().unwrap();
        assert!(record.a_rounds >= 3, "the cluster needs several rounds");
        assert_eq!(labeling_steps, record.a_rounds - 2);
    }

    // Sanity: the counter actually observes allocator traffic.
    let mut v = Vec::new();
    assert!(count_allocations(|| v.push(1u8)) > 0);
}

#[test]
fn a_warm_rebuild_allocates_nothing() {
    let mesh = Mesh::cubic(32, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    // A diagonal of five faults: its bounding box is disabled one anti-diagonal
    // per round, so the burst takes several labeling rounds to settle.
    let cluster: Vec<NodeId> = (0..5)
        .map(|k| mesh.id_of(&coord![12 + k, 12 + k]))
        .collect();
    let burst = |step: u64, fail: bool| -> Vec<FaultEvent> {
        let event = if fail {
            FaultEvent::fail
        } else {
            FaultEvent::recover
        };
        cluster.iter().map(|&node| event(step, node)).collect()
    };
    // Steps until every scheduled transition has come due (the visible count is
    // steady for longer than the longest arrival offset).
    let settle = |net: &mut LgfiNetwork| {
        let mut steady = 0;
        let mut last = usize::MAX;
        while steady < 80 {
            net.run_step();
            let now = net.nodes_with_visible_info();
            steady = if now == last { steady + 1 } else { 0 };
            last = now;
        }
    };

    // Cold: the cluster fails and distributes, then recovers, and its deletion
    // wave completes.  These rebuilds size every buffer the next one reuses.
    let events = burst(net.step(), true);
    net.run_step_with(&events);
    settle(&mut net);
    assert_eq!(net.blocks().len(), 1);
    let distributed = net.nodes_with_visible_info();
    assert!(distributed > 0);
    let events = burst(net.step(), false);
    net.run_step_with(&events);
    settle(&mut net);
    assert!(net.blocks().is_empty());
    assert_eq!(
        net.nodes_with_visible_info(),
        0,
        "the deletion wave completed"
    );
    assert_eq!(net.convergence_records().len(), 2);

    // Warm: the same burst at the same place.  Every step from the one after the
    // burst up to and including the rebuild must leave the heap alone, and so
    // must the steps that reveal the rebuilt information.  The convergence
    // history is the one growing list on this path; its third record still fits
    // the capacity of its first growth, so the expected count is zero here too.
    let events = burst(net.step(), true);
    net.run_step_with(&events);
    let mut labeling_steps = 0;
    loop {
        let allocs = count_allocations(|| net.run_step());
        let rebuilt = net.convergence_records().len() == 3;
        assert_eq!(
            allocs,
            0,
            "step {} ({}) must not allocate",
            net.step(),
            if rebuilt {
                "the rebuild"
            } else {
                "a labeling round"
            }
        );
        if rebuilt {
            break;
        }
        labeling_steps += 1;
        assert!(labeling_steps < 50, "the burst never rebuilt");
    }
    assert!(labeling_steps >= 1, "the cluster needs labeling rounds");
    let record = *net.convergence_records().last().unwrap();
    assert_eq!(
        record.blocks_changed, 1,
        "the block was rebuilt, not reused"
    );
    assert!(record.b_rounds > 0 && record.c_rounds > 0);
    assert_eq!(net.blocks().len(), 1);
    let allocs = count_allocations(|| settle(&mut net));
    assert_eq!(
        allocs, 0,
        "revealing the rebuilt information must not allocate"
    );
    assert_eq!(net.nodes_with_visible_info(), distributed);
}

/// Buckets in the ring of the network's round calendar, which schedules the
/// visibility transitions and deletion sweeps: an event due at round `r` sits
/// in bucket `r % CALENDAR_RING`.
const CALENDAR_RING: u64 = 128;

#[test]
fn a_warm_rebuild_whose_events_wrap_the_calendar_ring_allocates_nothing() {
    let mesh = Mesh::cubic(32, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    let cluster: Vec<NodeId> = (0..5)
        .map(|k| mesh.id_of(&coord![12 + k, 12 + k]))
        .collect();
    let burst = |step: u64, fail: bool| -> Vec<FaultEvent> {
        let event = if fail {
            FaultEvent::fail
        } else {
            FaultEvent::recover
        };
        cluster.iter().map(|&node| event(step, node)).collect()
    };
    let settle = |net: &mut LgfiNetwork| {
        let mut steady = 0;
        let mut last = usize::MAX;
        while steady < 80 {
            net.run_step();
            let now = net.nodes_with_visible_info();
            steady = if now == last { steady + 1 } else { 0 };
            last = now;
        }
    };
    // Runs steps up to and including the next rebuild and returns its round.
    let until_rebuild = |net: &mut LgfiNetwork| {
        let rebuilds = net.convergence_records().len();
        while net.convergence_records().len() == rebuilds {
            net.run_step();
            assert!(net.step() < 10_000, "the burst never rebuilt");
        }
        net.round()
    };

    // Cold, early in the ring: the cluster fails and distributes, then
    // recovers, and its deletion wave completes.
    let events = burst(net.step(), true);
    net.run_step_with(&events);
    let cold = until_rebuild(&mut net);
    settle(&mut net);
    let distributed = net.nodes_with_visible_info();
    let events = burst(net.step(), false);
    net.run_step_with(&events);
    settle(&mut net);
    assert_eq!(net.nodes_with_visible_info(), 0);

    // Warm, late in the ring: the same burst rebuilds a few rounds before the
    // ring's end, so its arrivals wrap into the ring's first buckets.
    while net.round() % CALENDAR_RING != CALENDAR_RING - 12 {
        net.run_step();
    }
    let events = burst(net.step(), true);
    net.run_step_with(&events);
    let mut warm = 0;
    let allocs = count_allocations(|| {
        warm = until_rebuild(&mut net);
        settle(&mut net);
    });
    let record = *net.convergence_records().last().unwrap();
    assert_eq!(
        record.blocks_changed, 1,
        "the block was rebuilt, not reused"
    );
    assert_ne!(cold % CALENDAR_RING, warm % CALENDAR_RING);
    assert!(
        warm % CALENDAR_RING + record.b_rounds + record.c_rounds >= CALENDAR_RING,
        "the arrivals must wrap the ring: rebuild at round {warm}, b {} + c {}",
        record.b_rounds,
        record.c_rounds
    );
    assert_eq!(
        allocs, 0,
        "a warm rebuild wrapping the calendar ring must not allocate"
    );
    assert_eq!(net.nodes_with_visible_info(), distributed);
}
