//! Allocation-regression guard for the incremental control plane.
//!
//! Once a rebuild has scheduled a block's boundary entries, the information
//! reaches the boundary nodes one round at a time.  Each of those steps pops the
//! visibility transitions that came due and rewrites only those nodes' arena
//! slots, cloning into the slots in place.  This test installs a counting global
//! allocator and proves that such steps perform **zero heap allocations**, even
//! though the visible information changes at every one of them.  So do the steps
//! between a fault burst and its rebuild, which only advance the labeling by one
//! round each: the round engine's buffers and statistics stay at their warm size.
//!
//! Everything runs inside a single `#[test]` because the allocation counter is
//! process-global and the libtest harness runs separate tests on separate threads.

// The counting allocator is the one sanctioned use of `unsafe` in this workspace
// (see the lint note in the root Cargo.toml): `GlobalAlloc` cannot be implemented
// without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_sim::{FaultEvent, FaultPlan};
use lgfi_topology::{coord, Coord, Mesh};

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

/// Runs `f` with the counter armed and returns the number of allocator calls it
/// made.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
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
