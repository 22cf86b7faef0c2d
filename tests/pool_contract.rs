//! Contract tests for the persistent worker pool (`lgfi_sim::shard::WorkerPool`)
//! that executes every parallel plane of the simulator: reuse across jobs and
//! engines, width changes mid-run, drop/re-create cycles, panic propagation, and
//! a barrier/generation stress case of thousands of tiny rounds.  The pool's
//! determinism contract (launch-order merge, bit-identical to serial) is covered
//! by the four equivalence suites; this file covers the pool's *lifecycle*.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use lgfi::prelude::*;
use lgfi::sim::{NeighborView, NodeCtx, Protocol, RoundEngine};
use lgfi_sim::{PoolHandle, WorkerPool};

/// A tiny never-settling gossip rule: enough state mixing that any shard-merge
/// or barrier bug changes the fingerprint within a round or two.
struct MixGossip;

impl Protocol for MixGossip {
    type State = u64;

    fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
        (ctx.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }

    fn on_round(&self, _ctx: &NodeCtx<'_>, prev: &u64, neighbors: &[NeighborView<'_, u64>]) -> u64 {
        let mut h = *prev;
        for nb in neighbors {
            if let Some(&s) = nb.state {
                h = h.wrapping_add(s.rotate_right(11));
            }
        }
        h
    }
}

fn gossip_fingerprint(states: &[u64]) -> u64 {
    states
        .iter()
        .fold(0u64, |acc, &s| acc.rotate_left(5) ^ s.wrapping_mul(3))
}

/// Every task index of every generation runs exactly once, across a long
/// sequence of jobs of varying sizes on one persistent pool.
#[test]
fn pool_executes_every_task_across_many_job_shapes() {
    let mut pool = WorkerPool::new(4);
    for count in [0usize, 1, 2, 3, 4, 5, 7, 16, 33, 100] {
        let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
        pool.run(count, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
            "count {count}: every task must run exactly once"
        );
    }
}

/// Thousands of tiny generations on the same pool: exercises the
/// generation-counter barrier under rapid submit/park cycles, where a lost
/// wakeup or a stale-generation read would hang or double-execute.
#[test]
fn pool_survives_thousands_of_tiny_rounds() {
    let mut pool = WorkerPool::new(4);
    let total = AtomicU64::new(0);
    let rounds: u64 = 4_000;
    for round in 0..rounds {
        pool.run(3, |i| {
            total.fetch_add(round.wrapping_mul(3) + i as u64, Ordering::Relaxed);
        });
    }
    // sum over rounds of (3 * 3r + 0 + 1 + 2) = 9r + 3
    let expected: u64 = (0..rounds).map(|r| 9 * r + 3).sum();
    assert_eq!(total.load(Ordering::SeqCst), expected);
}

/// One pool serves interleaved jobs from different "engines" (distinct closure
/// types and captures) without any cross-talk between generations.
#[test]
fn pool_is_reusable_across_different_job_types() {
    let mut pool = WorkerPool::new(3);
    let mut sums = Vec::new();
    let mut buf = vec![0u64; 64];
    for gen in 0..50u64 {
        // Job shape A: strided accumulation into an atomic.
        let acc = AtomicU64::new(0);
        pool.run(8, |i| {
            acc.fetch_add(gen + i as u64, Ordering::Relaxed);
        });
        sums.push(acc.load(Ordering::SeqCst));
        // Job shape B: chunked in-place mutation of a buffer.
        pool.run_chunked(&mut buf, 3, |_, chunk| {
            for v in chunk {
                *v = v.wrapping_add(gen);
            }
        });
    }
    let expected_a: Vec<u64> = (0..50u64).map(|g| 8 * g + 28).collect();
    assert_eq!(sums, expected_a);
    let expected_b: u64 = (0..50u64).sum();
    assert!(buf.iter().all(|&v| v == expected_b));
}

/// Dropping a pool parks and joins its workers; a fresh pool after the drop is
/// fully functional.  Repeated drop/re-create cycles must not leak or wedge.
#[test]
fn pool_drop_and_recreate_cycles_are_clean() {
    for cycle in 0..20usize {
        let mut pool = WorkerPool::new(2 + cycle % 3);
        let acc = AtomicUsize::new(0);
        pool.run(10, |i| {
            acc.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::SeqCst), 55, "cycle {cycle}");
        drop(pool);
    }
}

/// `PoolHandle` spawns lazily, reports the resolved width, and transparently
/// re-creates the pool when the requested width changes mid-run.
#[test]
fn pool_handle_recreates_on_width_change() {
    let mut handle = PoolHandle::new();
    assert_eq!(handle.get(2).width(), 2);
    let acc = AtomicUsize::new(0);
    handle.get(2).run(6, |i| {
        acc.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(acc.load(Ordering::SeqCst), 15);
    // Width change: old workers join, new pool spawns, job still correct.
    assert_eq!(handle.get(5).width(), 5);
    let acc = AtomicUsize::new(0);
    handle.get(5).run(11, |i| {
        acc.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(acc.load(Ordering::SeqCst), 55);
    // Same width: the pool instance is reused, not respawned.
    assert_eq!(handle.get(5).width(), 5);
}

/// A panic inside a worker propagates to the submitting thread with its
/// original payload, the barrier still completes (no deadlock), and the pool
/// stays fully usable for subsequent generations.
#[test]
fn worker_panic_propagates_and_pool_stays_usable() {
    let mut pool = WorkerPool::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.run(16, |i| {
            assert!(i != 9, "task nine exploded");
        });
    }));
    let payload = result.expect_err("the worker panic must propagate to the submitter");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("task nine exploded"),
        "panic payload must carry the original message, got: {msg}"
    );
    // The pool is not poisoned: the next generation runs every task.
    let acc = AtomicUsize::new(0);
    pool.run(16, |i| {
        acc.fetch_add(i, Ordering::Relaxed);
    });
    assert_eq!(acc.load(Ordering::SeqCst), 120);
}

/// An engine changing its thread count mid-run (2 → 4 → 1 → 3) stays
/// bit-identical to a serial run of the same schedule: the handle swaps pools
/// without disturbing the launch-order merge.
#[test]
fn engine_thread_count_changes_mid_run_stay_bit_identical() {
    let mesh = Mesh::new(&[9, 7]);
    let mut serial = RoundEngine::new(mesh.clone(), MixGossip).with_threads(1);
    let mut pooled = RoundEngine::new(mesh, MixGossip).with_threads(2);
    for (phase, threads) in [(0usize, 4usize), (1, 1), (2, 3)] {
        for _ in 0..8 {
            serial.run_round();
            pooled.run_round();
        }
        assert_eq!(
            gossip_fingerprint(serial.states()),
            gossip_fingerprint(pooled.states()),
            "diverged in phase {phase} before switching to {threads} threads"
        );
        pooled.set_threads(threads);
    }
    assert_eq!(serial.states(), pooled.states());
}

/// Two engines with live pools run interleaved rounds without interfering:
/// each owns its own workers, and both match a pair of serial twins.
#[test]
fn interleaved_engines_with_independent_pools_do_not_interfere() {
    let mesh_a = Mesh::new(&[8, 8]);
    let mesh_b = Mesh::new(&[5, 4, 3]);
    let mut serial_a = RoundEngine::new(mesh_a.clone(), MixGossip).with_threads(1);
    let mut serial_b = RoundEngine::new(mesh_b.clone(), MixGossip).with_threads(1);
    let mut pooled_a = RoundEngine::new(mesh_a, MixGossip).with_threads(3);
    let mut pooled_b = RoundEngine::new(mesh_b, MixGossip).with_threads(2);
    for _ in 0..24 {
        serial_a.run_round();
        pooled_a.run_round();
        serial_b.run_round();
        pooled_b.run_round();
    }
    assert_eq!(serial_a.states(), pooled_a.states());
    assert_eq!(serial_b.states(), pooled_b.states());
}

/// The thousands-of-tiny-rounds stress at the engine level: a small mesh where
/// each round is microscopic, so the submit/park cycle dominates and any
/// generation race surfaces as a fingerprint divergence.
#[test]
fn engine_stress_thousands_of_tiny_rounds() {
    let mesh = Mesh::new(&[4, 4]);
    let mut serial = RoundEngine::new(mesh.clone(), MixGossip).with_threads(1);
    let mut pooled = RoundEngine::new(mesh, MixGossip).with_threads(4);
    for _ in 0..3_000 {
        serial.run_round();
        pooled.run_round();
    }
    assert_eq!(serial.states(), pooled.states());
    assert_eq!(
        gossip_fingerprint(serial.states()),
        gossip_fingerprint(pooled.states())
    );
}
