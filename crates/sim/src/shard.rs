//! Slab partitioning and the persistent worker pool for sharded parallel execution.
//!
//! The round-synchronous engines split the mesh into **contiguous slabs along the
//! highest-stride dimension** (dimension 0 of the row-major node-id layout): a slab is
//! a run of whole dimension-0 hyperplanes, so every shard is a contiguous node-id
//! range and all cross-shard neighbor links cross exactly one slab boundary.  Workers
//! read the shared previous-round state (the "halo" exchange is implicit in the
//! double buffer) and the per-shard results are merged at the round barrier in shard
//! order, which keeps parallel execution **bit-identical** to serial execution.
//!
//! Parallel execution itself goes through [`WorkerPool`]: a set of worker threads
//! spawned once and parked on a condvar between jobs, woken by a generation-counter
//! barrier.  This is the **only** place in the workspace that touches
//! `std::thread` (enforced by `lgfi-audit` lint DET-003) and the only sanctioned
//! user of `unsafe` (lifetime-erased job pointers and disjoint slice hand-off; see
//! the lint note in the root `Cargo.toml`).  A warm [`WorkerPool::run`] call
//! performs no heap allocations, which extends the zero-allocation contract of
//! `tests/alloc_regression.rs` to warm parallel rounds.

use std::any::Any;
use std::fmt;
use std::mem;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use lgfi_topology::Mesh;

/// Resolves a requested worker count: `0` means "one worker per available core",
/// anything else is used as-is (a minimum of one worker is always returned).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Partitions `0..node_count` into at most `threads` contiguous shards whose
/// boundaries are aligned to multiples of `slab_width` (the number of nodes in one
/// dimension-0 hyperplane, i.e. the highest stride of the row-major layout).
///
/// Slabs are distributed as evenly as possible; if there are fewer slabs than
/// requested workers, fewer (larger-grained) shards are returned, so empty shards are
/// never produced.  The ranges cover `0..node_count` exactly, in ascending order.
///
/// # Panics
/// Panics if `slab_width` is zero or does not divide `node_count`.
pub fn shard_ranges(node_count: usize, slab_width: usize, threads: usize) -> Vec<Range<usize>> {
    assert!(slab_width > 0, "slab width must be positive");
    assert_eq!(
        node_count % slab_width,
        0,
        "slab width must divide the node count"
    );
    if node_count == 0 {
        return Vec::new();
    }
    let slabs = node_count / slab_width;
    let shards = threads.max(1).min(slabs);
    let base = slabs / shards;
    let extra = slabs % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start_slab = 0usize;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        let end_slab = start_slab + len;
        ranges.push(start_slab * slab_width..end_slab * slab_width);
        start_slab = end_slab;
    }
    ranges
}

/// Partitions `0..len` independent work items (e.g. the probes of a batched routing
/// sweep) into at most `threads` contiguous, non-empty, ascending ranges.
///
/// Unlike [`shard_ranges`] there is no slab alignment: the items carry no spatial
/// adjacency, so an even split is always legal.  Because the ranges are contiguous
/// and ascending, concatenating per-range results in range order reproduces the
/// serial (input-order) result exactly — the merge rule batched sweeps rely on for
/// bit-identical parallel execution.
pub fn batch_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    shard_ranges(len, 1, threads)
}

/// The slab width of a mesh: the number of nodes in one dimension-0 hyperplane,
/// i.e. the highest stride of the row-major node-id layout.  Shard boundaries
/// aligned to this width are whole hyperplanes, so every cross-shard neighbor link
/// crosses exactly one slab boundary.
pub fn slab_width(mesh: &Mesh) -> usize {
    mesh.node_count() / mesh.dims()[0] as usize
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A submitted job: a lifetime-erased pointer to the caller's shard closure.
///
/// The pointee lives on the submitting stack frame; [`WorkerPool::run`] blocks
/// until every worker has finished the generation, so the pointer never outlives
/// the closure it points at.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many workers are legal) and
// `run` keeps it alive until every worker has reported completion of the
// generation — after the last possible dereference.
#[allow(unsafe_code)] // sanctioned: lifetime-erased job hand-off, see `Job` docs
unsafe impl Send for Job {}

/// Barrier state shared between the submitting thread and the workers.
struct PoolState {
    /// Bumped once per submitted job; workers wake when it moves.
    generation: u64,
    /// The job of the generation in flight, if any.
    job: Option<Job>,
    /// Number of task indices in the current generation.
    tasks: usize,
    /// Workers that have finished the current generation.
    finished: usize,
    /// First panic payload caught this generation, if any.
    panic: Option<Box<dyn Any + Send>>,
    /// Set on drop: workers exit instead of waiting for another generation.
    shutdown: bool,
}

/// The condvar pair workers park on: `work` wakes workers for a new
/// generation (or shutdown), `done` wakes the submitter at the barrier.
struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// Locks the pool mutex, ignoring poisoning: user closures run outside the
/// lock under `catch_unwind`, so the barrier bookkeeping is never left
/// half-updated and a poisoned flag carries no information.
fn lock(state: &Mutex<PoolState>) -> MutexGuard<'_, PoolState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poisoning policy as [`lock`].
fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// The body of worker `worker` of a pool of `width` workers: park on `work`,
/// execute the worker's strided share of each published generation, report
/// completion at the barrier, repeat until shutdown.
fn worker_loop(shared: &PoolShared, worker: usize, width: usize) {
    let mut seen = 0u64;
    loop {
        let (generation, job, tasks) = {
            let mut st = lock(&shared.state);
            while st.generation == seen && !st.shutdown {
                st = wait(&shared.work, st);
            }
            if st.generation == seen {
                return; // shutdown, no generation pending
            }
            (st.generation, st.job.as_ref().map(|j| j.0), st.tasks)
        };
        seen = generation;
        // One `catch_unwind` wraps the whole stride: the first panic of the
        // generation is recorded and re-raised on the submitting thread, and
        // the barrier still completes, so the pool stays usable afterwards.
        let result = job.map(|ptr| {
            // SAFETY: `run` publishes the pointer under the lock and does not
            // return (so the pointee stays alive) until `finished == width`,
            // which this worker contributes to only after its last dereference.
            #[allow(unsafe_code)] // sanctioned: see the SAFETY comment above
            let f = unsafe { &*ptr };
            catch_unwind(AssertUnwindSafe(|| {
                let mut i = worker;
                while i < tasks {
                    f(i);
                    i += width;
                }
            }))
        });
        let mut st = lock(&shared.state);
        if let Some(Err(payload)) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.finished += 1;
        if st.finished == width {
            shared.done.notify_all();
        }
    }
}

/// The raw parts of a mutable slice, shareable across pool workers.
///
/// Workers reborrow *disjoint* sub-ranges (each task index is claimed by
/// exactly one worker per generation), which is what makes handing the same
/// base pointer to all of them sound; the safe [`WorkerPool`] entry points
/// validate the disjointness before any worker runs.
struct SliceParts<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for SliceParts<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SliceParts<T> {}

// SAFETY: sharing the parts across workers is sound because every element is
// mutated by at most one worker per generation (disjoint ranges, validated by
// the safe entry points) and `T: Send` permits the cross-thread access.
#[allow(unsafe_code)] // sanctioned: disjoint-range slice hand-off, see above
unsafe impl<T: Send> Sync for SliceParts<T> {}

impl<T> SliceParts<T> {
    fn new(items: &mut [T]) -> Self {
        SliceParts {
            ptr: items.as_mut_ptr(),
            len: items.len(),
        }
    }

    /// Reborrows `range` of the underlying slice mutably.
    ///
    /// SAFETY contract: `range` must be in bounds and no other live borrow
    /// (on any thread) may overlap it.
    // The `&self` → `&mut` reborrow is the whole point of this type: each
    // worker derives its own disjoint `&mut` from the shared parts.
    #[allow(clippy::mut_from_ref)]
    #[allow(unsafe_code)] // sanctioned: see the SAFETY contract above
    unsafe fn slice(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }
}

/// A persistent pool of parked worker threads executing indexed shard jobs.
///
/// Workers are spawned once, at construction, and parked on a condvar between
/// jobs.  Each [`WorkerPool::run`] call publishes one **generation** — a shard
/// closure plus a task count — under the pool mutex, bumps the generation
/// counter, wakes the workers, and blocks until all of them have passed the
/// completion barrier.  A warm `run` call performs **no heap allocations** on
/// either side: the job crosses as a lifetime-erased pointer and the std
/// mutex/condvars are futex-based.  That is what extends the zero-allocation
/// round contract (`tests/alloc_regression.rs`) to warm parallel rounds.
///
/// Determinism: `run(count, f)` calls `f(i)` exactly once for every
/// `i < count`, from unspecified workers in unspecified order.  Callers keep
/// the launch-order-merge contract by giving each task index its own disjoint
/// output slot and merging the slots in index order after `run` returns —
/// the [`WorkerPool::run_sharded`]-family entry points enforce exactly that
/// shape, so parallel execution stays bit-identical to serial.
///
/// A panic inside `f` is caught on the worker, the barrier still completes,
/// and the first payload is re-raised on the submitting thread; the pool
/// remains usable afterwards.
pub struct WorkerPool {
    width: usize,
    shared: Option<Arc<PoolShared>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with [`resolve_threads`]`(requested)` workers — the
    /// worker count is resolved **once**, here, not per job.  Width 1 is the
    /// serial pool: no threads are spawned and jobs run inline.
    pub fn new(requested: usize) -> Self {
        let width = resolve_threads(requested);
        if width <= 1 {
            return WorkerPool {
                width: 1,
                shared: None,
                handles: Vec::new(),
            };
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                tasks: 0,
                finished: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..width)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker, width))
            })
            .collect();
        WorkerPool {
            width,
            shared: Some(shared),
            handles,
        }
    }

    /// The resolved worker count (1 = serial: no threads were spawned).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Executes `f(0) ..= f(count - 1)`, each exactly once, and returns when
    /// all calls have completed.  See the type docs for the determinism and
    /// panic contracts.  Jobs with `count <= 1` (and every job on a width-1
    /// pool) run inline on the submitting thread.
    pub fn run<F: Fn(usize) + Sync>(&mut self, count: usize, f: F) {
        if count == 0 {
            return;
        }
        let shared = match self.shared.as_ref() {
            Some(shared) if count > 1 => shared,
            _ => {
                for i in 0..count {
                    f(i);
                }
                return;
            }
        };
        let ptr: *const (dyn Fn(usize) + Sync) = &f;
        // SAFETY of the lifetime erasure: the pointee (`f`, on this stack
        // frame) outlives the generation because this function does not return
        // until every worker has reported `finished` — after its last
        // dereference.  The transmute only widens the trait-object lifetime.
        #[allow(unsafe_code)] // sanctioned: lifetime-erased job hand-off
        let job = Job(unsafe {
            mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(ptr)
        });
        {
            let mut st = lock(&shared.state);
            st.job = Some(job);
            st.tasks = count;
            st.finished = 0;
            st.generation = st.generation.wrapping_add(1);
            shared.work.notify_all();
        }
        let payload = {
            let mut st = lock(&shared.state);
            while st.finished < self.width {
                st = wait(&shared.done, st);
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Splits `items` into at most `chunks` contiguous, [`batch_ranges`]-shaped
    /// chunks and calls `f(chunk_index, chunk)` for each on the pool.
    /// Concatenating per-chunk results in chunk order reproduces the serial
    /// input order — the launch-order-merge rule batched sweeps rely on.
    pub fn run_chunked<T: Send>(
        &mut self,
        items: &mut [T],
        chunks: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let len = items.len();
        let chunks = chunks.max(1).min(len);
        if chunks == 0 {
            return;
        }
        let parts = SliceParts::new(items);
        let base = len / chunks;
        let extra = len % chunks;
        self.run(chunks, |i| {
            let start = i * base + i.min(extra);
            let end = start + base + usize::from(i < extra);
            // SAFETY: chunk `i` is exactly `batch_ranges(len, chunks)[i]`; the
            // ranges are disjoint and in bounds, and each task index runs
            // exactly once per generation.
            #[allow(unsafe_code)] // sanctioned: disjoint chunks, see above
            let chunk = unsafe { parts.slice(start..end) };
            f(i, chunk);
        });
    }

    /// Like [`WorkerPool::run_chunked`], with one `&mut` scratch slot per
    /// chunk: chunk `i` runs as `f(i, chunk, &mut scratch[i])`.  The chunk
    /// count is `scratch.len().min(items.len())`, so callers size `scratch`
    /// to the worker count they want.
    pub fn run_chunked_with<T: Send, W: Send>(
        &mut self,
        items: &mut [T],
        scratch: &mut [W],
        f: impl Fn(usize, &mut [T], &mut W) + Sync,
    ) {
        let len = items.len();
        let chunks = scratch.len().min(len);
        if chunks == 0 {
            return;
        }
        let parts = SliceParts::new(items);
        let scratch_parts = SliceParts::new(scratch);
        let base = len / chunks;
        let extra = len % chunks;
        self.run(chunks, |i| {
            let start = i * base + i.min(extra);
            let end = start + base + usize::from(i < extra);
            // SAFETY: disjoint chunks as in `run_chunked`, plus a unique
            // scratch slot per task index.
            #[allow(unsafe_code)] // sanctioned: disjoint ranges, see above
            let (chunk, ws) = unsafe {
                (
                    parts.slice(start..end),
                    &mut scratch_parts.slice(i..i + 1)[0],
                )
            };
            f(i, chunk, ws);
        });
    }

    /// Runs one job per shard of `buf`: shard `i` — the range `shards[i]`, as
    /// produced by [`shard_ranges`] — runs as
    /// `f(i, shards[i].start, &mut buf[shards[i]], &mut scratch[i])`.
    /// Merging the per-shard scratch in shard order after the call reproduces
    /// the serial result exactly (launch-order merge).
    ///
    /// # Panics
    /// Panics if the shards are not contiguous ascending from 0 covering
    /// `buf` exactly, or if `scratch` is shorter than `shards`.
    pub fn run_sharded<T: Send, W: Send>(
        &mut self,
        buf: &mut [T],
        shards: &[Range<usize>],
        scratch: &mut [W],
        f: impl Fn(usize, usize, &mut [T], &mut W) + Sync,
    ) {
        let mut consumed = 0usize;
        for range in shards {
            assert_eq!(range.start, consumed, "shards must be contiguous from 0");
            consumed = range.end;
        }
        assert_eq!(consumed, buf.len(), "shards must cover the whole buffer");
        assert!(scratch.len() >= shards.len(), "one scratch slot per shard");
        if shards.is_empty() {
            return;
        }
        let parts = SliceParts::new(buf);
        let scratch_parts = SliceParts::new(scratch);
        self.run(shards.len(), |i| {
            let range = shards[i].clone();
            // SAFETY: the ranges were validated disjoint and in bounds above,
            // and each task index (= scratch slot) runs exactly once.
            #[allow(unsafe_code)] // sanctioned: disjoint shards, see above
            let (slab, ws) = unsafe {
                (
                    parts.slice(range.clone()),
                    &mut scratch_parts.slice(i..i + 1)[0],
                )
            };
            f(i, range.start, slab, ws);
        });
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            {
                let mut st = lock(&shared.state);
                st.shutdown = true;
                shared.work.notify_all();
            }
            for handle in self.handles.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

/// A lazily-created, recreate-on-resize slot for an engine's [`WorkerPool`].
///
/// Engines embed a handle instead of a pool so that (a) serial engines never
/// spawn a thread — the pool is created on the first parallel call, (b) a
/// thread-count change just drops the old pool and spawns a fresh one on the
/// next call, and (c) engines stay `Clone`/`Debug`: pools are never shared, so
/// a cloned engine starts with an empty handle and spawns its own workers on
/// first use.
pub struct PoolHandle {
    pool: Option<WorkerPool>,
}

impl PoolHandle {
    /// An empty handle: no threads are spawned until the first [`PoolHandle::get`].
    pub const fn new() -> Self {
        PoolHandle { pool: None }
    }

    /// Returns the pool for `requested` workers (0 resolves via
    /// [`resolve_threads`]), creating it lazily and re-creating it if the
    /// resolved width changed since the last call.
    pub fn get(&mut self, requested: usize) -> &mut WorkerPool {
        let width = resolve_threads(requested);
        if self.pool.as_ref().is_some_and(|p| p.width() != width) {
            self.pool = None;
        }
        self.pool.get_or_insert_with(|| WorkerPool::new(width))
    }
}

impl Default for PoolHandle {
    fn default() -> Self {
        PoolHandle::new()
    }
}

/// Cloning an engine must not share its worker pool, so a cloned handle is
/// empty and spawns its own workers on first use.
impl Clone for PoolHandle {
    fn clone(&self) -> Self {
        PoolHandle::new()
    }
}

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.pool {
            Some(pool) => f.debug_tuple("PoolHandle").field(pool).finish(),
            None => f.write_str("PoolHandle(idle)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ranges_cover_everything_contiguously() {
        for (n, slab, threads) in [
            (100, 10, 4),
            (100, 10, 3),
            (64, 8, 8),
            (64, 8, 16),
            (12, 4, 1),
            (7, 1, 2),
        ] {
            let ranges = shard_ranges(n, slab, threads);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= threads.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
            }
            for r in &ranges {
                assert_eq!(r.start % slab, 0, "shard start must be slab-aligned");
                assert!(!r.is_empty(), "no empty shards");
            }
        }
    }

    #[test]
    fn more_threads_than_slabs_collapses_to_one_shard_per_slab() {
        let ranges = shard_ranges(30, 10, 16);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges, vec![0..10, 10..20, 20..30]);
    }

    #[test]
    fn slab_distribution_is_balanced() {
        // 10 slabs over 4 shards -> 3, 3, 2, 2 slabs.
        let ranges = shard_ranges(40, 4, 4);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes, vec![12, 12, 8, 8]);
    }

    #[test]
    fn empty_mesh_yields_no_shards() {
        assert!(shard_ranges(0, 1, 4).is_empty());
    }

    #[test]
    fn resolve_zero_uses_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(6), 6);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn misaligned_slab_width_panics() {
        shard_ranges(10, 3, 2);
    }

    #[test]
    fn slab_width_is_the_highest_stride() {
        assert_eq!(slab_width(&Mesh::new(&[4, 5, 6])), 30);
        assert_eq!(slab_width(&Mesh::new(&[7])), 1);
        assert_eq!(slab_width(&Mesh::cubic(64, 2)), 64);
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        for width in [1usize, 2, 3, 8] {
            let mut pool = WorkerPool::new(width);
            assert_eq!(pool.width(), width);
            for count in [0usize, 1, 2, 7, 64] {
                let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
                pool.run(count, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "width {width} count {count}"
                );
            }
        }
    }

    #[test]
    fn pool_run_chunked_matches_batch_ranges() {
        let mut pool = WorkerPool::new(3);
        for len in [1usize, 2, 5, 17] {
            for chunks in [1usize, 2, 3, 8] {
                let mut items: Vec<usize> = vec![usize::MAX; len];
                pool.run_chunked(&mut items, chunks, |c, chunk| {
                    for slot in chunk {
                        *slot = c;
                    }
                });
                let expect = batch_ranges(len, chunks);
                for (c, range) in expect.iter().enumerate() {
                    assert!(
                        items[range.clone()].iter().all(|&v| v == c),
                        "len {len} chunks {chunks}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_run_sharded_hands_out_slabs_and_scratch() {
        let mut pool = WorkerPool::new(4);
        let shards = shard_ranges(12, 2, 3);
        let mut buf: Vec<u32> = (0..12).collect();
        let mut scratch = vec![0u32; shards.len()];
        pool.run_sharded(&mut buf, &shards, &mut scratch, |i, base, slab, ws| {
            assert_eq!(slab[0], base as u32, "slab starts at its shard base");
            for v in slab.iter_mut() {
                *v += 100;
            }
            *ws = i as u32 + 1;
        });
        assert_eq!(buf, (100..112).collect::<Vec<u32>>());
        assert_eq!(scratch, vec![1, 2, 3]);
    }

    #[test]
    fn pool_panic_propagates_and_pool_stays_usable() {
        let mut pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                assert!(i != 5, "task five fails");
            });
        }));
        assert!(caught.is_err(), "worker panic must reach the submitter");
        // The barrier completed despite the panic; the next generation works.
        let sum = AtomicUsize::new(0);
        pool.run(16, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn pool_handle_is_lazy_and_resizes() {
        let mut handle = PoolHandle::new();
        assert_eq!(format!("{handle:?}"), "PoolHandle(idle)");
        assert_eq!(handle.get(2).width(), 2);
        assert_eq!(handle.get(2).width(), 2);
        // Width change drops the old pool and spawns a fresh one.
        assert_eq!(handle.get(3).width(), 3);
        // 0 resolves once, at construction.
        let resolved = resolve_threads(0);
        assert_eq!(handle.get(0).width(), resolved);
        // Clones never share workers.
        let clone = handle.clone();
        assert_eq!(format!("{clone:?}"), "PoolHandle(idle)");
    }
}
