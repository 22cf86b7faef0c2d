//! Epoch coherence of the route-query plane under active churn.
//!
//! The writer thread drives the control plane with a Poisson fail/repair stream,
//! publishing a new epoch per information change, and records every published
//! snapshot (`service.latest()` after each step — the writer is the only
//! publisher, so the history is complete).  Reader threads resolve the query
//! batch continuously, logging `(epoch, source, dest, outcome)` per query: at
//! least [`REPEATS`] times, and on until they have seen the epoch change (the
//! writer may not have been scheduled yet when a reader finishes its repeats).
//!
//! After the pool drains, every logged query is re-resolved **serially** against
//! the recorded snapshot of the epoch the reader had checked out, with a fresh
//! `ProbeEngine` and a fresh router of the same type.  Bit-equality proves the
//! coherence contract: a query started on epoch N completes entirely on epoch N —
//! no torn reads across a concurrent publish.  Each reader's observed epoch
//! sequence must also be monotone non-decreasing.
//!
//! No wall-clock values feed any assertion (DET-002): thread interleaving only
//! decides *which* epoch each query lands on, never what the answer on that
//! epoch is.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::route_service::{EpochSnapshot, RouteReader, RouteService};
use lgfi_core::routing::{LgfiRouter, ProbeEngine, ProbeOutcome, Router};
use lgfi_core::status::NodeStatus;
use lgfi_sim::{batch_ranges, FaultEvent, FaultPlan, WorkerPool};
use lgfi_topology::{Mesh, NodeId};
use lgfi_workloads::{ChurnConfig, ChurnProcess, TrafficGenerator, TrafficPattern};

const MAX_QUERY_STEPS: u64 = 100_000;
const REPEATS: usize = 40;
/// Cap on a reader's repeats while it waits for the writer to publish.
const MAX_REPEATS: usize = 1_000 * REPEATS;

struct QueryLog {
    epoch: u64,
    source: NodeId,
    dest: NodeId,
    outcome: ProbeOutcome,
}

struct ReaderState {
    reader: RouteReader,
    router: Box<dyn Router>,
    lo: usize,
    hi: usize,
    log: Vec<QueryLog>,
    /// Passes over the reader's share of the batch.
    repeats: usize,
}

struct WriterState {
    net: LgfiNetwork,
    churn: ChurnProcess,
    events: Vec<FaultEvent>,
    service: RouteService,
    history: Vec<Arc<EpochSnapshot>>,
}

enum Task {
    // Both variants boxed: the writer carries the whole network and even a
    // reader's engine state is hundreds of bytes, so keep the enum thin.
    Reader(Box<ReaderState>),
    Writer(Box<WriterState>),
}

#[test]
fn concurrent_queries_match_serial_reresolution_on_their_epoch() {
    let mesh = Mesh::cubic(16, 2);
    let mut net = LgfiNetwork::new(mesh.clone(), FaultPlan::empty(), NetworkConfig::default());
    let service = net.route_service();
    let mut churn = ChurnProcess::new(
        mesh.clone(),
        41,
        ChurnConfig {
            fail_rate: 0.2,
            mean_downtime: 40.0,
            max_faulty: 12,
        },
    );
    // Warm the control plane so the readers start on a non-trivial epoch.
    let mut events = Vec::new();
    for _ in 0..100 {
        churn.events_at(net.step(), &mut events);
        net.run_step_with(&events);
    }
    let statuses = net.statuses().to_vec();
    let mut traffic = TrafficGenerator::new(mesh, TrafficPattern::UniformRandom, 43);
    let pairs: Vec<(NodeId, NodeId)> = traffic
        .requests(64, |id| statuses[id] == NodeStatus::Enabled)
        .into_iter()
        .map(|r| (r.source, r.dest))
        .collect();

    let readers = 3usize;
    let mut tasks: Vec<Task> = Vec::new();
    for range in batch_ranges(pairs.len(), readers) {
        tasks.push(Task::Reader(Box::new(ReaderState {
            reader: service.reader(),
            router: Box::new(LgfiRouter::new()),
            lo: range.start,
            hi: range.end,
            log: Vec::new(),
            repeats: 0,
        })));
    }
    tasks.push(Task::Writer(Box::new(WriterState {
        net,
        churn,
        events: Vec::new(),
        service: service.clone(),
        // The pre-measurement snapshot: readers may still hold it.
        history: vec![service.latest()],
    })));

    let active_readers = AtomicUsize::new(readers);
    let chunks = tasks.len();
    let mut pool = WorkerPool::new(chunks);
    pool.run_chunked(&mut tasks, chunks, |_, chunk| match &mut chunk[0] {
        Task::Reader(r) => {
            let mut first_epoch = None;
            let mut saw_change = false;
            while r.repeats < REPEATS || (!saw_change && r.repeats < MAX_REPEATS) {
                for &(source, dest) in &pairs[r.lo..r.hi] {
                    let q = r.reader.resolve(&*r.router, source, dest, MAX_QUERY_STEPS);
                    saw_change |= q.epoch != *first_epoch.get_or_insert(q.epoch);
                    r.log.push(QueryLog {
                        epoch: q.epoch,
                        source,
                        dest,
                        outcome: q.outcome,
                    });
                }
                r.repeats += 1;
            }
            active_readers.fetch_sub(1, Ordering::Release);
        }
        Task::Writer(w) => {
            // The writer is the sole publisher, so polling `latest()` after every
            // step (the epoch advances at most once per step) records every
            // snapshot any reader can ever have checked out.
            let mut steps = 0u64;
            while active_readers.load(Ordering::Acquire) > 0 && steps < 50_000_000 {
                w.events.clear();
                w.churn.events_at(w.net.step(), &mut w.events);
                let events = std::mem::take(&mut w.events);
                w.net.run_step_with(&events);
                w.events = events;
                let snap = w.service.latest();
                if snap.epoch() != w.history.last().expect("seeded").epoch() {
                    w.history.push(snap);
                }
                steps += 1;
            }
        }
    });

    // Index the complete epoch history, then serially re-resolve every logged
    // query against the snapshot its reader had checked out.
    let mut by_epoch: HashMap<u64, Arc<EpochSnapshot>> = HashMap::new();
    let mut logs: Vec<Vec<QueryLog>> = Vec::new();
    let mut expected_queries = 0usize;
    for task in tasks {
        match task {
            Task::Writer(w) => {
                assert!(
                    w.history.windows(2).all(|p| p[0].epoch() < p[1].epoch()),
                    "writer-recorded epochs must be strictly increasing"
                );
                for snap in w.history {
                    by_epoch.insert(snap.epoch(), snap);
                }
            }
            Task::Reader(r) => {
                assert!(r.repeats >= REPEATS, "a reader stopped early");
                expected_queries += r.repeats * (r.hi - r.lo);
                logs.push(r.log);
            }
        }
    }
    let observed: std::collections::BTreeSet<u64> =
        logs.iter().flatten().map(|q| q.epoch).collect();
    assert!(
        observed.len() >= 2,
        "churn must publish while readers run (observed epochs: {observed:?})"
    );

    let mut engine = ProbeEngine::new();
    let router = LgfiRouter::new();
    let mut replayed = 0u64;
    for log in &logs {
        let mut last_epoch = 0u64;
        for q in log {
            assert!(
                q.epoch >= last_epoch,
                "a reader observed a non-monotone epoch sequence: {} after {last_epoch}",
                q.epoch
            );
            last_epoch = q.epoch;
            let snap = by_epoch
                .get(&q.epoch)
                .unwrap_or_else(|| panic!("reader used epoch {} missing from history", q.epoch));
            let serial = engine.route(
                snap.mesh(),
                &snap.env(),
                &router,
                q.source,
                q.dest,
                MAX_QUERY_STEPS,
            );
            assert_eq!(
                serial, q.outcome,
                "query {}->{} on epoch {} tore across a publish",
                q.source, q.dest, q.epoch
            );
            replayed += 1;
        }
    }
    assert_eq!(
        replayed as usize, expected_queries,
        "every reader must have resolved (and replayed) its full share of the batch"
    );
}
