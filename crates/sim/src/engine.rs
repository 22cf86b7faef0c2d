//! The round-synchronous protocol engine.
//!
//! A [`Protocol`] is a purely local rule: in every round each non-faulty node computes
//! its next state from (a) its previous state, (b) a view of each neighbor — either
//! the neighbor's previous state or the fact that the neighbor is faulty — and (c) the
//! messages delivered to it this round; it may also emit messages to neighbors, which
//! are delivered **in the next round** (one hop per round, as required by the paper's
//! information model).
//!
//! The [`RoundEngine`] executes a protocol over a [`Mesh`], double-buffering node
//! states so that every update within a round reads only previous-round information —
//! exactly the "rounds of status exchanges among neighbors" of Algorithm 1 and the
//! hop-by-hop message propagation of Algorithm 2.
//!
//! # Round data plane
//!
//! The engine owns every buffer the hot round loop touches, so steady-state rounds
//! perform **zero heap allocations** (asserted by `tests/alloc_regression.rs`):
//!
//! * node states live in two persistent buffers; evaluated nodes stage their next
//!   state in the back buffer and the round barrier swaps only the changed entries;
//! * mailboxes are a CSR-style flat arena — one `Vec<Msg>` plus a per-node offset
//!   table — rebuilt at the barrier from the round's send list with a stable
//!   group-by-recipient pass, so every mailbox keeps the exact serial arrival order
//!   (ascending sender id);
//! * neighbor views are built in a fixed-capacity stack array of
//!   [`MAX_STACK_NEIGHBORS`] entries, which covers every mesh
//!   ([`Mesh::new`] admits at most [`MAX_DIMS`] dimensions), and the per-node
//!   [`Outbox`] is recycled across nodes and rounds;
//! * round statistics ([`EngineStats`]) are running totals, so recording a round
//!   never allocates and a long-lived engine stays the same size.
//!
//! # Active-frontier scheduling
//!
//! A protocol may opt into [`Protocol::ROUND_INVARIANT`]: the promise that its rule
//! is a pure stencil of the previous state, the neighbor views and the inbox — it
//! never reads `ctx.round` — and that a node whose inputs are unchanged from the
//! previous round recomputes its current state and sends nothing.  Under that
//! contract the engine tracks a **dirty set** (nodes whose state or neighborhood
//! changed, or whose inbox is non-empty this round or was non-empty last round —
//! the drain transition is itself an input change) and evaluates only those
//! frontier nodes, making post-convergence
//! rounds O(frontier) instead of O(n) while producing bit-identical states, change
//! counts and messages.  A fresh engine seeds the set in one pass over the mesh with
//! the nodes whose first evaluation would change their state or send a message, so a
//! protocol whose initial configuration is already a fixpoint (the all-enabled
//! labeling of Algorithm 1) starts with an empty frontier.
//! [`RoundEngine::set_frontier`] can force full evaluation for comparison; the knob
//! never changes results.
//!
//! # Parallel execution
//!
//! Because every round reads only previous-round data, the engine can execute rounds
//! in parallel without changing protocol semantics: [`RoundEngine::set_threads`]
//! partitions the mesh into contiguous slabs along the highest-stride dimension (see
//! [`crate::shard`]) and gives each slab to a worker of the engine's persistent
//! [`WorkerPool`](crate::shard::WorkerPool) (spawned lazily on the first parallel
//! round, parked on a generation barrier between rounds).
//! Workers read the shared previous-round state (the halo exchange is implicit in the
//! double buffer) and write their staged states into disjoint regions of the shared
//! back buffer; their send lists are merged at the round barrier in shard order,
//! which preserves the exact serial per-mailbox message order.  Parallel runs are
//! therefore **bit-identical** to serial runs for any protocol — parallelism is an
//! execution detail, not a semantics change, and it composes with active-frontier
//! scheduling (each worker evaluates the frontier slice of its own slab).  Shard
//! ranges are computed once per [`RoundEngine::set_threads`] call and the per-shard
//! scratch is owned by the engine, so warm parallel rounds stay allocation-free.

use std::ops::Range;

use lgfi_topology::coord::MAX_DIMS;
use lgfi_topology::{Coord, Direction, Mesh, NodeId};

use crate::shard::{resolve_threads, shard_ranges, slab_width, PoolHandle};
use crate::stats::{EngineStats, RoundStats};

/// Capacity of the stack-allocated neighbor-view scratch: the `2n` neighbors of a
/// node in a mesh of the largest admitted dimensionality, [`MAX_DIMS`].
pub const MAX_STACK_NEIGHBORS: usize = 2 * MAX_DIMS;

/// What a node can see of one of its neighbors during a round.
#[derive(Debug)]
pub struct NeighborView<'a, S> {
    /// Direction from the current node towards this neighbor.
    pub dir: Direction,
    /// The neighbor's node id.
    pub id: NodeId,
    /// The neighbor's previous-round state; `None` iff the neighbor is currently
    /// faulty (detected at the fault-detection phase of the enclosing step).
    pub state: Option<&'a S>,
}

/// Static per-node context handed to the protocol.
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// The mesh the protocol runs on.
    pub mesh: &'a Mesh,
    /// The node executing the rule.
    pub id: NodeId,
    /// The current round number (0-based, monotonically increasing across steps).
    pub round: u64,
}

impl<'a> NodeCtx<'a> {
    /// Coordinate of the executing node.
    pub fn coord(&self) -> Coord {
        self.mesh.coord_of(self.id)
    }
}

/// Collects the messages a node sends during a round; they are delivered to the
/// addressed neighbors at the beginning of the next round.  The engine recycles one
/// outbox per worker across nodes and rounds, so sending never allocates once the
/// high-water capacity is reached.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Outbox { msgs: Vec::new() }
    }

    /// Sends a message to the neighbor `to` (one hop away; delivered next round).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Number of messages queued so far this round.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing has been sent.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// A synchronous, purely local protocol rule.
///
/// The rule must be a pure function of its inputs, and states/messages are plain data
/// (`Send + Sync`), so the engine may evaluate different nodes of the same round on
/// different worker threads; see the module docs on parallel execution.
pub trait Protocol: Sync {
    /// Per-node protocol state.
    type State: Clone + PartialEq + Send + Sync;
    /// Messages exchanged between neighbors (`Sync` because shard workers read
    /// disjoint slices of the shared mailbox arena).
    type Msg: Clone + Send + Sync;

    /// Opt-in contract for active-frontier scheduling (see the module docs): the rule
    /// is a pure stencil of `(prev, neighbors, inbox)` — it never reads `ctx.round` —
    /// and a node whose inputs are unchanged from the previous round recomputes its
    /// current state and sends no messages.  When `true` the engine may skip nodes
    /// outside the dirty frontier with bit-identical results; protocols that read the
    /// round number or re-send messages while quiescent must leave this `false`.
    const ROUND_INVARIANT: bool = false;

    /// The initial state of node `ctx.id`.
    fn init(&self, ctx: &NodeCtx<'_>) -> Self::State;

    /// Computes the next state of a non-faulty node.
    ///
    /// `prev` is the node's previous state, `neighbors` the views of all in-mesh
    /// neighbors, `inbox` the messages delivered this round, and `outbox` the channel
    /// for messages to be delivered next round.
    fn on_round(
        &self,
        ctx: &NodeCtx<'_>,
        prev: &Self::State,
        neighbors: &[NeighborView<'_, Self::State>],
        inbox: &[Self::Msg],
        outbox: &mut Outbox<Self::Msg>,
    ) -> Self::State;
}

/// Reusable per-worker evaluation scratch: the recycled outbox, the round's send
/// list (recipient, message) in sender order, and the ids whose state changed.
struct WorkerScratch<P: Protocol> {
    outbox: Outbox<P::Msg>,
    /// `(recipient, Some(message))` per send; the message is `take`n when the arena
    /// is built, which lets the barrier move messages out by sorted position without
    /// cloning.
    sends: Vec<(NodeId, Option<P::Msg>)>,
    changed: Vec<NodeId>,
    evaluated: u64,
    messages: u64,
}

impl<P: Protocol> WorkerScratch<P> {
    fn new() -> Self {
        WorkerScratch {
            outbox: Outbox::new(),
            sends: Vec::new(),
            changed: Vec::new(),
            evaluated: 0,
            messages: 0,
        }
    }
}

/// All reusable round buffers owned by the engine (never reallocated in steady
/// state; capacities grow to the run's high-water mark and stay there).
struct RoundScratch<P: Protocol> {
    /// Serial-path evaluation scratch (also the merge target in sharded rounds).
    main: WorkerScratch<P>,
    /// Packed `(recipient << 32) | position` keys of the send list while grouping
    /// messages by recipient (sorting plain integers is substantially faster than
    /// sorting positions with an indirect key load).
    order: Vec<u64>,
    /// The back buffer of the mailbox arena being built for the next round.
    next_inbox_data: Vec<P::Msg>,
    /// The offset table of the arena being built (length `n + 1`).
    next_inbox_off: Vec<usize>,
    /// Deduplicated recipients of the *current* inbox arena.  A node whose inbox is
    /// drained this round has different inputs next round (non-empty → empty), so the
    /// frontier must re-evaluate it once more even if nothing else changed.
    arena_recipients: Vec<NodeId>,
    /// One evaluation scratch per shard worker (sharded rounds only).
    workers: Vec<WorkerScratch<P>>,
}

/// Executes a [`Protocol`] over a mesh in synchronous rounds.
pub struct RoundEngine<P: Protocol> {
    mesh: Mesh,
    protocol: P,
    /// Previous-round (committed) state per node.
    states: Vec<P::State>,
    /// The staging double buffer: evaluated nodes whose state changes write here and
    /// the round barrier swaps the changed entries into `states`.
    next_states: Vec<P::State>,
    /// Faulty flag per node.
    faulty: Vec<bool>,
    /// Flat neighbor cache: `(direction, neighbor id)` pairs for node `i` live at
    /// `nbr_data[nbr_off[i]..nbr_off[i + 1]]`.
    nbr_data: Vec<(Direction, NodeId)>,
    nbr_off: Vec<usize>,
    /// CSR mailbox arena holding the messages deliverable in the next executed round:
    /// node `i`'s inbox is `inbox_data[inbox_off[i]..inbox_off[i + 1]]` (the offset
    /// table is only meaningful while `inbox_data` is non-empty).
    inbox_data: Vec<P::Msg>,
    inbox_off: Vec<usize>,
    /// Messages injected from outside the protocol ([`RoundEngine::post`]) since the
    /// last round; merged into the arena when the next round starts.
    external: Vec<(NodeId, P::Msg)>,
    /// Reusable round buffers.
    scratch: RoundScratch<P>,
    /// Dirty nodes pending evaluation (kept consistent with `dirty_flag`); only
    /// maintained for `ROUND_INVARIANT` protocols.
    frontier: Vec<NodeId>,
    dirty_flag: Vec<bool>,
    /// The frontier knob: when false the engine evaluates every node even for
    /// `ROUND_INVARIANT` protocols (results are bit-identical either way).
    frontier_requested: bool,
    round: u64,
    stats: EngineStats,
    /// Number of worker threads for round execution (1 = serial), resolved once in
    /// [`RoundEngine::set_threads`].
    threads: usize,
    /// The shard ranges parallel rounds execute over; recomputed only when the
    /// thread count changes, so warm rounds never re-partition (or allocate).
    shards: Vec<Range<usize>>,
    /// The engine's persistent worker pool (workers spawn lazily on the first
    /// parallel round and park between rounds).
    pool: PoolHandle,
}

impl<P: Protocol> RoundEngine<P> {
    /// Creates an engine with every node non-faulty and in its initial protocol state.
    /// For a [`Protocol::ROUND_INVARIANT`] protocol this evaluates every node once to
    /// seed the frontier (see the module docs); nothing is committed.
    pub fn new(mesh: Mesh, protocol: P) -> Self {
        let n = mesh.node_count();
        let mut nbr_data = Vec::new();
        let mut nbr_off = Vec::with_capacity(n + 1);
        nbr_off.push(0);
        for id in 0..n {
            nbr_data.extend(mesh.neighbor_ids(id));
            nbr_off.push(nbr_data.len());
        }
        let states: Vec<P::State> = (0..n)
            .map(|id| {
                protocol.init(&NodeCtx {
                    mesh: &mesh,
                    id,
                    round: 0,
                })
            })
            .collect();
        let mut engine = RoundEngine {
            protocol,
            next_states: states.clone(),
            states,
            faulty: vec![false; n],
            nbr_data,
            nbr_off,
            inbox_data: Vec::new(),
            inbox_off: vec![0; n + 1],
            external: Vec::new(),
            scratch: RoundScratch {
                main: WorkerScratch::new(),
                order: Vec::new(),
                next_inbox_data: Vec::new(),
                next_inbox_off: vec![0; n + 1],
                arena_recipients: Vec::new(),
                workers: Vec::new(),
            },
            frontier: Vec::new(),
            dirty_flag: vec![false; n],
            frontier_requested: true,
            round: 0,
            stats: EngineStats::default(),
            threads: 1,
            shards: shard_ranges(n, slab_width(&mesh), 1),
            pool: PoolHandle::new(),
            mesh,
        };
        if P::ROUND_INVARIANT {
            engine.seed_frontier();
        }
        engine
    }

    /// Puts on the frontier every node whose first evaluation would change its state
    /// or send a message.  Every other node recomputes its state and stays silent
    /// until its inputs change, which marks it dirty, so under the
    /// `ROUND_INVARIANT` contract skipping it is bit-identical to evaluating it.
    fn seed_frontier(&mut self) {
        let view = RoundView {
            mesh: &self.mesh,
            protocol: &self.protocol,
            states: &self.states,
            faulty: &self.faulty,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
            inbox_data: &self.inbox_data,
            inbox_off: &self.inbox_off,
            round: self.round,
        };
        let mut views = empty_views();
        let outbox = &mut self.scratch.main.outbox;
        for id in 0..self.states.len() {
            let next = view.eval(id, &mut views, outbox);
            if next != view.states[id] || !outbox.is_empty() {
                mark_dirty(&mut self.frontier, &mut self.dirty_flag, id);
            }
            outbox.msgs.clear();
        }
    }

    /// Sets the number of worker threads used to execute rounds: `1` runs serially,
    /// `0` resolves to one worker per available core, any other value is used as-is.
    /// The count is resolved **once**, here; rounds and [`EngineStats::threads`]
    /// use the resolved value from then on.  Results are bit-identical for every
    /// setting (see the module docs).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = resolve_threads(threads);
        self.stats.set_threads(self.threads);
        // Re-partition once per knob change (not per round) and pre-size the
        // per-shard scratch, keeping warm parallel rounds allocation-free.
        self.shards = shard_ranges(self.states.len(), slab_width(&self.mesh), self.threads);
        if self.scratch.workers.len() < self.shards.len() {
            self.scratch
                .workers
                .resize_with(self.shards.len(), WorkerScratch::new);
        }
    }

    /// Builder-style variant of [`RoundEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// The resolved number of worker threads (>= 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Requests (or disables) active-frontier scheduling.  The request only takes
    /// effect for protocols that declare [`Protocol::ROUND_INVARIANT`]; results are
    /// bit-identical either way, so this is purely a performance knob.
    pub fn set_frontier(&mut self, enabled: bool) {
        self.frontier_requested = enabled;
    }

    /// Builder-style variant of [`RoundEngine::set_frontier`].
    pub fn with_frontier(mut self, enabled: bool) -> Self {
        self.set_frontier(enabled);
        self
    }

    /// True if rounds are scheduled over the active frontier (the protocol declares
    /// [`Protocol::ROUND_INVARIANT`] and the knob has not disabled it).
    pub fn frontier_active(&self) -> bool {
        P::ROUND_INVARIANT && self.frontier_requested
    }

    /// Number of nodes currently on the dirty frontier (0 for protocols without
    /// [`Protocol::ROUND_INVARIANT`]; the mesh is quiescent when this reaches 0 and
    /// no messages are pending).
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// The mesh the engine runs on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol (e.g. to change scenario knobs between rounds).
    /// Changing the rule invalidates frontier bookkeeping, so every node is marked
    /// dirty again.
    pub fn protocol_mut(&mut self) -> &mut P {
        if P::ROUND_INVARIANT {
            for id in 0..self.states.len() {
                mark_dirty(&mut self.frontier, &mut self.dirty_flag, id);
            }
        }
        &mut self.protocol
    }

    /// Current round number (number of rounds executed so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Accumulated engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The committed state of a node.
    pub fn state(&self, id: NodeId) -> &P::State {
        &self.states[id]
    }

    /// All committed states, indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Overwrites the state of a node (used by higher layers for event injection, e.g.
    /// marking the source of an identification wave).
    pub fn set_state(&mut self, id: NodeId, state: P::State) {
        self.states[id] = state;
        self.mark_neighborhood(id);
    }

    /// True if the node is currently faulty.
    pub fn is_faulty(&self, id: NodeId) -> bool {
        self.faulty[id]
    }

    /// Marks a node faulty.  A faulty node stops executing the protocol, its state is
    /// invisible to neighbors (they only see `faulty = true`), and messages addressed
    /// to it are dropped.
    pub fn inject_fault(&mut self, id: NodeId) {
        self.faulty[id] = true;
        self.purge_inbox(id);
        self.mark_neighborhood(id);
    }

    /// Recovers a faulty node: it becomes non-faulty again with the given state
    /// (protocols usually supply their "recovered / clean" state here, per rule 5 of
    /// Algorithm 1).
    pub fn recover(&mut self, id: NodeId, state: P::State) {
        self.faulty[id] = false;
        self.states[id] = state;
        self.purge_inbox(id);
        self.mark_neighborhood(id);
    }

    /// Ids of all currently faulty nodes.
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        (0..self.states.len()).filter(|&i| self.faulty[i]).collect()
    }

    /// Number of messages currently waiting to be delivered next round.
    pub fn pending_messages(&self) -> usize {
        self.inbox_data.len() + self.external.len()
    }

    /// Delivers a message into a node's mailbox from "outside" the protocol (used by
    /// higher layers, e.g. to start an identification wave at a corner node).  The
    /// message is appended after anything already pending for the node.
    pub fn post(&mut self, to: NodeId, msg: P::Msg) {
        if !self.faulty[to] {
            self.external.push((to, msg));
            if P::ROUND_INVARIANT {
                mark_dirty(&mut self.frontier, &mut self.dirty_flag, to);
            }
        }
    }

    /// Marks `id` and all its neighbors dirty (their views change when `id`'s state
    /// or fault flag changes from outside the round loop).
    fn mark_neighborhood(&mut self, id: NodeId) {
        if !P::ROUND_INVARIANT {
            return;
        }
        mark_dirty(&mut self.frontier, &mut self.dirty_flag, id);
        for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
            mark_dirty(&mut self.frontier, &mut self.dirty_flag, nid);
        }
    }

    /// Removes all pending messages addressed to `id` (mailboxes of nodes that fail
    /// or recover are cleared, as in the fault model).
    fn purge_inbox(&mut self, id: NodeId) {
        self.external.retain(|(to, _)| *to != id);
        if self.inbox_data.is_empty() {
            return;
        }
        let (s, e) = (self.inbox_off[id], self.inbox_off[id + 1]);
        if s == e {
            return;
        }
        self.inbox_data.drain(s..e);
        for off in self.inbox_off[id + 1..].iter_mut() {
            *off -= e - s;
        }
    }

    /// Merges externally posted messages into the mailbox arena (rare path; the
    /// steady-state round loop never sees it).
    fn absorb_external(&mut self) {
        if self.external.is_empty() {
            return;
        }
        let sends = &mut self.scratch.main.sends;
        debug_assert!(sends.is_empty());
        // Existing arena entries first (they are grouped by ascending recipient, so
        // flattening in arena order keeps each mailbox's relative order), then the
        // posts in posting order — exactly "append to the pending mailbox".
        if !self.inbox_data.is_empty() {
            let mut node = 0usize;
            for (k, msg) in self.inbox_data.drain(..).enumerate() {
                while self.inbox_off[node + 1] <= k {
                    node += 1;
                }
                sends.push((node, Some(msg)));
            }
        }
        for (to, msg) in self.external.drain(..) {
            sends.push((to, Some(msg)));
        }
        self.build_arena();
    }

    /// Builds the next round's mailbox arena from the send list (recipient, message)
    /// pairs in sender order: a stable group-by-recipient produces, for every
    /// mailbox, the exact serial arrival order, and the finished arena is swapped in.
    fn build_arena(&mut self) {
        let n = self.states.len();
        let sends = &mut self.scratch.main.sends;
        let m = sends.len();
        if m == 0 {
            // No messages in flight: the arena is empty and the (stale) offset table
            // is never consulted.
            self.inbox_data.clear();
            self.scratch.arena_recipients.clear();
            return;
        }
        let order = &mut self.scratch.order;
        order.clear();
        debug_assert!(n < (1 << 32) && m < (1 << 32), "packed sort keys overflow");
        order.extend(
            sends
                .iter()
                .enumerate()
                .map(|(i, &(to, _))| ((to as u64) << 32) | i as u64),
        );
        // Sorting the packed (recipient, position) keys is a stable
        // group-by-recipient; `sort_unstable` is in-place, so the steady-state round
        // stays allocation-free.
        order.sort_unstable();
        let data = &mut self.scratch.next_inbox_data;
        let off = &mut self.scratch.next_inbox_off;
        data.clear();
        debug_assert_eq!(off.len(), n + 1);
        let mut node = 0usize;
        off[0] = 0;
        for (k, &key) in order.iter().enumerate() {
            let to = (key >> 32) as usize;
            while node < to {
                node += 1;
                off[node] = k;
            }
            let msg = sends[(key & 0xFFFF_FFFF) as usize].1.take();
            // audit:allow(panic): the sort is a permutation of the send indices, so every slot is taken exactly once
            data.push(msg.expect("each send is placed exactly once"));
        }
        while node < n {
            node += 1;
            off[node] = m;
        }
        if P::ROUND_INVARIANT {
            // Remember who this arena delivers to: the frontier re-evaluates them in
            // the round *after* the delivery (the inbox-drain round).
            let recipients = &mut self.scratch.arena_recipients;
            recipients.clear();
            for &key in order.iter() {
                let to = (key >> 32) as usize;
                if recipients.last() != Some(&to) {
                    recipients.push(to);
                }
            }
        }
        sends.clear();
        std::mem::swap(&mut self.inbox_data, data);
        std::mem::swap(&mut self.inbox_off, off);
    }

    /// Consumes the evaluated frontier and marks the next one: every node whose state
    /// changed, the neighbors of every changed node, and every message recipient.
    fn update_frontier(&mut self) {
        for &id in &self.frontier {
            self.dirty_flag[id] = false;
        }
        self.frontier.clear();
        let RoundScratch {
            main,
            arena_recipients,
            ..
        } = &self.scratch;
        let (frontier, dirty) = (&mut self.frontier, &mut self.dirty_flag);
        for &id in &main.changed {
            mark_dirty(frontier, dirty, id);
            for &(_, nid) in &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]] {
                mark_dirty(frontier, dirty, nid);
            }
        }
        for &(to, _) in &main.sends {
            mark_dirty(frontier, dirty, to);
        }
        // Nodes whose inbox was drained this round see different inputs next round
        // (non-empty → empty), so the pure-stencil contract alone does not let the
        // engine skip them: re-evaluate them once more.
        for &to in arena_recipients {
            mark_dirty(frontier, dirty, to);
        }
    }

    /// Executes one synchronous round; returns the number of nodes whose state
    /// changed.  With [`RoundEngine::set_threads`] > 1 the round is executed by
    /// sharded workers with bit-identical results.
    pub fn run_round(&mut self) -> usize {
        self.absorb_external();
        if P::ROUND_INVARIANT {
            // External marks arrive unordered; evaluation (and therefore message
            // emission) must scan ascending node ids to match full-evaluation order.
            self.frontier.sort_unstable();
        }
        let (changes, messages_sent, evaluated) = if self.threads > 1 {
            self.round_sharded()
        } else {
            self.round_serial()
        };
        self.round += 1;
        self.stats.record_round(RoundStats {
            state_changes: changes as u64,
            messages_sent,
        });
        self.stats.record_evaluated(evaluated);
        changes
    }

    /// The single-threaded round body.
    fn round_serial(&mut self) -> (usize, u64, u64) {
        let n = self.states.len();
        let use_frontier = self.frontier_active();
        let view = RoundView {
            mesh: &self.mesh,
            protocol: &self.protocol,
            states: &self.states,
            faulty: &self.faulty,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
            inbox_data: &self.inbox_data,
            inbox_off: &self.inbox_off,
            round: self.round,
        };
        let main = &mut self.scratch.main;
        main.changed.clear();
        debug_assert!(main.sends.is_empty());
        let (evaluated, messages_sent) = if use_frontier {
            eval_span(
                &view,
                self.frontier.iter().copied(),
                0,
                &mut self.next_states,
                main,
            )
        } else {
            eval_span(&view, 0..n, 0, &mut self.next_states, main)
        };
        let changes = self.scratch.main.changed.len();
        for &id in &self.scratch.main.changed {
            std::mem::swap(&mut self.states[id], &mut self.next_states[id]);
        }
        if P::ROUND_INVARIANT {
            self.update_frontier();
        }
        self.build_arena();
        (changes, messages_sent, evaluated)
    }

    /// The sharded round body: each pool worker evaluates one contiguous slab of node
    /// ids (or the frontier slice inside it) against the shared previous-round state,
    /// staging next states into its disjoint region of the shared back buffer; the
    /// per-shard results are merged at the round barrier in shard order, reproducing
    /// the serial state commits and message order exactly.  A worker panic completes
    /// the barrier and re-raises on this thread before any merge happens, so no
    /// half-evaluated round is ever committed.
    fn round_sharded(&mut self) -> (usize, u64, u64) {
        if self.shards.len() <= 1 {
            // A single slab cannot be split: skip the worker machinery entirely.
            return self.round_serial();
        }
        let use_frontier = self.frontier_active();
        let view = RoundView {
            mesh: &self.mesh,
            protocol: &self.protocol,
            states: &self.states,
            faulty: &self.faulty,
            nbr_data: &self.nbr_data,
            nbr_off: &self.nbr_off,
            inbox_data: &self.inbox_data,
            inbox_off: &self.inbox_off,
            round: self.round,
        };
        let frontier = &self.frontier;
        let shard_count = self.shards.len();
        self.pool.get(self.threads).run_sharded(
            &mut self.next_states,
            &self.shards,
            &mut self.scratch.workers[..shard_count],
            |_, base, slab, ws| {
                ws.changed.clear();
                debug_assert!(ws.sends.is_empty());
                let range = base..base + slab.len();
                let (evaluated, messages) = if use_frontier {
                    let lo = frontier.partition_point(|&x| x < range.start);
                    let hi = frontier.partition_point(|&x| x < range.end);
                    eval_span(&view, frontier[lo..hi].iter().copied(), base, slab, ws)
                } else {
                    eval_span(&view, range, base, slab, ws)
                };
                ws.evaluated = evaluated;
                ws.messages = messages;
            },
        );

        // Round barrier: merge shard results in shard (= ascending node id) order so
        // state commits and the send list reproduce the serial order exactly.
        let RoundScratch { main, workers, .. } = &mut self.scratch;
        main.changed.clear();
        debug_assert!(main.sends.is_empty());
        let mut evaluated = 0u64;
        let mut messages_sent = 0u64;
        for ws in workers[..shard_count].iter_mut() {
            for &id in &ws.changed {
                std::mem::swap(&mut self.states[id], &mut self.next_states[id]);
            }
            main.changed.extend_from_slice(&ws.changed);
            main.sends.append(&mut ws.sends);
            evaluated += ws.evaluated;
            messages_sent += ws.messages;
        }
        let changes = self.scratch.main.changed.len();
        if P::ROUND_INVARIANT {
            self.update_frontier();
        }
        self.build_arena();
        (changes, messages_sent, evaluated)
    }

    /// Runs rounds until the protocol is quiescent: no state changed in the last round
    /// **and** no messages are in flight.  Returns the number of rounds executed, or
    /// `None` if `max_rounds` was reached without quiescence.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> Option<u64> {
        let mut executed = 0u64;
        loop {
            if executed >= max_rounds {
                return None;
            }
            let changes = self.run_round();
            executed += 1;
            if changes == 0 && self.pending_messages() == 0 {
                return Some(executed);
            }
        }
    }

    /// Runs exactly `rounds` rounds (the per-step λ budget of the Figure-7 model);
    /// returns the total number of state changes observed.
    pub fn run_rounds(&mut self, rounds: u64) -> usize {
        let mut total = 0usize;
        for _ in 0..rounds {
            total += self.run_round();
        }
        total
    }
}

/// Marks a node dirty, keeping the frontier list deduplicated.
fn mark_dirty(frontier: &mut Vec<NodeId>, dirty: &mut [bool], id: NodeId) {
    if !dirty[id] {
        dirty[id] = true;
        frontier.push(id);
    }
}

/// A fixed-capacity stack scratch of neighbor views, overwritten per evaluated node.
fn empty_views<'a, S>() -> [NeighborView<'a, S>; MAX_STACK_NEIGHBORS] {
    std::array::from_fn(|_| NeighborView {
        dir: Direction::pos(0),
        id: 0,
        state: None,
    })
}

/// Evaluates the non-faulty nodes of `ids` (ascending) against the shared
/// previous-round view, staging changed states into `next_slab` (indexed by
/// `id - base`) and collecting sends/changed ids into the worker scratch.  The
/// stack neighbor-view scratch lives here, initialised once per span and overwritten
/// per node.  Returns `(nodes evaluated, messages sent)`.
fn eval_span<'a, P: Protocol>(
    view: &RoundView<'a, P>,
    ids: impl Iterator<Item = NodeId>,
    base: usize,
    next_slab: &mut [P::State],
    ws: &mut WorkerScratch<P>,
) -> (u64, u64) {
    let mut views = empty_views();
    let mut evaluated = 0u64;
    let mut messages = 0u64;
    for id in ids {
        if view.faulty[id] {
            continue;
        }
        evaluated += 1;
        let next = view.eval(id, &mut views, &mut ws.outbox);
        if next != view.states[id] {
            next_slab[id - base] = next;
            ws.changed.push(id);
        }
        for (to, msg) in ws.outbox.msgs.drain(..) {
            if !view.faulty[to] {
                ws.sends.push((to, Some(msg)));
                messages += 1;
            }
        }
    }
    (evaluated, messages)
}

/// The shared, read-only inputs of one round, as seen by every worker.
struct RoundView<'a, P: Protocol> {
    mesh: &'a Mesh,
    protocol: &'a P,
    states: &'a [P::State],
    faulty: &'a [bool],
    nbr_data: &'a [(Direction, NodeId)],
    nbr_off: &'a [usize],
    inbox_data: &'a [P::Msg],
    inbox_off: &'a [usize],
    round: u64,
}

impl<P: Protocol> Clone for RoundView<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Protocol> Copy for RoundView<'_, P> {}

impl<'a, P: Protocol> RoundView<'a, P> {
    /// The messages deliverable to `id` this round.
    fn inbox(&self, id: NodeId) -> &'a [P::Msg] {
        if self.inbox_data.is_empty() {
            &[]
        } else {
            &self.inbox_data[self.inbox_off[id]..self.inbox_off[id + 1]]
        }
    }

    /// The view of one neighbor.
    fn neighbor_view(&self, dir: Direction, nid: NodeId) -> NeighborView<'a, P::State> {
        NeighborView {
            dir,
            id: nid,
            state: if self.faulty[nid] {
                None
            } else {
                Some(&self.states[nid])
            },
        }
    }

    /// Evaluates one non-faulty node against the previous-round state: builds the
    /// neighbor views in the caller's fixed-capacity stack scratch, runs the protocol
    /// rule on the node's inbox slice, and returns the next state (messages land in
    /// `outbox`, unfiltered).
    fn eval(
        &self,
        id: NodeId,
        views: &mut [NeighborView<'a, P::State>; MAX_STACK_NEIGHBORS],
        outbox: &mut Outbox<P::Msg>,
    ) -> P::State {
        let ctx = NodeCtx {
            mesh: self.mesh,
            id,
            round: self.round,
        };
        let inbox = self.inbox(id);
        let nbrs = &self.nbr_data[self.nbr_off[id]..self.nbr_off[id + 1]];
        for (slot, &(dir, nid)) in views.iter_mut().zip(nbrs) {
            *slot = self.neighbor_view(dir, nid);
        }
        self.protocol
            .on_round(&ctx, &self.states[id], &views[..nbrs.len()], inbox, outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgfi_topology::coord;

    /// A toy protocol: every node stores the minimum value it has heard of; a single
    /// seed node starts with 0, everyone else with its node id + 1.  Messages carry
    /// the sender's current value.  The minimum floods the mesh one hop per round.
    struct MinFlood {
        seed: NodeId,
    }

    impl Protocol for MinFlood {
        type State = u64;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            if ctx.id == self.seed {
                0
            } else {
                ctx.id as u64 + 1
            }
        }

        fn on_round(
            &self,
            _ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
            inbox: &[u64],
            outbox: &mut Outbox<u64>,
        ) -> u64 {
            let mut best = *prev;
            for v in inbox {
                best = best.min(*v);
            }
            for nb in neighbors {
                if let Some(&s) = nb.state {
                    best = best.min(s);
                }
            }
            if best < *prev {
                for nb in neighbors {
                    outbox.send(nb.id, best);
                }
            }
            best
        }
    }

    /// Runs `rounds` rounds, recording each one's counters from the return value and
    /// the change in the engine's running totals.
    fn record_rounds<P: Protocol>(eng: &mut RoundEngine<P>, rounds: u64) -> Vec<RoundStats> {
        (0..rounds).map(|_| record_round(eng)).collect()
    }

    /// Runs one round and returns its counters.
    fn record_round<P: Protocol>(eng: &mut RoundEngine<P>) -> RoundStats {
        let sent = eng.stats().total_messages();
        let changes = eng.run_round();
        RoundStats {
            state_changes: changes as u64,
            messages_sent: eng.stats().total_messages() - sent,
        }
    }

    /// [`RoundEngine::run_until_quiescent`], driven round by round so every round's
    /// counters are recorded.
    fn record_until_quiescent<P: Protocol>(
        eng: &mut RoundEngine<P>,
        max_rounds: u64,
    ) -> Vec<RoundStats> {
        let mut log = Vec::new();
        loop {
            assert!((log.len() as u64) < max_rounds, "no quiescence");
            let r = record_round(eng);
            log.push(r);
            if r.state_changes == 0 && eng.pending_messages() == 0 {
                return log;
            }
        }
    }

    #[test]
    fn min_flood_converges_in_eccentricity_rounds() {
        let mesh = Mesh::cubic(5, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let rounds = eng.run_until_quiescent(1000).expect("must converge");
        // The value spreads one hop per round via neighbor-state reads; the farthest
        // node is 8 hops away, plus one final no-change round for quiescence detection
        // and message drain.
        assert!((8..=12).contains(&rounds), "rounds = {rounds}");
        for id in mesh.node_ids() {
            assert_eq!(*eng.state(id), 0, "node {id} did not learn the minimum");
        }
    }

    #[test]
    fn faulty_nodes_do_not_participate_or_relay() {
        // Cut the 1-D mesh in the middle: the minimum cannot cross the faulty node.
        let mesh = Mesh::new(&[9]);
        let seed = mesh.id_of(&coord![0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let blocker = mesh.id_of(&coord![4]);
        eng.inject_fault(blocker);
        eng.run_until_quiescent(1000).expect("must converge");
        assert_eq!(*eng.state(mesh.id_of(&coord![3])), 0);
        // Beyond the faulty node the original values survive.
        assert_ne!(*eng.state(mesh.id_of(&coord![5])), 0);
        assert_eq!(eng.faulty_nodes(), vec![blocker]);
    }

    #[test]
    fn recovery_restores_participation() {
        let mesh = Mesh::new(&[9]);
        let seed = mesh.id_of(&coord![0]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let blocker = mesh.id_of(&coord![4]);
        eng.inject_fault(blocker);
        eng.run_until_quiescent(1000).unwrap();
        assert_ne!(*eng.state(mesh.id_of(&coord![8])), 0);
        // Recover with a large value; the flood resumes and reaches the far end.
        eng.recover(blocker, 1_000);
        eng.run_until_quiescent(1000).unwrap();
        assert_eq!(*eng.state(mesh.id_of(&coord![8])), 0);
    }

    #[test]
    fn auto_thread_count_is_resolved_once_and_stable_across_rounds() {
        // `threads = 0` means "one worker per available core", resolved exactly
        // once in `set_threads`; every round and every stats snapshot must then
        // report the same concrete count, never a re-query of the machine.
        let mesh = Mesh::cubic(8, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed }).with_threads(0);
        let resolved = eng.threads();
        assert!(resolved >= 1, "auto must resolve to a concrete count");
        assert_eq!(eng.stats().threads(), resolved);
        for _ in 0..10 {
            eng.run_round();
            assert_eq!(eng.threads(), resolved, "thread count drifted mid-run");
            assert_eq!(
                eng.stats().threads(),
                resolved,
                "stats thread count drifted mid-run"
            );
        }
        // Explicit re-resolution is the only way the count changes.
        eng.set_threads(resolved + 1);
        assert_eq!(eng.threads(), resolved + 1);
        assert_eq!(eng.stats().threads(), resolved + 1);
    }

    #[test]
    fn messages_travel_one_hop_per_round() {
        /// Counts how many rounds after the post a node received the token.
        struct TokenRelay;
        impl Protocol for TokenRelay {
            type State = Option<u64>; // round at which the token arrived
            type Msg = ();

            fn init(&self, _ctx: &NodeCtx<'_>) -> Self::State {
                None
            }

            fn on_round(
                &self,
                ctx: &NodeCtx<'_>,
                prev: &Self::State,
                neighbors: &[NeighborView<'_, Self::State>],
                inbox: &[()],
                outbox: &mut Outbox<()>,
            ) -> Self::State {
                if prev.is_some() {
                    return *prev;
                }
                if !inbox.is_empty() {
                    // Forward the token in the +X direction only.
                    for nb in neighbors {
                        if nb.dir == Direction::pos(0) {
                            outbox.send(nb.id, ());
                        }
                    }
                    return Some(ctx.round);
                }
                None
            }
        }

        let mesh = Mesh::new(&[6]);
        let mut eng = RoundEngine::new(mesh.clone(), TokenRelay);
        eng.post(mesh.id_of(&coord![0]), ());
        eng.run_until_quiescent(100).unwrap();
        for x in 0..6 {
            let arrived = eng
                .state(mesh.id_of(&coord![x]))
                .expect("token must arrive");
            assert_eq!(
                arrived, x as u64,
                "token must advance exactly one hop/round"
            );
        }
    }

    #[test]
    fn stats_track_rounds_and_messages() {
        let mesh = Mesh::cubic(4, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed });
        eng.run_until_quiescent(100).unwrap();
        let stats = eng.stats();
        assert_eq!(stats.rounds(), eng.round());
        assert!(stats.total_messages() > 0);
        assert!(stats.total_state_changes() > 0);
        // Without `ROUND_INVARIANT` the engine evaluates every non-faulty node.
        assert_eq!(stats.mean_evaluated_per_round(), 16.0);
        assert_eq!(stats.total_evaluated(), 16 * eng.round());
    }

    #[test]
    fn run_rounds_executes_exactly_that_many() {
        let mesh = Mesh::cubic(3, 3);
        let seed = mesh.id_of(&coord![0, 0, 0]);
        let mut eng = RoundEngine::new(mesh, MinFlood { seed });
        eng.run_rounds(4);
        assert_eq!(eng.round(), 4);
    }

    #[test]
    fn quiescence_times_out_when_protocol_never_settles() {
        /// A protocol that toggles forever.
        struct Blinker;
        impl Protocol for Blinker {
            type State = bool;
            type Msg = ();
            fn init(&self, _ctx: &NodeCtx<'_>) -> bool {
                false
            }
            fn on_round(
                &self,
                _ctx: &NodeCtx<'_>,
                prev: &bool,
                _neighbors: &[NeighborView<'_, bool>],
                _inbox: &[()],
                _outbox: &mut Outbox<()>,
            ) -> bool {
                !*prev
            }
        }
        let mesh = Mesh::new(&[4]);
        let mut eng = RoundEngine::new(mesh, Blinker);
        assert_eq!(eng.run_until_quiescent(16), None);
        assert_eq!(eng.round(), 16);
    }

    #[test]
    fn post_to_faulty_node_is_dropped() {
        let mesh = Mesh::new(&[4]);
        let mut eng = RoundEngine::new(mesh.clone(), MinFlood { seed: 0 });
        let f = mesh.id_of(&coord![2]);
        eng.inject_fault(f);
        eng.post(f, 0);
        assert_eq!(eng.pending_messages(), 0);
    }

    #[test]
    fn posts_are_delivered_after_pending_messages() {
        /// Folds the inbox in delivery order, so mailbox order is observable.
        struct OrderProbe;
        impl Protocol for OrderProbe {
            type State = u64;
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx<'_>) -> u64 {
                1
            }
            fn on_round(
                &self,
                _ctx: &NodeCtx<'_>,
                prev: &u64,
                _neighbors: &[NeighborView<'_, u64>],
                inbox: &[u64],
                _outbox: &mut Outbox<u64>,
            ) -> u64 {
                let mut h = *prev;
                for &m in inbox {
                    h = h.wrapping_mul(31).wrapping_add(m);
                }
                h
            }
        }
        let mesh = Mesh::new(&[3]);
        let mut eng = RoundEngine::new(mesh, OrderProbe);
        eng.post(1, 10);
        eng.post(1, 20);
        eng.post(0, 7);
        assert_eq!(eng.pending_messages(), 3);
        eng.run_round();
        // Node 1 folded 10 then 20 in posting order: ((1*31 + 10)*31 + 20).
        assert_eq!(*eng.state(1), (31 + 10) * 31 + 20);
        assert_eq!(*eng.state(0), 31 + 7);
        assert_eq!(eng.pending_messages(), 0);
    }

    #[test]
    fn posts_are_appended_after_in_flight_messages() {
        /// Node 0 sends its value to node 1 in round 0; node 1 folds its inbox in
        /// delivery order (non-commutative), so the merge order of in-flight arena
        /// messages and external posts is observable.
        struct SendOnceThenFold;
        impl Protocol for SendOnceThenFold {
            type State = u64;
            type Msg = u64;
            fn init(&self, _ctx: &NodeCtx<'_>) -> u64 {
                1
            }
            fn on_round(
                &self,
                ctx: &NodeCtx<'_>,
                prev: &u64,
                _neighbors: &[NeighborView<'_, u64>],
                inbox: &[u64],
                outbox: &mut Outbox<u64>,
            ) -> u64 {
                if ctx.id == 0 && ctx.round == 0 {
                    outbox.send(1, 100);
                }
                let mut h = *prev;
                for &m in inbox {
                    h = h.wrapping_mul(31).wrapping_add(m);
                }
                h
            }
        }
        let mesh = Mesh::new(&[3]);
        let mut eng = RoundEngine::new(mesh, SendOnceThenFold);
        eng.run_round();
        assert_eq!(eng.pending_messages(), 1, "100 is in flight to node 1");
        // Posts must land *after* the pending in-flight message of the same node.
        eng.post(1, 200);
        eng.post(0, 7);
        assert_eq!(eng.pending_messages(), 3);
        eng.run_round();
        // Node 1 folded 100 (arena) then 200 (post): ((1*31 + 100)*31 + 200).
        assert_eq!(*eng.state(1), (31 + 100) * 31 + 200);
        assert_eq!(*eng.state(0), 31 + 7);
        assert_eq!(eng.pending_messages(), 0);
    }

    /// A protocol whose state folds the inbox with a non-commutative hash, so any
    /// deviation from the serial message delivery *order* changes the fixpoint.
    struct OrderSensitiveGossip;

    impl Protocol for OrderSensitiveGossip {
        type State = u64;
        type Msg = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.id as u64 + 1
        }

        fn on_round(
            &self,
            ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
            inbox: &[u64],
            outbox: &mut Outbox<u64>,
        ) -> u64 {
            let mut h = *prev;
            for &m in inbox {
                // Non-commutative, non-associative mixing: order matters.
                h = h.rotate_left(7) ^ m.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            for nb in neighbors {
                if let Some(&s) = nb.state {
                    h = h.wrapping_add(s.rotate_right(11));
                }
            }
            if ctx.round < 12 {
                for nb in neighbors {
                    outbox.send(nb.id, h ^ nb.id as u64);
                }
            }
            h
        }
    }

    fn run_gossip(mesh: &Mesh, threads: usize, rounds: u64) -> (Vec<u64>, Vec<RoundStats>) {
        let mut eng = RoundEngine::new(mesh.clone(), OrderSensitiveGossip).with_threads(threads);
        eng.inject_fault(mesh.node_count() / 2);
        let log = record_rounds(&mut eng, rounds);
        (eng.states().to_vec(), log)
    }

    #[test]
    fn sharded_rounds_are_bit_identical_to_serial() {
        for dims in [vec![16], vec![8, 6], vec![4, 4, 3], vec![3, 3, 2, 2]] {
            let mesh = Mesh::new(&dims);
            let (serial_states, serial_stats) = run_gossip(&mesh, 1, 16);
            for threads in [2, 3, 5, 8] {
                let (par_states, par_stats) = run_gossip(&mesh, threads, 16);
                assert_eq!(serial_states, par_states, "dims {dims:?} threads {threads}");
                assert_eq!(serial_stats, par_stats, "dims {dims:?} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_min_flood_matches_serial_round_counts() {
        let mesh = Mesh::cubic(6, 2);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut serial = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let mut parallel = RoundEngine::new(mesh, MinFlood { seed }).with_threads(4);
        let r1 = record_until_quiescent(&mut serial, 1000);
        let r2 = record_until_quiescent(&mut parallel, 1000);
        assert_eq!(r1, r2);
        assert_eq!(serial.states(), parallel.states());
        assert_eq!(parallel.threads(), 4);
        assert_eq!(parallel.stats().threads(), 4);
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        let mesh = Mesh::new(&[9]);
        let eng = RoundEngine::new(mesh, MinFlood { seed: 0 }).with_threads(0);
        assert!(eng.threads() >= 1);
    }

    #[test]
    fn more_threads_than_slabs_still_works() {
        // dims[0] = 2 hyperplanes but 8 requested workers: shards collapse to 2.
        let mesh = Mesh::new(&[2, 5]);
        let seed = mesh.id_of(&coord![0, 0]);
        let mut serial = RoundEngine::new(mesh.clone(), MinFlood { seed });
        let mut parallel = RoundEngine::new(mesh, MinFlood { seed }).with_threads(8);
        serial.run_until_quiescent(100).unwrap();
        parallel.run_until_quiescent(100).unwrap();
        assert_eq!(serial.states(), parallel.states());
    }

    #[test]
    fn faults_and_recovery_mid_run_stay_identical_in_parallel() {
        let mesh = Mesh::cubic(7, 2);
        let run = |threads: usize| {
            let mut eng =
                RoundEngine::new(mesh.clone(), OrderSensitiveGossip).with_threads(threads);
            let mut log = record_rounds(&mut eng, 3);
            eng.inject_fault(mesh.id_of(&coord![3, 3]));
            eng.inject_fault(mesh.id_of(&coord![0, 6]));
            log.extend(record_rounds(&mut eng, 4));
            eng.recover(mesh.id_of(&coord![3, 3]), 42);
            log.extend(record_rounds(&mut eng, 5));
            (eng.states().to_vec(), log)
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads {threads}");
        }
    }

    /// A `ROUND_INVARIANT` stencil: every node takes the max of its own value, its
    /// neighbors' values and its inbox, and announces increases by message — a node
    /// with unchanged inputs recomputes its value and stays silent, as the contract
    /// requires.
    struct MaxStencil;

    impl Protocol for MaxStencil {
        type State = u64;
        type Msg = u64;
        const ROUND_INVARIANT: bool = true;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.id as u64
        }

        fn on_round(
            &self,
            _ctx: &NodeCtx<'_>,
            prev: &u64,
            neighbors: &[NeighborView<'_, u64>],
            inbox: &[u64],
            outbox: &mut Outbox<u64>,
        ) -> u64 {
            let mut best = *prev;
            for &m in inbox {
                best = best.max(m);
            }
            for nb in neighbors {
                if let Some(&s) = nb.state {
                    best = best.max(s);
                }
            }
            if best > *prev {
                for nb in neighbors {
                    outbox.send(nb.id, best);
                }
            }
            best
        }
    }

    #[test]
    fn fresh_engine_seeds_only_the_nodes_with_work() {
        // Every node but the far corner (the one local maximum of the ids) sees a
        // larger neighbor, so only the corner's first evaluation changes nothing.
        let mesh = Mesh::cubic(8, 2);
        let mut eng = RoundEngine::new(mesh, MaxStencil);
        assert_eq!(eng.frontier_len(), 63);
        eng.run_round();
        assert_eq!(eng.stats().total_evaluated(), 63);
    }

    #[test]
    fn frontier_shrinks_after_convergence_and_skips_work() {
        let mesh = Mesh::cubic(8, 2);
        let mut eng = RoundEngine::new(mesh, MaxStencil);
        assert!(eng.frontier_active());
        eng.run_until_quiescent(100).unwrap();
        // One flush round consumes the final delivery's deferred drain-round wake.
        eng.run_round();
        assert_eq!(eng.frontier_len(), 0);
        // Post-convergence rounds evaluate nobody.
        let before = eng.stats().total_evaluated();
        eng.run_rounds(3);
        assert_eq!(eng.stats().total_evaluated(), before);
        // Disturb one node: only its neighborhood wakes up.
        eng.set_state(0, 1_000);
        eng.run_round();
        let evaluated = eng.stats().total_evaluated() - before;
        assert!(evaluated <= 3, "evaluated {evaluated} nodes, expected ≤ 3");
    }

    #[test]
    fn inbox_drain_wakes_the_node_for_one_more_round() {
        /// A contract-conforming stencil whose output depends on inbox *emptiness*:
        /// with a message in flight the node parrots its previous state (no change,
        /// nothing sent), and on the drained round it snaps to 1.  Skipping the
        /// drained round would freeze the stale state.
        struct DrainSnap;
        impl Protocol for DrainSnap {
            type State = u64;
            type Msg = ();
            const ROUND_INVARIANT: bool = true;
            fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
                ctx.id as u64 + 5
            }
            fn on_round(
                &self,
                _ctx: &NodeCtx<'_>,
                prev: &u64,
                _neighbors: &[NeighborView<'_, u64>],
                inbox: &[()],
                _outbox: &mut Outbox<()>,
            ) -> u64 {
                if inbox.is_empty() {
                    1
                } else {
                    *prev
                }
            }
        }
        // A single isolated node: no neighbor changes can rescue a missed dirty
        // mark, so the drain round alone must wake it.
        let mesh = Mesh::new(&[1]);
        let run = |frontier: bool| {
            let mut eng = RoundEngine::new(mesh.clone(), DrainSnap).with_frontier(frontier);
            eng.post(0, ());
            // Delivery round: inbox non-empty, state stays 5 (no change, no sends).
            // Drain round: inbox now empty — the state must snap to 1.
            let log = record_rounds(&mut eng, 3);
            (eng.states().to_vec(), log)
        };
        let (frontier_states, frontier_stats) = run(true);
        assert_eq!(frontier_states, vec![1], "drained node must re-evaluate");
        assert_eq!((frontier_states, frontier_stats), run(false));
    }

    #[test]
    fn frontier_and_full_evaluation_are_bit_identical() {
        let mesh = Mesh::cubic(9, 2);
        let run = |frontier: bool, threads: usize| {
            let mut eng = RoundEngine::new(mesh.clone(), MaxStencil)
                .with_frontier(frontier)
                .with_threads(threads);
            let mut log = record_rounds(&mut eng, 5);
            eng.inject_fault(mesh.id_of(&coord![4, 4]));
            log.extend(record_rounds(&mut eng, 4));
            eng.recover(mesh.id_of(&coord![4, 4]), 7_777);
            eng.post(mesh.id_of(&coord![0, 8]), 9_999);
            log.extend(record_until_quiescent(&mut eng, 200));
            (eng.states().to_vec(), log)
        };
        let reference = run(false, 1);
        for threads in [1, 3] {
            assert_eq!(reference, run(true, threads), "threads {threads}");
        }
    }
}
