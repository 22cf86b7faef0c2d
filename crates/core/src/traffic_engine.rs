//! The cycle-driven concurrent-traffic engine: wormhole-switched multi-flit
//! packets contending for virtual channels and flit buffers around fault blocks.
//!
//! Every experiment before this module routed probes *alone* on an idle mesh — even
//! the batched sweeps of [`crate::layout::StaticLayout::sweep`] only parallelise
//! independent probes.  Real traffic is different: packets occupy wires, and a
//! packet that loses a link to another packet waits.  [`TrafficEngine`] models that
//! regime in the flit-level wormhole discipline the NoC community evaluates
//! fault-tolerant routers under (BookSim-style), with a synchronous cycle loop:
//!
//! 1. **Decision phase** — every in-flight worm's *head* asks its router for a next
//!    hop through the hop kernel the probe engines use
//!    ([`Probe::decide`](crate::routing::Probe::decide)), against the *frozen*
//!    cycle state.  Decisions are pure per-packet functions, so
//!    they shard across `traffic_threads` workers over contiguous launch-order
//!    chunks on a persistent [`lgfi_sim::WorkerPool`] (spawned lazily on the first
//!    parallel cycle, parked between cycles), each worker holding its own router
//!    instance — the launch-order-merge discipline of the round and probe engines.
//! 2. **Arbitration phase** — serial, in packet-launch order (packet-id tie-break):
//!    each worm advances through the [`LinkState`] layer, keeping the link index
//!    of every link it holds so its body flits never recompute it.  The head needs a free
//!    virtual channel of its class, a downstream buffer credit and link bandwidth
//!    to extend the worm by one link; body flits stream forward behind it subject
//!    to bandwidth and credits, and flits crossing the final link are consumed by
//!    the destination.  A worm *owns* a VC on every link its tail has not yet
//!    crossed, so a blocked worm holds wires — head-of-line blocking and deadlock
//!    become observable.  When every adaptive VC of the wanted link is held, the
//!    head may fall back to the **escape class** (VC 0, when enabled): a
//!    dimension-order hop on a deadlock-free channel — the standard escape-VC
//!    deadlock-avoidance scheme.  Backtracks retreat the head along the worm's own
//!    reserved channel and therefore never contend.
//! 3. **Deadlock detection** — a worm whose flits have all been still for
//!    [`TrafficSpec::deadlock_threshold`] cycles while its head waits on a held VC
//!    is suspicious; the detector follows the deterministic wait-for chain
//!    (blocked worm → owner of the lowest held VC on its wanted link) and, on
//!    finding a cycle, tears the member worms down with
//!    [`ProbeStatus::Deadlocked`], freeing their channels and recording the event.
//! 4. **Retirement phase** — finished worms (every flit ejected at the
//!    destination, or a terminal failure) are recorded in launch order and their
//!    buffers (probe path, used-direction arena, held-link deque) recycled for
//!    future injections, so a warm engine performs **zero
//!    steady-state heap allocations per cycle** (proved by
//!    `tests/alloc_regression.rs`).  The arbitration loop and the deadlock
//!    teardown note whether any worm finished; on the many cycles where none did,
//!    the pass is skipped.
//!
//! With the default [`TrafficSpec`] (`flits_per_packet = 1`) a worm acquires and
//! releases its VC within the crossing cycle, and the engine reproduces the PR-5
//! packet-per-link-per-cycle behaviour exactly: `latency == hops + stalls` and the
//! same deterministic stall pattern (see the module tests).
//!
//! Because only the decision phase is parallel and it writes nothing but each
//! packet's own request slot, every run is **bit-identical** to the serial one for
//! any `traffic_threads` setting (`tests/traffic_equivalence.rs`,
//! `tests/wormhole_equivalence.rs`).  Credits returned by a lower-id worm within a
//! cycle are visible to higher-id worms in the same cycle — a deterministic
//! simplification of hardware credit round-trips.
//!
//! The engine is driven one cycle at a time against a [`RouteEnv`] — either the
//! frozen view of a [`LgfiNetwork`](crate::network::LgfiNetwork) step (dynamic
//! faults, partially distributed information) via
//! [`LgfiNetwork::run_traffic_step`](crate::network::LgfiNetwork::run_traffic_step),
//! or a static layout over a [`BoundaryMap`](crate::boundary::BoundaryMap) for
//! stabilised fault patterns.  Fault dynamics gate *head* decisions (a head on a
//! node that turns faulty backtracks), through the dynamic hop step the network's
//! probe plane runs too, matching the packet-granularity fault model of the PR-5
//! engine.

use crate::linkstate::{LinkState, NO_OWNER};
use crate::routing::{Probe, ProbeMove, ProbeStatus, RouteEnv, Router, RoutingDecision};
use crate::status::NodeStatus;
use lgfi_sim::TrafficStats;
use lgfi_topology::{Coord, Direction, Mesh, NodeId};
use std::collections::VecDeque;

/// The unified traffic configuration: one builder-style spec consumed by
/// [`TrafficEngine`], `Scenario::run_traffic`, `SloCampaign` and the bench
/// harness.
///
/// It is `#[non_exhaustive]`: construct it with [`TrafficSpec::new`] or
/// [`TrafficSpec::at_rate`] and chain the builder methods, so future knobs never
/// break call sites.  The defaults reproduce the PR-5 packet-per-cycle engine
/// exactly (single-flit worms never hold a virtual channel across cycles).
///
/// ```
/// use lgfi_core::traffic_engine::TrafficSpec;
/// let spec = TrafficSpec::at_rate(1.5).flits_per_packet(4).vc_count(2);
/// assert!(spec.validate().is_empty());
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Offered load in packets per cycle (realised by the deterministic
    /// [`lgfi_sim::InjectionProcess`] schedule).
    pub injection_rate: f64,
    /// Cycles of the injection window.
    pub cycles: u64,
    /// Extra cycles allowed for in-flight packets to finish after injection stops.
    pub drain_cycles: u64,
    /// Cycles a packet may stay in flight (hops + stalls) before being declared
    /// exhausted.
    pub max_packet_cycles: u64,
    /// Worker threads for the per-cycle routing decisions (`1` = serial, `0` = one
    /// per available core).  An execution detail: results are bit-identical for
    /// every setting.
    pub traffic_threads: usize,
    /// Flits per packet (the worm length; 1 reproduces the packet-per-cycle
    /// model).
    pub flits_per_packet: u32,
    /// Virtual channels per directed link (at least 1; at least 2 with
    /// [`TrafficSpec::escape_vc`]).
    pub vc_count: u32,
    /// Flit-buffer slots contributed per VC to the link's shared DAMQ pool.
    pub vc_buffer_flits: u32,
    /// Reserve VC 0 as an escape class restricted to dimension-order hops — the
    /// standard escape-channel deadlock-avoidance scheme.  Irrelevant at
    /// `flits_per_packet = 1` (VCs are never held across cycles).
    pub escape_vc: bool,
    /// Consecutive cycles a blocked worm's flits may all be still before the
    /// deadlock detector follows its credit-wait chain.
    pub deadlock_threshold: u64,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            injection_rate: 1.0,
            cycles: 200,
            drain_cycles: 5_000,
            max_packet_cycles: 100_000,
            traffic_threads: 1,
            flits_per_packet: 1,
            vc_count: 2,
            vc_buffer_flits: 2,
            escape_vc: true,
            deadlock_threshold: 64,
        }
    }
}

impl TrafficSpec {
    /// The default spec: rate 1.0, 200 injection cycles, 5000 drain cycles,
    /// single-flit packets on 2 VCs (escape class enabled, inert at one flit).
    pub fn new() -> Self {
        TrafficSpec::default()
    }

    /// The default spec at the given offered load.
    pub fn at_rate(rate: f64) -> Self {
        TrafficSpec::new().rate(rate)
    }

    /// Sets the offered load in packets per cycle.
    pub fn rate(mut self, rate: f64) -> Self {
        self.injection_rate = rate;
        self
    }

    /// Sets the injection-window length in cycles.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Sets the post-injection drain budget in cycles.
    pub fn drain_cycles(mut self, drain_cycles: u64) -> Self {
        self.drain_cycles = drain_cycles;
        self
    }

    /// Sets the in-flight cycle budget per packet.
    pub fn max_packet_cycles(mut self, max_packet_cycles: u64) -> Self {
        self.max_packet_cycles = max_packet_cycles;
        self
    }

    /// Sets the decision-worker count (execution detail; results are
    /// bit-identical for every setting).
    pub fn traffic_threads(mut self, traffic_threads: usize) -> Self {
        self.traffic_threads = traffic_threads;
        self
    }

    /// Sets the worm length in flits.
    pub fn flits_per_packet(mut self, flits_per_packet: u32) -> Self {
        self.flits_per_packet = flits_per_packet;
        self
    }

    /// Sets the virtual-channel count per directed link.
    pub fn vc_count(mut self, vc_count: u32) -> Self {
        self.vc_count = vc_count;
        self
    }

    /// Sets the flit-buffer slots contributed per VC to the shared link pool.
    pub fn vc_buffer_flits(mut self, vc_buffer_flits: u32) -> Self {
        self.vc_buffer_flits = vc_buffer_flits;
        self
    }

    /// Enables or disables the dimension-order escape class on VC 0.
    pub fn escape_vc(mut self, escape_vc: bool) -> Self {
        self.escape_vc = escape_vc;
        self
    }

    /// Sets the deadlock-detector idle threshold in cycles.
    pub fn deadlock_threshold(mut self, deadlock_threshold: u64) -> Self {
        self.deadlock_threshold = deadlock_threshold;
        self
    }

    /// Checks the spec, returning one message per rejected field (empty = valid) —
    /// the [`lgfi_sim::FaultPlan::validate`] precedent.  [`TrafficEngine::new`]
    /// panics on a non-empty result, so misconfiguration (zero-flit worms, a zero
    /// VC count, …) fails loudly up front.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.injection_rate.is_finite() || self.injection_rate < 0.0 {
            problems.push(format!(
                "injection_rate must be finite and non-negative, got {}",
                self.injection_rate
            ));
        }
        if self.flits_per_packet == 0 {
            problems.push("flits_per_packet must be at least 1".into());
        }
        if self.vc_count == 0 {
            problems.push("vc_count must be at least 1".into());
        }
        if self.vc_buffer_flits == 0 {
            problems.push("vc_buffer_flits must be at least 1".into());
        }
        if self.escape_vc && self.vc_count < 2 {
            problems.push(format!(
                "escape_vc reserves VC 0 and needs vc_count >= 2, got {}",
                self.vc_count
            ));
        }
        if self.max_packet_cycles == 0 {
            problems.push("max_packet_cycles must be at least 1".into());
        }
        if self.deadlock_threshold == 0 {
            problems.push("deadlock_threshold must be at least 1 cycle".into());
        }
        problems
    }
}

/// The record of one finished packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRecord {
    /// Launch index of the packet (the arbitration tie-break key).
    pub id: u64,
    /// Source node.
    pub source: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Cycle at which the packet was injected.
    pub injected_at: u64,
    /// Cycle at which the packet finished (for a delivered worm: the cycle its
    /// last flit was consumed at the destination).
    pub finished_at: u64,
    /// Final status.
    pub status: ProbeStatus,
    /// Head hops taken (forward + backtrack).
    pub hops: u64,
    /// Cycles the head spent stalled waiting for bandwidth, a virtual channel or
    /// a buffer credit.
    pub stalls: u64,
    /// Flits the packet was injected with.
    pub flits: u32,
    /// Source-destination distance at injection.
    pub initial_distance: u32,
}

impl PacketRecord {
    /// True if the packet reached its destination.
    pub fn delivered(&self) -> bool {
        self.status == ProbeStatus::Delivered
    }

    /// End-to-end latency in cycles (queueing and tail drain included).
    pub fn latency(&self) -> u64 {
        self.finished_at - self.injected_at
    }
}

/// One link a worm currently occupies: `link` is its [`LinkState`] index
/// (computed once, when the head crosses), `vc` the held channel, `buffered` this
/// worm's flits sitting in the downstream buffer.  `vc_released` is set once the
/// worm's tail flit has crossed the link (the channel is free for other worms
/// while the buffered flits drain through the shared pool).
#[derive(Debug, Clone, Copy)]
struct WormLink {
    link: u32,
    vc: u32,
    buffered: u32,
    vc_released: bool,
}

/// One in-flight worm: the recycled probe (head path + used-direction arena), its
/// injection time, stall count and the flit pipeline state (links held
/// tail-to-head, flits waiting at the rear, flits ejected at the destination).
struct FlightPacket {
    id: u64,
    probe: Probe,
    injected_at: u64,
    stalls: u64,
    /// What the worm's head wants this cycle, computed in the (parallel)
    /// decision phase and consumed by the serial arbitration phase.
    request: ProbeMove,
    /// Worm length in flits.
    flits: u32,
    /// Flits still waiting at the worm's rear node (the source until the tail
    /// departs; after a full backtrack, wherever the head returned to).
    rear_flits: u32,
    /// Flits consumed at the destination.
    ejected: u32,
    /// Links the worm occupies, tail first, head last.
    held: VecDeque<WormLink>,
    /// Consecutive cycles in which none of the worm's flits moved.
    idle: u64,
    /// The packet id whose held VC blocked this worm's head this cycle
    /// ([`NO_OWNER`] = not VC/credit-blocked) — the deadlock detector's wait-for
    /// edge.
    blocked_on: u64,
}

impl FlightPacket {
    /// True while the worm still has work: its head is in flight, or it was
    /// delivered and its tail flit has not been consumed yet.
    #[inline]
    fn is_live(&self) -> bool {
        match self.probe.status {
            ProbeStatus::InFlight => true,
            ProbeStatus::Delivered => self.ejected < self.flits,
            _ => false,
        }
    }
}

/// The outcome of one head-advance attempt.
enum HeadMove {
    /// The head crossed a link (possibly the escape channel).
    Advanced,
    /// Every usable VC is held or the downstream buffer is full; the witness is
    /// the owner of the lowest held VC on the wanted link ([`NO_OWNER`] when the
    /// buffer is full only of tail-crossed flits, which always drain).
    Blocked(u64),
    /// The link already moved its one flit this cycle — a transient bandwidth
    /// stall, never a deadlock edge.
    NoBandwidth,
}

/// The cycle-driven concurrent-traffic engine.  See the module docs for the cycle
/// structure and the determinism contract.
pub struct TrafficEngine {
    mesh: Mesh,
    spec: TrafficSpec,
    link: LinkState,
    /// Per-worker router instances (index 0 drives the serial path); each decision
    /// worker uses exactly one, so routers never cross threads.
    workers: Vec<Box<dyn Router>>,
    /// Persistent decision workers, spawned lazily on the first parallel cycle and
    /// parked between cycles.
    pool: lgfi_sim::PoolHandle,
    /// In-flight packets, always in launch (id) order.
    packets: Vec<FlightPacket>,
    /// Recycled buffers of finished packets.
    spare: Vec<(Probe, VecDeque<WormLink>)>,
    records: Vec<PacketRecord>,
    stats: TrafficStats,
    /// Deadlock-detector visit stamps, parallel to `packets` (walk ids; 0 = not
    /// visited this invocation).
    dl_stamp: Vec<u64>,
    /// Monotone walk counter for `dl_stamp`.
    dl_walk: u64,
    cycle: u64,
    next_id: u64,
}

impl TrafficEngine {
    /// A traffic engine over `mesh` whose packets are all driven by routers from
    /// `make_router` (one instance per decision worker), configured by `spec`.
    ///
    /// # Panics
    ///
    /// Panics when [`TrafficSpec::validate`] rejects the spec.
    pub fn new(mesh: Mesh, spec: TrafficSpec, make_router: &dyn Fn() -> Box<dyn Router>) -> Self {
        let problems = spec.validate();
        assert!(
            problems.is_empty(),
            "invalid TrafficSpec: {}",
            problems.join("; ")
        );
        let threads = lgfi_sim::resolve_threads(spec.traffic_threads);
        let workers: Vec<Box<dyn Router>> = (0..threads).map(|_| make_router()).collect();
        TrafficEngine {
            link: LinkState::new(&mesh, spec.vc_count, spec.vc_buffer_flits, spec.escape_vc),
            workers,
            pool: lgfi_sim::PoolHandle::new(),
            mesh,
            spec,
            packets: Vec::new(),
            spare: Vec::new(),
            records: Vec::new(),
            stats: TrafficStats::new(),
            dl_stamp: Vec::new(),
            dl_walk: 0,
            cycle: 0,
            next_id: 0,
        }
    }

    /// The mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The engine's traffic spec.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// The resolved decision-worker count (>= 1).
    pub fn traffic_threads(&self) -> usize {
        self.workers.len()
    }

    /// Name of the router driving the packets.
    pub fn router_name(&self) -> &'static str {
        self.workers[0].name()
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.packets.len()
    }

    /// Records of every finished packet, in launch order within each cycle.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Drops the finished-packet records accumulated so far, keeping their capacity
    /// and every other statistic.  Long-horizon campaigns drain the records into an
    /// external accumulator each cycle and clear them here, so a multi-million-cycle
    /// run holds memory proportional to the in-flight population rather than every
    /// packet ever finished.
    pub fn clear_records(&mut self) {
        self.records.clear();
    }

    /// The accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Pre-reserves record storage for `extra` further packets and pre-sizes the
    /// latency table up to `max_latency`, so a warm steady state performs no
    /// allocations (see `tests/alloc_regression.rs`).
    pub fn reserve(&mut self, extra: usize, max_latency: u64) {
        self.records.reserve(extra);
        self.packets.reserve(extra);
        self.dl_stamp.reserve(extra);
        self.stats.reserve_latency(max_latency);
    }

    /// Injects a packet of [`TrafficSpec::flits_per_packet`] flits from `source`
    /// to `dest` at the current cycle, recycling a finished packet's buffers when
    /// available.  A degenerate `source == dest` packet is delivered immediately
    /// with zero latency.  Returns the packet id.
    pub fn inject(&mut self, source: NodeId, dest: NodeId) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.record_injected(1);
        if source == dest {
            self.records.push(PacketRecord {
                id,
                source,
                dest,
                injected_at: self.cycle,
                finished_at: self.cycle,
                status: ProbeStatus::Delivered,
                hops: 0,
                stalls: 0,
                flits: self.spec.flits_per_packet,
                initial_distance: 0,
            });
            self.stats.record_finished(0, 0, 0, true);
            return id;
        }
        let (probe, mut held) = match self.spare.pop() {
            Some((mut probe, held)) => {
                probe.reset(&self.mesh, source, dest);
                (probe, held)
            }
            None => (Probe::new(&self.mesh, source, dest), VecDeque::new()),
        };
        held.clear();
        self.packets.push(FlightPacket {
            id,
            probe,
            injected_at: self.cycle,
            stalls: 0,
            request: ProbeMove::Hold,
            flits: self.spec.flits_per_packet,
            rear_flits: self.spec.flits_per_packet,
            ejected: 0,
            held,
            idle: 0,
            blocked_on: NO_OWNER,
        });
        id
    }

    /// Executes one cycle against the frozen environment `env`: parallel decisions,
    /// serial launch-order arbitration and flit movement, deadlock detection,
    /// retirement.
    pub fn run_cycle(&mut self, env: &RouteEnv<'_>) {
        debug_assert_eq!(
            env.boundary.node_count(),
            self.mesh.node_count(),
            "cycle env boundary arena must cover the mesh"
        );
        // --- Decision phase (shardable: pure per-packet functions of `env`). ------
        // A delivered worm has no head decisions left (its tail drains in the
        // arbitration phase); an in-flight one spends its budget in cycles since
        // injection.
        let mesh = &self.mesh;
        let spec = self.spec;
        let cycle = self.cycle;
        let decide = |p: &mut FlightPacket, router: &dyn Router| {
            let exhausted = cycle.saturating_sub(p.injected_at) >= spec.max_packet_cycles;
            p.request = p.probe.next_move(mesh, env, router, exhausted);
        };
        let live = self.packets.len();
        if live > 0 {
            let shard_count = self.workers.len().min(live);
            if shard_count > 1 {
                self.pool.get(self.workers.len()).run_chunked_with(
                    &mut self.packets,
                    &mut self.workers[..shard_count],
                    |_, chunk, router| {
                        for p in chunk {
                            decide(p, router.as_ref());
                        }
                    },
                );
            } else {
                let router = self.workers[0].as_ref();
                for p in self.packets.iter_mut() {
                    decide(p, router);
                }
            }
        }

        // --- Arbitration phase (serial, launch order = packet-id order). ----------
        let link = &mut self.link;
        link.begin_cycle();
        let mut suspicious = false;
        // Whether any worm stopped being live this cycle; when none did, the
        // retirement pass has nothing to do.
        let mut finished = false;
        for p in &mut self.packets {
            let mut moved = false;
            p.blocked_on = NO_OWNER;
            match p.request {
                ProbeMove::Hold => {}
                // A router giving up counts as a step, as in the probe plane, so
                // `latency == hops + stalls` holds for failed single-flit packets
                // as well.
                ProbeMove::Finish(status) => {
                    p.probe.finish(mesh, status);
                    teardown_worm(link, p);
                }
                ProbeMove::Backtrack => {
                    p.probe.apply(mesh, RoutingDecision::Backtrack);
                    retreat_worm(link, p);
                    if p.probe.status != ProbeStatus::InFlight {
                        teardown_worm(link, p);
                    }
                    moved = true;
                }
                ProbeMove::Hop(dir) => match advance_head(mesh, env, link, p, dir) {
                    HeadMove::Advanced => moved = true,
                    HeadMove::Blocked(witness) => {
                        p.stalls += 1;
                        p.blocked_on = witness;
                    }
                    HeadMove::NoBandwidth => p.stalls += 1,
                },
            }
            if advance_body(link, p) {
                moved = true;
            }
            release_crossed(link, p);
            if moved {
                p.idle = 0;
            } else {
                p.idle += 1;
                if p.idle >= spec.deadlock_threshold && p.blocked_on != NO_OWNER {
                    suspicious = true;
                }
            }
            p.request = ProbeMove::Hold;
            finished |= !p.is_live();
        }
        if suspicious {
            finished |= detect_deadlocks(
                &mut self.packets,
                link,
                &mut self.stats,
                &mut self.dl_stamp,
                &mut self.dl_walk,
                spec.deadlock_threshold,
            );
        }
        self.cycle += 1;
        self.stats.record_cycle();
        if finished {
            self.retire();
        }
    }

    /// Retirement phase: records the finished packets in launch order and
    /// recycles their buffers.
    fn retire(&mut self) {
        let finished_at = self.cycle;
        let Self {
            packets,
            records,
            spare,
            stats,
            ..
        } = self;
        let mut write = 0usize;
        for read in 0..packets.len() {
            if packets[read].is_live() {
                // A packet already in place stays put: swapping it with itself
                // would copy it three times.
                if write != read {
                    packets.swap(write, read);
                }
                write += 1;
            } else {
                let p = &packets[read];
                let latency = finished_at - p.injected_at;
                records.push(PacketRecord {
                    id: p.id,
                    source: p.probe.source,
                    dest: p.probe.dest,
                    injected_at: p.injected_at,
                    finished_at,
                    status: p.probe.status,
                    hops: p.probe.steps,
                    stalls: p.stalls,
                    flits: p.flits,
                    initial_distance: p.probe.initial_distance,
                });
                stats.record_finished(
                    latency,
                    p.probe.steps,
                    p.stalls,
                    p.probe.status == ProbeStatus::Delivered,
                );
            }
        }
        for p in packets.drain(write..) {
            spare.push((p.probe, p.held));
        }
    }

    /// Runs `cycles` cycles against a fixed static environment.
    pub fn run_static_cycles(&mut self, env: &RouteEnv<'_>, cycles: u64) {
        for _ in 0..cycles {
            self.run_cycle(env);
        }
    }

    /// Runs static cycles until every in-flight packet has finished, up to
    /// `max_cycles`.  Returns the number of cycles executed.
    pub fn drain_static(&mut self, env: &RouteEnv<'_>, max_cycles: u64) -> u64 {
        let mut executed = 0u64;
        while !self.packets.is_empty() && executed < max_cycles {
            self.run_cycle(env);
            executed += 1;
        }
        executed
    }
}

/// The dimension-order (deadlock-free) direction from `current` towards `dest`:
/// correct the first dimension whose coordinate differs.  `None` when already
/// there.
fn dor_direction(current: &Coord, dest: &Coord) -> Option<Direction> {
    current
        .offset_to(dest)
        .enumerate()
        .find(|&(_, delta)| delta != 0)
        .map(|(dim, delta)| Direction::new(dim, delta > 0))
}

/// Tries to extend the worm's head one link in the router's direction `dir`,
/// falling back to the escape channel (VC 0, dimension-order hop) when the
/// adaptive class of the wanted link is unavailable.  Serial arbitration-phase
/// code: grants are consumed in packet-launch order.
fn advance_head(
    mesh: &Mesh,
    env: &RouteEnv<'_>,
    link: &mut LinkState,
    p: &mut FlightPacket,
    dir: Direction,
) -> HeadMove {
    let from = p.probe.current;
    let wanted = link.link(from, dir);
    // Adaptive class on the router's link: a free VC plus a buffer credit.
    let mut choice = link
        .free_adaptive_vc(wanted)
        .filter(|_| link.credits(wanted) > 0)
        .map(|vc| (dir, wanted, vc));
    // Escape class: when the adaptive path is VC- or credit-blocked, a
    // dimension-order hop on the reserved VC 0 is always deadlock-free.  The
    // surface test reads the carried coordinate and the neighbor id steps by the
    // stride, so the fallback divides nothing.
    if choice.is_none() && link.has_escape_vc() {
        let at = p.probe.current_coord();
        if let Some(dor) = dor_direction(at, p.probe.dest_coord()) {
            let (x, stride) = (at[dor.dim], mesh.stride(dor.dim));
            let neighbor = if dor.positive {
                (x + 1 < mesh.radix(dor.dim)).then(|| from + stride)
            } else {
                (x > 0).then(|| from - stride)
            };
            if neighbor.is_some_and(|nb| env.statuses[nb] == NodeStatus::Enabled) {
                let escape = link.link(from, dor);
                if link.escape_vc_free(escape) && link.credits(escape) > 0 {
                    choice = Some((dor, escape, 0));
                }
            }
        }
    }
    let Some((out, out_link, vc)) = choice else {
        return HeadMove::Blocked(link.first_vc_owner(wanted));
    };
    if !link.try_flit(out_link) {
        return HeadMove::NoBandwidth;
    }
    // The head flit leaves the buffer behind it (or the rear node).
    if let Some(back) = p.held.back_mut() {
        back.buffered -= 1;
        link.drain(back.link, 1);
    } else {
        p.rear_flits -= 1;
    }
    p.probe.apply(mesh, RoutingDecision::Forward(out));
    if p.probe.status == ProbeStatus::Delivered {
        // The destination consumes flits as they arrive — no buffer, no VC.
        p.ejected += 1;
        p.held.push_back(WormLink {
            link: out_link,
            vc: 0,
            buffered: 0,
            vc_released: true,
        });
    } else {
        link.acquire_vc(out_link, vc, p.id);
        link.deposit(out_link, 1);
        p.held.push_back(WormLink {
            link: out_link,
            vc: vc as u32,
            buffered: 1,
            vc_released: false,
        });
    }
    HeadMove::Advanced
}

/// Streams the worm's body flits forward behind the head — head-most link first,
/// so the pipeline shifts one hop per cycle at capacity 1.  Flits crossing the
/// final link of a delivered worm are consumed by the destination (no credit
/// needed); every other crossing needs a downstream credit and link bandwidth.
/// Returns true when any flit moved.
fn advance_body(link: &mut LinkState, p: &mut FlightPacket) -> bool {
    let delivered = p.probe.status == ProbeStatus::Delivered;
    // Indexing one slice spares every flit the deque's wrap arithmetic; the
    // rotation this may cost is rare and bounded by the links the worm holds.
    let held = p.held.make_contiguous();
    let Some(last) = held.len().checked_sub(1) else {
        return false;
    };
    let mut moved = false;
    for i in (0..=last).rev() {
        loop {
            let avail = if i == 0 {
                p.rear_flits
            } else {
                held[i - 1].buffered
            };
            if avail == 0 {
                break;
            }
            let lk = held[i].link;
            let eject = delivered && i == last;
            if !eject && link.credits(lk) == 0 {
                break;
            }
            if !link.try_flit(lk) {
                break;
            }
            if i == 0 {
                p.rear_flits -= 1;
            } else {
                held[i - 1].buffered -= 1;
                link.drain(held[i - 1].link, 1);
            }
            if eject {
                p.ejected += 1;
            } else {
                held[i].buffered += 1;
                link.deposit(lk, 1);
            }
            moved = true;
        }
    }
    moved
}

/// Releases the VCs of links the worm's tail flit has crossed (no flits remain
/// upstream of their downstream buffer) and pops fully-drained tail links.  The
/// scan stops at the first link with upstream flits, so a warm cycle touches
/// `O(released)` entries.
fn release_crossed(link: &mut LinkState, p: &mut FlightPacket) {
    let mut upstream = p.rear_flits;
    for lk in p.held.iter_mut() {
        if upstream > 0 {
            break;
        }
        if !lk.vc_released {
            link.release_vc(lk.link, lk.vc as usize);
            lk.vc_released = true;
        }
        upstream += lk.buffered;
    }
    // A delivered worm must keep its final (ejection) link until the tail flit
    // is consumed — a worm delivered on its first hop would otherwise lose its
    // only link and strand its remaining flits at the rear node.
    let keep = usize::from(p.probe.status == ProbeStatus::Delivered && p.ejected < p.flits);
    while p.held.len() > keep {
        // audit:allow(panic): the loop condition guarantees a non-empty queue.
        let front = p.held.front().expect("len checked above");
        if front.vc_released && front.buffered == 0 {
            p.held.pop_front();
        } else {
            break;
        }
    }
}

/// Retreats the worm one link after a head backtrack: the newest held link is
/// released and its flits fold back onto the previous link's buffer (or the rear
/// node) — the worm's own reserved channel in reverse, so a retreat never
/// contends.  The fold may transiently overflow the upstream buffer; credits
/// saturate at zero until it drains.
fn retreat_worm(link: &mut LinkState, p: &mut FlightPacket) {
    if let Some(lk) = p.held.pop_back() {
        if !lk.vc_released {
            link.release_vc(lk.link, lk.vc as usize);
        }
        if lk.buffered > 0 {
            link.drain(lk.link, lk.buffered);
            if let Some(prev) = p.held.back_mut() {
                prev.buffered += lk.buffered;
                link.deposit(prev.link, lk.buffered);
            } else {
                p.rear_flits += lk.buffered;
            }
        }
    }
}

/// Tears a terminal worm down: every held VC is released and every buffered flit
/// dropped (an aborted worm's flits vanish, the PCS abort semantics).
fn teardown_worm(link: &mut LinkState, p: &mut FlightPacket) {
    while let Some(lk) = p.held.pop_back() {
        if !lk.vc_released {
            link.release_vc(lk.link, lk.vc as usize);
        }
        if lk.buffered > 0 {
            link.drain(lk.link, lk.buffered);
        }
    }
    p.rear_flits = 0;
}

/// Follows the wait-for chains of long-idle blocked worms (worm → owner of the
/// lowest held VC on its wanted link).  Every worm has at most one outgoing edge,
/// so each walk either terminates (no deadlock) or closes a cycle — whose member
/// worms are torn down with [`ProbeStatus::Deadlocked`] and counted in
/// [`TrafficStats::deadlocked`].  Visit stamps make the whole invocation linear
/// in the packet population; the stamp buffer is recycled across invocations.
/// Returns true when it tore any worm down.
fn detect_deadlocks(
    packets: &mut [FlightPacket],
    link: &mut LinkState,
    stats: &mut TrafficStats,
    dl_stamp: &mut Vec<u64>,
    dl_walk: &mut u64,
    threshold: u64,
) -> bool {
    let mut torn_down = false;
    dl_stamp.clear();
    dl_stamp.resize(packets.len(), 0);
    for start in 0..packets.len() {
        if packets[start].idle < threshold
            || packets[start].blocked_on == NO_OWNER
            || packets[start].probe.status != ProbeStatus::InFlight
            || dl_stamp[start] != 0
        {
            continue;
        }
        *dl_walk += 1;
        let walk = *dl_walk;
        let mut i = start;
        loop {
            dl_stamp[i] = walk;
            let next_id = packets[i].blocked_on;
            if next_id == NO_OWNER {
                break;
            }
            let Ok(j) = packets.binary_search_by_key(&next_id, |q| q.id) else {
                break;
            };
            if packets[j].probe.status != ProbeStatus::InFlight {
                break;
            }
            if dl_stamp[j] == walk {
                // Cycle closed: kill every worm on it (follow the chain from `j`
                // until it returns to `j`).
                let mut killed = 0u64;
                let mut k = j;
                loop {
                    if packets[k].probe.status == ProbeStatus::InFlight {
                        packets[k].probe.status = ProbeStatus::Deadlocked;
                        teardown_worm(link, &mut packets[k]);
                        killed += 1;
                    }
                    let nid = packets[k].blocked_on;
                    let Ok(nk) = packets.binary_search_by_key(&nid, |q| q.id) else {
                        break;
                    };
                    if nk == j || dl_stamp[nk] != walk {
                        break;
                    }
                    k = nk;
                }
                stats.record_deadlocked(killed);
                torn_down |= killed > 0;
                break;
            }
            if dl_stamp[j] != 0 {
                // Joins a chain already cleared by an earlier walk.
                break;
            }
            i = j;
        }
    }
    torn_down
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StaticLayout;
    use crate::routing::LgfiRouter;
    use lgfi_topology::coord;

    fn lgfi_engine(mesh: &Mesh, spec: TrafficSpec) -> TrafficEngine {
        TrafficEngine::new(mesh.clone(), spec, &|| Box::new(LgfiRouter::new()))
    }

    #[test]
    fn contending_packets_stall_in_id_order() {
        // A 1xN line mesh: two packets injected at the same end must share the same
        // outgoing links; the younger id stalls exactly once behind the older one.
        let mesh = Mesh::new(&[1, 8]);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        let a = eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 7]));
        let b = eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 7]));
        eng.drain_static(&layout.env(), 1_000);
        assert_eq!(eng.in_flight(), 0);
        let records = eng.records();
        assert_eq!(records.len(), 2);
        let ra = records.iter().find(|r| r.id == a).unwrap();
        let rb = records.iter().find(|r| r.id == b).unwrap();
        assert!(ra.delivered() && rb.delivered());
        assert_eq!(ra.stalls, 0, "the older packet never waits");
        assert_eq!(rb.stalls, 1, "the younger packet waits once at the source");
        assert_eq!(ra.hops, 7);
        assert_eq!(rb.hops, 7);
        assert_eq!(rb.latency(), ra.latency() + 1);
    }

    #[test]
    fn uncontended_hops_match_the_probe_engine() {
        // With a static environment, contention only delays packets — it never
        // changes their route.  Every delivered packet must take exactly the hops
        // the one-probe-at-a-time engine takes for the same pair.
        let mesh = Mesh::cubic(12, 2);
        let faults = [coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]];
        let layout = StaticLayout::new(mesh.clone(), &faults);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        let pairs = [
            (coord![0, 0], coord![11, 11]),
            (coord![5, 1], coord![6, 10]),
            (coord![11, 0], coord![0, 11]),
            (coord![1, 5], coord![10, 6]),
        ];
        for (s, d) in &pairs {
            eng.inject(mesh.id_of(s), mesh.id_of(d));
        }
        eng.drain_static(&layout.env(), 10_000);
        for rec in eng.records() {
            assert!(rec.delivered(), "{rec:?}");
            let solo = layout.route(&LgfiRouter::new(), rec.source, rec.dest, 100_000);
            assert_eq!(rec.hops, solo.steps, "contention must not change the route");
            assert_eq!(rec.latency(), rec.hops + rec.stalls);
        }
    }

    #[test]
    fn degenerate_self_packet_is_delivered_instantly() {
        let mesh = Mesh::cubic(4, 2);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        let id = eng.inject(3, 3);
        assert_eq!(eng.in_flight(), 0);
        let rec = eng.records()[0];
        assert_eq!(rec.id, id);
        assert!(rec.delivered());
        assert_eq!(rec.latency(), 0);
    }

    #[test]
    fn cycle_budget_exhaustion_is_reported() {
        let mesh = Mesh::cubic(10, 2);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new().max_packet_cycles(3));
        eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![9, 9]));
        eng.drain_static(&layout.env(), 100);
        assert_eq!(eng.records()[0].status, ProbeStatus::Exhausted);
    }

    #[test]
    fn faulty_destination_is_unreachable() {
        let mesh = Mesh::cubic(8, 2);
        let faults = [coord![4, 4]];
        let layout = StaticLayout::new(mesh.clone(), &faults);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![4, 4]));
        eng.drain_static(&layout.env(), 100);
        assert_eq!(eng.records()[0].status, ProbeStatus::Unreachable);
    }

    #[test]
    fn recycled_buffers_route_identically() {
        let mesh = Mesh::cubic(10, 2);
        let faults = [coord![4, 4], coord![5, 5], coord![4, 5], coord![5, 4]];
        let layout = StaticLayout::new(mesh.clone(), &faults);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        let pairs = [
            (coord![0, 0], coord![9, 9]),
            (coord![9, 0], coord![0, 9]),
            (coord![4, 0], coord![5, 9]),
        ];
        let run = |eng: &mut TrafficEngine| {
            for (s, d) in &pairs {
                eng.inject(mesh.id_of(s), mesh.id_of(d));
            }
            eng.drain_static(&layout.env(), 10_000)
        };
        run(&mut eng);
        let first: Vec<(u64, u64, bool)> = eng
            .records()
            .iter()
            .map(|r| (r.hops, r.stalls, r.delivered()))
            .collect();
        run(&mut eng);
        let second: Vec<(u64, u64, bool)> = eng.records()[pairs.len()..]
            .iter()
            .map(|r| (r.hops, r.stalls, r.delivered()))
            .collect();
        assert_eq!(first, second, "warm buffers must be invisible");
    }

    #[test]
    fn hotspot_saturation_is_observable() {
        // Funnel far more traffic at one node than its 2n inbound links can carry:
        // accepted throughput must saturate below the offered load and queueing
        // delay must show up in the latency.
        let mesh = Mesh::cubic(8, 2);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new());
        let hot = mesh.id_of(&coord![4, 4]);
        let mut sources: Vec<NodeId> = (0..mesh.node_count()).filter(|&n| n != hot).collect();
        sources.truncate(32);
        for cycle in 0..20 {
            for &s in &sources {
                eng.inject(s, hot);
            }
            eng.run_static_cycles(&layout.env(), 1);
            let _ = cycle;
        }
        eng.drain_static(&layout.env(), 10_000);
        let stats = eng.stats();
        assert_eq!(stats.delivered() + stats.failed(), stats.injected());
        assert!(
            stats.total_stalls() > 0,
            "a hotspot must produce queueing: {stats:?}"
        );
        let mean = stats.mean_latency();
        let min_possible = 1.0;
        assert!(mean > min_possible);
        assert!(stats.latency_quantile(0.99).unwrap() >= stats.latency_quantile(0.5).unwrap());
    }

    #[test]
    fn spec_validate_accepts_the_default() {
        assert!(TrafficSpec::new().validate().is_empty());
    }

    #[test]
    fn spec_validate_rejects_zero_flits() {
        let problems = TrafficSpec::new().flits_per_packet(0).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("flits_per_packet"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_zero_vc_count() {
        let problems = TrafficSpec::new().vc_count(0).escape_vc(false).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("vc_count"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_zero_buffer_depth() {
        let problems = TrafficSpec::new().vc_buffer_flits(0).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("vc_buffer_flits"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_escape_without_a_second_vc() {
        let problems = TrafficSpec::new().vc_count(1).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("escape_vc"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_zero_cycle_budget() {
        let problems = TrafficSpec::new().max_packet_cycles(0).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("max_packet_cycles"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_zero_deadlock_threshold() {
        let problems = TrafficSpec::new().deadlock_threshold(0).validate();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("deadlock_threshold"), "{problems:?}");
    }

    #[test]
    fn spec_validate_rejects_bad_rates() {
        assert!(!TrafficSpec::new().rate(-1.0).validate().is_empty());
        assert!(!TrafficSpec::new().rate(f64::NAN).validate().is_empty());
        assert!(!TrafficSpec::new().rate(f64::INFINITY).validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid TrafficSpec")]
    fn engine_rejects_an_invalid_spec() {
        let mesh = Mesh::cubic(4, 2);
        let _ = lgfi_engine(&mesh, TrafficSpec::new().flits_per_packet(0));
    }

    #[test]
    fn multi_flit_worm_pipeline_adds_serialisation_latency() {
        // One worm of F flits on an idle line: the head behaves exactly like the
        // single-flit packet (same hops, no stalls) and the tail takes F - 1 more
        // cycles to drain at capacity 1, so latency = hops + F - 1.
        let mesh = Mesh::new(&[1, 8]);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        for flits in [1u32, 2, 4, 8] {
            let mut eng = lgfi_engine(&mesh, TrafficSpec::new().flits_per_packet(flits));
            eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 7]));
            eng.drain_static(&layout.env(), 1_000);
            let rec = eng.records()[0];
            assert!(rec.delivered(), "{rec:?}");
            assert_eq!(rec.hops, 7, "flits must not change the route");
            assert_eq!(rec.stalls, 0, "an idle line never blocks the head");
            assert_eq!(
                rec.latency(),
                7 + u64::from(flits) - 1,
                "tail drain is serialised at one flit per cycle"
            );
        }
    }

    #[test]
    fn single_hop_worm_drains_its_tail() {
        // A worm delivered on its very first hop has no real links — only the
        // ejection link.  Its remaining flits must still stream across, one per
        // cycle at capacity 1: latency = 1 + F - 1 = F.
        let mesh = Mesh::new(&[1, 4]);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        let mut eng = lgfi_engine(&mesh, TrafficSpec::new().flits_per_packet(8));
        eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 1]));
        eng.drain_static(&layout.env(), 100);
        assert_eq!(eng.in_flight(), 0, "the tail must fully eject");
        let rec = eng.records()[0];
        assert!(rec.delivered(), "{rec:?}");
        assert_eq!(rec.hops, 1);
        assert_eq!(rec.latency(), 8, "seven tail flits follow the head");
    }

    #[test]
    fn worm_tail_occupies_links_behind_the_head() {
        // Two worms on the same line: the second's head cannot enter a link whose
        // only adaptive VC the first worm's tail still holds, so long worms
        // produce more blocking than single-flit packets on the same traffic.
        let mesh = Mesh::new(&[1, 10]);
        let layout = StaticLayout::new(mesh.clone(), &[]);
        let spec = TrafficSpec::new()
            .flits_per_packet(6)
            .vc_count(1)
            .escape_vc(false)
            .vc_buffer_flits(1);
        let mut eng = lgfi_engine(&mesh, spec);
        eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 9]));
        eng.inject(mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![0, 9]));
        eng.drain_static(&layout.env(), 10_000);
        let records = eng.records();
        assert!(records.iter().all(|r| r.delivered()), "{records:?}");
        let rb = records.iter().find(|r| r.id == 1).unwrap();
        assert!(
            rb.stalls > 1,
            "the follower must wait for the leader's tail to release channels: {rb:?}"
        );
    }

    /// The adversarial ring-cluster pattern: a central faulty block forces four
    /// long worms around its ring of healthy nodes, each turning one corner, each
    /// blocked by the previous worm's tail — a textbook cyclic credit wait.
    fn ring_cluster() -> (Mesh, StaticLayout, Vec<(NodeId, NodeId)>) {
        let mesh = Mesh::cubic(8, 2);
        let mut faults = Vec::new();
        for x in 2..=5i32 {
            for y in 2..=5i32 {
                faults.push(coord![x as usize, y as usize]);
            }
        }
        let layout = StaticLayout::new(mesh.clone(), &faults);
        let pairs = vec![
            (mesh.id_of(&coord![1, 1]), mesh.id_of(&coord![6, 4])),
            (mesh.id_of(&coord![6, 1]), mesh.id_of(&coord![3, 6])),
            (mesh.id_of(&coord![6, 6]), mesh.id_of(&coord![1, 3])),
            (mesh.id_of(&coord![1, 6]), mesh.id_of(&coord![4, 1])),
        ];
        (mesh, layout, pairs)
    }

    #[test]
    fn deadlock_detector_flags_the_ring_cluster_without_escape_vcs() {
        let (mesh, layout, pairs) = ring_cluster();
        let spec = TrafficSpec::new()
            .flits_per_packet(8)
            .vc_count(1)
            .escape_vc(false)
            .vc_buffer_flits(1)
            .deadlock_threshold(16);
        let mut eng = lgfi_engine(&mesh, spec);
        for &(s, d) in &pairs {
            eng.inject(s, d);
        }
        eng.drain_static(&layout.env(), 5_000);
        assert_eq!(eng.in_flight(), 0);
        assert!(
            eng.stats().deadlocked() >= 2,
            "the cyclic credit wait must be detected: {:?}",
            eng.records()
        );
        assert!(eng
            .records()
            .iter()
            .any(|r| r.status == ProbeStatus::Deadlocked));
    }

    #[test]
    fn escape_vcs_break_the_ring_cluster_deadlock() {
        let (mesh, layout, pairs) = ring_cluster();
        let spec = TrafficSpec::new()
            .flits_per_packet(8)
            .vc_count(2)
            .escape_vc(true)
            .vc_buffer_flits(1)
            .deadlock_threshold(16);
        let mut eng = lgfi_engine(&mesh, spec);
        for &(s, d) in &pairs {
            eng.inject(s, d);
        }
        eng.drain_static(&layout.env(), 5_000);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.stats().deadlocked(), 0, "{:?}", eng.records());
        assert!(
            eng.records().iter().all(|r| r.delivered()),
            "escape channels must drain the ring: {:?}",
            eng.records()
        );
    }
}
