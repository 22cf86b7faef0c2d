//! Algorithm 3: fault-information-based PCS routing.
//!
//! Routing in the paper is the *path setup phase* of pipelined circuit switching: a
//! probe travels from the source towards the destination one hop per step, reserving a
//! path; when it runs into trouble it backtracks and tries another direction.  The
//! probe header carries the destination address and, for every forwarding node along
//! the path, the list of directions already used there, so that no direction is tried
//! twice.
//!
//! At every step the current node classifies its outgoing directions
//! ([`DirectionClass`]) and picks an unused one with the highest priority:
//!
//! 1. **preferred** — reduces the distance to the destination and is not flagged as a
//!    detour by the boundary information (non-critical routing);
//! 2. **spare along block** — does not reduce the distance, but slides along the
//!    surface of a block that is blocking a preferred direction;
//! 3. **preferred but detour** — a preferred direction that the boundary information
//!    at this node marks as entering a dangerous area (critical routing);
//! 4. **spare** — any other non-shortening direction (the paper folds these into the
//!    spare class; we keep them after the detour class so that progress is preferred
//!    over wandering);
//! 5. **incoming** — going back the way the probe came, which is the same as
//!    backtracking one hop.
//!
//! If the current node is disabled, or no unused direction remains, the probe
//! backtracks; if it backtracks past the source, the destination is unreachable.
//!
//! The [`Router`] trait abstracts the decision rule so that the baseline routers of
//! `lgfi-baselines` can be driven by the same probe engine; [`LgfiRouter`] is the
//! paper's rule.

use lgfi_topology::coord::MAX_DIMS;
use lgfi_topology::direction::DirectionSet;
use lgfi_topology::{Coord, Direction, Mesh, NodeId};

use crate::block::FaultyBlock;
use crate::boundary::{BoundaryEntry, BoundaryMap};
use crate::status::NodeStatus;

/// One entry of the direction-indexed neighbor table of a [`RouteCtx`]: slot
/// [`Direction::index`] holds `Some((neighbor id, detected status))` when the mesh
/// has a neighbor in that direction, `None` on the mesh surface.
///
/// Indexing by direction makes [`RouteCtx::neighbor_status`] a constant-time slot
/// load instead of a linear scan over the neighbor list.
pub type NeighborSlot = Option<(NodeId, NodeStatus)>;

/// Fills `slots[..2n]` with the direction-indexed neighbor table of `node`, whose
/// coordinate is `at` (slot [`Direction::index`] per direction).  The surface test
/// reads `at` and the neighbor ids step `node` by [`Mesh::stride`], so the fill
/// divides nothing — this is the per-hop neighbor scan of the routing data plane,
/// run by [`Probe::decide`] into a stack array of `2 * MAX_DIMS` slots.
#[inline]
fn fill_neighbor_slots(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    node: NodeId,
    at: &Coord,
    slots: &mut [NeighborSlot],
) {
    for d in 0..mesh.ndim() {
        let stride = mesh.stride(d);
        let x = at[d];
        slots[2 * d] = (x > 0).then(|| (node - stride, statuses[node - stride]));
        slots[2 * d + 1] =
            (x + 1 < mesh.radix(d)).then(|| (node + stride, statuses[node + stride]));
    }
}

/// A per-node source of boundary information for the probe engine.
///
/// The hop loop of [`ProbeEngine`] only ever asks "what boundary entries are stored
/// at the node currently holding the probe?".  Abstracting that lookup lets the same
/// loop route against a live [`BoundaryMap`] (the static experiments) or against the
/// flattened [`CsrBoundary`] arena of an
/// [`EpochSnapshot`](crate::route_service::EpochSnapshot) — which is what makes
/// snapshot-resolved routes bit-identical to routes resolved against the live
/// network frozen at the same epoch.
pub trait BoundarySource {
    /// The boundary entries stored at (and visible to) `node`.
    fn entries_for(&self, node: NodeId) -> &[BoundaryEntry];
}

impl BoundarySource for BoundaryMap {
    #[inline]
    fn entries_for(&self, node: NodeId) -> &[BoundaryEntry] {
        self.entries(node)
    }
}

/// A borrowed view over a flattened boundary arena: node `i`'s entries are
/// `data[start[i]..end[i]]`.
///
/// Two layouts share the view.  A compact CSR arena (epoch snapshots, static
/// environments) packs the nodes back to back, so `end` is `start` shifted by one.
/// The slot arena of [`LgfiNetwork`](crate::network::LgfiNetwork) gives each node
/// its own range of slots, starting at `start[i]`, of which the first
/// `end[i] - start[i]` hold its visible entries.  The ranges are disjoint but
/// neither contiguous nor in node order (a node that outgrows its range moves to
/// the end of the arena), so the view reads only each node's start and end.
#[derive(Debug, Clone, Copy)]
pub struct CsrBoundary<'a> {
    data: &'a [BoundaryEntry],
    start: &'a [usize],
    end: &'a [usize],
}

impl<'a> CsrBoundary<'a> {
    /// Wraps a compact `(data, off)` CSR arena: node `i`'s entries are
    /// `data[off[i]..off[i + 1]]`.
    ///
    /// # Panics
    /// Panics if the offset table is empty or its last offset overruns `data`.
    pub fn new(data: &'a [BoundaryEntry], off: &'a [usize]) -> Self {
        assert!(
            !off.is_empty() && off[off.len() - 1] <= data.len(),
            "malformed boundary CSR arena: {} offsets over {} entries",
            off.len(),
            data.len()
        );
        CsrBoundary {
            data,
            start: &off[..off.len() - 1],
            end: &off[1..],
        }
    }

    /// Wraps a slot arena: node `i`'s entries are `data[off[i]..end[i]]`, and the
    /// sentinel `off[n]` is the length of the arena's slots.
    ///
    /// # Panics
    /// Panics if `off` does not hold exactly one offset more than `end`, or its
    /// last offset overruns `data`.
    pub(crate) fn with_slots(
        data: &'a [BoundaryEntry],
        off: &'a [usize],
        end: &'a [usize],
    ) -> Self {
        assert!(
            off.len() == end.len() + 1 && off[end.len()] <= data.len(),
            "malformed boundary slot arena: {} offsets, {} nodes over {} slots",
            off.len(),
            end.len(),
            data.len()
        );
        CsrBoundary {
            data,
            start: &off[..end.len()],
            end,
        }
    }

    /// Number of nodes the arena covers.
    pub fn node_count(&self) -> usize {
        self.end.len()
    }

    /// The entries of `node`, borrowed for the arena's lifetime.
    #[inline]
    pub fn entries(&self, node: NodeId) -> &'a [BoundaryEntry] {
        &self.data[self.start[node]..self.end[node]]
    }
}

impl BoundarySource for CsrBoundary<'_> {
    #[inline]
    fn entries_for(&self, node: NodeId) -> &[BoundaryEntry] {
        self.entries(node)
    }
}

/// Everything a node is allowed to look at when making a routing decision.
///
/// The limited-global-information router only uses the node-local fields (`current`,
/// `dest`, `current_status`, `neighbors`, `boundary_info`, `used`, `incoming`); the
/// `global_blocks` field exists solely for the idealised global-information baselines.
/// Every hop loop of the library builds the context with [`Probe::decide`], which
/// passes the live block list of the environment it routes in (the static blocks,
/// or the blocks of the current [`LgfiNetwork`](crate::network::LgfiNetwork) step),
/// whatever the router; the LGFI router never reads it.
///
/// Every field is borrowed or `Copy`, so the context itself is `Copy`: building one
/// per hop costs nothing, and wrapper routers (the baselines) derive stripped or
/// enriched variants with struct-update syntax instead of cloning vectors.
#[derive(Debug, Clone, Copy)]
pub struct RouteCtx<'a> {
    /// The mesh.
    pub mesh: &'a Mesh,
    /// Coordinate of the node currently holding the probe.
    pub current: &'a Coord,
    /// Coordinate of the destination.
    pub dest: &'a Coord,
    /// The current node's own status (it may have become disabled under dynamic
    /// faults while holding the probe).
    pub current_status: NodeStatus,
    /// The detected status of every in-mesh neighbor, indexed by
    /// [`Direction::index`] (fault detection happens at the beginning of every step,
    /// so this is current information).  Holds exactly `2n` slots; [`Probe::decide`]
    /// fills them from the probe's carried coordinate.
    pub neighbors: &'a [NeighborSlot],
    /// The boundary/block information stored at the current node and visible at this
    /// round (limited global information).
    pub boundary_info: &'a [BoundaryEntry],
    /// The blocks of the environment the probe routes in — read only by the
    /// global-information baselines.
    pub global_blocks: &'a [FaultyBlock],
    /// Directions already used by this probe at this node.
    pub used: DirectionSet,
    /// The direction by which the probe entered this node, if any.
    pub incoming: Option<Direction>,
}

impl RouteCtx<'_> {
    /// The Manhattan distance from the current node to the destination.
    pub fn distance(&self) -> u32 {
        self.current.manhattan(self.dest)
    }

    /// True if the hop in `dir` reduces the distance to the destination.
    #[inline]
    pub fn is_preferred(&self, dir: Direction) -> bool {
        let delta = self.dest[dir.dim] - self.current[dir.dim];
        (dir.positive && delta > 0) || (!dir.positive && delta < 0)
    }

    /// The detected status of the neighbor in `dir`, if it exists — a constant-time
    /// slot load on the direction-indexed neighbor table.
    #[inline]
    pub fn neighbor_status(&self, dir: Direction) -> Option<NodeStatus> {
        self.neighbors[dir.index()].map(|(_, s)| s)
    }
}

/// The priority class of one candidate outgoing direction (lower = better).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DirectionClass {
    /// Reduces the distance and is not flagged by boundary information.
    Preferred,
    /// Does not reduce the distance but slides along a block that is in the way.
    SpareAlongBlock,
    /// Reduces the distance but the boundary information marks it as entering a
    /// dangerous detour area (critical routing).
    PreferredButDetour,
    /// Any other direction that does not reduce the distance.
    Spare,
    /// The direction the probe came from (equivalent to backtracking one hop).
    Incoming,
}

/// The decision a router takes for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingDecision {
    /// Forward the probe one hop in the given direction.
    Forward(Direction),
    /// Backtrack one hop along the reserved path.
    Backtrack,
    /// Give up: the router has determined the destination is unreachable from here
    /// (only deterministic, non-backtracking baselines use this).
    Fail,
}

/// A routing decision rule.
///
/// `Send` so that batched sweeps and the dynamic network can hand each worker
/// exclusive access to its probes' routers; a router is only ever used from one
/// thread at a time.
pub trait Router: Send {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Decides what the probe should do at the current node.
    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision;
}

/// The paper's fault-information-based PCS routing rule (Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct LgfiRouter {
    /// If true (default), directions whose next node is *known* to be faulty or
    /// disabled (detected at this step) are never selected; the probe slides around
    /// blocks instead of bouncing off them.  Setting it to false reproduces a purely
    /// reactive variant that only reacts after entering a disabled node.
    pub avoid_known_blocked: bool,
}

impl LgfiRouter {
    /// The default configuration.
    pub fn new() -> Self {
        LgfiRouter {
            avoid_known_blocked: true,
        }
    }

    /// Classifies one candidate direction, or returns `None` if it must not be used at
    /// all (outside the mesh, already used, or pointing at a known faulty/disabled
    /// node).  The same rule as [`Router::decide`], answered from the same
    /// per-decision masks.
    pub fn classify(&self, ctx: &RouteCtx<'_>, dir: Direction) -> Option<DirectionClass> {
        self.class_of(ctx, &HopMasks::for_decision(ctx), dir.index())
    }

    /// The class of the direction with index `i` under the masks of this decision.
    #[inline]
    fn class_of(&self, ctx: &RouteCtx<'_>, masks: &HopMasks, i: usize) -> Option<DirectionClass> {
        let bit = 1u16 << i;
        if ctx.used.bits() & bit != 0 {
            return None;
        }
        let (_, status) = ctx.neighbors[i]?;
        if status == NodeStatus::Faulty {
            return None;
        }
        if self.avoid_known_blocked && status == NodeStatus::Disabled {
            return None;
        }
        if ctx.incoming.is_some_and(|d| d.opposite().index() == i) {
            return Some(DirectionClass::Incoming);
        }
        Some(if masks.preferred & bit != 0 {
            // Critical routing: a boundary entry stored here flags this hop.
            if masks.critical & bit != 0 {
                DirectionClass::PreferredButDetour
            } else {
                DirectionClass::Preferred
            }
        } else if masks.blocked_preferred {
            // Spare direction "along the block": a preferred direction is blocked by
            // a faulty/disabled neighbor, so moving sideways slides around that
            // block's surface.
            DirectionClass::SpareAlongBlock
        } else {
            DirectionClass::Spare
        })
    }

    /// Orders the candidate directions by (class, tie-break) and returns the best
    /// one, in one pass over the `2n` directions.
    fn best_direction(&self, ctx: &RouteCtx<'_>) -> Option<(Direction, DirectionClass)> {
        let masks = HopMasks::for_decision(ctx);
        let mut best: Option<(DirectionClass, i64, usize)> = None;
        for i in 0..2 * ctx.mesh.ndim() {
            let Some(class) = self.class_of(ctx, &masks, i) else {
                continue;
            };
            // Tie-break within a class: preferred moves pick the dimension with the
            // largest remaining offset (classic adaptive heuristic); spare moves pick
            // the dimension with the *smallest* remaining offset, so that a detour
            // slides around the block instead of retreating along the main travel
            // axis.  The direction index breaks remaining ties deterministically.
            let dim = i / 2;
            let offset = i64::from((ctx.dest[dim] - ctx.current[dim]).abs());
            let score = match class {
                DirectionClass::Preferred | DirectionClass::PreferredButDetour => {
                    -offset * 16 + i as i64
                }
                _ => offset * 16 + i as i64,
            };
            if best.map_or(true, |(bc, bs, _)| (class, score) < (bc, bs)) {
                best = Some((class, score, i));
            }
        }
        best.map(|(class, _, i)| (Direction::from_index(i), class))
    }
}

/// The direction-independent facts of one Algorithm-3 decision, computed once so
/// that classifying each of the `2n` directions costs a few bit tests.  Bit `i`
/// of a mask stands for the direction with [`Direction::index`] `i`.
#[derive(Debug)]
struct HopMasks {
    /// Directions that reduce the distance to the destination.
    preferred: u16,
    /// Preferred directions that some boundary entry stored at the node flags as
    /// entering a dangerous area ([`BoundaryEntry::is_critical_hop`]).
    critical: u16,
    /// Some preferred direction leads to a faulty or disabled neighbor.
    blocked_preferred: bool,
}

impl HopMasks {
    #[inline]
    fn for_decision(ctx: &RouteCtx<'_>) -> Self {
        let n = ctx.mesh.ndim();
        let mut preferred = 0u16;
        for d in 0..n {
            let delta = ctx.dest[d] - ctx.current[d];
            if delta > 0 {
                preferred |= 1 << (2 * d + 1);
            } else if delta < 0 {
                preferred |= 1 << (2 * d);
            }
        }
        let blocked_preferred = (0..2 * n).any(|i| {
            preferred & (1 << i) != 0 && ctx.neighbors[i].is_some_and(|(_, s)| s.in_block())
        });
        // One pass over the node's entries: the destination half of the critical
        // test does not depend on the hop (and fails for most entries); only the
        // preferred directions not yet flagged test the next-node half.
        let mut critical = 0u16;
        for entry in ctx.boundary_info {
            if critical == preferred {
                break;
            }
            if !entry.guards_destination(ctx.dest) {
                continue;
            }
            let mut open = preferred & !critical;
            while open != 0 {
                let i = open.trailing_zeros() as usize;
                open &= open - 1;
                if entry.shadows_next_hop(&ctx.current.step(Direction::from_index(i))) {
                    critical |= 1 << i;
                }
            }
        }
        HopMasks {
            preferred,
            critical,
            blocked_preferred,
        }
    }
}

impl Router for LgfiRouter {
    fn name(&self) -> &'static str {
        "lgfi"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        // Step 1 of Algorithm 3: a disabled node cannot host the probe.
        if ctx.current_status == NodeStatus::Disabled {
            return RoutingDecision::Backtrack;
        }
        match self.best_direction(ctx) {
            // Choosing the incoming direction is the same as backtracking.
            Some((_, DirectionClass::Incoming)) | None => RoutingDecision::Backtrack,
            Some((dir, _)) => RoutingDecision::Forward(dir),
        }
    }
}

/// The final status of a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStatus {
    /// Still travelling.
    InFlight,
    /// Reached the destination: the path is set up.
    Delivered,
    /// Backtracked past the source with no usable direction left.
    Unreachable,
    /// The step budget was exhausted before reaching the destination.
    Exhausted,
    /// A deterministic router gave up (see [`RoutingDecision::Fail`]).
    Failed,
    /// The packet's worm was torn down by the wormhole deadlock detector after a
    /// cyclic credit wait (see
    /// [`TrafficSpec::deadlock_threshold`](crate::traffic_engine::TrafficSpec)).
    /// Single-probe engines never produce this status — only the concurrent
    /// traffic engine does.
    Deadlocked,
}

/// The flat per-node used-direction store of a probe header.
///
/// The seed implementation kept a `BTreeMap<NodeId, DirectionSet>`, paying a tree
/// allocation per first visit and a logarithmic lookup per hop.  This store is a
/// dense node-indexed arena of [`DirectionSet`]s plus the stack of touched nodes:
/// lookups and inserts are one array access, and [`UsedDirections::clear`] resets in
/// `O(touched)` by popping the touched stack — so a recycled probe never re-zeroes
/// (or re-allocates) the whole arena.
///
/// Semantics are identical to the map: a node's set persists for every node the
/// probe has ever visited (not only the nodes currently on the path), which is what
/// makes the backtracking search terminate even under dynamic faults — a probe that
/// re-enters a node it backtracked out of earlier still remembers the directions it
/// already burned there.
#[derive(Debug, Clone, Default)]
pub struct UsedDirections {
    /// Node-indexed used-direction sets (dense, sized to the mesh).
    sets: Vec<DirectionSet>,
    /// The nodes whose set is non-empty, in first-touch order; popping these on
    /// [`UsedDirections::clear`] makes the reset proportional to the probe's
    /// footprint instead of the mesh size.
    touched: Vec<NodeId>,
}

impl UsedDirections {
    /// An empty store sized for `node_count` nodes.
    pub fn with_node_count(node_count: usize) -> Self {
        UsedDirections {
            sets: vec![DirectionSet::empty(); node_count],
            touched: Vec::new(),
        }
    }

    /// The number of nodes the store is sized for.
    pub fn node_count(&self) -> usize {
        self.sets.len()
    }

    /// The used-direction set recorded at `node`.
    #[inline]
    pub fn at(&self, node: NodeId) -> DirectionSet {
        self.sets[node]
    }

    /// Marks `dir` used at `node`.
    #[inline]
    pub fn insert(&mut self, node: NodeId, dir: Direction) {
        if self.sets[node].is_empty() {
            self.touched.push(node);
        }
        self.sets[node].insert(dir);
    }

    /// Number of nodes holding a non-empty set.
    pub fn touched_count(&self) -> usize {
        self.touched.len()
    }

    /// Resets every recorded set in `O(touched)` without shrinking the arena.
    pub fn clear(&mut self) {
        while let Some(node) = self.touched.pop() {
            self.sets[node] = DirectionSet::empty();
        }
    }
}

/// A PCS path-setup probe with its header state.
///
/// The probe owns recyclable buffers (the reserved path and the flat
/// [`UsedDirections`] store); [`Probe::reset`] rewinds it for a new
/// source/destination pair while keeping the buffers warm, which is how the batched
/// sweep and the [`ProbeEngine`] achieve zero steady-state allocations per probe.
///
/// The probe also carries the coordinates of its current node and its
/// destination, which [`Probe::apply`] keeps in step with `current`: a forward hop
/// moves the node id by [`Mesh::stride`] and one coordinate by one, so the hop
/// kernel [`Probe::decide`] never converts an id into a coordinate.  Move the probe
/// only through [`Probe::apply`] (or [`Probe::reset`]).
#[derive(Debug, Clone)]
pub struct Probe {
    /// The source node.
    pub source: NodeId,
    /// The destination node.
    pub dest: NodeId,
    /// The node currently holding the probe.
    pub current: NodeId,
    /// The reserved path, source first, current node last.
    pub path: Vec<NodeId>,
    /// Per-node used-direction sets (the header of Algorithm 3).  Kept for every node
    /// the probe has ever visited so that the search terminates even under dynamic
    /// faults.
    pub used: UsedDirections,
    /// Direction by which the probe entered the current node.
    pub incoming: Option<Direction>,
    /// Steps taken so far (each forward or backtrack hop is one step).
    pub steps: u64,
    /// Number of backtrack hops taken.
    pub backtracks: u64,
    /// Current status.
    pub status: ProbeStatus,
    /// The initial source-to-destination distance (the paper's `D`).
    pub initial_distance: u32,
    /// Coordinate of `current`.
    at: Coord,
    /// Coordinate of `dest`.
    target: Coord,
}

impl Probe {
    /// A new probe at its source.
    pub fn new(mesh: &Mesh, source: NodeId, dest: NodeId) -> Self {
        let (at, target) = (mesh.coord_of(source), mesh.coord_of(dest));
        Probe {
            source,
            dest,
            current: source,
            path: vec![source],
            used: UsedDirections::with_node_count(mesh.node_count()),
            incoming: None,
            steps: 0,
            backtracks: 0,
            status: ProbeStatus::InFlight,
            initial_distance: at.manhattan(&target),
            at,
            target,
        }
    }

    /// Rewinds the probe to a fresh launch from `source` to `dest`, recycling the
    /// path and used-direction buffers (no allocation once they are warm).
    ///
    /// # Panics
    /// Panics if the probe was sized for a different mesh.
    pub fn reset(&mut self, mesh: &Mesh, source: NodeId, dest: NodeId) {
        assert_eq!(
            self.used.node_count(),
            mesh.node_count(),
            "probe recycled across meshes of different size"
        );
        self.source = source;
        self.dest = dest;
        self.current = source;
        self.path.clear();
        self.path.push(source);
        self.used.clear();
        self.incoming = None;
        self.steps = 0;
        self.backtracks = 0;
        self.status = ProbeStatus::InFlight;
        self.at = mesh.coord_of(source);
        self.target = mesh.coord_of(dest);
        self.initial_distance = self.at.manhattan(&self.target);
    }

    /// The coordinate of the node currently holding the probe.
    #[inline]
    pub fn current_coord(&self) -> &Coord {
        &self.at
    }

    /// The coordinate of the destination.
    #[inline]
    pub fn dest_coord(&self) -> &Coord {
        &self.target
    }

    /// The used-direction set of the current node.
    #[inline]
    pub fn used_here(&self) -> DirectionSet {
        self.used.at(self.current)
    }

    /// The used-direction set recorded at `node`.
    pub fn used_at(&self, node: NodeId) -> DirectionSet {
        self.used.at(node)
    }

    /// Applies a routing decision, moving the probe by one hop (one step of the
    /// Figure-7 model).  A forward hop reserves the link to the neighbor; a
    /// backtrack releases the last hop of the reserved path and returns to the
    /// previous node, or reports the destination unreachable when the probe is back
    /// at its source.  The carried coordinate follows the probe.
    ///
    /// # Panics
    /// Panics if a forward hop leaves the mesh (a router bug).
    pub fn apply(&mut self, mesh: &Mesh, decision: RoutingDecision) {
        debug_assert_eq!(self.status, ProbeStatus::InFlight);
        self.steps += 1;
        match decision {
            RoutingDecision::Forward(dir) => {
                let x = self.at[dir.dim] + dir.delta();
                if x < 0 || x >= mesh.radix(dir.dim) {
                    // audit:allow(panic): Algorithm 3 only offers in-mesh directions; an off-mesh Forward is a router bug worth crashing on
                    panic!("router returned an off-mesh direction");
                }
                self.used.insert(self.current, dir);
                let stride = mesh.stride(dir.dim);
                let next = if dir.positive {
                    self.current + stride
                } else {
                    self.current - stride
                };
                self.at[dir.dim] = x;
                self.path.push(next);
                self.current = next;
                self.incoming = Some(dir);
                if next == self.dest {
                    self.status = ProbeStatus::Delivered;
                }
            }
            RoutingDecision::Backtrack => {
                self.backtracks += 1;
                if self.path.len() <= 1 {
                    self.status = ProbeStatus::Unreachable;
                    return;
                }
                self.path.pop();
                // audit:allow(panic): guarded above — path.len() > 1 before the pop, so a last element remains
                let prev = *self.path.last().expect("path retains the source");
                let prev_at = mesh.coord_of(prev);
                self.incoming = self.at.direction_to(&prev_at);
                self.at = prev_at;
                self.current = prev;
            }
            RoutingDecision::Fail => {
                self.status = ProbeStatus::Failed;
            }
        }
    }

    /// The hop kernel: one Algorithm-3 decision of `router` at the node holding
    /// the probe.
    ///
    /// Builds the node's [`RouteCtx`] — the direction-indexed neighbor table in a
    /// stack array filled from the carried coordinate and the mesh strides,
    /// `boundary_info` (the entries stored at, and visible to, the current node),
    /// the live `blocks` for the global-information baselines, and the probe's
    /// used directions and incoming direction — and asks the router.  Every hop
    /// loop of the library (static sweeps and route queries, the dynamic network,
    /// the traffic engine) runs its own pre-checks and then calls this.
    pub fn decide(
        &self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary_info: &[BoundaryEntry],
        router: &dyn Router,
    ) -> RoutingDecision {
        debug_assert_eq!(
            (self.at, self.target),
            (mesh.coord_of(self.current), mesh.coord_of(self.dest)),
            "the carried coordinates left the probe's nodes"
        );
        let degree = 2 * mesh.ndim();
        let mut slots: [NeighborSlot; 2 * MAX_DIMS] = [None; 2 * MAX_DIMS];
        fill_neighbor_slots(mesh, statuses, self.current, &self.at, &mut slots[..degree]);
        let ctx = RouteCtx {
            mesh,
            current: &self.at,
            dest: &self.target,
            current_status: statuses[self.current],
            neighbors: &slots[..degree],
            boundary_info,
            global_blocks: blocks,
            used: self.used_here(),
            incoming: self.incoming,
        };
        router.decide(&ctx)
    }

    /// Summarises the finished probe.
    pub fn outcome(&self) -> ProbeOutcome {
        ProbeOutcome {
            status: self.status,
            steps: self.steps,
            backtracks: self.backtracks,
            path_length: self.path.len().saturating_sub(1) as u64,
            initial_distance: self.initial_distance,
        }
    }
}

/// Summary of a finished (or abandoned) probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Final status.
    pub status: ProbeStatus,
    /// Total steps taken (forward + backtrack hops).
    pub steps: u64,
    /// Backtrack hops.
    pub backtracks: u64,
    /// Length of the reserved path at the end.
    pub path_length: u64,
    /// The source-destination distance `D` at start.
    pub initial_distance: u32,
}

impl ProbeOutcome {
    /// True if the path was set up.
    pub fn delivered(&self) -> bool {
        self.status == ProbeStatus::Delivered
    }

    /// Extra steps beyond the initial distance (the paper's *detours*); `None` when
    /// the probe was not delivered.
    pub fn detours(&self) -> Option<u64> {
        if self.delivered() {
            Some(self.steps.saturating_sub(u64::from(self.initial_distance)))
        } else {
            None
        }
    }

    /// Path stretch: final path length divided by the initial distance.
    pub fn stretch(&self) -> Option<f64> {
        if self.delivered() && self.initial_distance > 0 {
            Some(self.path_length as f64 / f64::from(self.initial_distance))
        } else {
            None
        }
    }
}

/// A recyclable static-routing worker: owns the probe buffers (path and
/// used-direction arena), so routing a probe through a warm engine performs **zero
/// heap allocations per hop** (proved by `tests/alloc_regression.rs` with a counting
/// global allocator).
///
/// One engine routes one probe at a time; batched sweeps give each worker thread its
/// own engine (see [`sweep_static`]).
#[derive(Debug, Default)]
pub struct ProbeEngine {
    /// The recycled probe (path + used-direction arena), if one has been routed.
    probe: Option<Probe>,
}

impl ProbeEngine {
    /// A fresh engine with cold buffers.
    pub fn new() -> Self {
        ProbeEngine::default()
    }

    /// Routes a probe in a *static* environment (no dynamic faults during the
    /// routing): statuses, blocks and boundary information are fixed, every node's
    /// boundary information has fully arrived.  Returns the probe outcome.
    ///
    /// This is the workhorse for the static experiments and the baselines; the
    /// dynamic Figure-7 loop lives in [`crate::network::LgfiNetwork`].
    #[allow(clippy::too_many_arguments)]
    pub fn route_static(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &BoundaryMap,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        self.route_with(
            mesh, statuses, blocks, boundary, router, source, dest, max_steps,
        )
    }

    /// Routes a probe against a flattened CSR boundary arena — the entry point used
    /// by the epoch-snapshot route-query plane
    /// ([`crate::route_service`]).  Same hop loop as
    /// [`ProbeEngine::route_static`], so for identical statuses/blocks/arena the
    /// outcomes are bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn route_view(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: CsrBoundary<'_>,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        self.route_with(
            mesh, statuses, blocks, &boundary, router, source, dest, max_steps,
        )
    }

    /// Shared take-reset-drive-put-back cycle over any boundary source.
    #[allow(clippy::too_many_arguments)]
    fn route_with(
        &mut self,
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &dyn BoundarySource,
        router: &dyn Router,
        source: NodeId,
        dest: NodeId,
        max_steps: u64,
    ) -> ProbeOutcome {
        let mut probe = match self.probe.take() {
            Some(mut p) if p.used.node_count() == mesh.node_count() => {
                p.reset(mesh, source, dest);
                p
            }
            _ => Probe::new(mesh, source, dest),
        };
        let outcome = Self::drive(
            mesh, statuses, blocks, boundary, router, &mut probe, max_steps,
        );
        self.probe = Some(probe);
        outcome
    }

    /// The routing loop body, operating on a prepared in-flight probe.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        mesh: &Mesh,
        statuses: &[NodeStatus],
        blocks: &[FaultyBlock],
        boundary: &dyn BoundarySource,
        router: &dyn Router,
        probe: &mut Probe,
        max_steps: u64,
    ) -> ProbeOutcome {
        if probe.source == probe.dest {
            probe.status = ProbeStatus::Delivered;
            return probe.outcome();
        }
        if statuses[probe.source] == NodeStatus::Faulty
            || statuses[probe.dest] == NodeStatus::Faulty
        {
            probe.status = ProbeStatus::Unreachable;
            return probe.outcome();
        }
        while probe.status == ProbeStatus::InFlight {
            if probe.steps >= max_steps {
                probe.status = ProbeStatus::Exhausted;
                break;
            }
            let decision = probe.decide(
                mesh,
                statuses,
                blocks,
                boundary.entries_for(probe.current),
                router,
            );
            probe.apply(mesh, decision);
        }
        probe.outcome()
    }
}

/// Routes a single probe through a one-shot [`ProbeEngine`]; see
/// [`ProbeEngine::route_static`].  Callers routing many probes should hold an engine
/// (or use [`sweep_static`]) so the buffers are recycled.
#[allow(clippy::too_many_arguments)]
pub fn route_static(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    blocks: &[FaultyBlock],
    boundary: &BoundaryMap,
    router: &dyn Router,
    source: NodeId,
    dest: NodeId,
    max_steps: u64,
) -> ProbeOutcome {
    ProbeEngine::new().route_static(
        mesh, statuses, blocks, boundary, router, source, dest, max_steps,
    )
}

/// Routes a whole batch of source/destination pairs through the static environment,
/// sharding independent probes across `threads` worker threads (`1` = serial, `0` =
/// one worker per available core).
///
/// Each worker owns a recycled [`ProbeEngine`] and its own router instance from
/// `make_router`, and routes a contiguous chunk of the batch; the per-chunk results
/// are concatenated in chunk (= launch) order.  Because every probe is an
/// independent deterministic function of the shared static environment, the returned
/// outcomes are **bit-identical** to the serial sweep for every thread count
/// (`tests/probe_batch_equivalence.rs` asserts this across routers and fault
/// patterns).
#[allow(clippy::too_many_arguments)]
pub fn sweep_static(
    mesh: &Mesh,
    statuses: &[NodeStatus],
    blocks: &[FaultyBlock],
    boundary: &BoundaryMap,
    make_router: &(dyn Fn() -> Box<dyn Router> + Sync),
    pairs: &[(NodeId, NodeId)],
    max_steps: u64,
    threads: usize,
) -> Vec<ProbeOutcome> {
    let threads = lgfi_sim::resolve_threads(threads).min(pairs.len().max(1));
    let route_chunk = |chunk: &[(NodeId, NodeId)]| -> Vec<ProbeOutcome> {
        let router = make_router();
        let mut engine = ProbeEngine::new();
        chunk
            .iter()
            .map(|&(s, d)| {
                engine.route_static(
                    mesh,
                    statuses,
                    blocks,
                    boundary,
                    router.as_ref(),
                    s,
                    d,
                    max_steps,
                )
            })
            .collect()
    };
    if threads <= 1 || pairs.len() <= 1 {
        return route_chunk(pairs);
    }
    let ranges = lgfi_sim::batch_ranges(pairs.len(), threads);
    let mut slots: Vec<Vec<ProbeOutcome>> = (0..ranges.len()).map(|_| Vec::new()).collect();
    lgfi_sim::WorkerPool::new(threads).run_chunked(&mut slots, threads, |i, slot| {
        slot[0] = route_chunk(&pairs[ranges[i].clone()]);
    });
    let mut out = Vec::with_capacity(pairs.len());
    for slot in &mut slots {
        out.append(slot);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSet;
    use crate::boundary::BoundaryMap;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    struct Env {
        mesh: Mesh,
        statuses: Vec<NodeStatus>,
        blocks: BlockSet,
        boundary: BoundaryMap,
    }

    fn build_env(mesh: Mesh, faults: &[Coord]) -> Env {
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(faults);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let boundary = BoundaryMap::construct(&mesh, &blocks);
        Env {
            statuses: eng.statuses().to_vec(),
            blocks,
            boundary,
            mesh,
        }
    }

    fn route(env: &Env, s: &Coord, d: &Coord) -> ProbeOutcome {
        route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &env.boundary,
            &LgfiRouter::new(),
            env.mesh.id_of(s),
            env.mesh.id_of(d),
            10_000,
        )
    }

    #[test]
    fn fault_free_routing_is_minimal() {
        let env = build_env(Mesh::cubic(8, 3), &[]);
        let out = route(&env, &coord![0, 0, 0], &coord![7, 7, 7]);
        assert!(out.delivered());
        assert_eq!(out.steps, 21);
        assert_eq!(out.detours(), Some(0));
        assert_eq!(out.path_length, 21);
        assert_eq!(out.stretch(), Some(1.0));
        assert_eq!(out.backtracks, 0);
    }

    #[test]
    fn routing_to_self_is_trivially_delivered() {
        let env = build_env(Mesh::cubic(5, 2), &[]);
        let out = route(&env, &coord![2, 2], &coord![2, 2]);
        assert!(out.delivered());
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn faulty_destination_is_unreachable() {
        let env = build_env(Mesh::cubic(8, 2), &[coord![4, 4]]);
        let out = route(&env, &coord![0, 0], &coord![4, 4]);
        assert_eq!(out.status, ProbeStatus::Unreachable);
    }

    #[test]
    fn safe_source_route_around_block_stays_minimal() {
        // Block in the middle; source and destination positioned so that the block
        // does not intersect the bounding box: a minimal path must be found.
        let env = build_env(
            Mesh::cubic(12, 2),
            &[coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]],
        );
        let out = route(&env, &coord![1, 1], &coord![3, 10]);
        assert!(out.delivered());
        assert_eq!(
            out.detours(),
            Some(0),
            "safe source must get a minimal path"
        );
    }

    #[test]
    fn boundary_information_prevents_entering_the_dangerous_area() {
        // 2-D mesh with a wide block; destination directly above the block, source
        // directly below it.  The LGFI router must be warned at the boundary and go
        // around; it must still deliver, and the number of extra hops is bounded by
        // the block perimeter.
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        // One wide block [5:10, 7:8].
        assert_eq!(env.blocks.len(), 1);
        assert_eq!(
            env.blocks.blocks()[0].region,
            lgfi_topology::Region::new(vec![5, 7], vec![10, 8])
        );
        let out = route(&env, &coord![8, 2], &coord![8, 13]);
        assert!(out.delivered());
        // Minimal distance is 11; going around the block costs at most the block's
        // half-perimeter extra.
        let detours = out.detours().unwrap();
        assert!(detours > 0, "the block forces a detour");
        assert!(
            detours <= 2 * (6 + 2),
            "detours {detours} should be bounded by the block size"
        );
    }

    #[test]
    fn without_boundary_info_the_probe_wastes_steps_in_the_dangerous_area() {
        // Same scenario as above but with the boundary map removed: the router only
        // discovers the block when it bumps into it, so it needs strictly more steps.
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        let with_info = route(&env, &coord![8, 2], &coord![8, 13]);
        let empty = BoundaryMap::empty(&env.mesh);
        let without_info = route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &empty,
            &LgfiRouter::new(),
            env.mesh.id_of(&coord![8, 2]),
            env.mesh.id_of(&coord![8, 13]),
            10_000,
        );
        assert!(with_info.delivered());
        assert!(without_info.delivered());
        assert!(
            with_info.steps <= without_info.steps,
            "limited-global information must not hurt ({} vs {})",
            with_info.steps,
            without_info.steps
        );
    }

    #[test]
    fn direction_classification_matches_algorithm_3() {
        let env = build_env(
            Mesh::cubic(16, 2),
            &[
                coord![5, 7],
                coord![10, 7],
                coord![5, 8],
                coord![10, 8],
                coord![7, 7],
                coord![8, 8],
                coord![6, 7],
                coord![9, 8],
            ],
        );
        let router = LgfiRouter::new();
        // A node on the boundary wall left of the block (x = 4), destination above the
        // block within its cross-section: +X (into the shadow) is preferred-but-detour,
        // +Y is preferred.
        let node = coord![4, 5];
        let dest = coord![8, 13];
        let mut slots = [None; 4];
        fill_neighbor_slots(
            &env.mesh,
            &env.statuses,
            env.mesh.id_of(&node),
            &node,
            &mut slots,
        );
        let ctx = RouteCtx {
            mesh: &env.mesh,
            current: &node,
            dest: &dest,
            current_status: NodeStatus::Enabled,
            neighbors: &slots,
            boundary_info: env.boundary.entries(env.mesh.id_of(&node)),
            global_blocks: &[],
            used: DirectionSet::empty(),
            incoming: Some(Direction::pos(1)),
        };
        assert!(
            !ctx.boundary_info.is_empty(),
            "x=4 wall node must hold boundary info"
        );
        assert_eq!(
            router.classify(&ctx, Direction::pos(0)),
            Some(DirectionClass::PreferredButDetour)
        );
        assert_eq!(
            router.classify(&ctx, Direction::pos(1)),
            Some(DirectionClass::Preferred)
        );
        assert_eq!(
            router.classify(&ctx, Direction::neg(0)),
            Some(DirectionClass::Spare)
        );
        assert_eq!(
            router.classify(&ctx, Direction::neg(1)),
            Some(DirectionClass::Incoming)
        );
        assert_eq!(
            router.decide(&ctx),
            RoutingDecision::Forward(Direction::pos(1))
        );
    }

    #[test]
    fn used_directions_are_never_retried() {
        let env = build_env(Mesh::cubic(6, 2), &[]);
        let mesh = &env.mesh;
        let mut probe = Probe::new(mesh, mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![5, 5]));
        probe.apply(mesh, RoutingDecision::Forward(Direction::pos(0)));
        assert!(probe
            .used_at(mesh.id_of(&coord![0, 0]))
            .contains(Direction::pos(0)));
        probe.apply(mesh, RoutingDecision::Backtrack);
        assert_eq!(probe.current, mesh.id_of(&coord![0, 0]));
        assert_eq!(probe.backtracks, 1);
        // The used set survived the backtrack.
        assert!(probe
            .used_at(mesh.id_of(&coord![0, 0]))
            .contains(Direction::pos(0)));
    }

    #[test]
    fn backtracking_past_the_source_reports_unreachable() {
        let env = build_env(Mesh::cubic(6, 2), &[]);
        let mesh = &env.mesh;
        let mut probe = Probe::new(mesh, mesh.id_of(&coord![0, 0]), mesh.id_of(&coord![5, 5]));
        probe.apply(mesh, RoutingDecision::Backtrack);
        assert_eq!(probe.status, ProbeStatus::Unreachable);
    }

    #[test]
    fn completely_walled_in_destination_is_unreachable() {
        // A destination surrounded by faults on all four sides cannot be reached; the
        // probe must terminate with Unreachable rather than loop forever.
        let env = build_env(
            Mesh::cubic(10, 2),
            &[coord![4, 5], coord![6, 5], coord![5, 4], coord![5, 6]],
        );
        // The destination itself is disabled by the labeling (it has faulty neighbors
        // in two dimensions), so the router refuses to enter it; the probe gives up.
        let out = route(&env, &coord![0, 0], &coord![5, 5]);
        assert_ne!(out.status, ProbeStatus::Delivered);
        assert_ne!(
            out.status,
            ProbeStatus::Exhausted,
            "must terminate by search, not timeout"
        );
    }

    #[test]
    fn exhaustion_is_reported_when_step_budget_is_too_small() {
        let env = build_env(Mesh::cubic(10, 3), &[]);
        let out = route_static(
            &env.mesh,
            &env.statuses,
            env.blocks.blocks(),
            &env.boundary,
            &LgfiRouter::new(),
            env.mesh.id_of(&coord![0, 0, 0]),
            env.mesh.id_of(&coord![9, 9, 9]),
            5,
        );
        assert_eq!(out.status, ProbeStatus::Exhausted);
    }

    #[test]
    fn random_static_fault_patterns_always_deliver_between_enabled_corners() {
        use lgfi_sim::DetRng;
        // With interior faults and enabled corner nodes, the mesh stays connected
        // (property from [14]); the LGFI router must always set up a path.
        let mesh = Mesh::cubic(10, 3);
        let interior: Vec<Coord> = mesh.interior_region().unwrap().iter_coords().collect();
        for seed in 0..6u64 {
            let mut rng = DetRng::seed_from_u64(1000 + seed);
            let picks = rng.sample_indices(interior.len(), 30);
            let faults: Vec<Coord> = picks.iter().map(|&i| interior[i]).collect();
            let env = build_env(mesh.clone(), &faults);
            let out = route(&env, &coord![0, 0, 0], &coord![9, 9, 9]);
            assert!(
                out.delivered(),
                "seed {seed}: corner-to-corner route failed: {out:?}"
            );
        }
    }
}
