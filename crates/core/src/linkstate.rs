//! The link-state layer: finite-capacity directed mesh links with virtual
//! channels and credit-based flit buffers.
//!
//! The routing model of the paper sets up one path at a time, so PR-era probe
//! sweeps never contend for wires.  Real traffic does: every node of an n-D mesh
//! has `2n` directed output links, each able to move one *flit* per cycle,
//! carrying `vc_count` virtual channels and a shared DAMQ flit-buffer
//! pool at its downstream end.  [`LinkState`] holds all three per directed link
//! and gives the wormhole traffic engine ([`crate::traffic_engine`]) bandwidth
//! (`try_flit`), channel allocation (`free_adaptive_vc` / `acquire_vc` /
//! `release_vc`) and credits (`credits` / `deposit` / `drain`).
//!
//! Every accessor takes a link index.  [`LinkState::link`] is the one mapping
//! from `(node, dir)` to that index (`node * 2n + dir.index()`): the traffic
//! engine computes it once when a worm's head crosses a link and keeps it with
//! the worm, so the flits behind the head never recompute it.
//!
//! Determinism contract: bandwidth grants, VC grants and credits are handed out
//! in request order and the traffic engine requests them in packet-launch order,
//! so which worms stall in a contended cycle is a pure function of the simulation
//! inputs — never of thread scheduling.

use lgfi_topology::{Direction, Mesh, NodeId};

/// Sentinel owner id of a free virtual channel.
pub const NO_OWNER: u64 = u64::MAX;

/// Flits one directed link moves per cycle.
const LINK_CAPACITY: u32 = 1;

/// The per-cycle grant count and the buffer occupancy of one directed link,
/// kept side by side: a flit crossing reads and writes both.
#[derive(Debug, Clone, Copy, Default)]
struct LinkCell {
    /// Flits granted on the link this cycle.
    grants: u32,
    /// Flits buffered at the link's downstream end.  May transiently exceed the
    /// pool when a backtracking worm folds a buffer back onto the previous link;
    /// credits stay at zero until the overflow drains.
    buffered: u32,
}

/// Per-cycle bandwidth, virtual-channel ownership and flit-buffer credits of
/// every directed link of a mesh.
///
/// A worm *owns* a VC on every link its flits still have to cross (acquired
/// head-first, released once its tail flit has crossed), and every flit sitting
/// in a downstream buffer occupies one slot of the link's shared pool of
/// `vc_count * vc_buffer_flits` slots.  Credit-based flow control falls out of
/// the pool: a flit may cross a link only while [`LinkState::credits`] is
/// non-zero, and draining a buffer returns the credit.
///
/// The escape class is VC 0 when enabled (see
/// [`TrafficSpec::escape_vc`](crate::traffic_engine::TrafficSpec)); adaptive
/// decisions then allocate from VCs `1..vc_count`, and the engine falls back to
/// the escape VC with a dimension-order hop when every adaptive VC is held.
#[derive(Debug, Clone)]
pub struct LinkState {
    /// Grant count and buffer occupancy of every link.
    cells: Vec<LinkCell>,
    /// The links with a non-zero grant count this cycle, so the per-cycle reset
    /// is `O(touched)` and allocation-free once warm.
    touched: Vec<u32>,
    /// VC owner packet ids, indexed `link * vc_count + vc` ([`NO_OWNER`] = free).
    owners: Vec<u64>,
    /// Output links per node (`2n`).
    ports: usize,
    vc_count: usize,
    /// Slots of one link's shared buffer pool.
    pool: u32,
    /// First VC index the adaptive class may allocate (1 when an escape VC is
    /// reserved, 0 otherwise).
    adaptive_base: usize,
}

impl LinkState {
    /// Link state for `mesh`: every directed link moves one flit per cycle,
    /// carries `vc_count` virtual channels with `vc_buffer_flits` buffer slots
    /// each (pooled), and reserves VC 0 as the escape class when `escape_vc` is
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `vc_count` or `vc_buffer_flits` is zero, or if `escape_vc` is
    /// set with fewer than two VCs (the escape class would starve the adaptive
    /// one) — reject such configurations up front with
    /// [`TrafficSpec::validate`](crate::traffic_engine::TrafficSpec::validate).
    /// Also panics if the mesh has more directed links than a `u32` link index
    /// can name.
    pub fn new(mesh: &Mesh, vc_count: u32, vc_buffer_flits: u32, escape_vc: bool) -> Self {
        assert!(
            !escape_vc || vc_count >= 2,
            "an escape VC needs at least 2 virtual channels, got {vc_count}"
        );
        assert!(
            vc_count >= 1,
            "virtual-channel count must be at least 1, got 0"
        );
        assert!(
            vc_buffer_flits >= 1,
            "VC buffer depth must be at least 1, got 0"
        );
        let ports = 2 * mesh.ndim();
        let links = mesh.node_count() * ports;
        assert!(
            u32::try_from(links).is_ok(),
            "{links} directed links exceed the u32 link index"
        );
        LinkState {
            cells: vec![LinkCell::default(); links],
            touched: Vec::new(),
            owners: vec![NO_OWNER; links * vc_count as usize],
            ports,
            vc_count: vc_count as usize,
            pool: vc_count * vc_buffer_flits,
            adaptive_base: usize::from(escape_vc),
        }
    }

    /// Virtual channels per directed link.
    pub fn vc_count(&self) -> usize {
        self.vc_count
    }

    /// True when VC 0 is reserved as the dimension-order escape class.
    pub fn has_escape_vc(&self) -> bool {
        self.adaptive_base == 1
    }

    /// The index of the outgoing link of `node` in direction `dir`
    /// (`node * 2n + dir.index()`), which every other accessor takes.
    #[inline]
    pub fn link(&self, node: NodeId, dir: Direction) -> u32 {
        let port = dir.index();
        debug_assert!(port < self.ports, "port out of range");
        (node * self.ports + port) as u32
    }

    /// Starts a new cycle; every link returns to full bandwidth (`O(touched
    /// links)`, allocation-free once warm).  VC ownership and buffered flits
    /// persist across cycles — they are worm state, not cycle state.
    pub fn begin_cycle(&mut self) {
        while let Some(link) = self.touched.pop() {
            self.cells[link as usize].grants = 0;
        }
    }

    /// Requests bandwidth for one flit on `link` this cycle.  Returns `false`
    /// when the link has already moved its one flit — the flit must wait a
    /// cycle.
    #[inline]
    pub fn try_flit(&mut self, link: u32) -> bool {
        let cell = &mut self.cells[link as usize];
        if cell.grants >= LINK_CAPACITY {
            return false;
        }
        if cell.grants == 0 {
            self.touched.push(link);
        }
        cell.grants += 1;
        true
    }

    /// The lowest-index free *adaptive-class* VC of `link`, if any.
    #[inline]
    pub fn free_adaptive_vc(&self, link: u32) -> Option<usize> {
        let base = link as usize * self.vc_count;
        (self.adaptive_base..self.vc_count).find(|&vc| self.owners[base + vc] == NO_OWNER)
    }

    /// True when the escape VC (VC 0) of `link` is reserved and free.
    #[inline]
    pub fn escape_vc_free(&self, link: u32) -> bool {
        self.has_escape_vc() && self.owners[link as usize * self.vc_count] == NO_OWNER
    }

    /// The owner of the lowest-index held VC of `link`, or [`NO_OWNER`] — the
    /// deadlock detector's wait-for witness.
    #[inline]
    pub fn first_vc_owner(&self, link: u32) -> u64 {
        let base = link as usize * self.vc_count;
        self.owners[base..base + self.vc_count]
            .iter()
            .copied()
            .find(|&o| o != NO_OWNER)
            .unwrap_or(NO_OWNER)
    }

    /// Grants VC `vc` of `link` to worm `owner`.
    #[inline]
    pub fn acquire_vc(&mut self, link: u32, vc: usize, owner: u64) {
        let slot = link as usize * self.vc_count + vc;
        debug_assert_eq!(self.owners[slot], NO_OWNER, "acquiring an owned VC");
        debug_assert_ne!(owner, NO_OWNER, "NO_OWNER is reserved");
        self.owners[slot] = owner;
    }

    /// Releases VC `vc` of `link` (the worm's tail crossed the link).
    #[inline]
    pub fn release_vc(&mut self, link: u32, vc: usize) {
        self.owners[link as usize * self.vc_count + vc] = NO_OWNER;
    }

    /// Free downstream buffer slots (credits) of `link`, zero while a
    /// backtrack-overflowed buffer drains.
    #[inline]
    pub fn credits(&self, link: u32) -> u32 {
        self.pool.saturating_sub(self.cells[link as usize].buffered)
    }

    /// Deposits `n` flits into the downstream buffer of `link`.  Depositing
    /// past the pool is allowed only for backtrack merges; the caller otherwise
    /// checks [`LinkState::credits`] first.
    #[inline]
    pub fn deposit(&mut self, link: u32, n: u32) {
        self.cells[link as usize].buffered += n;
    }

    /// Drains `n` flits from the downstream buffer of `link`.
    #[inline]
    pub fn drain(&mut self, link: u32, n: u32) {
        let cell = &mut self.cells[link as usize];
        debug_assert!(cell.buffered >= n, "draining an empty buffer");
        cell.buffered -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_vc(mesh: &Mesh) -> LinkState {
        LinkState::new(mesh, 1, 1, false)
    }

    #[test]
    fn link_indices_are_node_major_and_distinct() {
        let mesh = Mesh::new(&[3, 5, 4]);
        let links = single_vc(&mesh);
        let mut seen = vec![false; mesh.node_count() * 6];
        for node in mesh.node_ids() {
            for dir in Direction::iter_all(3) {
                let link = links.link(node, dir);
                assert_eq!(link as usize, node * 6 + dir.index());
                assert!(!seen[link as usize], "link {link} named twice");
                seen[link as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn links_saturate_and_reset_per_cycle() {
        let mesh = Mesh::cubic(4, 2);
        let mut links = single_vc(&mesh);
        let dir = Direction::pos(0);
        let link = links.link(5, dir);
        assert!(links.try_flit(link));
        assert!(!links.try_flit(link), "capacity 1 per cycle");
        // Other ports of the node and other nodes' links are independent.
        assert!(links.try_flit(links.link(5, Direction::neg(0))));
        assert!(links.try_flit(links.link(5, Direction::pos(1))));
        assert!(links.try_flit(links.link(6, Direction::neg(0))));
        assert!(links.try_flit(links.link(9, dir)));
        links.begin_cycle();
        assert!(links.try_flit(link), "capacity returns each cycle");
        assert!(!links.try_flit(link));
    }

    #[test]
    fn escape_class_partitions_the_vcs() {
        let mesh = Mesh::cubic(4, 2);
        let mut links = LinkState::new(&mesh, 3, 2, true);
        assert_eq!(links.vc_count(), 3);
        let dir = Direction::pos(1);
        let link = links.link(3, dir);
        assert!(links.has_escape_vc());
        // The adaptive class starts above the escape VC.
        assert_eq!(links.free_adaptive_vc(link), Some(1));
        links.acquire_vc(link, 1, 42);
        assert_eq!(links.free_adaptive_vc(link), Some(2));
        links.acquire_vc(link, 2, 43);
        assert_eq!(links.free_adaptive_vc(link), None);
        assert!(links.escape_vc_free(link), "escape VC is still free");
        assert_eq!(links.first_vc_owner(link), 42);
        links.acquire_vc(link, 0, 7);
        assert!(!links.escape_vc_free(link));
        assert_eq!(links.first_vc_owner(link), 7, "lowest-index owner wins");
        // Other ports and other nodes' links are untouched.
        let other_port = links.link(3, Direction::neg(1));
        let other_node = links.link(7, dir);
        assert_eq!(links.free_adaptive_vc(other_port), Some(1));
        assert_eq!(links.first_vc_owner(other_port), NO_OWNER);
        assert_eq!(links.first_vc_owner(other_node), NO_OWNER);
        assert!(links.escape_vc_free(other_node));
        links.release_vc(link, 0);
        assert_eq!(links.first_vc_owner(link), 42);
        links.release_vc(link, 1);
        assert_eq!(links.free_adaptive_vc(link), Some(1));
        assert_eq!(links.first_vc_owner(link), 43);
        // Without an escape class every VC is adaptive and none is escape.
        let plain = LinkState::new(&mesh, 2, 2, false);
        assert!(!plain.has_escape_vc());
        let link = plain.link(3, dir);
        assert_eq!(plain.free_adaptive_vc(link), Some(0));
        assert!(!plain.escape_vc_free(link));
    }

    #[test]
    fn credits_track_the_downstream_buffer() {
        let mesh = Mesh::cubic(4, 2);
        let mut links = LinkState::new(&mesh, 2, 1, false);
        let dir = Direction::neg(1);
        let link = links.link(9, dir);
        assert_eq!(links.credits(link), 2);
        links.deposit(link, 1);
        assert_eq!(links.credits(link), 1);
        links.deposit(link, 1);
        assert_eq!(links.credits(link), 0);
        // A backtrack merge may overflow; credits stay at zero until it drains.
        links.deposit(link, 2);
        assert_eq!(links.credits(link), 0);
        links.drain(link, 2);
        assert_eq!(links.credits(link), 0);
        links.drain(link, 1);
        assert_eq!(links.credits(link), 1);
        assert_eq!(
            links.credits(links.link(9, Direction::pos(1))),
            2,
            "other ports untouched"
        );
        assert_eq!(
            links.credits(links.link(8, dir)),
            2,
            "other nodes untouched"
        );
    }

    #[test]
    fn grants_and_credits_share_a_cell_without_interfering() {
        // A link's bandwidth grants and its buffer occupancy sit in one cell:
        // spending the cycle's bandwidth leaves the credits alone, the per-cycle
        // reset leaves buffered flits alone, and filling the buffer leaves the
        // bandwidth alone.
        let mesh = Mesh::cubic(4, 2);
        let mut links = LinkState::new(&mesh, 2, 1, false);
        let link = links.link(6, Direction::pos(0));
        assert!(links.try_flit(link));
        assert_eq!(links.credits(link), 2);
        links.deposit(link, 1);
        assert!(!links.try_flit(link), "a deposit returns no bandwidth");
        links.begin_cycle();
        assert_eq!(links.credits(link), 1, "the reset keeps buffered flits");
        links.deposit(link, 1);
        assert_eq!(links.credits(link), 0);
        assert!(links.try_flit(link), "a full buffer keeps the bandwidth");
    }

    #[test]
    fn degenerate_links_are_rejected() {
        let rejection = |vcs, depth, escape| {
            let err =
                std::panic::catch_unwind(|| LinkState::new(&Mesh::cubic(3, 2), vcs, depth, escape))
                    .expect_err("the configuration must be rejected");
            match err.downcast::<String>() {
                Ok(msg) => *msg,
                Err(err) => err.downcast::<&str>().map(|m| m.to_string()).unwrap(),
            }
        };
        assert!(rejection(1, 1, true).contains("escape VC needs at least 2"));
        assert!(rejection(0, 1, false).contains("virtual-channel count must be at least 1"));
        assert!(rejection(1, 0, false).contains("VC buffer depth must be at least 1"));
    }
}
