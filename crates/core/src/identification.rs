//! Algorithm 2: the k-level identification process.
//!
//! When a new n-level corner is formed (a new block has appeared or an existing block
//! has grown), the corner starts an **identification process** that discovers the
//! extent of the block and distributes the resulting *block information* to every
//! frame node.  The process is recursive and has three phases at every level `k`
//! (Section 3, Figure 5):
//!
//! 1. **Phase 1** — `k-1` identification messages leave the initialization corner and
//!    travel along `k-1` of its surface directions over the k-level edge nodes.
//! 2. **Phase 2** — every k-level edge node reached (it is also a `(k-1)`-level
//!    corner) activates a `(k-1)`-level identification of the block's cross-section
//!    through that node; the identified section information arrives at the opposite
//!    `(k-1)`-level corner.  The base case is the 2-level process, in which two
//!    messages simply walk around the section's ring of adjacent nodes.
//! 3. **Phase 3** — the identified section information is collected along the opposite
//!    edges and forwarded to the n-level corner opposite the initialization corner,
//!    where the full block information `[lo:hi]` is formed.
//!
//! Afterwards (Algorithm 2, step 4) the same procedure is reused from the opposite
//! corner back towards the initialization corner, distributing the identified block
//! information to all adjacent nodes, edge nodes and corners; every message advances
//! one hop per round and carries a TTL, and messages are discarded when a stability
//! check fails (a faulty/disabled node in the forwarding direction, or differing
//! section information), in which case the block information is *not* formed and the
//! process is retried once the labeling has re-stabilised.
//!
//! [`IdentificationProcess`] reproduces this protocol at message granularity in time
//! (one hop per round) and produces an [`IdentificationOutcome`] with the per-node
//! information-arrival schedule and the total number of rounds, the paper's `b_i`.
//! The dynamic network takes the same `b_i` from a closed form that records no
//! schedule (`IdentificationProcess::completion_round`) on every rebuild.

use std::collections::{BTreeMap, VecDeque};

use lgfi_topology::coord::MAX_DIMS;
use lgfi_topology::{Coord, Mesh, NodeId, Region};

use crate::frame::BlockFrame;
use crate::status::NodeStatus;

/// The result of running the identification process for one block.
#[derive(Debug, Clone)]
pub struct IdentificationOutcome {
    /// The block extent being identified.
    pub block: Region,
    /// The corner at which the process was initiated.
    pub init_corner: Coord,
    /// The corner opposite the initialization corner, where the block information is
    /// formed at the end of phase 3.
    pub opposite_corner: Coord,
    /// Rounds (after the start of the process) until the block information is formed
    /// at the opposite corner.
    pub formed_round: u64,
    /// For every frame node, the round at which it holds the identified block
    /// information (after the step-4 back-propagation).
    pub info_arrival: BTreeMap<NodeId, u64>,
    /// Rounds until every frame node holds the block information; this is the paper's
    /// `b_i` for this block.
    pub completed_round: u64,
    /// Whether the stability checks passed.  If `false`, the identification messages
    /// were discarded (TTL) and no information was distributed; the caller retries
    /// after the labeling stabilises.
    pub stable: bool,
    /// Total number of point-to-point message hops used by the process.
    pub message_hops: u64,
}

impl IdentificationOutcome {
    /// The round at which a particular frame node learned the block information, if it
    /// ever did.
    pub fn arrival_of(&self, id: NodeId) -> Option<u64> {
        self.info_arrival.get(&id).copied()
    }
}

/// Runs the identification process for a block extent.
#[derive(Debug, Clone)]
pub struct IdentificationProcess {
    /// TTL (in rounds) attached to identification messages; if the process would take
    /// longer (e.g. because it keeps being disturbed), the messages are discarded.
    pub ttl: u64,
}

impl Default for IdentificationProcess {
    fn default() -> Self {
        IdentificationProcess { ttl: u64::MAX }
    }
}

impl IdentificationProcess {
    /// A process with the given message TTL in rounds.
    pub fn with_ttl(ttl: u64) -> Self {
        IdentificationProcess { ttl }
    }

    /// Duration, in rounds, of a k-level identification over a section with the given
    /// extent lengths (recursive closed form of the hop-by-hop process; see the module
    /// documentation).
    ///
    /// * 1 dimension: a single message walks across the section's two end nodes:
    ///   `L + 1` hops from one adjacent end to the other.
    /// * 2 dimensions: two messages walk around the ring of adjacent nodes from one
    ///   2-level corner to the opposite one: `L_a + L_b + 2` hops.
    /// * k dimensions: phase 1 walks an edge while phase 2 sections run in a pipeline
    ///   and phase 3 collects along the opposite edge, giving
    ///   `max_i (1 + L_i + T_{k-1}(L without i))` over the `k-1` chosen phase-1
    ///   dimensions (all but the last).
    ///
    /// # Panics
    /// Panics if there are more than [`MAX_DIMS`] extents.
    pub fn level_duration(extents: &[i32]) -> u64 {
        match extents.len() {
            0 => 0,
            1 => extents[0] as u64 + 1,
            2 => extents[0] as u64 + extents[1] as u64 + 2,
            k => {
                assert!(
                    k <= MAX_DIMS,
                    "{k} extents exceed the {MAX_DIMS}-dimension limit"
                );
                let mut worst = 0u64;
                let mut rest = [0i32; MAX_DIMS];
                for i in 0..k - 1 {
                    let mut len = 0;
                    for (j, &l) in extents.iter().enumerate() {
                        if j != i {
                            rest[len] = l;
                            len += 1;
                        }
                    }
                    let t = 1 + extents[i] as u64 + Self::level_duration(&rest[..len]);
                    worst = worst.max(t);
                }
                worst
            }
        }
    }

    /// The stability checks of the process: (a) every frame node exists in the
    /// mesh and is enabled (a faulty or disabled node in a forwarding direction
    /// means the block is not stable); (b) the block itself consists exclusively
    /// of faulty/disabled nodes (otherwise the sections identified in phase 3
    /// would differ).
    fn is_stable(mesh: &Mesh, block: &Region, statuses: &[NodeStatus]) -> bool {
        block.expand(1).iter_coords().all(|c| {
            let inside = block.contains(&c);
            if !mesh.contains(&c) {
                // A missing frame node: the identification messages cannot go
                // "straight" as expected.
                return inside;
            }
            let st = statuses[mesh.id_of(&c)];
            if inside {
                st.in_block()
            } else {
                st == NodeStatus::Enabled
            }
        })
    }

    /// Rounds until every frame node of `block` holds the identified information
    /// (the paper's `b_i`, [`IdentificationOutcome::completed_round`]), or `None`
    /// if the stability checks fail or the process outlives the TTL.  Equal to
    /// what [`IdentificationProcess::run_from_default_corner`] reports for a
    /// stable outcome, but computed without simulating the messages, so it
    /// allocates nothing: a stable frame is the whole shell around the block, and
    /// the step-4 spread over that shell reaches its farthest node, the
    /// initialization corner, `Σ (len_d + 1)` hops after the opposite corner (in
    /// one dimension the two frame nodes are not adjacent, so nothing spreads).
    pub(crate) fn completion_round(
        &self,
        mesh: &Mesh,
        block: &Region,
        statuses: &[NodeStatus],
    ) -> Option<u64> {
        if !Self::is_stable(mesh, block, statuses) {
            return None;
        }
        let n = block.ndim();
        let mut extents = [0i32; MAX_DIMS];
        for (d, e) in extents[..n].iter_mut().enumerate() {
            *e = block.len(d);
        }
        let formed_round = Self::level_duration(&extents[..n]);
        if formed_round > self.ttl {
            return None;
        }
        let spread: u64 = if n == 1 {
            0
        } else {
            extents[..n].iter().map(|&l| l as u64 + 1).sum()
        };
        Some(formed_round + spread)
    }

    /// Runs the process for `block` on `mesh`, with the current `statuses` used for
    /// the stability checks, starting from `init_corner` (must be an n-level corner of
    /// the block present in the mesh).
    pub fn run(
        &self,
        mesh: &Mesh,
        block: &Region,
        statuses: &[NodeStatus],
        init_corner: &Coord,
    ) -> IdentificationOutcome {
        let frame = BlockFrame::new(mesh, block);
        let n = mesh.ndim();
        assert!(
            block.frame_level(init_corner) == lgfi_topology::FrameLevel::Frame(n),
            "the initialization corner must be an n-level corner of the block"
        );

        // The opposite corner: mirror every coordinate through the block.
        let mut opp = *init_corner;
        for d in 0..n {
            opp[d] = if init_corner[d] == block.lo()[d] - 1 {
                block.hi()[d] + 1
            } else {
                block.lo()[d] - 1
            };
        }

        let stable = Self::is_stable(mesh, block, statuses);

        // --- Timing ------------------------------------------------------------------
        let extents: Vec<i32> = (0..n).map(|d| block.len(d)).collect();
        let formed_round = Self::level_duration(&extents);

        let mut outcome = IdentificationOutcome {
            block: *block,
            init_corner: *init_corner,
            opposite_corner: opp,
            formed_round,
            info_arrival: BTreeMap::new(),
            completed_round: 0,
            stable,
            message_hops: 0,
        };

        if !stable || formed_round > self.ttl {
            // Messages discarded: no information is distributed.
            outcome.stable = false;
            return outcome;
        }

        // --- Step 4: back-propagation of the identified information -----------------
        // The identified block information spreads from the opposite corner over the
        // frame (adjacent nodes, edge nodes, corners) one hop per round.
        let opp_id = mesh.id_of(&opp);
        let mut arrival: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut queue = VecDeque::new();
        arrival.insert(opp_id, formed_round);
        queue.push_back(opp_id);
        let mut hops = 0u64;
        while let Some(u) = queue.pop_front() {
            let t = arrival[&u];
            for (_, v) in mesh.neighbor_ids(u) {
                if frame.role_of(v).is_some() && !arrival.contains_key(&v) {
                    arrival.insert(v, t + 1);
                    queue.push_back(v);
                    hops += 1;
                }
            }
        }

        // Message hops: phase walks (approximated by the formed_round pipeline depth
        // times the number of parallel walks) plus the back-propagation.
        let phase_hops: u64 = frame.roles().count() as u64;
        outcome.message_hops = phase_hops + hops;
        outcome.completed_round = arrival.values().copied().max().unwrap_or(formed_round);
        outcome.info_arrival = arrival;
        outcome
    }

    /// Convenience: picks the lexicographically smallest n-level corner present in the
    /// mesh as the initialization corner and runs the process.  Returns `None` if the
    /// block has no n-level corner inside the mesh.
    pub fn run_from_default_corner(
        &self,
        mesh: &Mesh,
        block: &Region,
        statuses: &[NodeStatus],
    ) -> Option<IdentificationOutcome> {
        let frame = BlockFrame::new(mesh, block);
        let corner_id = frame.top_corners().into_iter().min()?;
        let corner = mesh.coord_of(corner_id);
        Some(self.run(mesh, block, statuses, &corner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSet;
    use crate::labeling::LabelingEngine;
    use lgfi_topology::coord;

    fn figure1_setup() -> (Mesh, Vec<NodeStatus>, Region) {
        let mesh = Mesh::cubic(10, 3);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[
            coord![3, 5, 4],
            coord![4, 5, 4],
            coord![5, 5, 3],
            coord![3, 6, 3],
        ]);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let region = blocks.blocks()[0].region;
        (mesh, eng.statuses().to_vec(), region)
    }

    #[test]
    fn level_duration_base_cases() {
        assert_eq!(IdentificationProcess::level_duration(&[4]), 5);
        assert_eq!(IdentificationProcess::level_duration(&[3, 2]), 7);
        assert_eq!(IdentificationProcess::level_duration(&[2, 2]), 6);
        // 3-D: max(1 + 3 + T2(2,2), 1 + 2 + T2(3,2)) = max(10, 10) = 10.
        assert_eq!(IdentificationProcess::level_duration(&[3, 2, 2]), 10);
        // Larger blocks take longer; identical extents are symmetric.
        assert!(
            IdentificationProcess::level_duration(&[5, 5, 5])
                > IdentificationProcess::level_duration(&[2, 2, 2])
        );
        // 4-D recursion.
        let t4 = IdentificationProcess::level_duration(&[2, 3, 4, 5]);
        assert!(t4 > IdentificationProcess::level_duration(&[3, 4, 5]));
    }

    #[test]
    fn figure5_identification_from_corner() {
        let (mesh, statuses, block) = figure1_setup();
        // The paper's example initializes at C(xmax, ymin, zmax) = (6, 4, 5).
        let proc = IdentificationProcess::default();
        let outcome = proc.run(&mesh, &block, &statuses, &coord![6, 4, 5]);
        assert!(outcome.stable);
        // The opposite corner is C'(xmin, ymax, zmin) = (2, 7, 2).
        assert_eq!(outcome.opposite_corner, coord![2, 7, 2]);
        assert_eq!(outcome.formed_round, 10);
        // Every frame node eventually holds the information.
        let frame = BlockFrame::new(&mesh, &block);
        assert_eq!(outcome.info_arrival.len(), frame.len());
        // The opposite corner gets it first (at formed_round), the farthest node last.
        assert_eq!(
            outcome.arrival_of(mesh.id_of(&coord![2, 7, 2])),
            Some(outcome.formed_round)
        );
        assert!(outcome.completed_round > outcome.formed_round);
        assert!(outcome.completed_round <= outcome.formed_round + (3 + 2 + 2) + 3);
        // The initialization corner also ends up with the identified information.
        assert!(outcome.arrival_of(mesh.id_of(&coord![6, 4, 5])).is_some());
        assert!(outcome.message_hops > 0);
    }

    #[test]
    fn info_arrival_increases_with_frame_distance_from_opposite_corner() {
        let (mesh, statuses, block) = figure1_setup();
        let proc = IdentificationProcess::default();
        let outcome = proc.run(&mesh, &block, &statuses, &coord![6, 4, 5]);
        // A neighbor of the opposite corner on the frame receives the info exactly one
        // round later.
        let opp = mesh.id_of(&coord![2, 7, 2]);
        let t0 = outcome.arrival_of(opp).unwrap();
        let near = mesh.id_of(&coord![3, 7, 2]);
        assert_eq!(outcome.arrival_of(near), Some(t0 + 1));
    }

    #[test]
    fn default_corner_selection() {
        let (mesh, statuses, block) = figure1_setup();
        let proc = IdentificationProcess::default();
        let outcome = proc
            .run_from_default_corner(&mesh, &block, &statuses)
            .unwrap();
        assert!(outcome.stable);
        // Smallest corner id is the lexicographically smallest coordinate (2,4,2).
        assert_eq!(outcome.init_corner, coord![2, 4, 2]);
        assert_eq!(outcome.opposite_corner, coord![6, 7, 5]);
    }

    #[test]
    fn unstable_when_another_block_touches_the_frame() {
        let mesh = Mesh::cubic(12, 3);
        let mut eng = LabelingEngine::new(mesh.clone());
        // A fault cluster that is still growing: identifying the old extent
        // [4:5,4:5,4:4] while the extra fault at (6,4,4) sits on its frame must be
        // discarded (a faulty node in the forwarding direction means the block is not
        // stable yet).
        eng.apply_faults(&[
            coord![4, 4, 4],
            coord![5, 5, 4],
            coord![4, 5, 4],
            coord![5, 4, 4],
            coord![6, 4, 4],
        ]);
        let sub = Region::new(vec![4, 4, 4], vec![5, 5, 4]);
        let proc = IdentificationProcess::default();
        let outcome = proc
            .run_from_default_corner(&mesh, &sub, eng.statuses())
            .unwrap();
        assert!(!outcome.stable);
        assert!(outcome.info_arrival.is_empty());
        // Identifying the *stabilised* extent instead succeeds.
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        assert_eq!(blocks.len(), 1);
        let full = blocks.blocks()[0].region;
        let ok = proc
            .run_from_default_corner(&mesh, &full, eng.statuses())
            .unwrap();
        assert!(ok.stable);
    }

    #[test]
    fn ttl_discards_slow_identifications() {
        let (mesh, statuses, block) = figure1_setup();
        let proc = IdentificationProcess::with_ttl(3);
        let outcome = proc.run(&mesh, &block, &statuses, &coord![6, 4, 5]);
        assert!(!outcome.stable);
        assert!(outcome.info_arrival.is_empty());
        let generous = IdentificationProcess::with_ttl(1000);
        assert!(
            generous
                .run(&mesh, &block, &statuses, &coord![6, 4, 5])
                .stable
        );
    }

    #[test]
    fn two_d_block_identification() {
        let mesh = Mesh::cubic(12, 2);
        let mut eng = LabelingEngine::new(mesh.clone());
        eng.apply_faults(&[coord![5, 5], coord![6, 6], coord![5, 6], coord![6, 5]]);
        let blocks = BlockSet::extract(&mesh, eng.statuses());
        let region = blocks.blocks()[0].region;
        let proc = IdentificationProcess::default();
        let outcome = proc
            .run_from_default_corner(&mesh, &region, eng.statuses())
            .unwrap();
        assert!(outcome.stable);
        assert_eq!(outcome.formed_round, 2 + 2 + 2);
        // All 4*2 + ... frame nodes: 4 faces of 2 + 4 corners = 12.
        assert_eq!(outcome.info_arrival.len(), 12);
    }

    #[test]
    fn completion_round_matches_the_simulated_process() {
        use lgfi_sim::DetRng;
        let proc = IdentificationProcess::default();
        let short_ttl = IdentificationProcess::with_ttl(6);
        let mut stable = 0;
        let mut unstable = 0;
        for (mesh, faults) in [
            (Mesh::cubic(12, 2), 7),
            (Mesh::cubic(8, 3), 6),
            (Mesh::cubic(16, 1), 3),
        ] {
            for seed in 0..24u64 {
                // Faults anywhere, the mesh surface included, so clipped frames and
                // frames touching other blocks occur as well as stable blocks.
                let mut rng = DetRng::seed_from_u64(seed);
                let mut eng = LabelingEngine::new(mesh.clone());
                for id in rng.sample_indices(mesh.node_count(), faults) {
                    eng.inject_fault(id);
                }
                eng.run_to_fixpoint(1_000).unwrap();
                let statuses = eng.statuses();
                let blocks = BlockSet::extract(&mesh, statuses);
                for block in blocks.blocks() {
                    // The block's extent, and the extent shrunk by one in the first
                    // dimension (a sub-extent is never stable).
                    let mut regions = vec![block.region];
                    if block.region.len(0) > 1 {
                        let mut hi = Coord::from_slice(block.region.hi());
                        hi[0] -= 1;
                        regions.push(Region::from_bounds(
                            Coord::from_slice(block.region.lo()),
                            hi,
                        ));
                    }
                    for region in regions {
                        for p in [&proc, &short_ttl] {
                            let simulated = p
                                .run_from_default_corner(&mesh, &region, statuses)
                                .filter(|o| o.stable)
                                .map(|o| o.completed_round);
                            assert_eq!(
                                p.completion_round(&mesh, &region, statuses),
                                simulated,
                                "{:?} seed {seed}: {region:?} (ttl {})",
                                mesh.dims(),
                                p.ttl
                            );
                            if simulated.is_some() {
                                stable += 1;
                            } else {
                                unstable += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            stable > 20 && unstable > 20,
            "{stable} stable, {unstable} unstable"
        );
    }

    #[test]
    #[should_panic(expected = "n-level corner")]
    fn wrong_initialization_corner_panics() {
        let (mesh, statuses, block) = figure1_setup();
        let proc = IdentificationProcess::default();
        proc.run(&mesh, &block, &statuses, &coord![0, 0, 0]);
    }
}
