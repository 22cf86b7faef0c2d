//! Fault placement and dynamic fault schedules.

use lgfi_sim::{DetRng, FaultEvent, FaultPlan};
use lgfi_topology::{Coord, Mesh, NodeId, Region};

/// The outline of a concave fault cluster — adversarial input for Algorithm 2's
/// rectangular-block convexification, which must disable the nodes inside the
/// shape's cavity to reach a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterShape {
    /// Two perpendicular arms meeting at a corner.
    L,
    /// A bar with a perpendicular stem from its middle.
    T,
    /// Four arms around a center.
    Plus,
    /// A hollow rectangular ring (the cavity is entirely enclosed).
    Ring,
}

/// How faulty nodes are placed in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlacement {
    /// Uniformly random nodes in the interior of the mesh (the paper's assumption: no
    /// fault on the outermost surface).
    UniformInterior,
    /// Uniformly random nodes anywhere (violates the paper's assumption; used by the
    /// stress-test extensions).
    UniformAnywhere,
    /// Faults clustered around a small number of seed points, producing large blocks
    /// (worst case for `e_max`).
    Clustered {
        /// Number of cluster seed points.
        clusters: usize,
    },
    /// A single concave cluster of the given shape at a random interior anchor,
    /// drawn in the first two dimensions.  The shape grows until it holds the
    /// requested fault count; partial counts take a connected prefix of the shape.
    Shaped(ClusterShape),
}

/// Parameters of a dynamic fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicFaultConfig {
    /// Number of fault occurrences.
    pub fault_count: usize,
    /// Step of the first occurrence.
    pub first_step: u64,
    /// Fixed gap `d_i` between consecutive occurrences (the paper assumes
    /// `d_i > (a_i + b_i + c_i)/λ`; choose accordingly or deliberately violate it).
    pub interval: u64,
    /// If true, every fault also recovers `recovery_delay` steps after it occurred.
    pub with_recovery: bool,
    /// Delay between a fault occurrence and its recovery (ignored unless
    /// `with_recovery`).
    pub recovery_delay: u64,
}

impl Default for DynamicFaultConfig {
    fn default() -> Self {
        DynamicFaultConfig {
            fault_count: 4,
            first_step: 0,
            interval: 40,
            with_recovery: false,
            recovery_delay: 100,
        }
    }
}

/// Parameters of a fault front sweeping across dimension 0 of the interior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultFrontConfig {
    /// Step at which the first slice fails.
    pub first_step: u64,
    /// Steps between consecutive slices failing.
    pub interval: u64,
    /// Number of simultaneously faulty slices (the wall's width); each slice
    /// recovers when the front has moved this many slices past it.
    pub thickness: usize,
}

impl Default for FaultFrontConfig {
    fn default() -> Self {
        FaultFrontConfig {
            first_step: 10,
            interval: 30,
            thickness: 2,
        }
    }
}

/// Parameters of a correlated regional-outage schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionalOutageConfig {
    /// Number of outage regions.
    pub outages: usize,
    /// Maximum extent of an outage region along each dimension.
    pub max_extent: i32,
    /// Step at which the first region fails.
    pub first_step: u64,
    /// Steps between consecutive regions failing.
    pub spacing: u64,
    /// Steps each region stays down before recovering as one burst.
    pub duration: u64,
}

impl Default for RegionalOutageConfig {
    fn default() -> Self {
        RegionalOutageConfig {
            outages: 3,
            max_extent: 3,
            first_step: 10,
            spacing: 80,
            duration: 50,
        }
    }
}

/// The ordered cell offsets of a [`ClusterShape`] holding at least `count` cells, in
/// the first two dimensions around the anchor.  Every prefix of the returned order
/// is connected (cells are appended by growing distance from the anchor, or by
/// walking the ring's perimeter), so truncating to `count` keeps one cluster.
fn shape_offsets(shape: ClusterShape, count: usize) -> Vec<(i32, i32)> {
    let mut offs: Vec<(i32, i32)> = Vec::with_capacity(count.max(1));
    match shape {
        ClusterShape::L => {
            offs.push((0, 0));
            let mut d = 1;
            while offs.len() < count {
                offs.push((d, 0));
                if offs.len() < count {
                    offs.push((0, d));
                }
                d += 1;
            }
        }
        ClusterShape::T => {
            offs.push((0, 0));
            let mut d = 1;
            while offs.len() < count {
                for arm in [(0, -d), (0, d), (d, 0)] {
                    if offs.len() < count {
                        offs.push(arm);
                    }
                }
                d += 1;
            }
        }
        ClusterShape::Plus => {
            offs.push((0, 0));
            let mut d = 1;
            while offs.len() < count {
                for arm in [(-d, 0), (d, 0), (0, -d), (0, d)] {
                    if offs.len() < count {
                        offs.push(arm);
                    }
                }
                d += 1;
            }
        }
        ClusterShape::Ring => {
            // Smallest ring with a perimeter of at least `count` cells.
            let mut r = 1i32;
            while (8 * r) < count as i32 {
                r += 1;
            }
            let (mut x, mut y) = (-r, -r);
            for (dx, dy) in [(0, 1), (1, 0), (0, -1), (-1, 0)] {
                for _ in 0..2 * r {
                    offs.push((x, y));
                    x += dx;
                    y += dy;
                }
            }
        }
    }
    offs
}

/// Generates fault placements and schedules deterministically from a seed.
#[derive(Debug, Clone)]
pub struct FaultGenerator {
    mesh: Mesh,
    rng: DetRng,
}

impl FaultGenerator {
    /// A generator for `mesh` seeded with `seed`.
    pub fn new(mesh: Mesh, seed: u64) -> Self {
        FaultGenerator {
            mesh,
            rng: DetRng::seed_from_u64(seed),
        }
    }

    /// The candidate region for a placement policy.
    fn candidate_nodes(&self, placement: FaultPlacement) -> Vec<Coord> {
        match placement {
            FaultPlacement::UniformInterior
            | FaultPlacement::Clustered { .. }
            | FaultPlacement::Shaped(_) => self
                .mesh
                .interior_region()
                .unwrap_or_else(|| self.mesh.full_region())
                .iter_coords()
                .collect(),
            FaultPlacement::UniformAnywhere => self.mesh.coords().collect(),
        }
    }

    /// The interior region (or the full mesh when there is no interior).
    fn interior(&self) -> Region {
        self.mesh
            .interior_region()
            .unwrap_or_else(|| self.mesh.full_region())
    }

    /// Picks `count` distinct faulty nodes according to the placement policy.
    pub fn place(&mut self, count: usize, placement: FaultPlacement) -> Vec<Coord> {
        if let FaultPlacement::Shaped(shape) = placement {
            return self.place_shaped(shape, count);
        }
        let candidates = self.candidate_nodes(placement);
        assert!(
            count <= candidates.len(),
            "cannot place {count} faults among {} candidates",
            candidates.len()
        );
        match placement {
            FaultPlacement::UniformInterior | FaultPlacement::UniformAnywhere => {
                let picks = self.rng.sample_indices(candidates.len(), count);
                picks.into_iter().map(|i| candidates[i]).collect()
            }
            // audit:allow(panic): shaped placements take the early return at the top of this function
            FaultPlacement::Shaped(_) => unreachable!("handled above"),
            FaultPlacement::Clustered { clusters } => {
                let clusters = clusters.max(1);
                let seed_picks = self
                    .rng
                    .sample_indices(candidates.len(), clusters.min(count));
                let seeds: Vec<Coord> = seed_picks.into_iter().map(|i| candidates[i]).collect();
                let mut chosen: Vec<Coord> = Vec::new();
                let interior = self
                    .mesh
                    .interior_region()
                    .unwrap_or_else(|| self.mesh.full_region());
                let mut radius = 1i32;
                while chosen.len() < count {
                    // Grow balls around the seeds until enough nodes are collected.
                    chosen.clear();
                    for seed in &seeds {
                        let ball = Region::new(
                            seed.as_slice().iter().map(|&x| x - radius).collect(),
                            seed.as_slice().iter().map(|&x| x + radius).collect(),
                        );
                        if let Some(clipped) = ball.clip(&interior) {
                            for c in clipped.iter_coords() {
                                if !chosen.contains(&c) {
                                    chosen.push(c);
                                }
                            }
                        }
                    }
                    radius += 1;
                    if radius > self.mesh.dims().iter().copied().max().unwrap_or(1) {
                        break;
                    }
                }
                self.rng.shuffle(&mut chosen);
                chosen.truncate(count);
                chosen
            }
        }
    }

    /// Places one concave cluster of `shape` with `count` nodes at a random interior
    /// anchor.
    fn place_shaped(&mut self, shape: ClusterShape, count: usize) -> Vec<Coord> {
        assert!(count > 0, "cannot place an empty shape");
        assert!(
            self.mesh.dims().len() >= 2,
            "shaped placements need at least 2 dimensions"
        );
        let mut offsets = shape_offsets(shape, count);
        offsets.truncate(count);
        let (mut lo0, mut hi0, mut lo1, mut hi1) = (0i32, 0i32, 0i32, 0i32);
        for &(a, b) in &offsets {
            lo0 = lo0.min(a);
            hi0 = hi0.max(a);
            lo1 = lo1.min(b);
            hi1 = hi1.max(b);
        }
        let interior = self.interior();
        let (ilo, ihi) = (interior.lo().to_vec(), interior.hi().to_vec());
        assert!(
            ilo[0] - lo0 <= ihi[0] - hi0 && ilo[1] - lo1 <= ihi[1] - hi1,
            "mesh interior too small for a {count}-node {shape:?} cluster"
        );
        let a0 = self.rng.range_i32(ilo[0] - lo0, ihi[0] - hi0);
        let a1 = self.rng.range_i32(ilo[1] - lo1, ihi[1] - hi1);
        let rest: Vec<i32> = (2..ilo.len())
            .map(|d| self.rng.range_i32(ilo[d], ihi[d]))
            .collect();
        offsets
            .iter()
            .map(|&(o0, o1)| {
                let mut v = Vec::with_capacity(ilo.len());
                v.push(a0 + o0);
                v.push(a1 + o1);
                v.extend_from_slice(&rest);
                Coord::new(v)
            })
            .collect()
    }

    /// A fault *front* sweeping across the mesh: successive interior slices along
    /// dimension 0 fail one [`FaultFrontConfig::interval`] apart, and each slice
    /// recovers once the front has moved [`FaultFrontConfig::thickness`] slices past
    /// it — a moving wall of faults crossing the whole interior.  Deterministic (no
    /// randomness involved) and [`FaultPlan::validate`]-clean.
    pub fn front_plan(&mut self, config: FaultFrontConfig) -> FaultPlan {
        let interior = self.interior();
        let (lo, hi) = (interior.lo().to_vec(), interior.hi().to_vec());
        let thickness = config.thickness.max(1) as u64;
        let slices = (hi[0] - lo[0] + 1).max(0) as u64;
        let mut events = Vec::new();
        for i in 0..slices {
            let mut slice_lo = lo.clone();
            let mut slice_hi = hi.clone();
            slice_lo[0] = lo[0] + i as i32;
            slice_hi[0] = slice_lo[0];
            let t_fail = config.first_step + config.interval * i;
            let t_recover = config.first_step + config.interval * (i + thickness);
            for c in Region::new(slice_lo, slice_hi).iter_coords() {
                let id = self.mesh.id_of(&c);
                events.push(FaultEvent::fail(t_fail, id));
                events.push(FaultEvent::recover(t_recover, id));
            }
        }
        FaultPlan::new(events)
    }

    /// Correlated regional outages: [`RegionalOutageConfig::outages`] random
    /// pairwise-disjoint interior regions, each failing as one burst and recovering
    /// as one burst.  Regions that cannot be placed disjointly after a bounded number
    /// of deterministic attempts are skipped.
    pub fn regional_outage_plan(&mut self, config: RegionalOutageConfig) -> FaultPlan {
        let interior = self.interior();
        let ndim = self.mesh.dims().len();
        let mut chosen: Vec<Region> = Vec::new();
        let mut events = Vec::new();
        for k in 0..config.outages {
            let mut picked = None;
            for _attempt in 0..32 {
                let mut lo = Vec::with_capacity(ndim);
                let mut hi = Vec::with_capacity(ndim);
                for d in 0..ndim {
                    let span = interior.hi()[d] - interior.lo()[d] + 1;
                    let extent = self.rng.range_i32(1, config.max_extent.max(1).min(span));
                    let l = self
                        .rng
                        .range_i32(interior.lo()[d], interior.hi()[d] - (extent - 1));
                    lo.push(l);
                    hi.push(l + extent - 1);
                }
                let r = Region::new(lo, hi);
                if chosen.iter().all(|c| c.clip(&r).is_none()) {
                    picked = Some(r);
                    break;
                }
            }
            let Some(region) = picked else { continue };
            let t = config.first_step + config.spacing * k as u64;
            for c in region.iter_coords() {
                let id = self.mesh.id_of(&c);
                events.push(FaultEvent::fail(t, id));
                events.push(FaultEvent::recover(t + config.duration.max(1), id));
            }
            chosen.push(region);
        }
        FaultPlan::new(events)
    }

    /// A static plan: all faults present from step 0.
    pub fn static_plan(&mut self, count: usize, placement: FaultPlacement) -> FaultPlan {
        let nodes: Vec<NodeId> = self
            .place(count, placement)
            .iter()
            .map(|c| self.mesh.id_of(c))
            .collect();
        FaultPlan::static_faults(&nodes)
    }

    /// A dynamic plan following [`DynamicFaultConfig`]: one fault per interval (the
    /// paper's model), optionally followed by recoveries.
    pub fn dynamic_plan(
        &mut self,
        config: DynamicFaultConfig,
        placement: FaultPlacement,
    ) -> FaultPlan {
        let nodes = self.place(config.fault_count, placement);
        let mut events = Vec::new();
        for (i, c) in nodes.iter().enumerate() {
            let id = self.mesh.id_of(c);
            let step = config.first_step + config.interval * i as u64;
            events.push(FaultEvent::fail(step, id));
            if config.with_recovery {
                events.push(FaultEvent::recover(step + config.recovery_delay, id));
            }
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_interior_respects_the_outermost_surface_assumption() {
        let mesh = Mesh::cubic(8, 3);
        let mut generator = FaultGenerator::new(mesh.clone(), 7);
        let faults = generator.place(40, FaultPlacement::UniformInterior);
        assert_eq!(faults.len(), 40);
        assert!(faults.iter().all(|c| !mesh.on_outermost_surface(c)));
        // Distinct.
        let mut sorted = faults;
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 40);
    }

    #[test]
    fn uniform_anywhere_can_hit_the_surface() {
        let mesh = Mesh::cubic(4, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 3);
        let faults = generator.place(12, FaultPlacement::UniformAnywhere);
        assert!(faults.iter().any(|c| mesh.on_outermost_surface(c)));
    }

    #[test]
    fn clustered_faults_are_close_together() {
        let mesh = Mesh::cubic(16, 2);
        let mut generator = FaultGenerator::new(mesh, 11);
        let faults = generator.place(9, FaultPlacement::Clustered { clusters: 1 });
        assert_eq!(faults.len(), 9);
        let bb = Region::bounding_all(faults.iter()).unwrap();
        assert!(
            bb.max_edge() <= 7,
            "one cluster should stay compact, got {bb:?}"
        );
    }

    #[test]
    fn static_plan_is_valid_for_the_mesh() {
        let mesh = Mesh::cubic(10, 3);
        let mut generator = FaultGenerator::new(mesh.clone(), 5);
        let plan = generator.static_plan(20, FaultPlacement::UniformInterior);
        assert_eq!(plan.len(), 20);
        assert!(plan.validate(&mesh).is_empty());
    }

    #[test]
    fn dynamic_plan_spaces_faults_by_the_interval() {
        let mesh = Mesh::cubic(10, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 9);
        let plan = generator.dynamic_plan(
            DynamicFaultConfig {
                fault_count: 5,
                first_step: 10,
                interval: 25,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::UniformInterior,
        );
        assert_eq!(plan.occurrence_times(), vec![10, 35, 60, 85, 110]);
        assert!(plan.intervals().iter().all(|&d| d == 25));
        assert!(plan.validate(&mesh).is_empty());
    }

    #[test]
    fn dynamic_plan_with_recovery_adds_matching_recoveries() {
        let mesh = Mesh::cubic(10, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 13);
        let plan = generator.dynamic_plan(
            DynamicFaultConfig {
                fault_count: 3,
                first_step: 0,
                interval: 30,
                with_recovery: true,
                recovery_delay: 45,
            },
            FaultPlacement::UniformInterior,
        );
        assert_eq!(plan.len(), 6);
        assert!(plan.validate(&mesh).is_empty());
        // Eventually everything is recovered.
        assert!(plan.faulty_at(1_000).is_empty());
        assert_eq!(
            plan.peak_fault_count(),
            2,
            "faults overlap by 45-30=15 steps"
        );
    }

    #[test]
    fn shaped_placements_are_connected_interior_and_concave() {
        let mesh = Mesh::cubic(16, 2);
        for shape in [
            ClusterShape::L,
            ClusterShape::T,
            ClusterShape::Plus,
            ClusterShape::Ring,
        ] {
            let mut generator = FaultGenerator::new(mesh.clone(), 21);
            let faults = generator.place(9, FaultPlacement::Shaped(shape));
            assert_eq!(faults.len(), 9, "{shape:?}");
            assert!(
                faults.iter().all(|c| !mesh.on_outermost_surface(c)),
                "{shape:?} must stay interior"
            );
            let mut sorted = faults.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 9, "{shape:?} cells must be distinct");
            // Connected under 1-hop adjacency (Manhattan distance 1).
            let mut reached = vec![false; faults.len()];
            reached[0] = true;
            let mut frontier = vec![0usize];
            while let Some(i) = frontier.pop() {
                for j in 0..faults.len() {
                    if !reached[j] {
                        let d: i32 = faults[i]
                            .as_slice()
                            .iter()
                            .zip(faults[j].as_slice())
                            .map(|(a, b)| (a - b).abs())
                            .sum();
                        if d == 1 {
                            reached[j] = true;
                            frontier.push(j);
                        }
                    }
                }
            }
            assert!(
                reached.iter().all(|&r| r),
                "{shape:?} cluster must be connected"
            );
            // Concave: the bounding box strictly exceeds the cell count.
            let bb = Region::bounding_all(faults.iter()).unwrap();
            assert!(
                bb.volume() as usize > faults.len(),
                "{shape:?} must not fill its bounding box"
            );
        }
    }

    #[test]
    fn full_ring_encloses_its_cavity() {
        let mesh = Mesh::cubic(16, 2);
        let mut generator = FaultGenerator::new(mesh, 5);
        // 8 cells = a complete radius-1 ring around some anchor.
        let faults = generator.place(8, FaultPlacement::Shaped(ClusterShape::Ring));
        let bb = Region::bounding_all(faults.iter()).unwrap();
        assert_eq!(bb.volume(), 9, "radius-1 ring bounding box is 3x3");
        assert_eq!(faults.len(), 8, "the center cell is the cavity");
    }

    #[test]
    fn front_plan_sweeps_and_validates() {
        let mesh = Mesh::cubic(8, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 3);
        let plan = generator.front_plan(FaultFrontConfig {
            first_step: 5,
            interval: 20,
            thickness: 2,
        });
        assert!(plan.validate(&mesh).is_empty());
        // 6 interior slices of 6 nodes, each failing and recovering once.
        assert_eq!(plan.len(), 2 * 6 * 6);
        // The wall is `thickness` slices wide while sweeping.
        assert_eq!(plan.peak_fault_count(), 2 * 6);
        // Everything recovers after the front has passed.
        assert!(plan.faulty_at(10_000).is_empty());
        // Deterministic: no randomness involved.
        let again = FaultGenerator::new(mesh, 99).front_plan(FaultFrontConfig {
            first_step: 5,
            interval: 20,
            thickness: 2,
        });
        assert_eq!(plan, again);
    }

    #[test]
    fn regional_outage_plan_validates_and_recovers() {
        let mesh = Mesh::cubic(12, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 17);
        let config = RegionalOutageConfig {
            outages: 3,
            max_extent: 3,
            first_step: 10,
            spacing: 100,
            duration: 40,
        };
        let plan = generator.regional_outage_plan(config);
        assert!(
            plan.validate(&mesh).is_empty(),
            "{:?}",
            plan.validate(&mesh)
        );
        assert!(plan.peak_fault_count() > 0);
        assert!(plan.faulty_at(100_000).is_empty());
        // Deterministic in the seed.
        let again = FaultGenerator::new(mesh, 17).regional_outage_plan(config);
        assert_eq!(plan, again);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let mesh = Mesh::cubic(9, 3);
        let a = FaultGenerator::new(mesh.clone(), 42).place(15, FaultPlacement::UniformInterior);
        let b = FaultGenerator::new(mesh.clone(), 42).place(15, FaultPlacement::UniformInterior);
        let c = FaultGenerator::new(mesh, 43).place(15, FaultPlacement::UniformInterior);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
