//! Property-based tests over the core invariants of the model:
//!
//! * the labeling always stabilises and yields rectangular, pairwise-disjoint blocks
//!   that contain every fault;
//! * the labeling engine agrees round by round with a reference full sweep of
//!   rules 1–4, for every thread count and frontier setting;
//! * safe sources always receive minimal paths;
//! * routing between enabled corner nodes always terminates, and delivered routes are
//!   at least as long as the Manhattan distance;
//! * boundary information never sits inside a block and the criticality test never
//!   flags a hop for a destination outside the block's cross-section;
//! * the per-block boundary builder reproduces the whole-map construction it
//!   replaced, merging boundaries included;
//! * the hop kernel (carried coordinates, mask-based direction classification)
//!   makes the decisions of a literal per-direction transcription of Algorithm 3
//!   on random 2-D–4-D contexts and random probe walks, and on every 2-D context
//!   of an exhaustive decision table;
//! * the neighbor masks the hop kernel fills answer `neighbor_status` like
//!   `Mesh::neighbor_id` on random 1-D–4-D meshes, surface nodes included.
//!
//! The cases are drawn by a seeded [`DetRng`] rather than proptest (the build
//! environment is offline), so every run explores the same deterministic sample of
//! the input space. `CASES` seeds per property, each generating a random 2-D or 3-D
//! mesh plus a random subset of distinct interior faults.

use std::collections::{BTreeMap, VecDeque};

use lgfi::prelude::*;
use lgfi_core::block::BlockId;
use lgfi_core::routing::{DirectionClass, NeighborMasks, Probe, RouteCtx};
use lgfi_core::status::next_status;
use lgfi_topology::coord::MAX_DIMS;
use lgfi_topology::direction::DirectionSet;
use lgfi_topology::FrameLevel;

const CASES: u64 = 48;

/// Draws a mesh dimension vector (2-D or 3-D, modest radices) plus a set of
/// distinct interior fault coordinates — the analogue of the old proptest strategy.
fn sample_mesh_and_faults(rng: &mut DetRng) -> (Vec<i32>, Vec<Vec<i32>>) {
    let dims = if rng.chance(0.5) {
        vec![rng.range_i32(6, 12), rng.range_i32(6, 12)]
    } else {
        vec![
            rng.range_i32(5, 8),
            rng.range_i32(5, 8),
            rng.range_i32(5, 8),
        ]
    };
    let interior: Vec<Vec<i32>> = Mesh::new(&dims)
        .interior_region()
        .unwrap()
        .iter_coords()
        .map(|c| c.as_slice().to_vec())
        .collect();
    let max_faults = (interior.len() / 6).clamp(1, 20);
    let count = rng.below(max_faults + 1);
    let faults = rng
        .sample_indices(interior.len(), count)
        .into_iter()
        .map(|i| interior[i].clone())
        .collect();
    (dims, faults)
}

fn build(dims: &[i32], faults: &[Vec<i32>]) -> StaticLayout {
    let coords: Vec<Coord> = faults.iter().map(|f| Coord::from_slice(f)).collect();
    StaticLayout::new(Mesh::new(dims), &coords)
}

#[test]
fn labeling_stabilises_into_rectangular_disjoint_blocks() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xB10C).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let (statuses, blocks) = (layout.statuses(), layout.blocks());
        // Every fault is inside some block; every block is rectangular; block extents
        // are pairwise disjoint; no clean node survives at the fixpoint.
        for f in &faults {
            let c = Coord::from_slice(f);
            assert!(
                blocks.block_containing(&c).is_some(),
                "fault {c:?} not covered (case {case})"
            );
        }
        assert!(blocks.all_rectangular(), "case {case}");
        assert!(blocks.all_disjoint(), "case {case}");
        let clean = statuses.iter().filter(|&&s| s == NodeStatus::Clean).count();
        assert_eq!(clean, 0, "case {case}");
        assert_eq!(
            blocks.total_block_nodes(),
            statuses.iter().filter(|s| s.in_block()).count(),
            "case {case}"
        );
    }
}

/// One synchronous round of Algorithm 1 by full sweep, independent of the round
/// engine: rules 1–4 on every non-faulty node, reading a copy of the previous
/// statuses, with no frontier and no threads.  Returns the number of changed nodes.
fn reference_round(mesh: &Mesh, statuses: &mut [NodeStatus]) -> usize {
    let prev = statuses.to_vec();
    let mut changes = 0;
    for id in mesh.node_ids().filter(|&id| prev[id] != NodeStatus::Faulty) {
        let neighbors: Vec<(Direction, NodeStatus)> = mesh
            .neighbor_ids(id)
            .into_iter()
            .map(|(dir, nid)| (dir, prev[nid]))
            .collect();
        statuses[id] = next_status(prev[id], &neighbors);
        changes += usize::from(statuses[id] != prev[id]);
    }
    changes
}

/// Runs `eng` and the reference sweep side by side to the fixpoint, comparing the
/// change count and every status after each round.
fn assert_rounds_match_reference(
    eng: &mut LabelingEngine,
    reference: &mut [NodeStatus],
    tag: &str,
) {
    let mesh = eng.mesh().clone();
    for round in 0..eng.safe_round_bound() {
        let expected = reference_round(&mesh, reference);
        assert_eq!(eng.run_round(), expected, "{tag} round {round}: changes");
        assert_eq!(eng.statuses(), &*reference, "{tag} round {round}: statuses");
        if expected == 0 {
            assert!(eng.is_stable(), "{tag}: stable at the fixpoint");
            return;
        }
    }
    panic!("{tag}: no fixpoint within the watchdog bound");
}

#[test]
fn labeling_engine_matches_a_reference_sweep_round_by_round() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xD157).derive(case);
        // A random 2-D, 3-D or 4-D mesh with distinct interior faults, then a wave
        // recovering a random subset of them (rule 5: recovered nodes are clean).
        let ndim = 2 + rng.below(3);
        let max_radix = [12, 8, 6][ndim - 2];
        let dims: Vec<i32> = (0..ndim).map(|_| rng.range_i32(4, max_radix)).collect();
        let mesh = Mesh::new(&dims);
        let interior: Vec<NodeId> = mesh
            .interior_region()
            .unwrap()
            .iter_coords()
            .map(|c| mesh.id_of(&c))
            .collect();
        let count = rng.below((interior.len() / 6).clamp(1, 20) + 1);
        let faults: Vec<NodeId> = rng
            .sample_indices(interior.len(), count)
            .into_iter()
            .map(|i| interior[i])
            .collect();
        let recovered: Vec<NodeId> = faults.iter().copied().filter(|_| rng.chance(0.5)).collect();
        for frontier in [true, false] {
            for threads in [1usize, 2, 3] {
                let tag =
                    format!("case {case} dims {dims:?} frontier {frontier} threads {threads}");
                let mut eng = LabelingEngine::new(mesh.clone())
                    .with_frontier(frontier)
                    .with_threads(threads);
                let mut reference = vec![NodeStatus::Enabled; mesh.node_count()];
                for &f in &faults {
                    eng.inject_fault(f);
                    reference[f] = NodeStatus::Faulty;
                }
                assert_rounds_match_reference(&mut eng, &mut reference, &tag);
                for &r in &recovered {
                    eng.recover(r);
                    reference[r] = NodeStatus::Clean;
                }
                assert_rounds_match_reference(&mut eng, &mut reference, &tag);
            }
        }
    }
}

#[test]
fn safe_sources_get_minimal_routes() {
    let mut executed = 0u32;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x5AFE).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let mesh = layout.mesh();
        let enabled = |c: &Coord| layout.statuses()[mesh.id_of(c)] == NodeStatus::Enabled;
        let s = mesh.coord_of(rng.below(mesh.node_count()));
        let d = mesh.coord_of(rng.below(mesh.node_count()));
        if s == d || !enabled(&s) || !enabled(&d) || !is_safe_source_in(&s, &d, layout.blocks()) {
            continue;
        }
        let out = layout.route(&LgfiRouter::new(), mesh.id_of(&s), mesh.id_of(&d), 100_000);
        assert!(out.delivered(), "case {case}");
        assert_eq!(out.detours(), Some(0), "case {case}");
        executed += 1;
    }
    // Guard against the skip filter going vacuous (proptest's rejection accounting
    // provided this for free): a healthy sampler accepts a sizeable fraction.
    assert!(executed >= CASES as u32 / 4, "only {executed} cases ran");
}

#[test]
fn corner_to_corner_routing_terminates_and_delivers() {
    let mut executed = 0u32;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xC04E).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let mesh = layout.mesh();
        let enabled = |c: &Coord| layout.statuses()[mesh.id_of(c)] == NodeStatus::Enabled;
        let s = Coord::origin(mesh.ndim());
        let d = Coord::new(mesh.dims().iter().map(|&k| k - 1).collect::<Vec<i32>>());
        // Corners are never faulted (interior-only faults) and, for these densities,
        // rarely disabled — skip the cases where they are.
        if !enabled(&s) || !enabled(&d) {
            continue;
        }
        let out = layout.route(
            &LgfiRouter::new(),
            mesh.id_of(&s),
            mesh.id_of(&d),
            1_000_000,
        );
        assert!(out.delivered(), "case {case}: {out:?}");
        assert!(out.steps >= u64::from(out.initial_distance), "case {case}");
        assert!(
            out.path_length >= u64::from(out.initial_distance),
            "case {case}"
        );
        // The reserved path never passes through a faulty or disabled node.
        assert!(out.status == ProbeStatus::Delivered, "case {case}");
        executed += 1;
    }
    assert!(executed >= CASES as u32 / 4, "only {executed} cases ran");
}

#[test]
fn boundary_entries_never_sit_inside_blocks() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xB04D).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let (mesh, blocks, boundary) = (layout.mesh(), layout.blocks(), layout.boundary());
        for id in mesh.node_ids() {
            let entries = boundary.entries(id);
            if entries.is_empty() {
                continue;
            }
            // Nodes holding boundary information are never part of a block themselves.
            assert!(
                !layout.statuses()[id].in_block(),
                "case {case}: {:?}",
                mesh.coord_of(id)
            );
            for entry in entries {
                // The stored extent is a real block of the current block set.
                assert!(blocks.regions().contains(&entry.block), "case {case}");
                // The node is outside the extent it guards.
                assert!(!entry.block.contains(&mesh.coord_of(id)), "case {case}");
            }
        }
    }
}

#[test]
fn criticality_requires_destination_in_the_opposite_shadow() {
    let mut executed = 0u32;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xC217).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let (mesh, boundary) = (layout.mesh(), layout.boundary());
        if layout.blocks().is_empty() {
            continue;
        }
        executed += 1;
        let dest = mesh.coord_of(rng.below(mesh.node_count()));
        for id in mesh.node_ids() {
            for entry in boundary.entries(id) {
                let here = mesh.coord_of(id);
                for dir in Direction::all(mesh.ndim()) {
                    let Some(next) = mesh.neighbor(&here, dir) else {
                        continue;
                    };
                    if entry.is_critical_hop(&next, &dest) {
                        // The destination must lie strictly beyond the block in the
                        // guarded direction and inside the cross-section.
                        let g = entry.guard;
                        if g.positive {
                            assert!(dest[g.dim] > entry.block.hi()[g.dim], "case {case}");
                        } else {
                            assert!(dest[g.dim] < entry.block.lo()[g.dim], "case {case}");
                        }
                        for d in 0..mesh.ndim() {
                            if d != g.dim {
                                assert!(dest[d] >= entry.block.lo()[d], "case {case}");
                                assert!(dest[d] <= entry.block.hi()[d], "case {case}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(executed >= CASES as u32 / 4, "only {executed} cases ran");
}

/// The whole-map boundary construction the per-block builder replaced, kept as
/// the builder's oracle: a node-count × blocks adjacency scan, then one
/// breadth-first propagation per block and guard.  Also returns how often the
/// merge rule fired.
fn whole_map_construct(mesh: &Mesh, blocks: &BlockSet) -> (Vec<Vec<BoundaryEntry>>, usize) {
    let mut entries = vec![Vec::new(); mesh.node_count()];
    let mut merges = 0;
    let adjacency: Vec<Option<BlockId>> = (0..mesh.node_count())
        .map(|id| {
            let c = mesh.coord_of(id);
            blocks
                .blocks()
                .iter()
                .find(|b| matches!(b.region.frame_level(&c), FrameLevel::Frame(_)))
                .map(|b| b.id)
        })
        .collect();
    let in_block: Vec<bool> = (0..mesh.node_count())
        .map(|id| blocks.block_of(id).is_some())
        .collect();
    let away_coord = |region: &Region, guard: Direction| {
        if guard.opposite().positive {
            region.hi()[guard.dim] + 1
        } else {
            region.lo()[guard.dim] - 1
        }
    };
    for block in blocks.blocks() {
        for guard in Direction::all(mesh.ndim()) {
            let region = &block.region;
            let away = guard.opposite();
            if region.shadow_prism(mesh, away).is_none() {
                continue;
            }
            let mut arrival: BTreeMap<NodeId, u64> = BTreeMap::new();
            let mut queue: VecDeque<NodeId> = VecDeque::new();
            for c in region.expand(1).iter_coords() {
                if mesh.contains(&c)
                    && c[guard.dim] == away_coord(region, guard)
                    && region.frame_level(&c) == FrameLevel::Frame(2)
                {
                    arrival.insert(mesh.id_of(&c), 0);
                    queue.push_back(mesh.id_of(&c));
                }
            }
            while let Some(u) = queue.pop_front() {
                let t = arrival[&u];
                let uc = mesh.coord_of(u);
                let mut targets: Vec<NodeId> = Vec::new();
                match adjacency[u].filter(|&b| b != block.id) {
                    None => targets.extend(mesh.neighbor(&uc, away).map(|c| mesh.id_of(&c))),
                    Some(other) => {
                        merges += 1;
                        for dir in Direction::all(mesh.ndim()) {
                            if let Some(nid) = mesh.neighbor_id(u, dir) {
                                if adjacency[nid] == Some(other) && !in_block[nid] {
                                    targets.push(nid);
                                }
                            }
                        }
                        let other_region = &blocks.blocks()[other].region;
                        if uc[guard.dim] == away_coord(other_region, guard)
                            && other_region.frame_level(&uc) == FrameLevel::Frame(2)
                        {
                            targets.extend(mesh.neighbor(&uc, away).map(|c| mesh.id_of(&c)));
                        }
                    }
                }
                for v in targets {
                    if in_block[v] || arrival.contains_key(&v) {
                        continue;
                    }
                    arrival.insert(v, t + 1);
                    queue.push_back(v);
                }
            }
            for (node, offset) in arrival {
                entries[node].push(BoundaryEntry {
                    block_id: block.id,
                    block: *region,
                    guard,
                    arrival_offset: offset,
                });
            }
        }
    }
    (entries, merges)
}

#[test]
fn per_block_builder_matches_the_whole_map_construction() {
    let mut merging_cases = 0;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0xB1D).derive(case);
        let (dims, faults) = sample_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let (mesh, boundary) = (layout.mesh(), layout.boundary());
        let (reference, merges) = whole_map_construct(mesh, layout.blocks());
        for id in mesh.node_ids() {
            assert_eq!(
                boundary.entries(id),
                reference[id].as_slice(),
                "case {case}: node {:?}",
                mesh.coord_of(id)
            );
        }
        merging_cases += usize::from(merges > 0);
    }
    // Guard against a sample in which boundaries never merge into another block.
    assert!(
        merging_cases >= CASES as usize / 4,
        "only {merging_cases} cases merged boundaries"
    );
}

/// Algorithm 3's per-direction rule, transcribed literally: used, off-mesh,
/// faulty, disabled (when avoiding known-blocked nodes) and incoming filters, then
/// the critical test on the stepped coordinate for a preferred direction, and the
/// rescan of every preferred direction for a blocked neighbor otherwise.  This is
/// the statement of the rule the router's one-pass classification must reproduce.
fn reference_classify(
    router: &LgfiRouter,
    ctx: &RouteCtx<'_>,
    dir: Direction,
) -> Option<DirectionClass> {
    if ctx.used.contains(dir) {
        return None;
    }
    let status = ctx.neighbor_status(dir)?;
    if status == NodeStatus::Faulty {
        return None;
    }
    if router.avoid_known_blocked && status == NodeStatus::Disabled {
        return None;
    }
    if Some(dir) == ctx.incoming.map(|d| d.opposite()) {
        return Some(DirectionClass::Incoming);
    }
    if ctx.is_preferred(dir) {
        let next = ctx.current.step(dir);
        let critical = ctx
            .boundary_info
            .iter()
            .any(|e| e.is_critical_hop(&next, ctx.dest));
        if critical {
            return Some(DirectionClass::PreferredButDetour);
        }
        return Some(DirectionClass::Preferred);
    }
    let blocked_preferred = Direction::iter_all(ctx.mesh.ndim()).any(|p| {
        ctx.is_preferred(p)
            && ctx
                .neighbor_status(p)
                .map(|s| s.in_block())
                .unwrap_or(false)
    });
    if blocked_preferred {
        Some(DirectionClass::SpareAlongBlock)
    } else {
        Some(DirectionClass::Spare)
    }
}

/// Algorithm 3's decision over [`reference_classify`]: backtrack from a disabled
/// node, otherwise the minimum `(class, score)` direction, where the score prefers
/// the largest offset for preferred classes, the smallest otherwise, and breaks
/// ties by direction index.
fn reference_decide(router: &LgfiRouter, ctx: &RouteCtx<'_>) -> RoutingDecision {
    if ctx.current_status == NodeStatus::Disabled {
        return RoutingDecision::Backtrack;
    }
    let mut best: Option<(Direction, DirectionClass, i64)> = None;
    for dir in Direction::iter_all(ctx.mesh.ndim()) {
        let Some(class) = reference_classify(router, ctx, dir) else {
            continue;
        };
        let offset = (ctx.dest[dir.dim] - ctx.current[dir.dim]).abs() as i64;
        let score = match class {
            DirectionClass::Preferred | DirectionClass::PreferredButDetour => {
                -offset * 16 + dir.index() as i64
            }
            _ => offset * 16 + dir.index() as i64,
        };
        if best.map_or(true, |(_, bc, bs)| (class, score) < (bc, bs)) {
            best = Some((dir, class, score));
        }
    }
    match best {
        Some((_, DirectionClass::Incoming, _)) | None => RoutingDecision::Backtrack,
        Some((dir, _, _)) => RoutingDecision::Forward(dir),
    }
}

/// A 2-D, 3-D or 4-D mesh with a random subset of interior faults.
fn sample_nd_mesh_and_faults(rng: &mut DetRng) -> (Vec<i32>, Vec<Vec<i32>>) {
    let n = 2 + rng.below(3);
    let dims: Vec<i32> = (0..n)
        .map(|_| match n {
            2 => rng.range_i32(5, 11),
            3 => rng.range_i32(4, 7),
            _ => rng.range_i32(4, 5),
        })
        .collect();
    let interior: Vec<Vec<i32>> = Mesh::new(&dims)
        .interior_region()
        .unwrap()
        .iter_coords()
        .map(|c| c.as_slice().to_vec())
        .collect();
    let count = rng.below((interior.len() / 5).clamp(1, 16) + 1);
    let faults = rng
        .sample_indices(interior.len(), count)
        .into_iter()
        .map(|i| interior[i].clone())
        .collect();
    (dims, faults)
}

/// A random boundary entry near the mesh: a small box (possibly touching the
/// surface) guarded in a random direction.
fn random_entry(rng: &mut DetRng, mesh: &Mesh) -> BoundaryEntry {
    let n = mesh.ndim();
    let lo: Vec<i32> = (0..n).map(|d| rng.range_i32(-1, mesh.radix(d))).collect();
    let hi: Vec<i32> = lo.iter().map(|&l| l + rng.range_i32(0, 3)).collect();
    BoundaryEntry {
        block_id: rng.below(8),
        block: Region::new(lo, hi),
        guard: Direction::from_index(rng.below(2 * n)),
        arrival_offset: 0,
    }
}

/// An entry aimed at the hop from `current` towards `dest`: a block strictly
/// between them in one dimension, whose cross-section holds both, guarded on the
/// destination's side — so the preferred hops out of `current` are critical.
/// `None` when the two are fewer than three hops apart in the drawn dimension.
fn aimed_entry(rng: &mut DetRng, current: &Coord, dest: &Coord) -> Option<BoundaryEntry> {
    let n = current.ndim();
    let g = rng.below(n);
    let gap = dest[g] - current[g];
    if gap.abs() < 3 {
        return None;
    }
    let (lo_g, hi_g) = if gap > 0 {
        (current[g] + 2, dest[g] - 1)
    } else {
        (dest[g] + 1, current[g] - 2)
    };
    let lo = (0..n)
        .map(|d| {
            if d == g {
                lo_g
            } else {
                current[d].min(dest[d]) - rng.range_i32(0, 1)
            }
        })
        .collect();
    let hi = (0..n)
        .map(|d| {
            if d == g {
                hi_g
            } else {
                current[d].max(dest[d]) + rng.range_i32(0, 1)
            }
        })
        .collect();
    Some(BoundaryEntry {
        block_id: 0,
        block: Region::new(lo, hi),
        guard: Direction::new(g, gap > 0),
        arrival_offset: 0,
    })
}

#[test]
fn hop_kernel_matches_a_literal_algorithm_3() {
    const STATUSES: [NodeStatus; 4] = [
        NodeStatus::Enabled,
        NodeStatus::Clean,
        NodeStatus::Disabled,
        NodeStatus::Faulty,
    ];
    let routers = [LgfiRouter::new(), LgfiRouter::default()];
    let mut classes_seen = std::collections::BTreeSet::new();
    let mut critical_decisions = 0usize;
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x4E4B).derive(case);
        let (dims, faults) = sample_nd_mesh_and_faults(&mut rng);
        let layout = build(&dims, &faults);
        let (mesh, blocks, boundary) = (layout.mesh(), layout.blocks(), layout.boundary());
        let n = mesh.ndim();
        let real: Vec<BoundaryEntry> = mesh
            .node_ids()
            .flat_map(|id| boundary.entries(id).iter().copied())
            .collect();

        // Random contexts: the router's one-pass classification against the
        // per-direction transcription, for every neighbor status (off-mesh
        // included), used set, incoming direction and entry mix.
        for _ in 0..64 {
            let current = mesh.coord_of(rng.below(mesh.node_count()));
            let dest = mesh.coord_of(rng.below(mesh.node_count()));
            let slots: Vec<Option<NodeStatus>> = (0..2 * n)
                .map(|_| {
                    let pick = rng.below(5);
                    (pick < 4).then(|| STATUSES[pick])
                })
                .collect();
            let used: DirectionSet = Direction::iter_all(n)
                .filter(|_| rng.chance(0.25))
                .collect();
            let incoming = rng
                .chance(0.7)
                .then(|| Direction::from_index(rng.below(2 * n)));
            let mut info: Vec<BoundaryEntry> = Vec::new();
            if !real.is_empty() {
                for _ in 0..rng.below(6) {
                    info.push(*rng.choose(&real));
                }
            }
            for _ in 0..rng.below(4) {
                info.push(random_entry(&mut rng, mesh));
            }
            if rng.chance(0.5) {
                info.extend(aimed_entry(&mut rng, &current, &dest));
            }
            let ctx = RouteCtx {
                mesh,
                current: &current,
                dest: &dest,
                current_status: if rng.chance(0.1) {
                    NodeStatus::Disabled
                } else {
                    NodeStatus::Enabled
                },
                neighbors: NeighborMasks::from_slots(&slots),
                boundary_info: &info,
                global_blocks: blocks.blocks(),
                used,
                incoming,
            };
            for router in &routers {
                for dir in Direction::iter_all(n) {
                    let want = reference_classify(router, &ctx, dir);
                    assert_eq!(
                        router.classify(&ctx, dir),
                        want,
                        "case {case}: {dir} at {current} for {dest}"
                    );
                    if let Some(class) = want {
                        critical_decisions +=
                            usize::from(class == DirectionClass::PreferredButDetour);
                        classes_seen.insert(class);
                    }
                }
                assert_eq!(
                    router.decide(&ctx),
                    reference_decide(router, &ctx),
                    "case {case}: decision at {current} for {dest}"
                );
            }
        }

        // Random probe walks with backtracks on the real layout: after every
        // applied hop the carried coordinates equal the probe's nodes, and the
        // kernel's decision equals the transcription over a context built the
        // old way (coordinates and neighbors derived from the node ids).
        let statuses = layout.statuses();
        let env = layout.env();
        let pick_pair =
            |rng: &mut DetRng| (rng.below(mesh.node_count()), rng.below(mesh.node_count()));
        let (s, d) = pick_pair(&mut rng);
        let mut probe = Probe::new(mesh, s, d);
        for hop in 0..400 {
            // A self-pair starts delivered: draw until the walk has a probe in
            // flight.
            while probe.status != ProbeStatus::InFlight {
                let (s, d) = pick_pair(&mut rng);
                probe.reset(mesh, s, d);
            }
            let router = &routers[hop % 2];
            let here = mesh.coord_of(probe.current);
            let there = mesh.coord_of(probe.dest);
            let old_slots: Vec<Option<NodeStatus>> = Direction::iter_all(n)
                .map(|dir| mesh.neighbor_id(probe.current, dir).map(|id| statuses[id]))
                .collect();
            let old_ctx = RouteCtx {
                mesh,
                current: &here,
                dest: &there,
                current_status: statuses[probe.current],
                neighbors: NeighborMasks::from_slots(&old_slots),
                boundary_info: boundary.entries(probe.current),
                global_blocks: blocks.blocks(),
                used: probe.used_here(),
                incoming: probe.incoming,
            };
            let kernel = probe.decide(mesh, &env, router);
            assert_eq!(
                kernel,
                reference_decide(router, &old_ctx),
                "case {case} hop {hop}"
            );
            // Walk randomly rather than by the router, so backtracks, re-entries
            // and surface nodes all occur.
            let in_mesh: Vec<Direction> = Direction::iter_all(n)
                .filter(|&dir| mesh.neighbor_id(probe.current, dir).is_some())
                .collect();
            let decision = if rng.chance(0.3) {
                RoutingDecision::Backtrack
            } else {
                RoutingDecision::Forward(*rng.choose(&in_mesh))
            };
            probe.apply(mesh, decision);
            assert_eq!(
                probe.current_coord(),
                &mesh.coord_of(probe.current),
                "case {case} hop {hop}"
            );
            assert_eq!(
                probe.dest_coord(),
                &mesh.coord_of(probe.dest),
                "case {case} hop {hop}"
            );
            assert_eq!(probe.path.last(), Some(&probe.current));
        }
    }
    assert_eq!(
        classes_seen.len(),
        5,
        "every direction class occurs: {classes_seen:?}"
    );
    assert!(
        critical_decisions > 300,
        "only {critical_decisions} critical hops drawn"
    );

    // A direction set holds the 16 directions of an 8-D mesh and rejects any other.
    let past = Direction::neg(8);
    assert_eq!(past.index(), 16);
    let ops: [fn(); 3] = [
        || {
            DirectionSet::empty().insert(Direction::neg(8));
        },
        || {
            let _ = DirectionSet::empty().contains(Direction::pos(8));
        },
        || DirectionSet::empty().remove(Direction::pos(31)),
    ];
    for op in ops {
        let err =
            std::panic::catch_unwind(op).expect_err("a direction index of 16 or more must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            msg.contains("exceeds the 16-direction set"),
            "the set itself rejects the index, not an arithmetic overflow: {msg:?}"
        );
    }
}

/// An entry aimed across dimension `g`, whose gap from `current` to `dest` is 3:
/// a one-layer block in the middle of the gap, whose cross-section is the box
/// spanned by the two nodes, guarded on the destination's side.  Every preferred
/// hop out of `current` then enters its shadow.
fn entry_across(g: usize, current: &Coord, dest: &Coord) -> BoundaryEntry {
    let gap = dest[g] - current[g];
    assert_eq!(gap.abs(), 3, "the table aims entries across gaps of 3");
    let layer = current[g] + 2 * gap.signum();
    let n = current.ndim();
    let lo = (0..n)
        .map(|d| {
            if d == g {
                layer
            } else {
                current[d].min(dest[d])
            }
        })
        .collect();
    let hi = (0..n)
        .map(|d| {
            if d == g {
                layer
            } else {
                current[d].max(dest[d])
            }
        })
        .collect();
    BoundaryEntry {
        block_id: 0,
        block: Region::new(lo, hi),
        guard: Direction::new(g, gap > 0),
        arrival_offset: 0,
    }
}

#[test]
fn hop_kernel_matches_algorithm_3_on_every_2d_context() {
    // Every neighbor slot drawn from {enabled, disabled, faulty, off-mesh} (clean
    // neighbors classify like enabled ones and stay with the random test), every
    // used-direction set, every incoming direction and none, destination offsets
    // with every sign pattern, zero, equal and unequal offsets, and no entry or
    // one entry aimed across each dimension whose gap is 3.
    const SLOTS: [Option<NodeStatus>; 4] = [
        Some(NodeStatus::Enabled),
        Some(NodeStatus::Disabled),
        Some(NodeStatus::Faulty),
        None,
    ];
    const OFFSETS: [i32; 5] = [-3, -1, 0, 1, 3];
    let mesh = Mesh::cubic(8, 2);
    let current = coord![4, 4];
    let dirs: Vec<Direction> = Direction::iter_all(2).collect();
    let incomings: Vec<Option<Direction>> = std::iter::once(None)
        .chain(dirs.iter().copied().map(Some))
        .collect();
    let routers = [LgfiRouter::new(), LgfiRouter::default()];
    let mut classes_seen = std::collections::BTreeSet::new();
    let (mut contexts, mut tie_broken) = (0usize, 0usize);
    for dx in OFFSETS {
        for dy in OFFSETS {
            let dest = coord![(4 + dx) as usize, (4 + dy) as usize];
            let infos: Vec<Vec<BoundaryEntry>> = std::iter::once(Vec::new())
                .chain(
                    (0..2)
                        .filter(|&g| (dest[g] - current[g]).abs() == 3)
                        .map(|g| vec![entry_across(g, &current, &dest)]),
                )
                .collect();
            for code in 0..SLOTS.len().pow(4) {
                let slots: Vec<Option<NodeStatus>> = (0..4)
                    .map(|i| SLOTS[code / SLOTS.len().pow(i) % SLOTS.len()])
                    .collect();
                let neighbors = NeighborMasks::from_slots(&slots);
                for used_bits in 0..16u16 {
                    let used: DirectionSet = dirs
                        .iter()
                        .copied()
                        .filter(|d| used_bits & (1 << d.index()) != 0)
                        .collect();
                    for &incoming in &incomings {
                        for info in &infos {
                            let ctx = RouteCtx {
                                mesh: &mesh,
                                current: &current,
                                dest: &dest,
                                current_status: NodeStatus::Enabled,
                                neighbors,
                                boundary_info: info,
                                global_blocks: &[],
                                used,
                                incoming,
                            };
                            for router in &routers {
                                contexts += 1;
                                let classes: [Option<DirectionClass>; 4] =
                                    std::array::from_fn(|i| {
                                        reference_classify(router, &ctx, dirs[i])
                                    });
                                for (&dir, &want) in dirs.iter().zip(&classes) {
                                    assert_eq!(
                                        router.classify(&ctx, dir),
                                        want,
                                        "{dir} for {dest} with {slots:?}, used {used:?}, \
                                         incoming {incoming:?}, {} entries, {router:?}",
                                        info.len()
                                    );
                                    classes_seen.extend(want);
                                }
                                let want = reference_decide(router, &ctx);
                                assert_eq!(
                                    router.decide(&ctx),
                                    want,
                                    "decision for {dest} with {slots:?}, used {used:?}, \
                                     incoming {incoming:?}, {} entries, {router:?}",
                                    info.len()
                                );
                                if let RoutingDecision::Forward(dir) = want {
                                    let class = classes[dir.index()];
                                    tie_broken += usize::from(
                                        classes.iter().filter(|&&c| c == class).count() > 1,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        classes_seen.len(),
        5,
        "every direction class occurs: {classes_seen:?}"
    );
    assert!(
        tie_broken > 10_000,
        "only {tie_broken} of {contexts} decisions needed a tie-break"
    );
}

/// A router that records how the context it is asked about answers
/// [`RouteCtx::neighbor_status`] for every direction index up to `2 * MAX_DIMS`,
/// then backtracks.
#[derive(Default)]
struct NeighborRecorder(std::cell::RefCell<Vec<Option<NodeStatus>>>);

impl Router for NeighborRecorder {
    fn name(&self) -> &'static str {
        "neighbor-recorder"
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        *self.0.borrow_mut() = (0..=2 * MAX_DIMS)
            .map(|i| ctx.neighbor_status(Direction::from_index(i)))
            .collect();
        RoutingDecision::Backtrack
    }
}

#[test]
fn neighbor_masks_answer_like_the_mesh_neighbors() {
    // Random 1-D to 4-D meshes (radix 1 included) whose nodes take random
    // statuses, surface nodes included: at every node, as launched and as reached
    // by a random walk of forward and backtrack hops, the table `Probe::decide`
    // fills from the carried coordinate must answer `neighbor_status` exactly as
    // the statuses read through `Mesh::neighbor_id`, and `None` past `2n`.
    const STATUSES: [NodeStatus; 4] = [
        NodeStatus::Enabled,
        NodeStatus::Clean,
        NodeStatus::Disabled,
        NodeStatus::Faulty,
    ];
    let recorder = NeighborRecorder::default();
    let mut surface_seen = BTreeMap::new();
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(0x4D41_534B).derive(case);
        let n = 1 + rng.below(4);
        let dims: Vec<i32> = (0..n).map(|_| rng.range_i32(1, 9 - n as i32)).collect();
        let mesh = Mesh::new(&dims);
        let statuses: Vec<NodeStatus> = (0..mesh.node_count())
            .map(|_| *rng.choose(&STATUSES))
            .collect();
        let boundary = BoundaryMap::empty(&mesh);
        let env = RouteEnv {
            statuses: &statuses,
            blocks: &[],
            boundary: boundary.view(),
        };
        let mut check = |probe: &Probe, tag: &str| {
            probe.decide(&mesh, &env, &recorder);
            let want: Vec<Option<NodeStatus>> = (0..=2 * MAX_DIMS)
                .map(|i| {
                    let dir = Direction::from_index(i);
                    (dir.dim < n)
                        .then(|| mesh.neighbor_id(probe.current, dir))
                        .flatten()
                        .map(|id| statuses[id])
                })
                .collect();
            assert_eq!(
                *recorder.0.borrow(),
                want,
                "case {case} {dims:?}: {tag} at node {}",
                probe.current
            );
            for id in mesh
                .neighbor_ids(probe.current)
                .into_iter()
                .map(|(_, id)| id)
            {
                if mesh.on_outermost_surface(&mesh.coord_of(id)) {
                    *surface_seen.entry(statuses[id]).or_insert(0usize) += 1;
                }
            }
        };
        let last = mesh.node_count() - 1;
        for node in mesh.node_ids() {
            check(&Probe::new(&mesh, node, last - node), "launch");
        }
        if mesh.node_count() < 2 {
            continue;
        }
        let mut probe = Probe::new(&mesh, 0, last);
        for _ in 0..200 {
            while probe.status != ProbeStatus::InFlight {
                let (s, d) = (rng.below(mesh.node_count()), rng.below(mesh.node_count()));
                probe.reset(&mesh, s, d);
            }
            let in_mesh: Vec<Direction> = Direction::iter_all(n)
                .filter(|&dir| mesh.neighbor_id(probe.current, dir).is_some())
                .collect();
            let decision = if in_mesh.is_empty() || rng.chance(0.3) {
                RoutingDecision::Backtrack
            } else {
                RoutingDecision::Forward(*rng.choose(&in_mesh))
            };
            probe.apply(&mesh, decision);
            check(&probe, "walk");
        }
    }
    assert_eq!(
        surface_seen.len(),
        4,
        "surface neighbors of every status occur: {surface_seen:?}"
    );
}
