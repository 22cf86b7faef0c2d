//! Shared experiment harness.
//!
//! Every figure and every quantitative claim of the paper has one function here that
//! runs the corresponding experiment and returns the rendered text table(s).  The
//! `exp_*` binaries in `src/bin/` are thin wrappers around these functions, and the
//! `experiments` binary runs all of them in order.

use lgfi_analysis::table::{f2, pct};
use lgfi_analysis::{check_theorem3, check_theorem4, Summary, Table};
use lgfi_baselines::{DimensionOrderRouter, GlobalInfoRouter, LocalInfoRouter, StaticBlockRouter};
use lgfi_core::block::BlockSet;
use lgfi_core::frame::BlockFrame;
use lgfi_core::identification::IdentificationProcess;
use lgfi_core::infostore::InfoStore;
use lgfi_core::labeling::LabelingEngine;
use lgfi_core::layout::StaticLayout;
use lgfi_core::network::{LgfiNetwork, NetworkConfig};
use lgfi_core::routing::{LgfiRouter, Router};
use lgfi_core::safety::is_safe_source_in;
use lgfi_core::status::NodeStatus;
use lgfi_core::traffic_engine::TrafficSpec;
use lgfi_sim::FaultPlan;
use lgfi_topology::{coord, Coord, Direction, Mesh};
use lgfi_workloads::{
    run_trials, run_trials_on, DynamicFaultConfig, FaultGenerator, FaultPlacement, Scenario,
    TrafficGenerator, TrafficPattern,
};

// ---------------------------------------------------------------------------------
// The environment-knob registry
// ---------------------------------------------------------------------------------

/// One typed numeric environment knob of the bench harness: its variable name,
/// default value and a one-line description for the generated help listing.
#[derive(Debug, Clone, Copy)]
pub struct EnvKnob {
    /// Environment variable name (`LGFI_*`).
    pub name: &'static str,
    /// Value used when the variable is unset or empty.
    pub default: usize,
    /// One-line description shown by [`knobs_help`].
    pub doc: &'static str,
}

/// The registry of every numeric `LGFI_*` knob the experiments read.  Knobs are
/// parsed exclusively through [`knob`], so this table *is* the configuration
/// surface: adding a knob here documents it, defaults it and lists it in every
/// binary's `--help` at once.  Worker-count knobs treat `0` as one worker per
/// available core, and every knob is an execution or scale detail — experiment
/// *results* are bit-identical across the thread/frontier settings.
pub const ENV_KNOBS: &[EnvKnob] = &[
    EnvKnob {
        name: "LGFI_THREADS",
        default: 1,
        doc: "worker threads for the information rounds (0 = one per core)",
    },
    EnvKnob {
        name: "LGFI_PROBE_THREADS",
        default: 1,
        doc: "worker threads for probe-sweep routing decisions (0 = one per core)",
    },
    EnvKnob {
        name: "LGFI_TRAFFIC_THREADS",
        default: 1,
        doc: "worker threads for per-cycle traffic decisions (0 = one per core)",
    },
    EnvKnob {
        name: "LGFI_SLO_CYCLES",
        default: 600,
        doc: "injection horizon (cycles) of the exp_slo campaign suite",
    },
    EnvKnob {
        name: "LGFI_SLO_CHURN_CYCLES",
        default: 3_000,
        doc: "horizon (cycles) of the long-horizon churn equivalence/alloc tests",
    },
    EnvKnob {
        name: "LGFI_READERS",
        default: 4,
        doc: "top reader count of the exp_route_service sweep",
    },
    EnvKnob {
        name: "LGFI_RS_QUERIES",
        default: 51_200,
        doc: "target queries per exp_route_service measurement",
    },
    EnvKnob {
        name: "LGFI_VCS",
        default: 2,
        doc: "virtual channels per directed link for the wormhole experiments",
    },
    EnvKnob {
        name: "LGFI_FLITS",
        default: 4,
        doc: "flits per packet (worm length) for the wormhole experiments",
    },
];

/// Looks `name` up in [`ENV_KNOBS`] and parses its value from the environment:
/// unset or empty means the registered default, anything else must be an integer.
///
/// # Panics
/// Panics when `name` is not registered in [`ENV_KNOBS`] (register it — the
/// registry is the single source of knob defaults and documentation) or when the
/// variable is set to something that is not an integer.
pub fn knob(name: &str) -> usize {
    let entry = ENV_KNOBS
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unregistered knob {name:?} — add it to ENV_KNOBS"));
    parse_knob(
        entry.name,
        std::env::var(entry.name).ok().as_deref(),
        entry.default,
    )
}

/// The generated knob listing every experiment binary prints under `--help`:
/// one line per [`ENV_KNOBS`] entry plus the non-numeric knobs.
pub fn knobs_help() -> String {
    let mut out = String::from("Environment knobs:\n");
    for k in ENV_KNOBS {
        out.push_str(&format!(
            "  {:<24} {} [default: {}]\n",
            k.name, k.doc, k.default
        ));
    }
    out.push_str(
        "  LGFI_FRONTIER            active-frontier scheduling; 0/false/off disables [default: on]\n",
    );
    out.push_str("  LGFI_BENCH_JSON          output path for machine-readable bench records\n");
    out.push_str("  LGFI_BENCH_VARIANT       variant tag stamped into emitted bench records\n");
    out
}

/// Handles `--help`/`-h` for an experiment binary: prints a usage line plus the
/// generated [`knobs_help`] listing and returns `true` (the caller should exit).
pub fn print_help_if_requested(binary: &str, about: &str) -> bool {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{binary} — {about}\n");
        println!("Usage: {binary} [--threads N]\n");
        print!("{}", knobs_help());
        true
    } else {
        false
    }
}

/// The parsing rule of [`knob`], separated from the environment lookup so it is
/// testable without mutating process-global state.
fn parse_knob(name: &str, value: Option<&str>, default: usize) -> usize {
    match value {
        Some(s) if !s.trim().is_empty() => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be an integer, got {s:?}")),
        _ => default,
    }
}

/// Virtual channels per directed link for the wormhole experiments
/// (`LGFI_VCS`); see [`knob`].
pub fn configured_vcs() -> u32 {
    knob("LGFI_VCS").max(1) as u32
}

/// Flits per packet for the wormhole experiments (`LGFI_FLITS`); see [`knob`].
pub fn configured_flits() -> u32 {
    knob("LGFI_FLITS").max(1) as u32
}

/// The active-frontier knob configured through the environment: `LGFI_FRONTIER`
/// unset or empty means on (the default), `0`/`false`/`off` disables it (full
/// per-round evaluation).  Like `LGFI_THREADS`, scheduling never changes results —
/// every experiment output is bit-identical across settings.
pub fn configured_frontier() -> bool {
    match std::env::var("LGFI_FRONTIER") {
        Ok(s) => !matches!(s.trim(), "0" | "false" | "off"),
        _ => true,
    }
}

/// The worker-thread count for an experiment binary: a `--threads N` command-line
/// argument wins, then the `LGFI_THREADS` environment variable, then serial.
/// `N = 0` means one worker per available core.
pub fn cli_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--threads=") {
            return v
                .parse()
                .unwrap_or_else(|_| panic!("--threads takes an integer, got {v:?}"));
        }
        if a == "--threads" {
            let v = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("--threads takes an integer argument"));
            return v
                .parse()
                .unwrap_or_else(|_| panic!("--threads takes an integer, got {v:?}"));
        }
    }
    knob("LGFI_THREADS")
}

/// Picks the sweep-level worker count for an experiment whose per-trial engines run
/// with `engine_threads` workers: the two levels multiply, so the sweep gets the
/// cores left over after each trial's engine claims its share (at least one sweep
/// worker; `0` = one sweep worker per core when the engines are serial).
fn sweep_workers(engine_threads: usize) -> usize {
    if engine_threads == 1 {
        0 // one sweep worker per core, engines serial — the historical default
    } else {
        let cores = lgfi_sim::resolve_threads(0);
        (cores / engine_threads).max(1)
    }
}

/// The fault set of Figure 1 of the paper: four faults in a 3-D mesh whose block is
/// `[3:5, 5:6, 3:4]`.
pub fn figure1_faults() -> Vec<Coord> {
    vec![
        coord![3, 5, 4],
        coord![4, 5, 4],
        coord![5, 5, 3],
        coord![3, 6, 3],
    ]
}

fn figure1_layout() -> StaticLayout {
    StaticLayout::new(Mesh::cubic(10, 3), &figure1_faults())
}

// ---------------------------------------------------------------------------------
// F1 — Figure 1: faulty block construction
// ---------------------------------------------------------------------------------

/// Experiment F1: reproduce Figure 1 — the faulty block formed by four faults in a
/// 3-D mesh, plus the per-round growth of the disabled set.
pub fn exp_fig1_block() -> String {
    let mesh = Mesh::cubic(10, 3);
    let mut eng = LabelingEngine::new(mesh.clone());
    for f in figure1_faults() {
        eng.inject_fault_coord(&f);
    }
    let mut table = Table::new(
        "F1  Figure 1: block construction for faults (3,5,4) (4,5,4) (5,5,3) (3,6,3) in a 10^3 mesh",
        &["round", "faulty", "disabled", "changes"],
    );
    let mut round = 0u64;
    loop {
        let (f, d, _, _) = eng.census();
        let changes = eng.run_round();
        round += 1;
        table.row(&[
            round.to_string(),
            f.to_string(),
            d.to_string(),
            changes.to_string(),
        ]);
        if changes == 0 {
            break;
        }
    }
    let blocks = BlockSet::extract(&mesh, eng.statuses());
    let block = &blocks.blocks()[0];
    let mut summary = Table::new("F1  resulting block", &["property", "value"]);
    summary.row(&["block extent".into(), format!("{}", block.region)]);
    summary.row(&["paper's extent".into(), "[3:5, 5:6, 3:4]".into()]);
    summary.row(&["nodes in block".into(), block.size().to_string()]);
    summary.row(&["rectangular".into(), block.is_rectangular().to_string()]);
    summary.row(&["a_i (rounds to stabilise)".into(), eng.rounds().to_string()]);
    format!("{table}\n{summary}")
}

// ---------------------------------------------------------------------------------
// F2 — Figure 2: corners and edge nodes
// ---------------------------------------------------------------------------------

/// Experiment F2: reproduce Figure 2 — the 3-level corner (6,4,5), its edge neighbors,
/// and the population of every frame level.
pub fn exp_fig2_corners() -> String {
    let layout = figure1_layout();
    let mesh = layout.mesh();
    let frame = BlockFrame::of_block(mesh, &layout.blocks().blocks()[0]);
    let mut table = Table::new(
        "F2  Figure 2: frame of block [3:5, 5:6, 3:4]",
        &["level", "meaning", "count", "example"],
    );
    let names = [
        "adjacent node",
        "2-level corner / 3-level edge node",
        "3-level corner",
    ];
    for level in 1..=3usize {
        let nodes = frame.nodes_at_level(level);
        let example = nodes
            .iter()
            .map(|&id| mesh.coord_of(id))
            .find(|c| *c == coord![6, 4, 5] || level != 3)
            .map(|c| format!("{c}"))
            .unwrap_or_default();
        table.row(&[
            level.to_string(),
            names[level - 1].to_string(),
            nodes.len().to_string(),
            example,
        ]);
    }
    let mut example = Table::new(
        "F2  the paper's worked example around corner (6,4,5)",
        &["node", "role level (paper)", "role level (measured)"],
    );
    for (c, expected) in [
        (coord![6, 4, 5], 3usize),
        (coord![5, 4, 5], 2),
        (coord![6, 5, 5], 2),
        (coord![6, 4, 4], 2),
        (coord![5, 5, 5], 1),
        (coord![5, 4, 4], 1),
    ] {
        let level = frame
            .role_of(mesh.id_of(&c))
            .map(|r| r.level())
            .unwrap_or(0);
        example.row(&[format!("{c}"), expected.to_string(), level.to_string()]);
    }
    format!("{table}\n{example}")
}

// ---------------------------------------------------------------------------------
// F3 — Figure 3: boundaries
// ---------------------------------------------------------------------------------

/// Experiment F3: reproduce Figure 3 — the boundary of the Figure-1 block for every
/// adjacent surface, and the merge of a boundary into a second block.
pub fn exp_fig3_boundaries() -> String {
    let layout = figure1_layout();
    let map = layout.boundary();
    let mut table = Table::new(
        "F3  Figure 3: boundaries of block [3:5, 5:6, 3:4] in a 10^3 mesh",
        &[
            "surface",
            "guard dir",
            "boundary nodes",
            "max arrival offset (rounds)",
        ],
    );
    for guard in Direction::all(3) {
        let nodes = map.boundary_nodes(0, guard);
        let max_offset = nodes
            .iter()
            .flat_map(|&id| {
                map.entries(id)
                    .iter()
                    .filter(|e| e.guard == guard)
                    .map(|e| e.arrival_offset)
            })
            .max()
            .unwrap_or(0);
        table.row(&[
            format!("S{}", guard.surface_index(3)),
            format!("{guard}"),
            nodes.len().to_string(),
            max_offset.to_string(),
        ]);
    }

    // The two-block merge of Figure 3 (d), in 2-D for readability.
    let merged = StaticLayout::new(
        Mesh::cubic(14, 2),
        &[
            coord![5, 9],
            coord![6, 10],
            coord![5, 10],
            coord![6, 9],
            coord![4, 4],
            coord![5, 5],
            coord![4, 5],
            coord![5, 4],
        ],
    );
    let upper = merged
        .blocks()
        .blocks()
        .iter()
        .find(|b| b.region.lo()[1] == 9)
        .expect("upper block");
    let nodes = merged
        .boundary()
        .boundary_nodes(upper.id, Direction::pos(1));
    let below_second_block = nodes
        .iter()
        .map(|&id| merged.mesh().coord_of(id))
        .filter(|c| c[1] < 4)
        .count();
    let mut merge = Table::new(
        "F3(d)  boundary of block A [5:6,9:10] for S_{+Y} merging into block B [4:5,4:5] (14x14 mesh)",
        &["quantity", "value"],
    );
    merge.row(&["boundary nodes of A for +Y".into(), nodes.len().to_string()]);
    merge.row(&[
        "of which below block B (merged continuation)".into(),
        below_second_block.to_string(),
    ]);
    merge.row(&[
        "c (boundary construction rounds)".into(),
        merged.boundary().construction_rounds().to_string(),
    ]);
    format!("{table}\n{merge}")
}

// ---------------------------------------------------------------------------------
// F4 — Figure 4: recovery
// ---------------------------------------------------------------------------------

/// Experiment F4: reproduce Figure 4 — recovery of node (5,5,3), the clean wave, and
/// the shrunken block.
pub fn exp_fig4_recovery() -> String {
    let mesh = Mesh::cubic(10, 3);
    let mut eng = LabelingEngine::new(mesh.clone());
    eng.apply_faults(&figure1_faults());
    eng.recover_coord(&coord![5, 5, 3]);
    let watched = [
        coord![5, 5, 3],
        coord![4, 5, 3],
        coord![5, 6, 3],
        coord![5, 5, 4],
        coord![3, 5, 3],
    ];
    let mut table = Table::new(
        "F4  Figure 4: statuses after the recovery of (5,5,3)",
        &[
            "round", "(5,5,3)", "(4,5,3)", "(5,6,3)", "(5,5,4)", "(3,5,3)",
        ],
    );
    let row = |round: u64, eng: &LabelingEngine| {
        let cells: Vec<String> = std::iter::once(round.to_string())
            .chain(watched.iter().map(|c| eng.status_at(c).to_string()))
            .collect();
        cells
    };
    table.row(&row(0, &eng));
    for round in 1..=12u64 {
        let changes = eng.run_round();
        table.row(&row(round, &eng));
        if changes == 0 {
            break;
        }
    }
    let blocks = BlockSet::extract(&mesh, eng.statuses());
    let mut summary = Table::new(
        "F4  stabilised blocks after recovery",
        &["property", "value"],
    );
    summary.row(&["number of blocks".into(), blocks.len().to_string()]);
    summary.row(&[
        "block extent".into(),
        format!("{}", blocks.blocks()[0].region),
    ]);
    summary.row(&["expected (shrunken)".into(), "[3:4, 5:6, 3:4]".into()]);
    format!("{table}\n{summary}")
}

// ---------------------------------------------------------------------------------
// F5 — Figures 5 and 6: identification
// ---------------------------------------------------------------------------------

/// Experiment F5: reproduce Figures 5–6 — the three-phase identification process from
/// corner (6,4,5) and the back-propagation of the identified information, plus how the
/// round counts scale with the block size and dimension.
pub fn exp_fig5_identification() -> String {
    let layout = figure1_layout();
    let ident = IdentificationProcess::default();
    let outcome = ident.run(
        layout.mesh(),
        &layout.blocks().blocks()[0].region,
        layout.statuses(),
        &coord![6, 4, 5],
    );
    let mut table = Table::new(
        "F5  Figures 5-6: identification of block [3:5, 5:6, 3:4] from corner (6,4,5)",
        &["quantity", "value"],
    );
    table.row(&[
        "initialization corner".into(),
        format!("{}", outcome.init_corner),
    ]);
    table.row(&[
        "opposite corner".into(),
        format!("{}", outcome.opposite_corner),
    ]);
    table.row(&["stable".into(), outcome.stable.to_string()]);
    table.row(&[
        "rounds until block info formed at opposite corner".into(),
        outcome.formed_round.to_string(),
    ]);
    table.row(&[
        "rounds until every frame node holds the info (b_i)".into(),
        outcome.completed_round.to_string(),
    ]);
    table.row(&[
        "frame nodes holding the info".into(),
        outcome.info_arrival.len().to_string(),
    ]);
    table.row(&["message hops".into(), outcome.message_hops.to_string()]);

    let mut scaling = Table::new(
        "F5  identification rounds vs. block extent (level_duration)",
        &["block extent", "dimension", "formed (rounds)"],
    );
    for extents in [
        vec![2, 2],
        vec![4, 4],
        vec![8, 8],
        vec![2, 2, 2],
        vec![3, 2, 2],
        vec![4, 4, 4],
        vec![8, 8, 8],
        vec![3, 3, 3, 3],
        vec![4, 4, 4, 4, 4],
    ] {
        let t = IdentificationProcess::level_duration(&extents);
        scaling.row(&[
            format!("{extents:?}"),
            extents.len().to_string(),
            t.to_string(),
        ]);
    }
    format!("{table}\n{scaling}")
}

// ---------------------------------------------------------------------------------
// F7 — Figure 7: the step model
// ---------------------------------------------------------------------------------

/// Experiment F7: the Figure-7 step structure — how many steps it takes for the
/// information of a new block to reach the far end of its boundary as a function of λ,
/// and the phase structure of a step.
pub fn exp_fig7_steps() -> String {
    exp_fig7_steps_with(knob("LGFI_THREADS"))
}

/// [`exp_fig7_steps`] with an explicit worker-thread count for the information
/// rounds (bit-identical output for every setting).
pub fn exp_fig7_steps_with(threads: usize) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let mesh = Mesh::cubic(12, 2);
    let faults = [coord![5, 6], coord![6, 7], coord![5, 7], coord![6, 6]];
    let ids: Vec<usize> = faults.iter().map(|c| mesh.id_of(c)).collect();
    let observer = mesh.id_of(&coord![4, 0]);
    let mut table = Table::new(
        &format!("F7  Figure 7: steps until a distant boundary node (4,0) learns of block [5:6,6:7] (12x12 mesh, threads={threads})"),
        &["lambda (rounds/step)", "steps until visible", "total info rounds"],
    );
    for lambda in [1u64, 2, 4, 8] {
        let plan = FaultPlan::static_faults(&ids);
        let mut net = LgfiNetwork::new(
            mesh.clone(),
            plan,
            NetworkConfig {
                lambda,
                max_probe_steps: 10_000,
                threads,
                frontier: configured_frontier(),
                probe_threads: knob("LGFI_PROBE_THREADS"),
            },
        );
        let mut steps = 0u64;
        while net.visible_info(observer).is_empty() && steps < 1_000 {
            net.run_step();
            steps += 1;
        }
        table.row(&[
            lambda.to_string(),
            steps.to_string(),
            net.round().to_string(),
        ]);
    }
    let mut phases = Table::new("F7  actions within a step", &["order", "phase"]);
    for (i, phase) in lgfi_sim::StepPhase::all().iter().enumerate() {
        phases.row(&[(i + 1).to_string(), format!("{phase:?}")]);
    }
    format!("{table}\n{phases}")
}

// ---------------------------------------------------------------------------------
// T2 — Theorem 2: safe sources
// ---------------------------------------------------------------------------------

/// Experiment T2: Theorem 2 — every route from a safe source under static faults is
/// minimal.
pub fn exp_thm2_safety() -> String {
    let mut table = Table::new(
        "T2  Theorem 2: routes from safe sources are minimal (static faults, LGFI router)",
        &[
            "mesh",
            "faults",
            "pairs",
            "safe pairs",
            "minimal among safe",
            "violations",
        ],
    );
    for (dims, fault_count) in [(vec![12, 12], 8), (vec![16, 16], 16), (vec![8, 8, 8], 20)] {
        let mesh = Mesh::new(&dims);
        let mut violations = 0usize;
        let mut safe_pairs = 0usize;
        let mut minimal = 0usize;
        let mut pairs = 0usize;
        for seed in 0..10u64 {
            let mut generator = FaultGenerator::new(mesh.clone(), seed);
            let faults = generator.place(fault_count, FaultPlacement::UniformInterior);
            let layout = StaticLayout::new(mesh.clone(), &faults);
            let mut traffic =
                TrafficGenerator::new(mesh.clone(), TrafficPattern::UniformRandom, seed);
            let statuses = layout.statuses();
            for req in traffic.requests(30, |id| statuses[id] == NodeStatus::Enabled) {
                pairs += 1;
                let s = mesh.coord_of(req.source);
                let d = mesh.coord_of(req.dest);
                if !is_safe_source_in(&s, &d, layout.blocks()) {
                    continue;
                }
                safe_pairs += 1;
                let out = layout.route(&LgfiRouter::new(), req.source, req.dest, 100_000);
                if out.delivered() && out.detours() == Some(0) {
                    minimal += 1;
                } else {
                    violations += 1;
                }
            }
        }
        table.row(&[
            format!("{dims:?}"),
            fault_count.to_string(),
            pairs.to_string(),
            safe_pairs.to_string(),
            minimal.to_string(),
            violations.to_string(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// T3 / T4 / T5 — dynamic detour bounds
// ---------------------------------------------------------------------------------

struct DynamicRun {
    report: lgfi_core::network::ProbeReport,
    bound: lgfi_core::bounds::DetourBound,
}

fn run_dynamic_probes(
    dims: &[i32],
    fault_count: usize,
    interval: u64,
    seeds: u64,
) -> Vec<DynamicRun> {
    let inputs: Vec<u64> = (0..seeds).collect();
    let dims = dims.to_vec();
    let results = run_trials(inputs, move |&seed| {
        let mesh = Mesh::new(&dims);
        let mut generator = FaultGenerator::new(mesh.clone(), seed);
        // Clustered placement so the dynamically appearing faults grow into blocks
        // that can actually stand in the probe's way: isolated single faults are
        // routed around for free by any adaptive router.
        let plan = generator.dynamic_plan(
            DynamicFaultConfig {
                fault_count,
                first_step: 5,
                interval,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::Clustered {
                clusters: (fault_count / 4).max(1),
            },
        );
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Launch a corner-to-corner probe at step 0 so it is in flight while the
        // faults appear.
        let source = mesh.id_of(&Coord::origin(mesh.ndim()));
        let dest = mesh.id_of(&Coord::new(
            mesh.dims().iter().map(|&k| k - 1).collect::<Vec<i32>>(),
        ));
        net.launch_probe(source, dest, Box::new(LgfiRouter::new()));
        net.run_to_completion(50_000);
        let report = net.reports()[0].clone();
        let bound = net.detour_bound_for(report.launched_at);
        (report, bound)
    });
    results
        .into_iter()
        .map(|p| DynamicRun {
            report: p.output.0,
            bound: p.output.1,
        })
        .collect()
}

/// Experiment T3: Theorem 3 — the measured D(i) at every fault occurrence respects the
/// per-interval progress bound.
pub fn exp_thm3_progress() -> String {
    let runs = run_dynamic_probes(&[24, 24], 8, 10, 12);
    let mut table = Table::new(
        "T3  Theorem 3: remaining distance D(i) at each fault occurrence vs. bound (24x24, 8 clustered dynamic faults, d_i=10)",
        &["seed", "delivered", "D", "D(i) series", "bound holds"],
    );
    for (seed, run) in runs.iter().enumerate() {
        let checks = check_theorem3(&run.report, &run.bound);
        let holds = checks.iter().all(|c| c.holds);
        let series: Vec<String> = run
            .report
            .distance_at_fault
            .values()
            .map(|d| d.to_string())
            .collect();
        table.row(&[
            seed.to_string(),
            run.report.outcome.delivered().to_string(),
            run.report.outcome.initial_distance.to_string(),
            series.join(","),
            holds.to_string(),
        ]);
    }
    table.render()
}

/// Experiment T4: Theorem 4 — measured steps and detours vs. the `k (e_max + a_max)`
/// bound for routes from (safe) corner sources under dynamic faults.
pub fn exp_thm4_detours() -> String {
    let mut table = Table::new(
        "T4  Theorem 4: measured detours vs. bound (corner-to-corner probes under dynamic faults)",
        &[
            "mesh",
            "faults",
            "interval",
            "delivered",
            "mean detours",
            "max detours",
            "max allowed",
            "bound holds",
        ],
    );
    for (dims, fault_count, interval) in [
        (vec![16, 16], 4, 8),
        (vec![16, 16], 8, 8),
        (vec![24, 24], 8, 12),
        (vec![24, 24], 12, 6),
        (vec![10, 10, 10], 8, 8),
    ] {
        let runs = run_dynamic_probes(&dims, fault_count, interval, 10);
        let delivered = runs.iter().filter(|r| r.report.outcome.delivered()).count();
        let detours: Vec<u64> = runs
            .iter()
            .filter_map(|r| r.report.outcome.detours())
            .collect();
        let all_hold = runs
            .iter()
            .all(|r| check_theorem4(&r.report, &r.bound).holds);
        let max_allowed = runs
            .iter()
            .map(|r| {
                r.bound
                    .max_detours(u64::from(r.report.outcome.initial_distance))
            })
            .max()
            .unwrap_or(0);
        let s = Summary::of_u64(&detours);
        table.row(&[
            format!("{dims:?}"),
            fault_count.to_string(),
            interval.to_string(),
            format!("{delivered}/{}", runs.len()),
            f2(s.mean),
            s.max.to_string(),
            max_allowed.to_string(),
            all_hold.to_string(),
        ]);
    }
    table.render()
}

/// Experiment T5: Theorem 5 — the same bound applied to *unsafe* sources (pairs whose
/// bounding box intersects a block at launch time).
pub fn exp_thm5_unsafe() -> String {
    let mut table = Table::new(
        "T5  Theorem 5: unsafe sources under dynamic faults (16x16 mesh)",
        &[
            "seed",
            "safe at launch",
            "delivered",
            "steps",
            "bound (L-based)",
            "holds",
        ],
    );
    for seed in 0..10u64 {
        let mesh = Mesh::cubic(16, 2);
        let mut generator = FaultGenerator::new(mesh.clone(), 100 + seed);
        // Static block in the middle plus dynamic faults later.
        let mut plan = generator.static_plan(6, FaultPlacement::Clustered { clusters: 1 });
        let dynamic = generator.dynamic_plan(
            DynamicFaultConfig {
                fault_count: 2,
                first_step: 20,
                interval: 60,
                with_recovery: false,
                recovery_delay: 0,
            },
            FaultPlacement::UniformInterior,
        );
        for e in dynamic.events() {
            plan.push(*e);
        }
        if !plan.validate(&mesh).is_empty() {
            continue;
        }
        let mut net = LgfiNetwork::new(mesh.clone(), plan, NetworkConfig::default());
        // Let the static block stabilise, then launch a probe straight across it.
        for _ in 0..15 {
            net.run_step();
        }
        let source = mesh.id_of(&coord![0, 7]);
        let dest = mesh.id_of(&coord![15, 8]);
        if net.statuses()[source] != NodeStatus::Enabled
            || net.statuses()[dest] != NodeStatus::Enabled
        {
            continue;
        }
        let safe = is_safe_source_in(&mesh.coord_of(source), &mesh.coord_of(dest), net.blocks());
        net.launch_probe(source, dest, Box::new(LgfiRouter::new()));
        net.run_to_completion(50_000);
        let report = net.reports()[0].clone();
        let bound = net.detour_bound_for(report.launched_at);
        // Theorem 5 uses the length L of an existing path; the shortest detour path is
        // at most D + half the block perimeter, so use the measured path length as L.
        let l = report
            .outcome
            .path_length
            .max(u64::from(report.outcome.initial_distance));
        let allowed = bound.max_steps(l);
        table.row(&[
            seed.to_string(),
            safe.to_string(),
            report.outcome.delivered().to_string(),
            report.outcome.steps.to_string(),
            allowed.to_string(),
            (report.outcome.steps <= allowed).to_string(),
        ]);
    }
    table.render()
}

/// Experiment T1: Theorem 1 — fault recovery constructions do not hurt routing: the
/// same source/destination pair needs no more steps after a recovery re-stabilises
/// than before it.
pub fn exp_thm1_recovery() -> String {
    let mut table = Table::new(
        "T1  Theorem 1: routing before vs. after a recovery (12x12 mesh, block shrinks)",
        &[
            "pair",
            "steps with full block",
            "steps after recovery",
            "recovery not worse",
        ],
    );
    let mesh = Mesh::cubic(12, 2);
    let faults = [
        coord![5, 5],
        coord![6, 6],
        coord![5, 6],
        coord![6, 5],
        coord![7, 5],
        coord![7, 6],
    ];
    let mut eng = LabelingEngine::new(mesh.clone());
    eng.apply_faults(&faults);
    let with_full_block = StaticLayout::from_statuses(mesh.clone(), eng.statuses());
    // Recover two faults: the block shrinks.
    eng.apply_recoveries(&[coord![7, 5], coord![7, 6]]);
    let after_recovery = StaticLayout::from_statuses(mesh.clone(), eng.statuses());
    for (s, d) in [
        (coord![5, 1], coord![6, 10]),
        (coord![1, 5], coord![10, 6]),
        (coord![0, 0], coord![11, 11]),
        (coord![6, 0], coord![6, 11]),
    ] {
        let (source, dest) = (mesh.id_of(&s), mesh.id_of(&d));
        let before = with_full_block.route(&LgfiRouter::new(), source, dest, 10_000);
        let after = after_recovery.route(&LgfiRouter::new(), source, dest, 10_000);
        table.row(&[
            format!("{s} -> {d}"),
            before.steps.to_string(),
            after.steps.to_string(),
            lgfi_core::bounds::recovery_does_not_increase_detours(before.steps, after.steps)
                .to_string(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// C1 — convergence of the fault information constructions
// ---------------------------------------------------------------------------------

/// Experiment C1: the claim that "fault information can be distributed quickly" —
/// `a_i`, `b_i`, `c_i` as a function of mesh size, dimension and fault-cluster size.
pub fn exp_convergence() -> String {
    exp_convergence_with(knob("LGFI_THREADS"))
}

/// [`exp_convergence`] with an explicit worker-thread count for the labeling rounds;
/// engine parallelism > 1 shrinks the outer seed sweep to the cores left over so the
/// machine is not oversubscribed.  Output numbers are bit-identical for every setting.
pub fn exp_convergence_with(threads: usize) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let mut table = Table::new(
        &format!("C1  convergence rounds of the fault-information constructions (mean over 8 seeds, threads={threads})"),
        &[
            "mesh",
            "faults per cluster",
            "a (labeling)",
            "b (identification)",
            "c (boundary)",
            "diameter",
        ],
    );
    for (dims, cluster) in [
        (vec![12, 12], 4usize),
        (vec![24, 24], 4),
        (vec![48, 48], 4),
        (vec![12, 12], 9),
        (vec![24, 24], 9),
        (vec![10, 10, 10], 4),
        (vec![10, 10, 10], 8),
        (vec![16, 16, 16], 8),
        (vec![8, 8, 8, 8], 8),
    ] {
        let mesh = Mesh::new(&dims);
        let inputs: Vec<u64> = (0..8).collect();
        let dims_clone = dims.clone();
        let points = run_trials_on(sweep_workers(threads), inputs, move |&seed| {
            let mesh = Mesh::new(&dims_clone);
            let mut generator = FaultGenerator::new(mesh.clone(), seed);
            let faults = generator.place(cluster, FaultPlacement::Clustered { clusters: 1 });
            let mut eng = LabelingEngine::new(mesh.clone())
                .with_threads(threads)
                .with_frontier(configured_frontier());
            let a = eng.apply_faults(&faults);
            let layout = StaticLayout::from_statuses(mesh.clone(), eng.statuses());
            let ident = IdentificationProcess::default();
            let b = layout
                .blocks()
                .blocks()
                .iter()
                .filter_map(|blk| {
                    ident
                        .run_from_default_corner(&mesh, &blk.region, layout.statuses())
                        .filter(|o| o.stable)
                        .map(|o| o.completed_round)
                })
                .max()
                .unwrap_or(0);
            let c = layout.boundary().construction_rounds();
            (a as f64, b as f64, c as f64)
        });
        let a = Summary::of(&points.iter().map(|p| p.output.0).collect::<Vec<_>>());
        let b = Summary::of(&points.iter().map(|p| p.output.1).collect::<Vec<_>>());
        let c = Summary::of(&points.iter().map(|p| p.output.2).collect::<Vec<_>>());
        table.row(&[
            format!("{dims:?}"),
            cluster.to_string(),
            f2(a.mean),
            f2(b.mean),
            f2(c.mean),
            mesh.diameter().to_string(),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// C2 — graceful degradation / router comparison
// ---------------------------------------------------------------------------------

/// Instantiates a comparison router by its reported name (the names used in
/// experiment tables and `BENCH_engine.json` records).
///
/// # Panics
/// Panics on an unknown name.
pub fn router_by_name(name: &str) -> Box<dyn Router> {
    match name {
        "lgfi" => Box::new(LgfiRouter::new()),
        "global-info" => Box::new(GlobalInfoRouter::new()),
        "local-only" => Box::new(LocalInfoRouter::new()),
        "dimension-order" => Box::new(DimensionOrderRouter::new()),
        "wu-minimal-block" => Box::new(StaticBlockRouter::new()),
        other => panic!("unknown router {other}"),
    }
}

/// Experiment C2: the claim that "the performance of the routing process degrades
/// gracefully" — delivery ratio, mean detours and stretch for every router as the
/// number of dynamic faults grows.
pub fn exp_graceful_degradation() -> String {
    exp_graceful_degradation_with(knob("LGFI_THREADS"))
}

/// [`exp_graceful_degradation`] with an explicit worker-thread count for the
/// per-scenario information rounds (bit-identical output for every setting).
pub fn exp_graceful_degradation_with(threads: usize) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let fault_counts = [0usize, 8, 16, 32, 48];
    let mut table = Table::new(
        &format!("C2  routing under an increasing number of clustered dynamic faults (16x16 mesh, 20 probes x 6 seeds, uniform traffic, threads={threads})"),
        &["router", "faults", "delivery", "mean detours", "mean stretch"],
    );
    for router in routers {
        for &faults in &fault_counts {
            let inputs: Vec<u64> = (0..6).collect();
            let points = run_trials_on(sweep_workers(threads), inputs, move |&seed| {
                let scenario = Scenario {
                    dims: vec![16, 16],
                    seed,
                    fault_count: faults,
                    placement: FaultPlacement::Clustered {
                        clusters: (faults / 8).max(1),
                    },
                    dynamic: Some(DynamicFaultConfig {
                        fault_count: faults,
                        first_step: 0,
                        interval: 4,
                        with_recovery: false,
                        recovery_delay: 0,
                    }),
                    lambda: 1,
                    traffic: TrafficPattern::UniformRandom,
                    messages: 20,
                    launch_step: 10,
                    max_steps: 100_000,
                    threads,
                    frontier: configured_frontier(),
                    probe_threads: knob("LGFI_PROBE_THREADS"),
                };
                let result = scenario.run(&|| router_by_name(router));
                (
                    result.delivery_ratio(),
                    result.mean_detours(),
                    result.mean_stretch(),
                )
            });
            let delivery = Summary::of(&points.iter().map(|p| p.output.0).collect::<Vec<_>>());
            let detours = Summary::of(&points.iter().map(|p| p.output.1).collect::<Vec<_>>());
            let stretch = Summary::of(&points.iter().map(|p| p.output.2).collect::<Vec<_>>());
            table.row(&[
                router.to_string(),
                faults.to_string(),
                pct(delivery.mean),
                f2(detours.mean),
                f2(stretch.mean),
            ]);
        }
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// C3 — memory overhead
// ---------------------------------------------------------------------------------

/// Experiment C3: the claim that the model "reduces the memory requirement to store
/// fault information in the whole network" — limited-global records vs. the global
/// model.
pub fn exp_memory_overhead() -> String {
    let mut table = Table::new(
        "C3  information placement vs. the global model (mean over 6 seeds)",
        &[
            "mesh",
            "faults",
            "nodes with info",
            "coverage",
            "records (limited)",
            "records (global)",
            "ratio",
        ],
    );
    for (dims, faults) in [
        (vec![16, 16], 8usize),
        (vec![32, 32], 8),
        (vec![32, 32], 32),
        (vec![10, 10, 10], 12),
        (vec![16, 16, 16], 24),
    ] {
        let inputs: Vec<u64> = (0..6).collect();
        let dims_clone = dims.clone();
        let points = run_trials(inputs, move |&seed| {
            let mesh = Mesh::new(&dims_clone);
            let mut generator = FaultGenerator::new(mesh.clone(), seed);
            let fs = generator.place(faults, FaultPlacement::UniformInterior);
            let layout = StaticLayout::new(mesh.clone(), &fs);
            let store = InfoStore::build(&mesh, layout.blocks(), layout.boundary());
            let fp = store.footprint(&mesh, layout.blocks());
            (
                fp.nodes_with_info as f64,
                fp.coverage(),
                fp.limited_records as f64,
                fp.global_records as f64,
                fp.record_ratio(),
            )
        });
        let nodes = Summary::of(&points.iter().map(|p| p.output.0).collect::<Vec<_>>());
        let coverage = Summary::of(&points.iter().map(|p| p.output.1).collect::<Vec<_>>());
        let limited = Summary::of(&points.iter().map(|p| p.output.2).collect::<Vec<_>>());
        let global = Summary::of(&points.iter().map(|p| p.output.3).collect::<Vec<_>>());
        let ratio = Summary::of(&points.iter().map(|p| p.output.4).collect::<Vec<_>>());
        table.row(&[
            format!("{dims:?}"),
            faults.to_string(),
            f2(nodes.mean),
            pct(coverage.mean),
            f2(limited.mean),
            f2(global.mean),
            pct(ratio.mean),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// C4 — re-convergence under a stream of events
// ---------------------------------------------------------------------------------

/// Experiment C4: re-convergence of the information after each of a stream of fault
/// and recovery events (the "only affected nodes update" / no-oscillation claim).
pub fn exp_dynamic_convergence() -> String {
    exp_dynamic_convergence_with(knob("LGFI_THREADS"))
}

/// [`exp_dynamic_convergence`] with an explicit worker-thread count for the
/// information rounds (bit-identical output for every setting).
pub fn exp_dynamic_convergence_with(threads: usize) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let mesh = Mesh::cubic(16, 2);
    let mut generator = FaultGenerator::new(mesh.clone(), 7);
    let plan = generator.dynamic_plan(
        DynamicFaultConfig {
            fault_count: 8,
            first_step: 0,
            interval: 50,
            with_recovery: true,
            recovery_delay: 200,
        },
        FaultPlacement::UniformInterior,
    );
    let mut net = LgfiNetwork::new(
        mesh,
        plan,
        NetworkConfig {
            threads,
            frontier: configured_frontier(),
            ..NetworkConfig::default()
        },
    );
    net.run_to_completion(2_000);
    let mut table = Table::new(
        &format!("C4  per-disturbance convergence in a 16x16 mesh (8 dynamic faults, each later recovering, threads={threads})"),
        &[
            "disturbance step",
            "a (rounds)",
            "b (rounds)",
            "c (rounds)",
            "blocks changed",
        ],
    );
    for rec in net.convergence_records() {
        table.row(&[
            rec.step.to_string(),
            rec.a_rounds.to_string(),
            rec.b_rounds.to_string(),
            rec.c_rounds.to_string(),
            rec.blocks_changed.to_string(),
        ]);
    }
    let totals: Vec<u64> = net
        .convergence_records()
        .iter()
        .map(|c| c.total_rounds())
        .collect();
    let summary = Summary::of_u64(&totals);
    let mut stats = Table::new(
        "C4  summary of a+b+c per disturbance",
        &["mean", "max", "p95"],
    );
    stats.row(&[f2(summary.mean), f2(summary.max), f2(summary.p95)]);
    format!("{}\n{}", table.render(), stats.render())
}

// ---------------------------------------------------------------------------------
// C5 — concurrent traffic under contention
// ---------------------------------------------------------------------------------

/// The scenario of the C5 traffic experiment and the `traffic_saturation` bench: a
/// 16×16 mesh with 12 clustered static faults (stabilised before injection starts).
/// Its `max_steps` equals the default per-packet budget of
/// [`TrafficSpec::max_packet_cycles`]; the traffic worker count goes on the spec.
pub fn traffic_scenario(threads: usize) -> Scenario {
    Scenario {
        dims: vec![16, 16],
        seed: 21,
        fault_count: 12,
        placement: FaultPlacement::Clustered { clusters: 3 },
        dynamic: None,
        lambda: 1,
        traffic: TrafficPattern::UniformRandom,
        messages: 0,
        launch_step: 60,
        max_steps: 100_000,
        threads,
        frontier: configured_frontier(),
        probe_threads: knob("LGFI_PROBE_THREADS"),
    }
}

/// Experiment C5: concurrent traffic under link contention — delivery, accepted
/// throughput, and mean/p99 queueing latency for every router as the offered load
/// grows towards saturation.
pub fn exp_traffic() -> String {
    exp_traffic_with(knob("LGFI_THREADS"), knob("LGFI_TRAFFIC_THREADS"))
}

/// [`exp_traffic`] with explicit worker counts for the information rounds and the
/// traffic decisions (bit-identical output for every setting).
pub fn exp_traffic_with(threads: usize, traffic_threads: usize) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let traffic_threads = lgfi_sim::resolve_threads(traffic_threads);
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let loads = [0.1f64, 0.5, 1.0, 2.0];
    let mut table = Table::new(
        &format!("C5  concurrent traffic vs. offered load (16x16 mesh, 12 clustered static faults, uniform traffic, 200 injection cycles, traffic_threads={traffic_threads})"),
        &[
            "router",
            "offered (pkt/cycle)",
            "delivery",
            "accepted (pkt/cycle)",
            "mean latency",
            "p99 latency",
            "mean stalls",
        ],
    );
    for router in routers {
        for &rate in &loads {
            let scenario = traffic_scenario(threads);
            let spec = TrafficSpec::at_rate(rate).traffic_threads(traffic_threads);
            let result = scenario.run_traffic(spec, &|| router_by_name(router));
            table.row(&[
                router.to_string(),
                f2(rate),
                pct(result.stats.delivery_ratio()),
                f2(result.accepted_throughput()),
                f2(result.mean_latency()),
                result.p99_latency().to_string(),
                f2(result.stats.mean_stalls()),
            ]);
        }
    }
    table.render()
}

// ---------------------------------------------------------------------------------
// C8 — wormhole switching with virtual channels
// ---------------------------------------------------------------------------------

/// Experiment C8: flit-level wormhole traffic — delivery, accepted throughput,
/// queueing latency and deadlock teardowns for every router as multi-flit worms
/// contend for virtual channels and flit-buffer credits around the fault blocks.
/// `LGFI_FLITS` and `LGFI_VCS` set the worm length and channel count.
pub fn exp_wormhole() -> String {
    exp_wormhole_with(
        knob("LGFI_THREADS"),
        knob("LGFI_TRAFFIC_THREADS"),
        configured_flits(),
        configured_vcs(),
    )
}

/// [`exp_wormhole`] with explicit worker counts, worm length and VC count
/// (bit-identical output across the worker knobs).
pub fn exp_wormhole_with(threads: usize, traffic_threads: usize, flits: u32, vcs: u32) -> String {
    let threads = lgfi_sim::resolve_threads(threads);
    let traffic_threads = lgfi_sim::resolve_threads(traffic_threads);
    let routers = [
        "lgfi",
        "global-info",
        "local-only",
        "wu-minimal-block",
        "dimension-order",
    ];
    let loads = [0.1f64, 0.5, 1.0, 2.0];
    let mut table = Table::new(
        &format!(
            "C8  wormhole traffic vs. offered load (16x16 mesh, 12 clustered static faults, \
             {flits}-flit worms, {vcs} VCs + escape class, traffic_threads={traffic_threads})"
        ),
        &[
            "router",
            "offered (pkt/cycle)",
            "delivery",
            "accepted (pkt/cycle)",
            "mean latency",
            "p99 latency",
            "deadlocked",
        ],
    );
    for router in routers {
        for &rate in &loads {
            let scenario = traffic_scenario(threads);
            let spec = TrafficSpec::at_rate(rate)
                .flits_per_packet(flits)
                .vc_count(vcs.max(2))
                .traffic_threads(traffic_threads);
            let result = scenario.run_traffic(spec, &|| router_by_name(router));
            table.row(&[
                router.to_string(),
                f2(rate),
                pct(result.stats.delivery_ratio()),
                f2(result.accepted_throughput()),
                f2(result.mean_latency()),
                result.p99_latency().to_string(),
                result.deadlocked().to_string(),
            ]);
        }
    }
    table.render()
}

/// Runs every experiment in order and returns the concatenated report (what the
/// `experiments` binary prints).
pub fn run_all_experiments() -> String {
    type Section = (&'static str, fn() -> String);
    let sections: Vec<Section> = vec![
        ("F1", exp_fig1_block),
        ("F2", exp_fig2_corners),
        ("F3", exp_fig3_boundaries),
        ("F4", exp_fig4_recovery),
        ("F5", exp_fig5_identification),
        ("F7", exp_fig7_steps),
        ("T1", exp_thm1_recovery),
        ("T2", exp_thm2_safety),
        ("T3", exp_thm3_progress),
        ("T4", exp_thm4_detours),
        ("T5", exp_thm5_unsafe),
        ("C1", exp_convergence),
        ("C2", exp_graceful_degradation),
        ("C3", exp_memory_overhead),
        ("C4", exp_dynamic_convergence),
        ("C5", exp_traffic),
        ("C6", crate::slo::exp_slo),
        ("C7", crate::route_service::exp_route_service),
        ("C8", exp_wormhole),
    ];
    let mut out = String::new();
    for (name, f) in sections {
        out.push_str(&format!(
            "\n############ experiment {name} ############\n\n"
        ));
        out.push_str(&f());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_experiments_produce_tables() {
        for f in [
            exp_fig1_block as fn() -> String,
            exp_fig2_corners,
            exp_fig3_boundaries,
            exp_fig4_recovery,
            exp_fig5_identification,
            exp_fig7_steps,
        ] {
            let s = f();
            assert!(
                s.contains("=="),
                "every experiment prints at least one table"
            );
            assert!(s.lines().count() > 4);
        }
    }

    #[test]
    fn theorem1_and_theorem2_experiments_report_no_violations() {
        let t1 = exp_thm1_recovery();
        assert!(!t1.contains("false"), "{t1}");
        let t2 = exp_thm2_safety();
        // The violations column must be all zeros.
        for line in t2.lines().skip(3) {
            if line.trim().is_empty() {
                continue;
            }
            let last = line.split_whitespace().last().unwrap();
            assert_eq!(last, "0", "violation reported in: {line}");
        }
    }

    #[test]
    fn threaded_experiment_variants_produce_identical_rows() {
        // Everything except the "threads=N" tag in the title must be bit-identical.
        let rows = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("threads="))
                .map(String::from)
                .collect()
        };
        let serial = exp_dynamic_convergence_with(1);
        let parallel = exp_dynamic_convergence_with(3);
        assert_eq!(rows(&serial), rows(&parallel));
        let serial = exp_fig7_steps_with(1);
        let parallel = exp_fig7_steps_with(2);
        assert_eq!(rows(&serial), rows(&parallel));
    }

    #[test]
    fn thread_knob_defaults_to_serial() {
        if std::env::var("LGFI_THREADS").is_err() {
            assert_eq!(knob("LGFI_THREADS"), 1);
            assert_eq!(cli_threads(), 1);
        }
    }

    #[test]
    fn knob_parsing_rule_is_shared_by_every_knob() {
        assert_eq!(parse_knob("K", None, 1), 1, "unset means the default");
        assert_eq!(parse_knob("K", Some(""), 2), 2, "empty means the default");
        assert_eq!(parse_knob("K", Some("   "), 3), 3);
        assert_eq!(parse_knob("K", Some("4"), 1), 4);
        assert_eq!(parse_knob("K", Some(" 8 "), 1), 8, "whitespace is trimmed");
        assert_eq!(parse_knob("K", Some("0"), 1), 0, "0 = one worker per core");
        if std::env::var("LGFI_TRAFFIC_THREADS").is_err() {
            assert_eq!(knob("LGFI_TRAFFIC_THREADS"), 1);
        }
        if std::env::var("LGFI_PROBE_THREADS").is_err() {
            assert_eq!(knob("LGFI_PROBE_THREADS"), 1);
        }
    }

    #[test]
    #[should_panic(expected = "must be an integer")]
    fn knob_parsing_rejects_garbage() {
        parse_knob("LGFI_THREADS", Some("fast"), 1);
    }

    #[test]
    fn traffic_experiment_reports_every_router_and_load() {
        let s = exp_traffic_with(1, 2);
        assert!(s.contains("=="), "must render a table");
        for router in [
            "lgfi",
            "global-info",
            "local-only",
            "wu-minimal-block",
            "dimension-order",
        ] {
            assert!(s.contains(router), "missing {router} in:\n{s}");
        }
        assert!(s.contains("traffic_threads=2"));
    }

    #[test]
    fn dynamic_probe_runs_respect_theorem_4() {
        let runs = run_dynamic_probes(&[12, 12], 3, 50, 4);
        assert_eq!(runs.len(), 4);
        for run in runs {
            assert!(run.report.outcome.delivered());
            assert!(check_theorem4(&run.report, &run.bound).holds);
        }
    }
}
