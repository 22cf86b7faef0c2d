//! Tracing from the benchmark's side of each layer boundary: an in-memory span
//! recorder, the per-step log of the network layer, and a sampled timing wrapper
//! around [`Router`].
//!
//! Every span times one call into a layer's public function.  Spans are kept in
//! memory (up to [`SPAN_CAP`]; per-name totals keep counting beyond it) and
//! written out once, when the run ends.  A disabled tracer records nothing and
//! its clock reads 0, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lgfi_core::routing::{LgfiRouter, RouteCtx, Router, RoutingDecision};

/// Spans kept individually for the trace file; later spans only feed the totals.
pub const SPAN_CAP: usize = 200_000;

/// One recorded call: `parent` is the id of the enclosing span (0 = none).
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span recorder with per-name totals.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    recorded: u64,
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    /// A recorder that is on (`true`) or records nothing (`false`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            recorded: 0,
            totals: BTreeMap::new(),
        }
    }

    /// True if spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created (0 when off).
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records the span `name` over `[start, end)` under `parent`; returns its id
    /// (0 when off).
    pub fn span(&mut self, name: &'static str, parent: u32, start: u64, end: u64) -> u32 {
        if !self.on {
            return 0;
        }
        self.recorded += 1;
        let id = self.recorded as u32;
        let dur_ns = end.saturating_sub(start);
        let total = self.totals.entry(name).or_insert((0, 0));
        total.0 += 1;
        total.1 += dur_ns;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: start,
                dur_ns,
            });
        }
        id
    }

    /// Mean duration of the spans named `name`, in microseconds (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(count, total)) if count > 0 => total as f64 / count as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Writes the header lines, the per-name totals and the kept spans as
    /// tab-separated text to `path`.
    pub fn write(&self, path: &Path, header: &[String]) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        for (name, (count, total)) in &self.totals {
            writeln!(out, "# total\t{name}\t{count}\t{total}")?;
        }
        writeln!(
            out,
            "# spans kept {} of {}",
            self.spans.len(),
            self.recorded
        )?;
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Records the spans of one workload step from its four boundary timestamps:
/// the whole step, the fault events and traffic requests drawn from
/// `workloads`, the call into the network (`network`), and the SLO
/// observation; and logs the network call.  `settled` tells whether a rebuild
/// ran.
pub fn record_step(
    tr: &mut Tracer,
    log: &mut StepLog,
    network: &'static str,
    t: [u64; 4],
    events: usize,
    settled: bool,
) {
    if !tr.on() {
        return;
    }
    let root = tr.span("step", 0, t[0], t[3]);
    tr.span("workloads.gen", root, t[0], t[1]);
    tr.span(network, root, t[1], t[2]);
    tr.span("slo.observe_step", root, t[2], t[3]);
    log.record(StepClass::of(events, settled), events, t[2] - t[1]);
}

/// How a control-plane step is classed from outside the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// The step was given a non-empty event slice.
    Event,
    /// `convergence_records()` grew during the step (a rebuild ran).
    Settle,
    /// Neither.
    Other,
}

impl StepClass {
    /// Classes a step from its event count and whether a rebuild ran.
    pub fn of(events: usize, settled: bool) -> Self {
        if events > 0 {
            StepClass::Event
        } else if settled {
            StepClass::Settle
        } else {
            StepClass::Other
        }
    }
}

/// Host time of every traced network step, split by [`StepClass`].
#[derive(Debug, Default)]
pub struct StepLog {
    ns: [Vec<u64>; 3],
    /// Fault events handed to the network.
    pub fault_events: u64,
}

impl StepLog {
    /// Records one step that took `ns` nanoseconds.
    pub fn record(&mut self, class: StepClass, events: usize, ns: u64) {
        self.fault_events += events as u64;
        self.ns[class as usize].push(ns);
    }

    /// Median microseconds of the steps of `class` (0 if none).
    pub fn p50_us(&self, class: StepClass) -> f64 {
        quantile(&self.ns[class as usize], 0.5) / 1e3
    }

    /// 99th-percentile microseconds over all steps.
    pub fn p99_us(&self) -> f64 {
        let all: Vec<u64> = self.ns.iter().flatten().copied().collect();
        quantile(&all, 0.99) / 1e3
    }

    /// Share of the network's host time spent in steps of `class`.
    pub fn share(&self, class: StepClass) -> f64 {
        let total: u64 = self.ns.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        self.ns[class as usize].iter().sum::<u64>() as f64 / total as f64
    }
}

/// Nearest-rank quantile of unsorted samples (0 if empty).
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of `values` (0 if empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The fastest of the host durations of equal blocks of work.
///
/// The benchmark host is shared: other tenants' load only ever slows a block
/// down, and it comes in bursts that can cover most of a run.  Repeated runs
/// agree far better on the fastest block than on the median one.
pub fn fastest(block_secs: &[f64]) -> f64 {
    block_secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Host seconds of one repetition of identical, deterministic work timed in
/// blocks: block `i` counts at the fastest it ran in any repetition (see
/// [`fastest`]).  Unlike the fastest block of one repetition, every block's
/// work is counted, so quiet stretches of the simulation do not bias it.
pub fn fastest_sum(reps: &[Vec<f64>]) -> f64 {
    let blocks = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..blocks)
        .map(|i| fastest(&reps.iter().map(|rep| rep[i]).collect::<Vec<_>>()))
        .sum()
}

/// Every this-many-th `Router::decide` call is timed.
const DECIDE_SAMPLE: u64 = 64;

/// Call counts and sampled timings of the routers wrapped by [`TimedRouter`].
#[derive(Debug, Default)]
pub struct DecideProbe {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl DecideProbe {
    /// `decide` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds of the sampled `decide` calls (0 if none).
    pub fn mean_ns(&self) -> f64 {
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        self.sampled_ns.load(Ordering::Relaxed) as f64 / sampled as f64
    }
}

/// The LGFI router with every call counted and one in [`DECIDE_SAMPLE`] timed.
/// The counters are statistics only, so relaxed atomics suffice.
pub struct TimedRouter {
    inner: LgfiRouter,
    probe: Arc<DecideProbe>,
}

impl Router for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&self, ctx: &RouteCtx<'_>) -> RoutingDecision {
        let n = self.probe.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(DECIDE_SAMPLE) {
            return self.inner.decide(ctx);
        }
        let start = Instant::now();
        let decision = self.inner.decide(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        self.probe.sampled.fetch_add(1, Ordering::Relaxed);
        self.probe.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        decision
    }
}

/// The LGFI router, wrapped in a [`TimedRouter`] feeding `probe` when given.
pub fn make_router(probe: Option<&Arc<DecideProbe>>) -> Box<dyn Router> {
    match probe {
        Some(probe) => Box::new(TimedRouter {
            inner: LgfiRouter::new(),
            probe: Arc::clone(probe),
        }),
        None => Box::new(LgfiRouter::new()),
    }
}
