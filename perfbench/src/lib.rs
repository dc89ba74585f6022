//! The repository benchmark: three workloads over the public API of the
//! `d1lc` solver and its `SolveServer`, measured from outside the program.
//!
//! * `solve-sparse-16k` — `d1lc::solve` on the S1 `gnp-window` family at
//!   n = 16384: engine traffic, the sparse path and ACD estimation, with
//!   the dense path idle.
//! * `solve-dense-4k` — `d1lc::solve` on the S2 `blend-window` family at
//!   n = 4096: ACD and its similarity estimation dominate, the dense path
//!   runs, the sparse path idles.
//! * `serve-mix` — an open-loop stream into one `SolveServer`: memo hits,
//!   single-flight joins, session rebinds and head-of-line blocking.
//!
//! Untraced runs measure the end-to-end metrics; traced runs re-drive
//! each solve through the layers' public calls ([`redrive`]) and time
//! every call ([`trace`]). Every run checks its outputs ([`gate`]).

pub mod redrive;
pub mod report;
pub mod serve;
pub mod trace;

use congest::PassLog;
use d1lc::{solve, SolveOptions, SolveResult};
use graphs::palette::{check_coloring, ListAssignment};
use graphs::{Color, Graph};
use report::{Metrics, Outcome};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Fewest solves a solve workload times, however short the run.
pub const MIN_SOLVES: usize = 5;

/// Bandwidth at which `rounds_norm` is counted: 2⌈log₂ n⌉ bits per edge
/// per round, the O(log n) budget CONGEST allows.
pub fn congest_bandwidth(n: usize) -> u64 {
    2 * u64::from(n.max(2).next_power_of_two().trailing_zeros())
}

/// A solve workload's instance family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Erdős–Rényi with shared-window lists (sweep S1).
    GnpWindow,
    /// Planted-clique blend with shared-window lists (sweep S2).
    BlendWindow,
}

impl Family {
    /// Generate the instance for `seed`.
    pub fn build(self, n: usize, seed: u64) -> bench::workloads::Instance {
        match self {
            Family::GnpWindow => bench::workloads::gnp_window(n, seed),
            Family::BlendWindow => bench::workloads::blend_window(n, seed),
        }
    }
}

/// Options of a solve workload's solves: the default pipeline on one
/// engine thread, with solve seed `variant` of the workload seed.
pub fn options(seed: u64, variant: u64) -> SolveOptions {
    SolveOptions::seeded(prand::mix::mix2(seed, 0x5eed + variant))
}

/// The correctness gate: `coloring` must be a proper list coloring, and
/// it and `log` must equal the reference solve's, pass for pass.
///
/// # Errors
///
/// A description of the first check that failed.
pub fn gate(
    g: &Graph,
    lists: &ListAssignment,
    coloring: &[Color],
    log: &PassLog,
    reference: &SolveResult,
) -> Result<(), String> {
    check_coloring(g, lists, coloring).map_err(|e| format!("improper coloring: {e:?}"))?;
    same_transcript(coloring, log, reference)
}

/// `coloring` and `log` must equal `reference`'s, pass for pass.
///
/// # Errors
///
/// Where they first differ.
pub fn same_transcript(
    coloring: &[Color],
    log: &PassLog,
    reference: &SolveResult,
) -> Result<(), String> {
    if coloring != reference.coloring.as_slice() {
        return Err("coloring differs from the reference solve".into());
    }
    let (got, want) = (log.passes(), reference.log.passes());
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        return Err(format!(
            "pass log differs from the reference at pass {i}: {:?} vs {:?}",
            got.get(i)
                .map(|p| (&p.name, &p.phase, p.report.rounds, p.report.messages)),
            want.get(i)
                .map(|p| (&p.name, &p.phase, p.report.rounds, p.report.messages)),
        ));
    }
    Ok(())
}

/// Per-layer figures of one traced solve: `spans` are the re-drive's
/// spans (the root first), `log` its pass log, `wall_ms` the paired
/// untraced solve's wall time and `m` the graph's edge count.
pub fn layer_figures(
    spans: &[Span],
    log: &PassLog,
    repairs: usize,
    wall_ms: f64,
    m: usize,
) -> BTreeMap<&'static str, f64> {
    let root = &spans[0];
    let passes = log.passes();
    // Folds start at +0.0: an empty f64 `sum` is -0.0.
    let ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.ms())
    };
    let count = |name: &str, field: fn(&congest::RunReport) -> u64| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| &passes[s.passes.0..s.passes.1])
            .fold(0.0, |acc, p| acc + field(&p.report) as f64)
    };
    let rounds = |r: &congest::RunReport| r.rounds;
    let messages = |r: &congest::RunReport| r.messages;
    let bits = |r: &congest::RunReport| r.total_bits;
    let edge_rounds = log.total_rounds() as f64 * 2.0 * m as f64;
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .map(Span::ms)
        .sum();
    let activate_messages: u64 = passes
        .iter()
        .filter(|p| p.name == "activate")
        .map(|p| p.report.messages)
        .sum();
    BTreeMap::from([
        ("trace.solve_ms", root.ms()),
        ("trace.span_coverage", covered / root.ms()),
        ("driver.init_ms", ms("driver.init")),
        ("driver.codec_ms", ms("driver.codec")),
        ("driver.activate_ms", ms("driver.activate")),
        ("driver.activate_messages", activate_messages as f64),
        ("driver.finish_ms", ms("driver.finish")),
        ("acd.ms", ms("acd")),
        ("acd.rounds", count("acd", rounds)),
        ("acd.messages", count("acd", messages)),
        ("acd.bits", count("acd", bits)),
        ("sparse.ms", ms("sparse")),
        ("sparse.rounds", count("sparse", rounds)),
        ("sparse.messages", count("sparse", messages)),
        ("dense.ms", ms("dense")),
        ("dense.rounds", count("dense", rounds)),
        ("dense.messages", count("dense", messages)),
        ("fallback.ms", ms("fallback.try_color")),
        ("fallback.rounds", count("fallback.try_color", rounds)),
        ("cleanup.ms", ms("cleanup")),
        ("congest.passes", passes.len() as f64),
        ("congest.rounds", log.total_rounds() as f64),
        ("congest.messages", log.total_messages() as f64),
        ("congest.bits", log.total_bits() as f64),
        ("congest.max_edge_bits", log.max_edge_bits() as f64),
        ("congest.edge_rounds", edge_rounds),
        (
            "congest.ns_per_edge_round",
            wall_ms * 1e6 / edge_rounds.max(1.0),
        ),
        ("solve.repairs", repairs as f64),
    ])
}

/// A run's traced re-drives: their spans, and per-layer figures
/// reported as medians over them, with the paired overhead ratios.
#[derive(Default)]
pub struct TracedRun {
    /// Every span of the run.
    pub tracer: Tracer,
    figures: BTreeMap<&'static str, Vec<f64>>,
    overhead: Vec<f64>,
}

impl TracedRun {
    /// Re-drive one request traced, check it against the untraced
    /// `reference` solve of the same request, which took `wall_ms`, and
    /// record its per-layer figures under `unit`.
    ///
    /// # Errors
    ///
    /// An engine error or a failed correctness check.
    pub fn redrive(
        &mut self,
        inst: (&Graph, &ListAssignment),
        opts: &SolveOptions,
        reference: &SolveResult,
        wall_ms: f64,
        unit: u64,
    ) -> Result<(), String> {
        let (g, lists) = inst;
        let r = redrive::traced_solve(g, lists, opts, &mut self.tracer, unit)
            .map_err(|e| format!("traced re-drive failed: {e}"))?;
        gate(g, lists, &r.coloring, &r.log, reference)
            .map_err(|e| format!("traced re-drive: {e}"))?;
        let spans = &self.tracer.spans()[r.root..];
        let figures = layer_figures(spans, &r.log, r.repairs, wall_ms, g.m());
        self.overhead
            .push(figures["trace.solve_ms"] / wall_ms - 1.0);
        for (name, v) in figures {
            self.figures.entry(name).or_default().push(v);
        }
        Ok(())
    }

    /// Write the medians into `metrics`.
    pub fn report(&self, metrics: &mut Metrics) {
        for (name, xs) in &self.figures {
            metrics.median_of(name, xs);
        }
        metrics.median_of("trace.overhead_share", &self.overhead);
    }
}

/// Serving figures a workload that never enters the server reports as
/// zero.
pub const SERVER_LAYER_NAMES: &[&str] = &[
    "server.hit_share",
    "server.engine_runs",
    "server.same_graph_rebind_share",
    "server.queue_depth_max",
    "server.rejected",
    "server.deadline_misses",
    "server.retries",
    "server.hit_latency_p50_ms",
    "server.miss_latency_p99_ms",
    "gen.lag_p99_ms",
];

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run a solve workload. Each of the [`SETUPS`] set-ups generates the
/// instance and solves it once, as warm-up and as the reference for one
/// solve seed of the run; then warm solves, cycling through those seeds,
/// are timed for `seconds` (at least [`MIN_SOLVES`]), each checked against
/// its seed's reference. Cycling the seeds averages the solver's
/// seed-to-seed variation (some seeds need an extra fallback round) into
/// every run. A traced run pairs every untraced solve with a traced
/// re-drive of the same request.
pub fn run_solve(family: Family, n: usize, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut check_ms = Vec::new();
    let mut inst = None;
    let mut runs: Vec<(SolveOptions, SolveResult)> = Vec::new();
    for variant in 0..SETUPS as u64 {
        let t = Instant::now();
        let generated = family.build(n, seed);
        gen_ms.push(ms(t.elapsed()));
        let opts = options(seed, variant);
        let reference = match solve(&generated.graph, &generated.lists, opts) {
            Ok(r) => r,
            Err(e) => {
                out.mismatches.push(format!("reference solve failed: {e}"));
                return out;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = check_coloring(&generated.graph, &generated.lists, &reference.coloring) {
            out.mismatches
                .push(format!("reference coloring improper: {e:?}"));
        }
        runs.push((opts, reference));
        inst = Some(generated);
    }
    let inst = inst.expect("SETUPS >= 1");

    let mut run = TracedRun::default();
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_SOLVES || start.elapsed().as_secs_f64() < seconds {
        let (opts, reference) = &runs[walls.len() % runs.len()];
        out.attempted += 1;
        let t = Instant::now();
        let solved = black_box(solve(black_box(&inst.graph), &inst.lists, *opts));
        let wall = ms(t.elapsed());
        walls.push(wall);
        let verdict = solved
            .map_err(|e| format!("solve failed: {e}"))
            .and_then(|r| {
                let t = Instant::now();
                let verdict = gate(&inst.graph, &inst.lists, &r.coloring, &r.log, reference);
                check_ms.push(ms(t.elapsed()));
                verdict
            });
        if let Err(e) = verdict {
            out.failed += 1;
            out.mismatches.push(e);
            continue;
        }
        if traced {
            let unit = walls.len() as u64;
            if let Err(e) = run.redrive((&inst.graph, &inst.lists), opts, reference, wall, unit) {
                out.mismatches.push(e);
            }
        }
    }

    // The timed solves are the requests of a closed loop with one client,
    // so a request's latency is its solve's wall time: the median is the
    // warm `d1lc::solve` time, and with at most 50 solves the p99 is the
    // slowest solve.
    let m = &mut out.metrics;
    m.median_of("latency_p50_ms", &walls);
    m.quantile_of("latency_p99_ms", &walls, 0.99);
    let busy_s = walls.iter().sum::<f64>() / 1e3;
    m.set("peak_rps", walls.len() as f64 / busy_s, walls.len());
    let bandwidth = congest_bandwidth(inst.graph.n());
    let rounds: Vec<f64> = runs
        .iter()
        .map(|(_, r)| r.normalized_rounds(bandwidth) as f64)
        .collect();
    // The mean over the run's solve seeds: deterministic for a workload
    // seed, and smoother than any one seed's count.
    let mean_rounds = rounds.iter().sum::<f64>() / rounds.len() as f64;
    m.set("rounds_norm", mean_rounds, rounds.len());
    m.median_of("setup_s", &setup_s);
    m.median_of("graphs.gen_ms", &gen_ms);
    m.median_of("graphs.check_ms", &check_ms);
    if traced {
        run.report(m);
        for name in SERVER_LAYER_NAMES {
            m.one(name, 0.0);
        }
        out.spans_json = Some(run.tracer.to_json());
    }
    m.one("run.failed_share", out.failed as f64 / out.attempted as f64);
    m.one("peak_rss_mb", report::peak_rss_mb());
    out
}
