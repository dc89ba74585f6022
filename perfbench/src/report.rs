//! Metric names, units and aggregation; the result line; provenance.

use bench::table::quantile;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as `(name, unit)`. Every workload
/// reports every one of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rounds_norm", "rounds"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`. Every workload
/// reports every one; a layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.gen_ms", "ms"),
    ("graphs.check_ms", "ms"),
    ("driver.init_ms", "ms"),
    ("driver.codec_ms", "ms"),
    ("driver.activate_ms", "ms"),
    ("driver.activate_messages", "count"),
    ("driver.finish_ms", "ms"),
    ("acd.ms", "ms"),
    ("acd.rounds", "rounds"),
    ("acd.messages", "count"),
    ("acd.bits", "bits"),
    ("sparse.ms", "ms"),
    ("sparse.rounds", "rounds"),
    ("sparse.messages", "count"),
    ("dense.ms", "ms"),
    ("dense.rounds", "rounds"),
    ("dense.messages", "count"),
    ("fallback.ms", "ms"),
    ("fallback.rounds", "rounds"),
    ("cleanup.ms", "ms"),
    ("congest.passes", "count"),
    ("congest.rounds", "rounds"),
    ("congest.messages", "count"),
    ("congest.bits", "bits"),
    ("congest.max_edge_bits", "bits"),
    ("congest.edge_rounds", "count"),
    ("congest.ns_per_edge_round", "ns"),
    ("solve.repairs", "count"),
    ("server.hit_share", "ratio"),
    ("server.engine_runs", "count"),
    ("server.same_graph_rebind_share", "ratio"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("server.deadline_misses", "count"),
    ("server.retries", "count"),
    ("server.hit_latency_p50_ms", "ms"),
    ("server.miss_latency_p99_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("run.failed_share", "ratio"),
    ("trace.solve_ms", "ms"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One reported metric: its value and how many samples it summarises.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for a count or a single measurement).
    pub samples: usize,
}

/// Metrics of one run, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Value>);

impl Metrics {
    /// Set `name` to `value`, summarising `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    /// Set `name` to a single measurement.
    pub fn one(&mut self, name: &'static str, value: f64) {
        self.set(name, value, 1);
    }

    /// Set `name` to the median of `xs` (0 with no samples).
    pub fn median_of(&mut self, name: &'static str, xs: &[f64]) {
        self.quantile_of(name, xs, 0.5);
    }

    /// Set `name` to the empirical quantile `q` of `xs` (0 with no
    /// samples).
    pub fn quantile_of(&mut self, name: &'static str, xs: &[f64], q: f64) {
        self.set(name, quantile(xs, q), xs.len());
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.value)
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window (solves or arrivals).
    pub attempted: u64,
    /// Failed operations: errors, improper or mismatching colorings,
    /// rejections, missed deadlines.
    pub failed: u64,
    /// Correctness failures found by the gate (a subset of the failures
    /// above, plus any found outside the measured window).
    pub mismatches: Vec<String>,
    /// Every metric the run measured; the caller selects which to print.
    pub metrics: Metrics,
    /// Spans as JSON, for traced runs.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// Whether every correctness check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }
}

/// Format a number for JSON: all digits, and never a non-finite value
/// (an unbounded latency is written as the largest finite double).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// The result line: `correct`, `attempted`, `failed` and the named
/// metrics with their units.
///
/// A metric the run did not measure (only when a failure cut it short)
/// reads 0.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let v = out.metrics.get(name).unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seed later performance claims must also hold on, besides the
/// seeds they were developed with.
pub const HELD_OUT_SEED: u64 = 900_001;

/// Where the run came from: host, toolchain, commit, seed, tracing.
pub fn provenance(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {seconds}, \"traced\": {traced}, \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        escape(&cpu),
        escape(&rustc),
        escape(&commit)
    )
}

/// First line of a command's standard output, if it ran and succeeded.
/// `git` is kept from searching above the working directory, so a
/// checkout that is not a repository reads as unknown.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args);
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result file: provenance, every measured metric with its sample
/// count, failures, and (traced runs) the spans.
pub fn result_file(provenance: &str, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, v)| {
            format!(
                "    \"{name}\": {{\"value\": {}, \"samples\": {}}}",
                json_num(v.value),
                v.samples
            )
        })
        .collect();
    let mismatches: Vec<String> = out
        .mismatches
        .iter()
        .map(|m| format!("\"{}\"", escape(m)))
        .collect();
    format!(
        "{{\n  \"provenance\": {provenance},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"mismatches\": [{}],\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        out.correct(),
        out.attempted,
        out.failed,
        mismatches.join(", "),
        metrics.join(",\n"),
        out.spans_json.as_deref().unwrap_or("null")
    )
}
