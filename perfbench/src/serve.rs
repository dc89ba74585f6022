//! `serve-mix`: a seeded open-loop stream into one `SolveServer`.
//!
//! One generator thread submits arrivals at fixed inter-arrival times,
//! first at a steady rate near two thirds of the server's capacity (where
//! latency is measured), then at a saturation rate above it (where
//! completed responses per second are measured). Latency runs from each
//! arrival's *due* time, so a stalled generator or server shows as
//! latency of the requests behind the stall; the generator's own
//! lateness is reported beside it.
//!
//! The stream draws from a catalogue of `gnp-window` instances of mixed
//! sizes. About half of the arrivals repeat a recent request (a memo hit,
//! or a join onto its in-flight solve); the rest carry a fresh seed, which
//! costs an engine run on a rebound pooled session. Every response must be
//! a proper coloring, and every repeat's response must equal the response
//! to the fresh arrival it repeats.

use crate::report::{Metrics, Outcome};
use crate::{congest_bandwidth, gate, ms, same_transcript, TracedRun, SETUPS};
use d1lc::service::{Admission, ServiceConfig, SolveRequest};
use d1lc::{solve, SolveOptions, SolveResult, SolveServer, Ticket};
use graphs::palette::{check_coloring, ListAssignment};
use graphs::Graph;
use prand::mix::mix2;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scale of a serving run. The rates are frozen: a later change is
/// measured at the same offered load as its parent.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    /// Node counts of the catalogue's instances.
    pub sizes: &'static [usize],
    /// Arrivals per second in the steady phase.
    pub steady_rps: f64,
    /// Arrivals per second in the saturation phase.
    pub saturation_rps: f64,
}

/// The benchmark's `serve-mix`: six instances at n = 256, three at 1024
/// and one at 4096. The steady rate is about 0.6 of the ~60 responses/s
/// the server completes at saturation on a 2-core host; the saturation
/// rate is about three times that, so `peak_rps`, which cannot exceed
/// it, measures capacity and not the offered rate.
pub const SERVE_MIX: MixSpec = MixSpec {
    sizes: &[256, 256, 256, 256, 256, 256, 1024, 1024, 1024, 4096],
    steady_rps: 36.0,
    saturation_rps: 180.0,
};

/// Server worker threads.
const WORKERS: usize = 2;

/// Share of the run's seconds spent in the steady phase. The short
/// saturation phase offers about as many arrivals as the server clears in
/// ten seconds, so the drain after the stream stays short.
const STEADY_SHARE: f64 = 0.9;

/// Share of arrivals that repeat a recent request.
const REPEAT_SHARE: f64 = 0.45;

/// A repeat picks among this many most recent fresh requests, fewer than
/// the server's memo holds.
const REPEAT_WINDOW: usize = 64;

/// Served responses per instance size re-solved one-shot and compared
/// after the stream. Equal counts per size put the median of the
/// sample's `rounds_norm` in the middle size class.
const SAMPLE_PER_SIZE: usize = 4;

/// Queue depth: deep enough that the saturation phase's backlog is never
/// rejected, so every arrival gets a response and the stream has no
/// failures by design. Admission is still `Reject`, so the generator
/// never blocks.
const QUEUE_DEPTH: usize = 1 << 16;

/// One scheduled arrival.
#[derive(Clone, Copy, Debug)]
struct Arrival {
    /// Offset of its due time from the stream's start.
    due: Duration,
    steady: bool,
    instance: usize,
    solve_seed: u64,
    /// The fresh arrival whose request this one carries: itself if
    /// fresh, an earlier arrival if a repeat.
    origin: usize,
}

impl Arrival {
    fn fresh(&self, i: usize) -> bool {
        self.origin == i
    }
}

/// The arrival schedule for `seed`: fixed inter-arrival times; exactly
/// every `1 / REPEAT_SHARE`-th arrival (on average) repeats a seeded
/// pick among recent fresh requests; fresh requests take the catalogue's
/// instances in seeded rounds that visit each instance once, so every
/// seed offers the same mix of sizes and only their order differs.
fn schedule(spec: &MixSpec, seed: u64, seconds: f64) -> Vec<Arrival> {
    let steady_secs = seconds * STEADY_SHARE;
    let n_steady = (steady_secs * spec.steady_rps).round() as usize;
    let n_saturation = ((seconds - steady_secs) * spec.saturation_rps).round() as usize;
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(n_steady + n_saturation);
    let mut fresh: Vec<usize> = Vec::new();
    let mut round: Vec<usize> = Vec::new();
    let phase = (mix2(seed, 0x7e9ea7) % 1000) as f64 / 1000.0;
    for i in 0..n_steady + n_saturation {
        let steady = i < n_steady;
        let due = if steady {
            i as f64 / spec.steady_rps
        } else {
            steady_secs + (i - n_steady) as f64 / spec.saturation_rps
        };
        let due = Duration::from_secs_f64(due);
        let r = mix2(seed ^ 0x57_4ea3, i as u64);
        let quota = |k: usize| (k as f64 * REPEAT_SHARE + phase).floor();
        let repeat = !fresh.is_empty() && quota(i + 1) > quota(i);
        let arrival = if repeat {
            let window = &fresh[fresh.len().saturating_sub(REPEAT_WINDOW)..];
            let earlier = arrivals[window[r as usize % window.len()]];
            Arrival {
                due,
                steady,
                ..earlier
            }
        } else {
            if round.is_empty() {
                round = (0..spec.sizes.len()).collect();
                round.sort_by_key(|&k| mix2(r, k as u64));
            }
            fresh.push(i);
            Arrival {
                due,
                steady,
                instance: round.pop().expect("refilled above"),
                solve_seed: mix2(seed, i as u64 + 1),
                origin: i,
            }
        };
        arrivals.push(arrival);
    }
    arrivals
}

type Catalogue = Vec<(Arc<Graph>, Arc<ListAssignment>)>;

/// The seeded sample of fresh arrivals whose responses are re-solved
/// one-shot after the stream: [`SAMPLE_PER_SIZE`] per instance size, taken
/// in turn from that size's instances.
fn sample(spec: &MixSpec, seed: u64, arrivals: &[Arrival]) -> Vec<usize> {
    let mut sizes = spec.sizes.to_vec();
    sizes.dedup();
    let mut sampled = Vec::new();
    for n in sizes {
        let mut per_instance: Vec<Vec<usize>> = (0..spec.sizes.len())
            .filter(|&k| spec.sizes[k] == n)
            .map(|k| {
                let mut picks: Vec<usize> = (0..arrivals.len())
                    .filter(|&i| arrivals[i].fresh(i) && arrivals[i].instance == k)
                    .collect();
                picks.sort_by_key(|&i| std::cmp::Reverse(mix2(seed ^ 0x5a_3b1e, i as u64)));
                picks
            })
            .collect();
        let mut taken = 0;
        while taken < SAMPLE_PER_SIZE && per_instance.iter().any(|p| !p.is_empty()) {
            for picks in &mut per_instance {
                if taken < SAMPLE_PER_SIZE {
                    if let Some(i) = picks.pop() {
                        sampled.push(i);
                        taken += 1;
                    }
                }
            }
        }
    }
    sampled
}

/// What the collector saw: per arrival, when it completed (`None` if it
/// failed); the coloring checks' times; the sampled responses; failures.
struct Collected {
    done: Vec<Option<Instant>>,
    check_ms: Vec<f64>,
    kept: BTreeMap<usize, Arc<SolveResult>>,
    mismatches: Vec<String>,
}

/// The responses to the most recent fresh arrivals, which later repeats
/// are compared with. A repeat's origin is among the last
/// [`REPEAT_WINDOW`] fresh arrivals before it, and responses are checked
/// in arrival order, so its origin's response is here when it is checked.
#[derive(Default)]
struct Recent(VecDeque<(usize, Arc<SolveResult>)>);

impl Recent {
    /// Check the response to arrival `i` against the response to the
    /// fresh arrival it repeats, or remember it if `i` is fresh.
    fn check(&mut self, i: usize, a: &Arrival, result: &Arc<SolveResult>) -> Result<(), String> {
        if a.fresh(i) {
            if self.0.len() == REPEAT_WINDOW {
                self.0.pop_front();
            }
            self.0.push_back((i, Arc::clone(result)));
            return Ok(());
        }
        let (_, first) = self
            .0
            .iter()
            .find(|(k, _)| *k == a.origin)
            .ok_or_else(|| format!("repeats arrival {}, which has no response", a.origin))?;
        same_transcript(&result.coloring, &result.log, first)
            .map_err(|e| format!("repeat of arrival {}: {e}", a.origin))
    }
}

/// Check one response: a proper coloring, and (for a repeat) equal to the
/// response it repeats. Returns the coloring check's time with the
/// verdict.
fn check_response(
    i: usize,
    a: &Arrival,
    catalogue: &Catalogue,
    recent: &mut Recent,
    result: &Arc<SolveResult>,
) -> (f64, Result<(), String>) {
    let (g, l) = &catalogue[a.instance];
    let t = Instant::now();
    let proper = check_coloring(g, l, &result.coloring);
    let check_ms = ms(t.elapsed());
    let verdict = proper
        .map_err(|e| format!("improper coloring: {e:?}"))
        .and_then(|()| recent.check(i, a, result));
    (check_ms, verdict)
}

/// Wait for each submitted ticket in turn and check its response.
fn collect(
    rx: Receiver<(usize, Ticket)>,
    catalogue: &Catalogue,
    arrivals: &[Arrival],
    sampled: &[usize],
) -> Collected {
    let mut c = Collected {
        done: vec![None; arrivals.len()],
        check_ms: Vec::new(),
        kept: BTreeMap::new(),
        mismatches: Vec::new(),
    };
    let mut recent = Recent::default();
    for (i, ticket) in rx {
        let result = match ticket.wait() {
            Ok(result) => result,
            Err(e) => {
                c.mismatches.push(format!("arrival {i}: {e}"));
                continue;
            }
        };
        let (check_ms, verdict) = check_response(i, &arrivals[i], catalogue, &mut recent, &result);
        c.check_ms.push(check_ms);
        match verdict {
            Ok(()) => {
                c.done[i] = ticket.completed_at();
                if sampled.contains(&i) {
                    c.kept.insert(i, result);
                }
            }
            Err(e) => c.mismatches.push(format!("arrival {i}: {e}")),
        }
    }
    c
}

/// Seed of the catalogue's graphs and lists. The catalogue is the
/// service's fixed data set; the workload seed draws the request stream
/// over it (order, repeats, solve seeds). Regenerating the graphs per
/// seed would let one draw of the single n = 4096 instance, whose cost
/// sets the latency tail, swing every serving metric.
const CATALOGUE_SEED: u64 = 0xca7a_1095;

/// Set up once: generate the catalogue, start the server, and warm every
/// worker with one solve per instance (under a seed the stream never
/// uses, so the warm-up leaves no memo entry the stream could hit).
fn set_up(
    spec: &MixSpec,
    seed: u64,
    gen_ms: &mut Vec<f64>,
) -> Result<(Catalogue, SolveServer), String> {
    let t = Instant::now();
    let catalogue: Catalogue = spec
        .sizes
        .iter()
        .enumerate()
        .map(|(k, &n)| {
            let inst = bench::workloads::gnp_window(n, mix2(CATALOGUE_SEED, k as u64));
            (Arc::new(inst.graph), Arc::new(inst.lists))
        })
        .collect();
    gen_ms.push(ms(t.elapsed()));
    let config = ServiceConfig::builder()
        .workers(WORKERS)
        .queue(QUEUE_DEPTH)
        .admission(Admission::Reject)
        .build()
        .map_err(|e| format!("server config: {e}"))?;
    let server = SolveServer::start(config);
    let handle = server.handle();
    let warm = SolveOptions::seeded(mix2(seed, u64::MAX));
    let tickets: Vec<Ticket> = catalogue
        .iter()
        .map(|(g, l)| handle.submit(SolveRequest::shared(g, l, warm)))
        .collect();
    for ticket in tickets {
        ticket
            .wait()
            .map_err(|e| format!("warm-up solve failed: {e}"))?;
    }
    Ok((catalogue, server))
}

/// Run `serve-mix` for `seconds` of arrivals (steady, then saturation),
/// drain, and check the responses.
pub fn run_serve(spec: &MixSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        match set_up(spec, seed, &mut gen_ms) {
            Ok(ready) => {
                setup_s.push(t.elapsed().as_secs_f64());
                if let Some((_, mut previous)) = prepared.replace(ready) {
                    previous.shutdown();
                }
            }
            Err(e) => {
                out.mismatches.push(e);
                return out;
            }
        }
    }
    let (catalogue, mut server) = prepared.expect("SETUPS >= 1");
    let handle = server.handle();
    let before = handle.stats();
    let arrivals = schedule(spec, seed, seconds);
    let request = |a: &Arrival| {
        let (g, l) = &catalogue[a.instance];
        SolveRequest::shared(g, l, SolveOptions::seeded(a.solve_seed))
    };

    let sampled = sample(spec, seed, &arrivals);

    // The stream. The generator (this thread) only submits; a collector
    // thread takes each response as it resolves, checks it is a proper
    // coloring and lets it go (keeping only the sampled ones), so the
    // benchmark holds no more responses than a client would.
    let mut hit = Vec::with_capacity(arrivals.len());
    let mut lag_ms = Vec::with_capacity(arrivals.len());
    let mut depth_max = 0usize;
    let t0 = Instant::now();
    let collected = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Ticket)>();
        let collector = scope.spawn(|| collect(rx, &catalogue, &arrivals, &sampled));
        for (i, a) in arrivals.iter().enumerate() {
            let due = t0 + a.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = Instant::now();
            let ticket = handle.submit(request(a));
            hit.push(matches!(ticket.try_result(), Some(Ok(_))));
            lag_ms.push(ms(submitted.saturating_duration_since(due)));
            depth_max = depth_max.max(handle.health().queue_depth);
            tx.send((i, ticket))
                .expect("the collector outlives the stream");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let after = handle.stats();
    server.shutdown();
    out.attempted = arrivals.len() as u64;
    out.failed = collected.done.iter().filter(|d| d.is_none()).count() as u64;
    out.mismatches.extend(collected.mismatches);

    // Latency from due time; a failed response never arrives.
    let latency = |i: usize| -> f64 {
        collected.done[i].map_or(f64::INFINITY, |done| {
            ms(done.saturating_duration_since(t0 + arrivals[i].due))
        })
    };
    let steady: Vec<usize> = (0..arrivals.len())
        .filter(|&i| arrivals[i].steady)
        .collect();
    let steady_ms: Vec<f64> = steady.iter().map(|&i| latency(i)).collect();
    let hit_ms: Vec<f64> = steady
        .iter()
        .filter(|&&i| hit[i])
        .map(|&i| latency(i))
        .collect();
    let miss_ms: Vec<f64> = steady
        .iter()
        .filter(|&&i| !hit[i])
        .map(|&i| latency(i))
        .collect();
    // Saturation throughput: the phase's arrivals, all served, over the
    // time from the phase's start until the last of them completed. The
    // backlog keeps both workers busy throughout, so this counts the
    // phase's whole (seed-independent) mix of work, not whichever jobs
    // happened to finish inside a fixed window.
    let saturation: Vec<usize> = (0..arrivals.len())
        .filter(|&i| !arrivals[i].steady)
        .collect();
    let phase_start = t0 + Duration::from_secs_f64(seconds * STEADY_SHARE);
    let last_done = saturation
        .iter()
        .filter_map(|&i| collected.done[i])
        .max()
        .unwrap_or(phase_start);
    let peak_rps = saturation.len() as f64
        / last_done
            .saturating_duration_since(phase_start)
            .as_secs_f64();
    let check_ms = collected.check_ms;

    // A seeded sample of fresh responses, per size, must equal a
    // one-shot solve of the same request; a traced run also re-drives it.
    let mut run = TracedRun::default();
    let mut rounds_norm = Vec::new();
    for (&i, served) in &collected.kept {
        let req = request(&arrivals[i]);
        let t = Instant::now();
        let oneshot = match solve(&req.graph, &req.lists, req.options) {
            Ok(r) => r,
            Err(e) => {
                out.mismatches
                    .push(format!("arrival {i}: one-shot solve failed: {e}"));
                continue;
            }
        };
        let wall = ms(t.elapsed());
        rounds_norm.push(oneshot.normalized_rounds(congest_bandwidth(req.graph.n())) as f64);
        if let Err(e) = gate(
            &req.graph,
            &req.lists,
            &served.coloring,
            &served.log,
            &oneshot,
        ) {
            out.mismatches
                .push(format!("arrival {i}: served response: {e}"));
        }
        if traced {
            let inst = (&*req.graph, &*req.lists);
            if let Err(e) = run.redrive(inst, &req.options, &oneshot, wall, i as u64) {
                out.mismatches.push(format!("arrival {i}: {e}"));
            }
        }
    }

    let m: &mut Metrics = &mut out.metrics;
    m.median_of("rounds_norm", &rounds_norm);
    m.median_of("latency_p50_ms", &steady_ms);
    m.quantile_of("latency_p99_ms", &steady_ms, 0.99);
    m.set("peak_rps", peak_rps, saturation.len());
    m.median_of("setup_s", &setup_s);
    m.median_of("graphs.gen_ms", &gen_ms);
    m.median_of("graphs.check_ms", &check_ms);
    let submitted = (after.submitted - before.submitted).max(1) as f64;
    let engine_runs = (after.fresh_sessions - before.fresh_sessions)
        + (after.rebinds - before.rebinds)
        + (after.same_graph_rebinds - before.same_graph_rebinds);
    m.one(
        "server.hit_share",
        ((after.memo_hits - before.memo_hits) + (after.dedup_joins - before.dedup_joins)) as f64
            / submitted,
    );
    m.one("server.engine_runs", engine_runs as f64);
    m.one(
        "server.same_graph_rebind_share",
        (after.same_graph_rebinds - before.same_graph_rebinds) as f64 / engine_runs.max(1) as f64,
    );
    m.one("server.queue_depth_max", depth_max as f64);
    m.one("server.rejected", (after.rejected - before.rejected) as f64);
    m.one(
        "server.deadline_misses",
        (after.deadline_misses - before.deadline_misses) as f64,
    );
    m.one("server.retries", (after.retries - before.retries) as f64);
    m.median_of("server.hit_latency_p50_ms", &hit_ms);
    m.quantile_of("server.miss_latency_p99_ms", &miss_ms, 0.99);
    m.quantile_of("gen.lag_p99_ms", &lag_ms, 0.99);
    m.one(
        "run.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if traced {
        run.report(m);
        for (i, a) in arrivals.iter().enumerate() {
            if let Some(done) = collected.done[i] {
                run.tracer.record("request", i as u64, t0 + a.due, done);
            }
        }
        out.spans_json = Some(run.tracer.to_json());
    }
    m.one("peak_rss_mb", crate::report::peak_rss_mb());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: MixSpec = MixSpec {
        sizes: &[64, 64, 128],
        steady_rps: 40.0,
        saturation_rps: 120.0,
    };

    #[test]
    fn repeats_carry_a_recent_fresh_request() {
        let arrivals = schedule(&TINY, 11, 10.0);
        let mut fresh_seen = Vec::new();
        for (i, a) in arrivals.iter().enumerate() {
            if a.fresh(i) {
                fresh_seen.push(i);
                continue;
            }
            let window = &fresh_seen[fresh_seen.len().saturating_sub(REPEAT_WINDOW)..];
            assert!(window.contains(&a.origin), "arrival {i}");
            let o = &arrivals[a.origin];
            assert_eq!((o.instance, o.solve_seed), (a.instance, a.solve_seed));
        }
        let share = 1.0 - fresh_seen.len() as f64 / arrivals.len() as f64;
        assert!((share - REPEAT_SHARE).abs() < 0.01, "repeat share {share}");
    }

    #[test]
    fn a_repeat_must_equal_the_response_it_repeats() {
        let inst = bench::workloads::gnp_window(64, 3);
        let catalogue: Catalogue = vec![(Arc::new(inst.graph), Arc::new(inst.lists))];
        let (g, l) = &catalogue[0];
        let solved = |seed| Arc::new(solve(g, l, SolveOptions::seeded(seed)).expect("solve"));
        let (first, other) = (solved(1), solved(2));
        assert_ne!(first.coloring, other.coloring);
        let at = |origin| Arrival {
            due: Duration::ZERO,
            steady: true,
            instance: 0,
            solve_seed: 1,
            origin,
        };
        let mut recent = Recent::default();
        let check = |recent: &mut Recent, i, origin, r: &Arc<SolveResult>| {
            check_response(i, &at(origin), &catalogue, recent, r).1
        };
        assert_eq!(check(&mut recent, 0, 0, &first), Ok(()));
        assert_eq!(check(&mut recent, 1, 0, &first), Ok(()));
        // A proper coloring, but another request's: the repeat fails.
        assert!(check(&mut recent, 2, 0, &other).is_err());
        // A repeat of an arrival that never got a response.
        assert!(check(&mut recent, 3, 9, &first).is_err());
    }
}
