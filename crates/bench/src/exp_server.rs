//! E0d — open-loop serving: the concurrent [`SolveServer`] under fixed
//! arrival rates, measured to saturation.
//!
//! A closed-loop caller (submit, wait, repeat) measures how fast one
//! caller can drive the serving stack. A production frontend faces the
//! opposite shape: an **open-loop** arrival process that does not slow
//! down when the server does. E0d replays the `uniform-256` serving mix
//! ([`uniform_requests`]) as a paced arrival stream (fixed requests/sec, single submitter thread,
//! [`Admission::Reject`] so arrivals never stall) and reports, per
//! (worker count, offered rate) cell:
//!
//! * **sustained solves/sec** — completed responses over the span from
//!   first submission to last completion;
//! * **latency p50/p99/p999** — nearest-rank percentiles of
//!   submission→completion for completed requests (the resolution
//!   instant is recorded by the ticket itself, so a slow collector
//!   cannot inflate the tail);
//! * **rejected** — arrivals shed by admission control at queue depth 64.
//!
//! The **closed** row is the PR 5 serving shape — the same stream driven
//! submit-wait-submit at one worker (see [`serve_stream`]) — and anchors the `×closed`
//! column: the acceptance claim is that at saturation (offered ≥ 2× the
//! closed-loop rate) the 1-worker server *sustains* at least the
//! closed-loop batched rate, i.e. the queue/ticket machinery costs
//! nothing against PR 5, while more workers raise the ceiling.
//!
//! Before any timing, the run **asserts** that every completed response
//! is byte-identical (coloring and per-pass log) to a one-shot
//! [`d1lc::solve`] across worker counts {1, 2, 8} with fully concurrent
//! submission — saturation can shed load, but never corrupt a response.
//! `BENCH_6.json` at the repo root is the committed full-scale snapshot.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Scale};
use d1lc::server::SolveServer;
use d1lc::service::{Admission, ServiceConfig, SolveRequest};
use d1lc::{solve, SolveOptions, SolveResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry entries for this module (E0d).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0d",
        "SolveServer open-loop serving under fixed arrival rates",
        "At saturation (offered ≥ 2× the closed-loop rate) the 1-worker server sustains \
         ≥ the PR 5 closed-loop batched solves/sec on the same uniform-256 mix (×closed \
         ≥ 1), reporting latency p50/p99/p999; more workers raise the sustained ceiling; \
         every completed response is byte-identical to a one-shot solve",
        e0d_open_loop,
    )]
}

/// Worker counts every arm (and the identity assertion) covers.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Offered-rate multipliers over the measured closed-loop capacity.
const RATE_MULTIPLIERS: [f64; 3] = [1.0, 2.0, 4.0];

/// Drive a request stream closed-loop through a one-worker server:
/// submit, wait, repeat. Returns the responses, per-request walls and
/// memo hits. E0d's closed-loop anchor and the `solve_throughput`
/// criterion bench both use it.
pub fn serve_stream(
    config: ServiceConfig,
    requests: &[SolveRequest],
) -> (Vec<Arc<SolveResult>>, Vec<Duration>, u64) {
    let server = SolveServer::start(config);
    let handle = server.handle();
    let mut results = Vec::with_capacity(requests.len());
    let mut walls = Vec::with_capacity(requests.len());
    for req in requests {
        let start = Instant::now();
        results.push(handle.solve(req.clone()).expect("serve"));
        walls.push(start.elapsed());
    }
    let hits = server.stats().memo_hits;
    (results, walls, hits)
}

/// The `uniform-256` serving stream at the given scale: a round-robin
/// stream over a small catalog of n = 256 gnp-window instances × solve
/// seeds, so most requests repeat an earlier one by identity (hot keys,
/// the shape of high-traffic serving). Shared with the criterion bench
/// (`benches/solve_throughput.rs`) so the two always measure the same
/// stream.
pub fn uniform_requests(scale: Scale) -> Vec<SolveRequest> {
    let (topos, seeds, reps) = match scale {
        Scale::Quick => (2u64, 2u64, 3usize),
        Scale::Full => (4, 2, 4),
    };
    let mut catalog = Vec::new();
    for t in 1..=topos {
        let inst = workloads::gnp_window(256, t);
        let (graph, lists) = (Arc::new(inst.graph), Arc::new(inst.lists));
        for s in 1..=seeds {
            catalog.push(SolveRequest::shared(
                &graph,
                &lists,
                SolveOptions::seeded(s),
            ));
        }
    }
    let len = catalog.len() * reps;
    catalog.into_iter().cycle().take(len).collect()
}

/// The paced arrival stream: the uniform-256 serving mix cycled to
/// a fixed request count (quick stays CI-sized).
fn arrival_stream(scale: Scale) -> Vec<SolveRequest> {
    let base = uniform_requests(scale);
    let total = match scale {
        Scale::Quick => 32,
        Scale::Full => 192,
    };
    base.iter().cycle().take(total).cloned().collect()
}

/// Nearest-rank per-mille percentile (500 = p50, 999 = p999) over
/// unsorted latencies.
fn pct(lat: &[Duration], permille: usize) -> Duration {
    if lat.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = lat.to_vec();
    sorted.sort_unstable();
    let rank = (permille * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// One open-loop cell's measurements.
struct OpenLoopOutcome {
    offered: f64,
    completed: usize,
    rejected: usize,
    sustained: f64,
    latencies: Vec<Duration>,
}

/// Pace `requests` through a server at a fixed arrival rate and collect
/// completion latencies. The submitter never blocks on a full queue
/// (Reject admission), so the offered rate is honored to sleep
/// granularity even past saturation.
fn open_loop(workers: usize, requests: &[SolveRequest], rate: f64) -> OpenLoopOutcome {
    let config = ServiceConfig::builder()
        .workers(workers)
        .queue(64)
        .admission(Admission::Reject)
        .build()
        .expect("valid open-loop config");
    let server = SolveServer::start(config);
    let handle = server.handle();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut submissions = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let target = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if now < target {
            std::thread::sleep(target - now);
        }
        submissions.push((handle.submit(req.clone()), Instant::now()));
    }
    let mut latencies = Vec::new();
    let mut rejected = 0usize;
    let mut last_done = start;
    for (ticket, submitted_at) in &submissions {
        match ticket.wait() {
            Ok(_) => {
                let done = ticket
                    .completed_at()
                    .expect("resolved ticket has an instant");
                latencies.push(done.duration_since(*submitted_at));
                last_done = last_done.max(done);
            }
            Err(_) => rejected += 1,
        }
    }
    let span = last_done.duration_since(start).as_secs_f64();
    OpenLoopOutcome {
        offered: rate,
        completed: latencies.len(),
        rejected,
        sustained: if span > 0.0 {
            latencies.len() as f64 / span
        } else {
            0.0
        },
        latencies,
    }
}

/// Every completed response must be byte-identical to a one-shot solve,
/// across worker counts, under fully concurrent submission (all tickets
/// outstanding at once, Block admission so nothing is shed).
fn assert_identity_across_workers(scale: Scale) {
    let requests = uniform_requests(scale);
    // One one-shot reference per distinct request (identity-keyed).
    let mut directs: Vec<((usize, usize, u64), SolveResult)> = Vec::new();
    for req in &requests {
        let key = (
            Arc::as_ptr(&req.graph) as usize,
            Arc::as_ptr(&req.lists) as usize,
            req.options.seed,
        );
        if directs.iter().all(|(k, _)| *k != key) {
            let direct = solve(&req.graph, &req.lists, req.options).expect("one-shot");
            directs.push((key, direct));
        }
    }
    for workers in WORKER_COUNTS {
        let config = ServiceConfig::builder()
            .workers(workers)
            .build()
            .expect("valid identity config");
        let server = SolveServer::start(config);
        let handle = server.handle();
        let tickets: Vec<_> = requests
            .iter()
            .map(|req| handle.submit(req.clone()))
            .collect();
        for (req, ticket) in requests.iter().zip(&tickets) {
            let served = ticket.wait().expect("server response");
            let key = (
                Arc::as_ptr(&req.graph) as usize,
                Arc::as_ptr(&req.lists) as usize,
                req.options.seed,
            );
            let (_, direct) = directs
                .iter()
                .find(|(k, _)| *k == key)
                .expect("reference computed");
            assert_eq!(
                served.coloring, direct.coloring,
                "E0d: server coloring diverged from one-shot at workers={workers}"
            );
            assert_eq!(
                served.log.passes(),
                direct.log.passes(),
                "E0d: server pass log diverged from one-shot at workers={workers}"
            );
        }
    }
}

/// E0d — open-loop arrival sweep over worker counts.
pub fn e0d_open_loop(scale: Scale) -> Table {
    assert_identity_across_workers(scale);
    let requests = arrival_stream(scale);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The closed-loop anchor: the same stream, PR 5 serving shape.
    let closed_start = Instant::now();
    let (_, closed_walls, _) = serve_stream(ServiceConfig::default(), &requests);
    let closed_wall = closed_start.elapsed().as_secs_f64();
    let closed_rate = requests.len() as f64 / closed_wall;
    let mut t = Table::new(
        format!(
            "E0d — SolveServer open-loop serving, uniform-256 mix × {} arrivals, queue \
             depth 64, reject admission, engine threads=1 (host cores={cores})",
            requests.len()
        ),
        "At offered ≥ 2× the closed-loop rate the 1-worker server sustains ≥ the closed \
         (PR 5 batched) solves/sec on the same mix; more workers raise the ceiling; \
         rejected arrivals are shed, never corrupted (byte-identity asserted across \
         workers 1/2/8 before timing)",
    );
    t.columns([
        "workers",
        "mode",
        "offered/s",
        "requests",
        "completed",
        "rejected",
        "sustained/s",
        "×closed",
        "p50 ms",
        "p99 ms",
        "p999 ms",
    ]);
    let ms = |d: Duration| f2(d.as_secs_f64() * 1e3);
    t.row([
        "1".into(),
        "closed".into(),
        "-".into(),
        requests.len().to_string(),
        requests.len().to_string(),
        "0".into(),
        f2(closed_rate),
        f2(1.0),
        ms(pct(&closed_walls, 500)),
        ms(pct(&closed_walls, 990)),
        ms(pct(&closed_walls, 999)),
    ]);
    for workers in WORKER_COUNTS {
        for mult in RATE_MULTIPLIERS {
            let out = open_loop(workers, &requests, closed_rate * mult);
            t.row([
                workers.to_string(),
                format!("open {mult}x"),
                f2(out.offered),
                requests.len().to_string(),
                out.completed.to_string(),
                out.rejected.to_string(),
                f2(out.sustained),
                f2(out.sustained / closed_rate),
                ms(pct(&out.latencies, 500)),
                ms(pct(&out.latencies, 990)),
                ms(pct(&out.latencies, 999)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arrival stream is CI-sized at quick scale and cycles the
    /// uniform-256 mix.
    #[test]
    fn arrival_stream_cycles_the_uniform_mix() {
        let stream = arrival_stream(Scale::Quick);
        assert_eq!(stream.len(), 32);
        // Cycling means position i repeats position i mod |base| at the
        // identity level (same Arc, same options).
        let base_len = uniform_requests(Scale::Quick).len();
        for (i, req) in stream.iter().enumerate() {
            let src = &stream[i % base_len];
            assert!(Arc::ptr_eq(&req.graph, &src.graph));
            assert_eq!(req.options.seed, src.options.seed);
        }
    }

    /// The uniform-256 stream repeats its catalog by identity: 4 distinct
    /// (instance, seed) pairs, each requested 3 times at quick scale.
    #[test]
    fn uniform_stream_repeats_by_identity() {
        let requests = uniform_requests(Scale::Quick);
        assert_eq!(requests.len(), 12);
        let mut keys: Vec<(usize, u64)> = requests
            .iter()
            .map(|r| (Arc::as_ptr(&r.graph) as usize, r.options.seed))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 4);
    }

    /// Nearest-rank per-mille percentiles on a known distribution.
    #[test]
    fn pct_is_nearest_rank() {
        let lat: Vec<Duration> = (1..=1000).map(Duration::from_micros).collect();
        assert_eq!(pct(&lat, 500), Duration::from_micros(500));
        assert_eq!(pct(&lat, 990), Duration::from_micros(990));
        assert_eq!(pct(&lat, 999), Duration::from_micros(999));
        assert_eq!(pct(&[], 500), Duration::ZERO);
        let one = [Duration::from_millis(7)];
        assert_eq!(pct(&one, 999), Duration::from_millis(7));
    }

    /// A tiny open-loop run completes everything at a generous rate and
    /// measures a positive sustained throughput.
    #[test]
    fn open_loop_smoke() {
        let requests: Vec<SolveRequest> =
            uniform_requests(Scale::Quick).into_iter().take(6).collect();
        let out = open_loop(2, &requests, 1000.0);
        assert_eq!(out.completed + out.rejected, requests.len());
        assert!(out.completed > 0, "a 1000/s burst must complete something");
        assert!(out.sustained > 0.0);
        assert_eq!(out.latencies.len(), out.completed);
    }
}
