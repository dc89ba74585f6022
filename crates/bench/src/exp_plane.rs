//! E0 — the engine message-plane microbenchmark.
//!
//! Every experiment in the catalog bottoms out in `congest::run`, so the
//! plane's routing throughput is the lever behind the ROADMAP's "as fast
//! as the hardware allows" goal (and the instance sizes of the follow-up
//! paper arXiv:2308.01359). E0 runs a fixed 50-round flood workload on a
//! sparse G(n, 10/n) instance through:
//!
//! * the pre-PR sort-and-scatter plane (`congest::reference`), and
//! * the CSR edge-indexed mailbox plane at 1, 2 and 8 threads,
//!
//! and reports wall clock, speedup, and delivered-message throughput.
//! The run **asserts** that all four configurations produce the same
//! `RunReport` and the same final program states — the transcript
//! identity the engine guarantees — so a perf regression can never hide
//! a correctness one.

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::Scale;
use congest::reference::run_reference;
use congest::{run, Ctx, Message, Program, RunReport, SimConfig};
use graphs::{gen, Graph};
use std::time::Instant;

/// Registry entries for this module (E0).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0",
        "Engine message-plane microbench",
        "CSR mailbox plane >= 2x the sort-and-scatter reference at 1 thread",
        e0_engine_plane,
    )]
}

/// Rounds every node stays active (the workload's round budget).
pub const ROUNDS: u32 = 50;
/// Repetitions per configuration; the minimum wall time is reported.
pub const REPS: usize = 5;

/// The flood payload: one machine word costing a CONGEST-ish 20 bits.
#[derive(Clone)]
pub struct Tick(pub u64);

impl Message for Tick {
    fn bit_cost(&self) -> u64 {
        20
    }
}

/// How a [`Flood`] node pushes its payload each round.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// `ctx.broadcast` — the dominant pattern of the HNT22 protocols
    /// (trials, slack announcements, hash indices go to every neighbor).
    Bcast,
    /// Per-neighbor `ctx.send` in descending id order — exercises the
    /// O(1) destination resolve and, on the reference plane, its
    /// per-round outbox sort.
    Targeted,
}

/// Floods for [`ROUNDS`] rounds with a deliberately *cheap* program — a
/// fold of the inbox length and first sender — so the measurement
/// isolates the message plane, not program compute. (Message-content
/// fidelity is covered by the engine's differential tests; E0 still
/// asserts bit/message/report equality across planes.)
#[derive(Clone)]
pub struct Flood {
    mode: Mode,
    /// Running transcript fold (the cross-plane identity witness).
    pub acc: u64,
    left: u32,
    done: bool,
}

impl Program for Flood {
    type Msg = Tick;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Tick>) {
        if self.done {
            return;
        }
        let inbox = ctx.inbox();
        let first = inbox.first().map_or(0, |&(u, Tick(x))| x ^ u64::from(u));
        self.acc = self
            .acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(inbox.len() as u64 ^ first);
        if self.left == 0 {
            self.done = true;
            return;
        }
        self.left -= 1;
        let payload = Tick(self.acc ^ u64::from(ctx.id()));
        match self.mode {
            Mode::Bcast => ctx.broadcast(payload),
            Mode::Targeted => {
                let neighbors = ctx.neighbors();
                for &w in neighbors.iter().rev() {
                    ctx.send(w, payload.clone());
                }
            }
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

/// One [`Flood`] program per node (shared by E0 and the
/// `engine_plane` criterion bench).
pub fn programs(n: usize, mode: Mode) -> Vec<Flood> {
    (0..n)
        .map(|_| Flood {
            mode,
            acc: 0,
            left: ROUNDS,
            done: false,
        })
        .collect()
}

type Runner = fn(&Graph, Vec<Flood>, SimConfig) -> (Vec<Flood>, RunReport);

fn run_new(g: &Graph, p: Vec<Flood>, cfg: SimConfig) -> (Vec<Flood>, RunReport) {
    run(g, p, cfg).expect("plane run")
}

fn run_ref(g: &Graph, mut p: Vec<Flood>, cfg: SimConfig) -> (Vec<Flood>, RunReport) {
    let report = run_reference(g, &mut p, cfg).expect("reference run");
    (p, report)
}

/// E0 — CSR mailbox plane vs the pre-PR sort-and-scatter plane.
pub fn e0_engine_plane(scale: Scale) -> Table {
    let n = match scale {
        Scale::Quick => 4_000,
        Scale::Full => 20_000,
    };
    let graph = gen::gnp(n, 10.0 / n as f64, 42);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0 — engine message plane, gnp n={n} p=10/n, {ROUNDS} rounds (min of {REPS}, host cores={cores})",
        ),
        "CSR mailbox ≥2× the sort-and-scatter plane at 1 thread; threads>1 helps given >1 core",
    );
    t.columns([
        "workload",
        "plane",
        "threads",
        "wall ms",
        "speedup",
        "Mmsg/s",
        "rounds",
        "msgs",
        "max bits/edge",
        "p99 bits/edge",
    ]);

    let configs: [(&str, Runner, usize); 4] = [
        ("reference", run_ref as Runner, 1),
        ("mailbox", run_new as Runner, 1),
        ("mailbox", run_new as Runner, 2),
        ("mailbox", run_new as Runner, 8),
    ];
    for (workload, mode) in [("bcast-flood", Mode::Bcast), ("send-flood", Mode::Targeted)] {
        let mut baseline_ms = 0.0f64;
        let mut witness: Option<(Vec<u64>, RunReport)> = None;
        for (plane, runner, threads) in configs {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(7)
            };
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..REPS {
                let progs = programs(n, mode);
                let start = Instant::now();
                let (final_progs, report) = runner(&graph, progs, cfg);
                best = best.min(start.elapsed().as_secs_f64());
                out = Some((final_progs, report));
            }
            let (final_progs, report) = out.expect("at least one rep");
            let states: Vec<u64> = final_progs.iter().map(|p| p.acc).collect();
            // Transcript identity across planes and thread counts.
            match &witness {
                None => witness = Some((states, report.clone())),
                Some((ws, wr)) => {
                    assert_eq!(wr, &report, "RunReport diverged: {plane} t={threads}");
                    assert_eq!(ws, &states, "states diverged: {plane} t={threads}");
                }
            }
            let ms = best * 1e3;
            if plane == "reference" {
                baseline_ms = ms;
            }
            t.row([
                workload.to_string(),
                plane.to_string(),
                threads.to_string(),
                f2(ms),
                f2(baseline_ms / ms),
                f2(report.messages as f64 / best / 1e6),
                report.rounds.to_string(),
                report.messages.to_string(),
                report.max_edge_bits().to_string(),
                report.edge_load.percentile(0.99).to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flood workload itself is deterministic and plane-agnostic (the
    /// full-size assertions live inside `e0_engine_plane`; this keeps a
    /// fast guard in the unit suite).
    #[test]
    fn flood_matches_reference_on_small_instance() {
        let g = gen::gnp(300, 0.03, 5);
        let cfg = SimConfig::seeded(3);
        for mode in [Mode::Bcast, Mode::Targeted] {
            let (a, ra) = run(&g, programs(300, mode), cfg).expect("run");
            let (b, rb) = run_ref(&g, programs(300, mode), cfg);
            assert_eq!(ra, rb);
            assert!(a.iter().zip(&b).all(|(x, y)| x.acc == y.acc));
            assert_eq!(ra.rounds, u64::from(ROUNDS) + 1);
        }
    }
}
