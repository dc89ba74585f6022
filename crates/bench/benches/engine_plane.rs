//! Routing microbenchmark of the CONGEST engine's message plane: the CSR
//! edge-indexed mailbox (`congest::run`) versus the pre-PR
//! sort-and-scatter plane (`congest::reference::run_reference`), at the
//! ISSUE-2 acceptance scale — G(n = 20 000, p = 10/n), 50 flood rounds —
//! for both lanes (broadcast flood and per-neighbor targeted flood).
//!
//! The workload is `bench::exp_plane`'s — the same programs experiment
//! E0 reports on and snapshots into `BENCH_2.json`; this bench exists so
//! `cargo bench -p bench` tracks the plane alongside the protocol
//! benches.

use bench::exp_plane::{programs, Mode};
use congest::reference::run_reference;
use congest::{run, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use graphs::gen;
use std::time::Duration;

const N: usize = 20_000;

fn bench_engine_plane(c: &mut Criterion) {
    let graph = gen::gnp(N, 10.0 / N as f64, 42);
    let mut group = c.benchmark_group("engine-plane");
    group
        .sample_size(3)
        .measurement_time(Duration::from_secs(30));
    for (name, mode) in [("bcast", Mode::Bcast), ("send", Mode::Targeted)] {
        group.bench_function(format!("{name}/reference/t1"), |b| {
            b.iter(|| {
                let mut programs = programs(N, mode);
                run_reference(&graph, &mut programs, SimConfig::seeded(7)).expect("run")
            })
        });
        for threads in [1usize, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::seeded(7)
            };
            group.bench_function(format!("{name}/mailbox/t{threads}"), |b| {
                b.iter(|| run(&graph, programs(N, mode), cfg).expect("run"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_plane);
criterion_main!(benches);
