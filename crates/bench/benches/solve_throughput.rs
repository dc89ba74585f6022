//! Throughput benchmark: a request stream through the concurrent
//! [`d1lc::server::SolveServer`] arms vs fresh-session-per-solve.
//!
//! The repeat-heavy `uniform-256` serving stream of experiment E0d,
//! driven closed-loop at one worker and measured per batch by
//! `cargo bench -p bench --bench solve_throughput`
//! (`just bench-server`). Every arm produces byte-identical responses
//! (asserted inside E0d and by the server's differential proptests);
//! the arms differ only in what they amortize across the stream. E0d
//! itself measures the open-loop saturation picture.

use bench::exp_server::{serve_stream, uniform_requests};
use bench::Scale;
use criterion::{criterion_group, criterion_main, Criterion};
use d1lc::service::ServiceConfig;
use std::time::Duration;

fn bench_solve_throughput(c: &mut Criterion) {
    // E0d's own quick-scale uniform-256 serving stream, so the bench and
    // the experiment can never drift apart.
    let requests = uniform_requests(Scale::Quick);
    let mut group = c.benchmark_group("solve-throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(15));
    for (label, config) in [
        ("fresh", ServiceConfig::fresh_per_solve()),
        ("pooled", ServiceConfig::pooled_only()),
        ("service", ServiceConfig::default()),
    ] {
        group.bench_function(format!("uniform-256/{label}"), |b| {
            b.iter(|| {
                // A cold server per batch: memo hits are earned within
                // the measured stream.
                serve_stream(config, &requests)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solve_throughput);
criterion_main!(benches);
