//! E4/E6 timing benches: the two-party `EstimateSimilarity` procedure, the
//! per-edge signature kernel and the whole-graph neighborhood-similarity
//! protocol.

use congest::SimConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use estimate::{
    estimate_similarity, run_neighborhood_similarity, window_signature, EdgeSetup, Signer,
    SimilarityScheme,
};
use graphs::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_two_party(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimate-similarity");
    group.measurement_time(Duration::from_secs(3));
    for eps in [0.5, 0.25, 0.125] {
        let scheme = SimilarityScheme::practical(eps);
        let su: Vec<u64> = (0..600).collect();
        let sv: Vec<u64> = (300..900).collect();
        group.bench_with_input(
            BenchmarkId::new("eps", format!("{eps}")),
            &scheme,
            |b, scheme| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| estimate_similarity(scheme, &su, &sv, 42, &mut rng))
            },
        );
    }
    group.finish();
}

/// One node signing its own degree-`d` neighborhood for each of its `d`
/// edges at the ACD's laptop settings (k = 16, σ = 512): through one shared
/// [`Signer`], and one-shot per edge through [`window_signature`]. Reports
/// ns per scaled element (`d·d·k` per iteration).
fn bench_window_signature(c: &mut Criterion) {
    let mut group = c.benchmark_group("window-signature");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2));
    let scheme = SimilarityScheme {
        sigma_cap: 512,
        scale_cap: 16,
        ..SimilarityScheme::practical(0.5)
    };
    for d in [24usize, 112] {
        let own: Vec<u64> = (0..d as u64).map(|x| x * 37 + 5).collect();
        let edges: Vec<(EdgeSetup, prand::RepHash)> = (0..d as u64)
            .map(|e| {
                let setup = EdgeSetup::new(&scheme, d, d, e);
                let h = setup
                    .family
                    .member(e * 101 % setup.family.params().family_size);
                (setup, h)
            })
            .collect();
        let k = edges[0].0.k;
        assert_eq!(k, 16, "the bench pins the ACD's scale cap");
        assert_eq!(edges[0].0.sigma(), 512, "the bench pins the ACD's window");
        group.throughput(Throughput::Elements((d * d) as u64 * k));
        group.bench_with_input(BenchmarkId::new("signer", d), &edges, |b, edges| {
            b.iter(|| {
                let mut signer = Signer::new(&own);
                edges
                    .iter()
                    .map(|(setup, h)| signer.sign(setup, h)[0])
                    .fold(0, |acc, w| acc ^ w)
            })
        });
        group.bench_with_input(BenchmarkId::new("one-shot", d), &edges, |b, edges| {
            b.iter(|| {
                edges
                    .iter()
                    .map(|(setup, h)| window_signature(setup, h, &own)[0])
                    .fold(0, |acc, w| acc ^ w)
            })
        });
    }
    group.finish();
}

fn bench_whole_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood-similarity");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for n in [128usize, 256] {
        let g = gen::gnp(n, (16.0 / n as f64).min(0.5), 3);
        group.bench_with_input(BenchmarkId::new("gnp", n), &g, |b, g| {
            b.iter(|| {
                run_neighborhood_similarity(
                    g,
                    SimilarityScheme::practical(0.25),
                    SimConfig::seeded(5),
                    9,
                )
                .expect("protocol run")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_two_party,
    bench_window_signature,
    bench_whole_graph
);
criterion_main!(benches);
