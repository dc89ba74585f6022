//! Tiny-scale self-test of the benchmark (seconds in release mode):
//!
//! * the metric names it emits are the names `BENCHMARK.json` declares;
//! * the traced re-drive's transcript equals `d1lc::solve`'s;
//! * the correctness gate fires on a corrupted coloring or pass log.

use bench::json::{parse, Value};
use graphs::NodeId;
use perfbench::redrive::traced_solve;
use perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use perfbench::serve::{run_serve, MixSpec};
use perfbench::trace::Tracer;
use perfbench::{gate, options, run_solve, Family};

const TINY_MIX: MixSpec = MixSpec {
    sizes: &[64, 64, 128],
    steady_rps: 40.0,
    saturation_rps: 120.0,
};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of the manifest's lists.
fn declared(list: &str) -> Vec<(String, String)> {
    manifest()
        .get(list)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(names: &[(&str, &str)]) -> Vec<(String, String)> {
    names
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn assert_measures_all(out: &Outcome, names: &[(&str, &str)], what: &str) {
    assert!(out.correct(), "{what}: {:?}", out.mismatches);
    for (name, _) in names {
        let v = out
            .metrics
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{what} did not measure {name}"));
        assert!(v.value.is_finite(), "{what}: {name} = {}", v.value);
    }
}

#[test]
fn emitted_metric_names_match_the_manifest() {
    assert_eq!(emitted(END_TO_END), declared("end_to_end"));
    assert_eq!(emitted(PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = manifest()
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["solve-sparse-16k", "solve-dense-4k", "serve-mix"]
    );
}

#[test]
fn every_workload_measures_every_metric() {
    for traced in [false, true] {
        let names = if traced { PER_LAYER } else { END_TO_END };
        for family in [Family::GnpWindow, Family::BlendWindow] {
            let out = run_solve(family, 300, 3, 0.0, traced);
            assert_measures_all(&out, names, &format!("{family:?} traced={traced}"));
        }
        let out = run_serve(&TINY_MIX, 3, 1.0, traced);
        assert_measures_all(&out, names, &format!("serve traced={traced}"));
    }
}

#[test]
fn traced_redrive_matches_solve() {
    for (family, seed) in [
        (Family::GnpWindow, 5),
        (Family::GnpWindow, 6),
        (Family::BlendWindow, 5),
    ] {
        let inst = family.build(1000, seed);
        let opts = options(seed, 0);
        let reference = d1lc::solve(&inst.graph, &inst.lists, opts).expect("solve");
        let mut tracer = Tracer::new();
        let traced =
            traced_solve(&inst.graph, &inst.lists, &opts, &mut tracer, 0).expect("re-drive");
        assert_eq!(
            gate(
                &inst.graph,
                &inst.lists,
                &traced.coloring,
                &traced.log,
                &reference
            ),
            Ok(())
        );
        assert_eq!(traced.repairs, reference.stats.repairs);
        // A degree-range phase ran, and its ACD spans carry passes.
        let spans = tracer.spans();
        assert_eq!(spans[traced.root].name, "solve");
        assert!(spans.iter().any(|s| s.name == "range"));
        assert!(spans
            .iter()
            .any(|s| s.name == "acd" && s.passes.1 > s.passes.0));
    }
}

#[test]
fn gate_fires_on_corruption() {
    let inst = Family::GnpWindow.build(200, 7);
    let reference = d1lc::solve(&inst.graph, &inst.lists, options(7, 0)).expect("solve");
    let g = &inst.graph;
    assert_eq!(
        gate(
            g,
            &inst.lists,
            &reference.coloring,
            &reference.log,
            &reference
        ),
        Ok(())
    );

    // A node takes a neighbor's color: improper.
    let v = (0..g.n())
        .find(|&v| !g.neighbors(v as NodeId).is_empty())
        .expect("an edge");
    let mut clash = reference.coloring.clone();
    clash[v] = clash[g.neighbors(v as NodeId)[0] as usize];
    let err = gate(g, &inst.lists, &clash, &reference.log, &reference).unwrap_err();
    assert!(err.contains("improper"), "{err}");

    // A proper coloring that is not the reference's: a transcript mismatch.
    let other = d1lc::solve(g, &inst.lists, options(7, 1)).expect("solve");
    assert_ne!(other.coloring, reference.coloring);
    assert!(gate(g, &inst.lists, &other.coloring, &reference.log, &reference).is_err());

    // The reference coloring with another solve's pass log.
    let err = gate(g, &inst.lists, &reference.coloring, &other.log, &reference).unwrap_err();
    assert!(err.contains("pass log"), "{err}");
}
