//! A traced re-drive of `d1lc::solve`, built only from public layer calls.
//!
//! It follows `solve`'s phase and ladder order call for call, so its
//! `PassLog` and coloring must equal `solve`'s — the benchmark checks
//! that on every traced solve. Each layer call is wrapped in a span; the
//! phase spans (the direct children of `solve`) cover the solve's wall
//! time except for the few loops between them.

use crate::trace::Tracer;
use congest::{PassLog, SimConfig, SimError};
use d1lc::acd::compute_acd;
use d1lc::dense::color_dense;
use d1lc::passes::CodecSetupPass;
use d1lc::pipeline::initial_states;
use d1lc::shattering::cleanup;
use d1lc::sparse::color_sparse;
use d1lc::{Driver, NodeState, SolveOptions};
use graphs::palette::ListAssignment;
use graphs::{Color, Graph, NodeId};
use prand::mix::mix2;

/// Output of one traced re-drive.
pub struct Redrive {
    /// Final coloring, after the central repair sweep.
    pub coloring: Vec<Color>,
    /// Every engine pass, as `solve` would log it.
    pub log: PassLog,
    /// Nodes the distributed pipeline left for central repair.
    pub repairs: usize,
    /// Id of the root `solve` span.
    pub root: usize,
}

/// Run `body` inside a span named `name`, attributing the passes the
/// driver logs meanwhile.
macro_rules! span {
    ($tracer:expr, $driver:expr, $name:literal, $unit:expr, $body:expr) => {{
        let id = $tracer.enter($name, $unit, $driver.log.passes().len());
        let out = $body;
        $tracer.exit(id, $driver.log.passes().len());
        out
    }};
}

/// Solve `g` with `lists` exactly as `d1lc::solve(g, lists, *opts)` does,
/// recording one span per layer call under a root span for `unit`.
///
/// # Errors
///
/// Engine errors, as `solve` returns them.
///
/// # Panics
///
/// Panics on options `solve` treats differently from the default
/// pipeline (uniform ACD, an active fault plan), which the benchmark
/// never uses.
pub fn traced_solve(
    g: &Graph,
    lists: &ListAssignment,
    opts: &SolveOptions,
    tracer: &mut Tracer,
    unit: u64,
) -> Result<Redrive, SimError> {
    assert!(!opts.uniform_acd && !opts.sim.fault.is_active());
    let root = tracer.enter("solve", unit, 0);
    let profile = opts.profile;

    let init = tracer.enter("driver.init", unit, 0);
    let sim = SimConfig {
        seed: opts.seed,
        ..opts.sim
    };
    let mut driver = Driver::new(g, sim);
    let mut states = initial_states(g, lists, &profile, opts.seed);
    tracer.exit(init, 0);

    driver.begin_phase("setup");
    states = span!(
        tracer,
        driver,
        "driver.codec",
        unit,
        driver.run_pass("codec-setup", states, CodecSetupPass::new)?
    );

    let delta = g.max_degree();
    let ladder = profile.degree_ladder(delta);
    let floor = profile.degree_threshold_floor;
    let mut phases = 0usize;
    for (i, &hi) in ladder.iter().enumerate() {
        let lo = ladder.get(i + 1).copied().unwrap_or(floor);
        if lo >= hi {
            continue;
        }
        let in_range = |st: &NodeState| {
            let d = g.degree(st.id);
            d > lo && d <= hi && st.uncolored()
        };
        if !states.iter().any(in_range) {
            continue;
        }
        let range = tracer.enter("range", unit, driver.log.passes().len());
        phases += 1;
        driver.begin_phase(format!("range-{phases}"));
        for st in &mut states {
            st.reset_phase();
        }
        states = span!(
            tracer,
            driver,
            "driver.activate",
            unit,
            driver.activate(states, in_range)?
        );
        let phase_seed = mix2(opts.seed, phases as u64);
        states = span!(
            tracer,
            driver,
            "acd",
            unit,
            compute_acd(&mut driver, states, &profile, phase_seed)?
        );
        states = span!(
            tracer,
            driver,
            "sparse",
            unit,
            color_sparse(&mut driver, states, &profile, phase_seed)?
        );
        states = span!(
            tracer,
            driver,
            "dense",
            unit,
            color_dense(&mut driver, states, &profile, phase_seed, hi)?
        );
        tracer.exit(range, driver.log.passes().len());
    }

    let fallback = tracer.enter("fallback", unit, driver.log.passes().len());
    driver.begin_phase("fallback");
    states = span!(
        tracer,
        driver,
        "driver.activate",
        unit,
        driver.activate(states, |st| st.uncolored())?
    );
    for _ in 0..profile.fallback_trials {
        if Driver::uncolored_count(&states) == 0 {
            break;
        }
        states = span!(
            tracer,
            driver,
            "fallback.try_color",
            unit,
            driver.try_color(states, "fallback")?
        );
    }
    tracer.exit(fallback, driver.log.passes().len());

    if Driver::uncolored_count(&states) > 0 {
        driver.begin_phase("cleanup");
        states = span!(
            tracer,
            driver,
            "cleanup",
            unit,
            cleanup(&mut driver, states)?
        );
    }

    let passes = driver.log.passes().len();
    let finish = tracer.enter("driver.finish", unit, passes);
    let log = std::mem::take(&mut driver.log);
    drop(driver);
    let (coloring, repairs) = repair(g, lists, &states);
    drop(states);
    tracer.exit(finish, passes);
    tracer.exit(root, passes);
    Ok(Redrive {
        coloring,
        log,
        repairs,
        root,
    })
}

/// `solve`'s central repair sweep: every node the distributed phases left
/// uncolored takes the first list color no colored neighbor holds.
fn repair(g: &Graph, lists: &ListAssignment, states: &[NodeState]) -> (Vec<Color>, usize) {
    let mut coloring: Vec<Option<Color>> = states.iter().map(|s| s.color).collect();
    let mut repairs = 0;
    let mut taken: Vec<Color> = Vec::new();
    for v in 0..g.n() {
        if coloring[v].is_some() {
            continue;
        }
        taken.clear();
        taken.extend(
            g.neighbors(v as NodeId)
                .iter()
                .filter_map(|&u| coloring[u as usize]),
        );
        taken.sort_unstable();
        let free = lists
            .list(v as NodeId)
            .iter()
            .copied()
            .find(|c| taken.binary_search(c).is_err())
            .expect("a (deg+1)-list always has a free color");
        coloring[v] = Some(free);
        repairs += 1;
    }
    let coloring = coloring
        .into_iter()
        .map(|c| c.expect("filled above"))
        .collect();
    (coloring, repairs)
}
