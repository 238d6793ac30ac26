//! Deterministic counters must repeat exactly across runs of one seed: a
//! counter that drifts is a benchmark bug, not noise. Run with
//! `cargo test --release` — each test runs a workload twice at paper scale.

use mc2ls_e2ebench::common::Budget;
use mc2ls_e2ebench::report::Outcome;
use mc2ls_e2ebench::{live_n, query_n, solve_c};
use std::time::Instant;

/// Every per-layer metric that is a count (or a ratio of counts).
const COUNTERS: [&str; 9] = [
    "core.prob_evals",
    "core.blocks_opened",
    "core.pf_fallbacks",
    "core.pruned_frac",
    "core.gain_evals",
    "core.scatter_events",
    "core.update_flipped",
    "core.update_prob_evals",
    "serve.snapshot_bytes",
];

fn counters(run: fn(u64, Budget, Instant) -> Outcome, seed: u64) -> Vec<(&'static str, f64)> {
    let budget = Budget {
        seconds: 2.0,
        traced: true,
    };
    let out = run(seed, budget, Instant::now());
    assert_eq!(out.checks.failed, 0, "{:?}", out.checks.first_failure);
    let layer = out.per_layer();
    COUNTERS.iter().map(|&c| (c, layer[c])).collect()
}

fn assert_repeats(run: fn(u64, Budget, Instant) -> Outcome, nonzero: &[&str]) {
    let first = counters(run, 17);
    assert_eq!(
        first,
        counters(run, 17),
        "counters drifted between runs of one seed"
    );
    for name in nonzero {
        let v = first.iter().find(|(c, _)| c == name).map(|(_, v)| *v);
        assert!(
            v.is_some_and(|v| v > 0.0),
            "{name} should be driven, got {v:?}"
        );
    }
}

#[test]
fn solve_c_counters_repeat() {
    assert_repeats(
        solve_c::run,
        &[
            "core.prob_evals",
            "core.blocks_opened",
            "core.pruned_frac",
            "core.gain_evals",
        ],
    );
}

#[test]
fn query_n_counters_repeat() {
    assert_repeats(
        query_n::run,
        &["core.scatter_events", "serve.snapshot_bytes"],
    );
}

#[test]
fn live_n_counters_repeat() {
    assert_repeats(
        live_n::run,
        &[
            "core.scatter_events",
            "core.update_flipped",
            "core.update_prob_evals",
            "serve.snapshot_bytes",
        ],
    );
}
