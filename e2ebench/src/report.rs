//! The metric catalogue, the per-run outcome and its output: a readable
//! table on stdout, a context line, and — last — the one-line JSON result.

use crate::common::{self, Window};
use crate::trace::{Tracer, LAYERS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload (`--trace 0`). The
/// `main_*` slots hold each workload's headline verb and the `aux_*` slots
/// its secondary figure; [`Outcome::aliases`] gives their per-workload
/// names.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("main_per_s", "1/s"),
    ("aux_p50_ms", "ms"),
    ("aux_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload (`--trace 1`). A layer a
/// workload never calls in its timed phases reports 0 — the predicted
/// no-change cells of README.md's table.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("data.generate_ms", "ms"),
    ("index.iqt_build_ms", "ms"),
    ("index.rtree_build_ms", "ms"),
    ("influence.blocks_build_ms", "ms"),
    ("core.influence_ms", "ms"),
    ("core.traverse_verify_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.prob_evals", "count"),
    ("core.blocks_opened", "count"),
    ("core.pf_fallbacks", "count"),
    ("core.pruned_frac", "ratio"),
    ("core.gain_evals", "count"),
    ("serve.encode_ms", "ms"),
    ("serve.view_load_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.answer_p50_us", "us"),
    ("serve.answer_p99_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.ping_p50_us", "us"),
    ("serve.cache_hit_frac", "ratio"),
    ("core.gather_critical_us", "us"),
    ("core.scatter_events", "count"),
    ("candgen.propose_ms", "ms"),
    ("serve.apply_batch_ms", "ms"),
    ("core.update_apply_us", "us"),
    ("core.compact_ms", "ms"),
    ("core.update_flipped", "count"),
    ("core.update_prob_evals", "count"),
    ("serve.assemble_ms", "ms"),
    ("serve.engine_new_ms", "ms"),
    ("serve.first_answer_us", "us"),
    ("self.data_pct", "%"),
    ("self.index_pct", "%"),
    ("self.influence_pct", "%"),
    ("self.core_pct", "%"),
    ("self.serve_pct", "%"),
    ("self.candgen_pct", "%"),
    ("trace.other_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The self-time share metric of each entry of [`LAYERS`].
const SELF_PCT: [&str; LAYERS.len()] = [
    "self.data_pct",
    "self.index_pct",
    "self.influence_pct",
    "self.core_pct",
    "self.serve_pct",
    "self.candgen_pct",
];

/// Counts checked operations; any failure fails the run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Timed operations issued.
    pub attempted: u64,
    /// Timed operations that errored or whose answer did not check out.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one checked operation's verdict: a timed request, or an
    /// untimed step such as set-up or the final-epoch comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                let what = what();
                eprintln!("check failed: {what}");
                self.first_failure = Some(what);
            }
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }
}

/// Everything a workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Per-workload names of the `main_p50_ms`, `main_tail_ms`,
    /// `main_per_s`, `aux_p50_ms`, `aux_tail_ms` slots.
    pub aliases: [&'static str; 5],
    /// Verdicts of every timed operation.
    pub checks: Checks,
    /// `setup_s` samples, one per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The headline verb's windows (in a traced run, their latencies are
    /// the untraced samples between the traced ones).
    pub main: Vec<Window>,
    /// Tail percentile of the headline verb (0.75 or 0.9).
    pub main_tail_p: f64,
    /// The secondary figure's windows.
    pub aux: Vec<Window>,
    /// Tail percentile of the secondary latencies (0.75 or 0.9).
    pub aux_tail_p: f64,
    /// Traced headline-verb latencies, ms (trace mode only), taken
    /// alternately with the untraced ones.
    pub traced_main_ms: Vec<f64>,
    /// Per-layer values measured by the workload (trace mode only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Run context: mix shares and sample counts, not metrics.
    pub context: Vec<(&'static str, String)>,
    /// The spans (trace mode only).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let c = &self.checks;
        let ok_frac = if c.attempted == 0 {
            0.0
        } else {
            (c.attempted - c.failed) as f64 / c.attempted as f64
        };
        let p = common::percentile;
        let (main, aux) = (common::steady(&self.main), common::steady(&self.aux));
        BTreeMap::from([
            ("setup_s", common::median(&self.setup_s)),
            ("peak_rss_mb", common::peak_rss_mb()),
            ("ok_frac", ok_frac),
            ("main_p50_ms", p(&main.ms, 0.5)),
            ("main_tail_ms", p(&main.ms, self.main_tail_p)),
            ("main_per_s", main.per_s),
            ("aux_p50_ms", p(&aux.ms, 0.5)),
            ("aux_tail_ms", p(&aux.ms, self.aux_tail_p)),
        ])
    }

    /// How the windows were kept, for the context line: windows kept of
    /// all, and the fastest window's rate over the slowest's.
    pub fn window_context(&self) -> Vec<(&'static str, String)> {
        let (main, aux) = (common::steady(&self.main), common::steady(&self.aux));
        vec![
            (
                "main_windows",
                format!("\"{}/{}\"", main.kept, self.main.len()),
            ),
            ("main_rate_spread", format!("{:.3}", main.rate_spread)),
            (
                "aux_windows",
                format!("\"{}/{}\"", aux.kept, self.aux.len()),
            ),
            ("aux_rate_spread", format!("{:.3}", aux.rate_spread)),
        ]
    }

    /// The per-layer metrics: the workload's own values, the trace
    /// accounting, and 0 for every layer metric the workload never drives.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        for (&k, &v) in &self.layer {
            out.insert(k, v);
        }
        if let Some(tracer) = &self.tracer {
            let acc = tracer.accounting();
            let wall = acc.wall_ns.max(1) as f64;
            for (key, ns) in SELF_PCT.iter().zip(acc.layer_self_ns) {
                out.insert(key, ns as f64 / wall * 100.0);
            }
            out.insert("trace.other_pct", acc.other_ns as f64 / wall * 100.0);
        }
        let untraced: Vec<f64> = self
            .main
            .iter()
            .flat_map(|w| w.ms.iter().copied())
            .collect();
        let untraced = common::median(&untraced);
        let traced = common::median(&self.traced_main_ms);
        if untraced > 0.0 && traced > 0.0 {
            out.insert("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        }
        out
    }
}

/// The `metrics` object of the result line.
pub fn metrics_json(values: &BTreeMap<&'static str, f64>, order: &[(&str, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in order.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

/// Prints the readable table, the context line and the result line.
/// Returns whether every check passed.
pub fn print(
    outcome: &Outcome,
    seed: u64,
    traced: bool,
    context: &[(&'static str, String)],
) -> bool {
    let e2e = outcome.end_to_end();
    println!(
        "workload {}  seed {seed}  trace {}",
        outcome.workload,
        u8::from(traced)
    );
    println!(
        "end-to-end{}:",
        if traced {
            " (untraced samples: every other one)"
        } else {
            ""
        }
    );
    let alias = |name: &'static str| -> &'static str {
        let slots = [
            "main_p50_ms",
            "main_tail_ms",
            "main_per_s",
            "aux_p50_ms",
            "aux_tail_ms",
        ];
        slots
            .iter()
            .position(|s| *s == name)
            .map_or(name, |i| outcome.aliases[i])
    };
    for (name, unit) in END_TO_END {
        println!("  {name:<14} {:>14.4} {unit:<6} {}", e2e[name], alias(name));
    }
    let layer = outcome.per_layer();
    if traced {
        println!("per-layer (traced samples and their replicas):");
        for (name, unit) in PER_LAYER {
            println!("  {name:<26} {:>14.4} {unit}", layer[name]);
        }
    }
    let ctx: Vec<String> = context
        .iter()
        .chain(outcome.context.iter())
        .chain(outcome.window_context().iter())
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("context {{{}}}", ctx.join(", "));
    let correct = outcome.checks.failed == 0 && outcome.checks.attempted > 0;
    let metrics = if traced {
        metrics_json(&layer, &PER_LAYER)
    } else {
        metrics_json(&e2e, &END_TO_END)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.checks.attempted, outcome.checks.failed
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside e2ebench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let entries = json.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }
}
