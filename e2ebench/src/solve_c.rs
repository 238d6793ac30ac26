//! `solve-c`: the paper's pipeline on the California preset at paper scale
//! (10,162 users, ≈381k positions), |C| = 100, |F| = 200, k = 10, τ = 0.7,
//! IQT at d̂ = 2 km. It runs `solve_threaded` back to back, from a built
//! `Problem` to a `RunReport`. The secondary figure is each solve's own
//! indexing phase (`RunReport::times`), so no second verb sits between
//! solves. The instance takes nothing from the seed.

use crate::common::{self, Budget, Window};
use crate::report::{Checks, Outcome};
use crate::trace::Tracer;
use mc2ls_core::algorithms::{influence_sets_threaded, run_selector_model, solve_threaded};
use mc2ls_core::{Problem, PruneStats, RunReport, SelectionStats, Solution};
use mc2ls_data::presets;
use mc2ls_geo::Point;
use mc2ls_index::{IQuadTree, RTree};
use mc2ls_influence::{resolve_block_size, BlockOrdering, PositionBlocks, Sigmoid};
use std::time::Instant;

/// The parts of a `RunReport` that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    selected: Vec<u32>,
    gains: Vec<u64>,
    cinf: u64,
    prune: PruneStats,
    selection: SelectionStats,
}

impl Digest {
    fn of(solution: &Solution, prune: &PruneStats, selection: &SelectionStats) -> Digest {
        Digest {
            selected: solution.selected.clone(),
            gains: solution
                .marginal_gains
                .iter()
                .map(|g| g.to_bits())
                .collect(),
            cinf: solution.cinf.to_bits(),
            prune: *prune,
            selection: *selection,
        }
    }

    fn of_report(r: &RunReport) -> Digest {
        Digest::of(&r.solution, &r.stats, &r.selection)
    }
}

fn solve(problem: &Problem<Sigmoid>) -> RunReport {
    solve_threaded(
        problem,
        common::method(),
        common::SOLVE_SELECTOR,
        common::THREADS,
    )
}

/// Runs the workload.
pub fn run(_seed: u64, budget: Budget, process_start: Instant) -> Outcome {
    let mut out = Outcome {
        workload: "solve-c",
        aliases: [
            "solve_p50_ms",
            "solve_p75_ms",
            "solves_per_s",
            "index_p50_ms",
            "index_p75_ms",
        ],
        main_tail_p: 0.75,
        aux_tail_p: 0.75,
        ..Outcome::default()
    };
    let mut checks = Checks::default();

    // Set-up: generate, sample sites, build the problem, first solve. Each
    // repetition frees the previous problem before it starts.
    let mut generate_ms = Vec::new();
    let mut problem = None;
    let mut reference: Option<Digest> = None;
    for rep in 0..common::SETUP_REPS {
        drop(problem.take());
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let t = Instant::now();
        let dataset = presets::california().generate();
        generate_ms.push(common::ms(t.elapsed()));
        let built = common::problem(dataset);
        let digest = Digest::of_report(&solve(&built));
        out.setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            Some(r) => checks.check(*r == digest, || {
                "solve-c: set-up repetitions disagree".into()
            }),
            None => reference = Some(digest),
        }
        problem = Some(built);
    }
    let (Some(problem), Some(reference)) = (problem, reference) else {
        unreachable!("SETUP_REPS > 0");
    };
    eprintln!("solve-c: set up in {:.3} s", common::median(&out.setup_s));

    // Solves back to back, in windows. A traced solve calls the two halves
    // of `solve_threaded` itself and charges the indexing phase the
    // influence call reports to `index`. After each window, untimed, every
    // solve is checked against the set-up reference and each traced one's
    // three indexing builds are called on their own in a replica window.
    let mut tracer = budget.traced.then(Tracer::new);
    let mut traverse_verify_ms = Vec::new();
    let mut solves = 0usize;
    let mut digests = Vec::new();
    let mut traced_reqs = Vec::new();
    for _ in 0..common::windows_in(budget.phase(1.0)) {
        let mut window = Window::default();
        let mut indexing = Window::default();
        let start = Instant::now();
        while start.elapsed() < common::WINDOW {
            match tracer
                .as_mut()
                .filter(|_| budget.traced_sample(solves + digests.len()))
            {
                Some(tr) => {
                    tr.open_window();
                    let req = tr.request();
                    let t = Instant::now();
                    let root = tr.begin("core.solve", req, None);
                    let call = tr.begin("core.influence_sets_threaded", req, Some(root));
                    let (sets, prune, times) =
                        influence_sets_threaded(&problem, common::method(), common::THREADS);
                    tr.end(call);
                    tr.charge(call, "index.indexing", times.indexing);
                    let (solution, selection) =
                        tr.time("core.run_selector_model", req, Some(root), || {
                            run_selector_model(
                                common::SOLVE_SELECTOR,
                                &sets,
                                problem.k,
                                common::THREADS,
                                &problem.model,
                            )
                        });
                    tr.end(root);
                    out.traced_main_ms.push(common::ms(t.elapsed()));
                    tr.close_window();
                    traverse_verify_ms.push(common::ms(times.pruning + times.verification));
                    digests.push(Digest::of(&solution, &prune, &selection));
                    traced_reqs.push(req);
                }
                None => {
                    let t = Instant::now();
                    let report = solve(&problem);
                    window.ms.push(common::ms(t.elapsed()));
                    indexing.ms.push(common::ms(report.times.indexing));
                    digests.push(Digest::of_report(&report));
                }
            }
        }
        window.secs = start.elapsed().as_secs_f64();
        window.ops = digests.len();
        indexing.secs = window.secs;
        indexing.ops = window.ops;
        out.main.push(window);
        out.aux.push(indexing);

        for d in digests.drain(..) {
            checks.check(d == reference, || {
                format!("solve-c: solve {solves} differs from the set-up reference")
            });
            solves += 1;
        }
        if let Some(tr) = tracer.as_mut().filter(|_| !traced_reqs.is_empty()) {
            tr.open_replica();
            for req in traced_reqs.drain(..) {
                tr.time("index.iqt_build", req, None, || {
                    IQuadTree::build(&problem.users, &problem.pf, problem.tau, common::D_HAT)
                });
                tr.time("index.rtree_build", req, None, || {
                    rtrees(&problem.candidates, &problem.facilities)
                });
                tr.time("influence.blocks_build", req, None, || {
                    resolve_block_size(&problem.users, problem.block_size).map(|bs| {
                        PositionBlocks::build_ordered(&problem.users, bs, BlockOrdering::default())
                    })
                });
            }
            tr.close_window();
        }
    }

    if let Some(tr) = &tracer {
        let ms_of = |name| common::median(&tr.durations(name)) / 1e6;
        out.layer.extend([
            ("data.generate_ms", common::median(&generate_ms)),
            ("index.iqt_build_ms", ms_of("index.iqt_build")),
            ("index.rtree_build_ms", ms_of("index.rtree_build")),
            ("influence.blocks_build_ms", ms_of("influence.blocks_build")),
            ("core.influence_ms", ms_of("core.influence_sets_threaded")),
            (
                "core.traverse_verify_ms",
                common::median(&traverse_verify_ms),
            ),
            ("core.select_ms", ms_of("core.run_selector_model")),
        ]);
        let p = &reference.prune;
        out.layer.extend([
            ("core.prob_evals", p.prob_evals as f64),
            ("core.blocks_opened", p.blocks_opened as f64),
            ("core.pf_fallbacks", p.pf_fallbacks as f64),
            ("core.pruned_frac", p.pruned_fraction()),
            ("core.gain_evals", reference.selection.gain_evals as f64),
        ]);
    }
    out.context.push(("solves", solves.to_string()));
    out.checks = checks;
    out.tracer = tracer;
    out
}

/// The R-trees over C and F that the IQT pipeline's NIB step bulk-loads.
fn rtrees(candidates: &[Point], facilities: &[Point]) -> (RTree, RTree) {
    let n_c = candidates.len() as u32;
    let rt_c = RTree::bulk_load(
        candidates
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, *p))
            .collect(),
    );
    let rt_f = RTree::bulk_load(
        facilities
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32 + n_c, *p))
            .collect(),
    );
    (rt_c, rt_f)
}
