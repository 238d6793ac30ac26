//! `query-n`: the New York preset at paper scale, saved as a 2-shard
//! snapshot and served over loopback to one closed-loop client. A QUERY
//! phase (the seeded [`QueryStream`]) is followed by a separate PROPOSE
//! phase (2 km window), so the two verbs never share a percentile.

use crate::common::{self, Budget, Fnv, Rng, Window};
use crate::report::{Checks, Outcome};
use crate::serving::{self, QueryStream, Served};
use crate::trace::Tracer;
use mc2ls_candgen::Proposal;
use mc2ls_core::algorithms::{solve_threaded, Selector};
use mc2ls_core::PruneStats;
use mc2ls_data::presets;
use mc2ls_serve::{Client, ProposeRequest, QueryAnswer, QueryEngine, Server, Snapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Shards of the saved snapshot.
const SHARDS: usize = 2;
/// Share of the run spent on QUERY; PROPOSE gets the rest.
const QUERY_SHARE: f64 = 0.76;
/// PROPOSE window side, km.
const WINDOW_KM: f64 = 2.0;
/// Deterministic counters are summed over this many leading queries; the
/// first window serves at least this many.
const COUNTER_PREFIX: usize = 256;
/// The traced phase pings the server once every this many queries.
const PING_EVERY: usize = 32;

fn propose_request(m: usize) -> ProposeRequest {
    ProposeRequest {
        window: WINDOW_KM,
        m,
        min_separation: None,
    }
}

/// Sites per PROPOSE: uniform in 10–50.
fn propose_m(rng: &mut Rng) -> usize {
    10 + rng.below(41)
}

fn proposal_digest(p: &Proposal) -> u64 {
    p.sites
        .iter()
        .fold(Fnv::default(), |h, s| {
            h.words([
                s.center.x.to_bits(),
                s.center.y.to_bits(),
                s.score,
                s.anchor,
            ])
        })
        .finish()
}

/// A running set-up: the server, its client and the snapshot bytes.
struct Deployment {
    server: Server,
    client: Client,
    bytes: Vec<u8>,
}

impl Deployment {
    fn stop(self) {
        serving::stop(self.server, self.client);
    }
}

/// Runs the workload.
pub fn run(seed: u64, budget: Budget, process_start: Instant) -> Outcome {
    let mut out = Outcome {
        workload: "query-n",
        aliases: [
            "query_p50_ms",
            "query_p90_ms",
            "query_qps",
            "propose_p50_ms",
            "propose_p90_ms",
        ],
        main_tail_p: 0.9,
        aux_tail_p: 0.9,
        ..Outcome::default()
    };
    let mut checks = Checks::default();
    let mut steps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    // Set-up: generate, build and encode the snapshot, load it, start the
    // server, first QUERY. Each repetition stops the previous deployment
    // before it starts.
    let mut kept: Option<(Deployment, QueryAnswer, mc2ls_core::Problem)> = None;
    for rep in 0..common::SETUP_REPS {
        if let Some((previous, _, _)) = kept.take() {
            previous.stop();
        }
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let t = Instant::now();
        let dataset = presets::new_york().generate();
        steps
            .entry("data.generate_ms")
            .or_default()
            .push(common::ms(t.elapsed()));
        let problem = common::problem(dataset);
        let (snapshot, _) =
            Snapshot::build_sharded("new_york", &problem, common::D_HAT, common::THREADS, SHARDS);
        let t = Instant::now();
        let bytes = snapshot.to_bytes();
        steps
            .entry("serve.encode_ms")
            .or_default()
            .push(common::ms(t.elapsed()));
        drop(snapshot);
        let t = Instant::now();
        let engine =
            QueryEngine::from_bytes(bytes.clone(), common::THREADS).expect("fresh snapshot loads");
        steps
            .entry("serve.view_load_ms")
            .or_default()
            .push(common::ms(t.elapsed()));
        let server =
            Server::start(serving::server_config(), engine).expect("server binds loopback");
        let mut client = Client::connect(&server.addr().to_string()).expect("client connects");
        let first = client.query(&serving::request(None, common::K));
        out.setup_s.push(start.elapsed().as_secs_f64());
        let deployment = Deployment {
            server,
            client,
            bytes,
        };
        match first {
            Ok(first) => kept = Some((deployment, first, problem)),
            Err(e) => {
                checks.fail(format!("query-n: first query failed: {e}"));
                deployment.stop();
            }
        }
    }
    let Some((mut dep, first, problem)) = kept else {
        out.checks = checks;
        return out;
    };
    eprintln!("query-n: set up in {:.3} s", common::median(&out.setup_s));
    // The first answer must also equal the direct pipeline.
    let direct =
        solve_threaded(&problem, common::method(), Selector::Auto, common::THREADS).solution;
    if common::solution_digest(&first.solution) != common::solution_digest(&direct) {
        checks.fail("query-n: first served answer differs from solve_threaded".into());
    }
    drop(problem);

    // An in-process engine over the same bytes: the traced samples' replica
    // and every check's reference.
    let local =
        QueryEngine::from_bytes(dep.bytes.clone(), common::THREADS).expect("snapshot loads");
    for req in serving::full_set_keys() {
        if let Err(e) = dep.client.query(&req) {
            checks.fail(format!("query-n: warm-up query failed: {e}"));
        }
    }

    // QUERY phase, in windows. In a traced run every other query is served
    // inside a span and a tracer window of its own. After each window,
    // untimed, every answer is checked against the in-process engine on
    // the same bytes, request by request (the stream is regenerated from
    // the seed; full-set answers are memoised by k). A traced query's
    // in-process answer is timed in a replica window: the server-side share
    // of its round trip.
    let mut tracer = budget.traced.then(Tracer::new);
    let mut stream = QueryStream::new(seed);
    let mut replay = QueryStream::new(seed);
    let mut full: BTreeMap<usize, Option<QueryAnswer>> = BTreeMap::new();
    // Per query of the window: what was served, and for a traced one its
    // request id and round trip.
    let mut batch: Vec<(Served, Option<(u64, Duration)>)> = Vec::new();
    let mut queries = 0usize;
    let mut traced_queries = 0usize;
    let mut scatter_events = 0u64;
    let mut answer_us = Vec::new();
    let mut transport_us = Vec::new();
    let mut critical_us = Vec::new();
    let mut ping_us = Vec::new();
    for _ in 0..common::windows_in(budget.phase(QUERY_SHARE)) {
        let mut window = Window::default();
        let start = Instant::now();
        while start.elapsed() < common::WINDOW || queries + batch.len() < COUNTER_PREFIX {
            let req = stream.next_request();
            match tracer
                .as_mut()
                .filter(|_| budget.traced_sample(queries + batch.len()))
            {
                Some(tr) => {
                    tr.open_window();
                    let id = tr.request();
                    let b = Instant::now();
                    let span = tr.begin("serve.query", id, None);
                    let answer = dep.client.query(&req);
                    tr.end(span);
                    let rtt = b.elapsed();
                    serving::charge_gather(tr, span, answer.as_ref().ok());
                    batch.push((Served::of(&answer), Some((id, rtt))));
                    traced_queries += 1;
                    if traced_queries.is_multiple_of(PING_EVERY) {
                        let b = Instant::now();
                        let pong = tr.time("serve.ping", id, None, || dep.client.ping());
                        ping_us.push(common::us(b.elapsed()));
                        if let Err(e) = pong {
                            checks.fail(format!("query-n: ping failed: {e}"));
                        }
                    }
                    tr.close_window();
                    out.traced_main_ms.push(common::ms(rtt));
                }
                None => {
                    let t = Instant::now();
                    let answer = dep.client.query(&req);
                    window.ms.push(common::ms(t.elapsed()));
                    batch.push((Served::of(&answer), None));
                }
            }
        }
        window.secs = start.elapsed().as_secs_f64();
        window.ops = batch.len();
        window.ms.shrink_to_fit();
        out.main.push(window);

        if let Some(tr) = tracer.as_mut() {
            tr.open_replica();
        }
        for (s, traced) in batch.drain(..) {
            let req = replay.next_request();
            let expected = match (tracer.as_mut(), traced) {
                (Some(tr), Some((id, rtt))) => {
                    let b = Instant::now();
                    let span = tr.begin("serve.answer", id, None);
                    let answer = local.answer(&req);
                    tr.end(span);
                    let inproc = b.elapsed();
                    serving::charge_gather(tr, span, answer.as_ref().ok());
                    answer_us.push(common::us(inproc));
                    if s.digest.is_some() && !s.cached {
                        transport_us.push(common::us(rtt) - common::us(inproc));
                        critical_us.push(s.critical_ns as f64 / 1e3);
                    }
                    answer.ok()
                }
                _ => match req.candidates {
                    None => full
                        .entry(req.k)
                        .or_insert_with(|| local.answer(&req).ok())
                        .clone(),
                    Some(_) => local.answer(&req).ok(),
                },
            };
            if queries < COUNTER_PREFIX {
                scatter_events += expected.as_ref().map_or(0, |e| e.gather.scatter_events);
            }
            queries += 1;
            let ok = match (&s.digest, &expected) {
                (Some(d), Some(e)) => {
                    *d == serving::answer_digest(e) && e.prune == PruneStats::default()
                }
                _ => false,
            };
            checks.check(ok, || {
                format!("query-n: answer to {req:?} differs from in-process")
            });
        }
        if let Some(tr) = tracer.as_mut() {
            tr.close_window();
        }
    }

    // PROPOSE phase, in windows, alternating the same way. The first
    // PROPOSE decodes the snapshot's position blocks once per epoch; it is
    // issued untimed, like the cache warm-up. Each proposal is checked
    // against the in-process engine after its window (memoised by m); a
    // traced one's in-process proposal is timed in a replica window.
    let mut rng = Rng::new(common::derive(seed, 4));
    if let Err(e) = dep.client.propose(&propose_request(propose_m(&mut rng))) {
        checks.fail(format!("query-n: warm-up PROPOSE failed: {e}"));
    }
    let mut memo: BTreeMap<usize, Option<u64>> = BTreeMap::new();
    // Per proposal of the window: m, the served digest, and for a traced
    // one its request id.
    let mut proposals: Vec<(usize, Option<u64>, Option<u64>)> = Vec::new();
    let mut proposed = 0usize;
    let mut propose_ms = Vec::new();
    for _ in 0..common::windows_in(budget.phase(1.0 - QUERY_SHARE)) {
        let mut window = Window::default();
        let start = Instant::now();
        while start.elapsed() < common::WINDOW {
            let m = propose_m(&mut rng);
            let traced = proposed + proposals.len();
            let (p, id) = match tracer.as_mut().filter(|_| budget.traced_sample(traced)) {
                Some(tr) => {
                    tr.open_window();
                    let id = tr.request();
                    let p = tr.time("serve.propose", id, None, || {
                        dep.client.propose(&propose_request(m))
                    });
                    tr.close_window();
                    (p, Some(id))
                }
                None => {
                    let t = Instant::now();
                    let p = dep.client.propose(&propose_request(m));
                    window.ms.push(common::ms(t.elapsed()));
                    (p, None)
                }
            };
            proposals.push((m, p.ok().as_ref().map(proposal_digest), id));
        }
        window.secs = start.elapsed().as_secs_f64();
        window.ops = proposals.len();
        out.aux.push(window);

        if let Some(tr) = tracer.as_mut() {
            tr.open_replica();
        }
        for (m, digest, id) in proposals.drain(..) {
            let expected = match (tracer.as_mut(), id) {
                (Some(tr), Some(id)) => {
                    let b = Instant::now();
                    let p = tr.time("candgen.propose", id, None, || {
                        local.propose(&propose_request(m))
                    });
                    propose_ms.push(common::ms(b.elapsed()));
                    p.ok().as_ref().map(proposal_digest)
                }
                _ => *memo.entry(m).or_insert_with(|| {
                    local
                        .propose(&propose_request(m))
                        .ok()
                        .as_ref()
                        .map(proposal_digest)
                }),
            };
            proposed += 1;
            checks.check(digest.is_some() && digest == expected, || {
                format!("query-n: proposal m = {m} differs from in-process")
            });
        }
        if let Some(tr) = tracer.as_mut() {
            tr.close_window();
        }
    }
    let stats = dep.client.stats();
    dep.stop();

    let (hits, misses) = match &stats {
        Ok(s) => (s.cache_hits, s.cache_misses),
        Err(e) => {
            checks.fail(format!("query-n: STATS failed: {e}"));
            (0, 0)
        }
    };
    let hit_frac = hits as f64 / (hits + misses).max(1) as f64;
    if budget.traced {
        for (k, v) in &steps {
            out.layer.insert(k, common::median(v));
        }
        out.layer.extend([
            ("serve.snapshot_bytes", local.snapshot_bytes().len() as f64),
            ("serve.answer_p50_us", common::percentile(&answer_us, 0.5)),
            ("serve.answer_p99_us", common::percentile(&answer_us, 0.99)),
            ("serve.transport_p50_us", common::median(&transport_us)),
            ("serve.ping_p50_us", common::median(&ping_us)),
            ("serve.cache_hit_frac", hit_frac),
            ("core.gather_critical_us", common::median(&critical_us)),
            ("core.scatter_events", scatter_events as f64),
            ("candgen.propose_ms", common::median(&propose_ms)),
        ]);
    }
    out.context.push(("queries", queries.to_string()));
    out.context.push(("proposes", proposed.to_string()));
    out.context
        .push(("cache_hit_frac", format!("{hit_frac:.4}")));
    out.checks = checks;
    out.tracer = tracer;
    out
}
