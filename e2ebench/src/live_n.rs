//! `live-n`: the New York instance served live with one shard. The client
//! alternates one UPDATE of 100 seeded events with four QUERY requests
//! from the `query-n` stream, so writes and reads share the serve layer.
//!
//! The events are check-ins near a live user's preset positions, plus
//! three deletes per batch, each followed by an insert that brings the
//! deleted user back. A check-in appends a visit and drops the oldest one
//! (sent as `move`), so the instance stays the preset's however long the
//! run lasts and the per-batch cost stays put.

use crate::common::{self, Budget, Rng, Window};
use crate::report::{Checks, Outcome};
use crate::serving::{self, QueryStream, Served};
use crate::trace::Tracer;
use mc2ls_core::algorithms::{influence_sets_threaded, solve_threaded, Selector};
use mc2ls_core::{Problem, PruneStats, UpdateEngine, UserUpdate};
use mc2ls_data::presets;
use mc2ls_geo::Point;
use mc2ls_influence::Sigmoid;
use mc2ls_serve::{
    Client, LiveUpdater, QueryEngine, Server, Snapshot, SnapshotMeta, UpdateReport, WireEvent,
};
use std::time::{Duration, Instant};

/// Events per UPDATE.
const BATCH: usize = 100;
/// QUERY requests after each UPDATE.
const QUERIES_PER_UPDATE: usize = 4;
/// Within each run of 33 events, the one at this offset deletes a user…
const DELETE_AT: usize = 10;
/// …and the one at this offset inserts that user again: three of each
/// per batch.
const INSERT_AT: usize = 20;
/// Check-in jitter around one of the user's preset positions, km.
const JITTER_KM: f64 = 0.5;
/// Deterministic counters are summed over this many leading cycles; the
/// untraced phase serves at least this many.
const COUNTER_CYCLES: usize = 8;
/// The traced phase pings the server once every this many cycles.
const PING_EVERY: usize = 8;

/// The client's model of the live population: by current dense user id,
/// the preset user it is and its trajectory now. After each batch the
/// server compacts, renumbering live users densely in id order with the
/// batch's inserts last — the model does the same, so it always addresses
/// the ids the server holds.
///
/// Every visit a check-in adds lies near one of the user's preset
/// positions, and every user a batch deletes it inserts again, so the
/// instance stays the preset's in distribution however long a run lasts.
#[derive(Debug, Clone)]
struct Population {
    users: Vec<(usize, Vec<Point>)>,
    home: Vec<Vec<Point>>,
    rng: Rng,
}

fn wire(op: &str, user: usize, positions: &[Point]) -> WireEvent {
    WireEvent {
        op: op.to_string(),
        user: user as u32,
        xs: positions.iter().map(|p| p.x).collect(),
        ys: positions.iter().map(|p| p.y).collect(),
    }
}

impl Population {
    fn new(problem: &Problem<Sigmoid>, seed: u64) -> Population {
        let home: Vec<Vec<Point>> = problem
            .users
            .iter()
            .map(|u| u.positions().to_vec())
            .collect();
        Population {
            users: home.iter().cloned().enumerate().collect(),
            home,
            rng: Rng::new(common::derive(seed, 5)),
        }
    }

    fn pick_alive(&mut self, alive: &[bool]) -> usize {
        loop {
            let u = self.rng.below(alive.len());
            if alive[u] {
                return u;
            }
        }
    }

    fn next_batch(&mut self) -> Vec<WireEvent> {
        let mut alive = vec![true; self.users.len()];
        let mut left = None;
        let mut inserted = Vec::new();
        let mut events = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            match i % 33 {
                DELETE_AT => {
                    let u = self.pick_alive(&alive);
                    alive[u] = false;
                    left = Some(self.users[u].0);
                    events.push(wire("delete", u, &[]));
                }
                INSERT_AT => {
                    let who = left
                        .take()
                        .expect("DELETE_AT < INSERT_AT: a user left this block");
                    let trajectory = self.home[who].clone();
                    events.push(wire("insert", 0, &trajectory));
                    inserted.push((who, trajectory));
                }
                _ => {
                    let u = self.pick_alive(&alive);
                    let who = self.users[u].0;
                    let anchor = self.home[who][self.rng.below(self.home[who].len())];
                    let visit = Point::new(
                        anchor.x + self.rng.signed_unit() * JITTER_KM,
                        anchor.y + self.rng.signed_unit() * JITTER_KM,
                    );
                    let trajectory = &mut self.users[u].1;
                    trajectory.remove(0);
                    trajectory.push(visit);
                    events.push(wire("move", u, trajectory));
                }
            }
        }
        let mut next: Vec<(usize, Vec<Point>)> = std::mem::take(&mut self.users)
            .into_iter()
            .zip(alive)
            .filter_map(|(t, a)| a.then_some(t))
            .collect();
        next.extend(inserted);
        self.users = next;
        events
    }
}

/// The engine-level form of a wire event (mirrors the server's decode).
fn decode(ev: &WireEvent) -> UserUpdate {
    let positions = || {
        ev.xs
            .iter()
            .zip(&ev.ys)
            .map(|(&x, &y)| Point::new(x, y))
            .collect()
    };
    match ev.op.as_str() {
        "insert" => UserUpdate::Insert {
            positions: positions(),
        },
        "delete" => UserUpdate::Delete { user: ev.user },
        _ => UserUpdate::Move {
            user: ev.user,
            positions: positions(),
        },
    }
}

fn same_report(a: &UpdateReport, b: &UpdateReport) -> bool {
    a.applied == b.applied
        && a.flipped == b.flipped
        && a.prob_evals == b.prob_evals
        && a.compactions == b.compactions
        && a.touched_shards == b.touched_shards
        && a.next_user_id == b.next_user_id
        && a.n_users == b.n_users
}

/// What the client keeps of one served cycle.
struct Cycle {
    /// Request id shared by the cycle's spans (0 when untraced).
    id: u64,
    update: Option<UpdateReport>,
    /// Per query: what was served, and the round trip.
    queries: Vec<(Served, Duration)>,
}

/// Serves one cycle: an UPDATE, then the queries; returns it with the
/// UPDATE's round trip.
fn serve_cycle(
    client: &mut Client,
    pop: &mut Population,
    stream: &mut QueryStream,
    mut tr: Option<&mut Tracer>,
) -> (Cycle, Duration) {
    let id = tr.as_mut().map_or(0, |t| t.request());
    let batch = pop.next_batch();
    let t = Instant::now();
    let s = tr.as_mut().map(|t| t.begin("serve.update", id, None));
    let update = client.update(&batch).ok();
    if let (Some(t), Some(s)) = (tr.as_mut(), s) {
        t.end(s);
    }
    let update_rtt = t.elapsed();
    let mut queries = Vec::with_capacity(QUERIES_PER_UPDATE);
    for _ in 0..QUERIES_PER_UPDATE {
        let req = stream.next_request();
        let t = Instant::now();
        let s = tr.as_mut().map(|t| t.begin("serve.query", id, None));
        let answer = client.query(&req);
        if let (Some(t), Some(s)) = (tr.as_mut(), s) {
            t.end(s);
            serving::charge_gather(t, s, answer.as_ref().ok());
        }
        queries.push((Served::of(&answer), t.elapsed()));
    }
    (
        Cycle {
            id,
            update,
            queries,
        },
        update_rtt,
    )
}

/// The in-process replay of the served cycles: it regenerates the same
/// batches and queries from the seed, applies each batch to its own live
/// updater and answers each query on that epoch's engine. Every served
/// answer is checked against it; in the traced phase it makes the
/// per-layer calls.
struct Replay {
    live: LiveUpdater,
    engine: QueryEngine,
    pop: Population,
    stream: QueryStream,
    /// A bare update engine fed the same events, for the apply / compact /
    /// assemble split (traced runs only).
    mirror: Option<(UpdateEngine<Sigmoid>, SnapshotMeta)>,
}

/// The tracer and the request id of the cycle being replayed.
type Traced<'a> = Option<(&'a mut Tracer, u64)>;

fn begin(tr: &mut Traced<'_>, name: &'static str) -> Option<usize> {
    tr.as_mut().map(|(t, req)| t.begin(name, *req, None))
}

fn end(tr: &mut Traced<'_>, id: Option<usize>) {
    if let (Some(id), Some((t, _))) = (id, tr.as_mut()) {
        t.end(id);
    }
}

impl Replay {
    fn new(problem: &Problem<Sigmoid>, seed: u64, with_mirror: bool) -> Replay {
        let (live, snapshot, _) =
            LiveUpdater::new("new_york", problem, common::D_HAT, common::THREADS, 1);
        let engine = QueryEngine::new(snapshot, common::THREADS);
        let mirror = with_mirror.then(|| {
            let (sets, _, _) = influence_sets_threaded(problem, common::method(), common::THREADS);
            (
                UpdateEngine::from_sets(problem, sets, common::THREADS),
                engine.meta().clone(),
            )
        });
        Replay {
            live,
            engine,
            pop: Population::new(problem, seed),
            stream: QueryStream::new(seed),
            mirror,
        }
    }

    /// Replays the next batch: returns its report and installs the next
    /// epoch's engine.
    fn apply(&mut self, mut tr: Traced<'_>) -> Option<UpdateReport> {
        let batch = self.pop.next_batch();
        let starts = self.engine.meta().shard_starts.clone();
        let s = begin(&mut tr, "serve.apply_batch");
        let applied = self.live.apply_batch(&batch, &starts);
        end(&mut tr, s);
        let (report, snapshot) = applied.ok()?;
        let s = begin(&mut tr, "serve.engine_new");
        self.engine = QueryEngine::new(snapshot, common::THREADS);
        end(&mut tr, s);
        if let Some((engine, meta)) = self.mirror.as_mut() {
            for ev in &batch {
                let s = begin(&mut tr, "core.update_apply");
                let _ = engine.apply(decode(ev));
                end(&mut tr, s);
            }
            let s = begin(&mut tr, "core.compact");
            engine.compact();
            end(&mut tr, s);
            let s = begin(&mut tr, "serve.assemble");
            std::hint::black_box(Snapshot::assemble(
                meta.clone(),
                engine.users(),
                &Sigmoid::paper_default(),
                engine.sets(),
                common::THREADS,
                1,
            ));
            end(&mut tr, s);
        }
        (report.n_users as usize == self.pop.users.len()).then_some(report)
    }

    /// Checks a served cycle against the replay (which it advances).
    /// Returns the in-process answer times and the answers' scatter events.
    fn check(
        &mut self,
        cycle: &Cycle,
        checks: &mut Checks,
        mut tr: Option<&mut Tracer>,
    ) -> (Vec<Duration>, u64) {
        let expected = self.apply(tr.as_mut().map(|t| (&mut **t, cycle.id)));
        let ok = matches!((&cycle.update, &expected), (Some(a), Some(e)) if same_report(a, e));
        checks.check(ok, || {
            "live-n: UPDATE report differs from the in-process replay".into()
        });
        let mut times = Vec::with_capacity(cycle.queries.len());
        let mut events = 0;
        for (j, (served, _)) in cycle.queries.iter().enumerate() {
            let req = self.stream.next_request();
            let name = if j == 0 {
                "serve.first_answer"
            } else {
                "serve.answer"
            };
            let t = Instant::now();
            let s = tr.as_mut().map(|t| t.begin(name, cycle.id, None));
            let answer = self.engine.answer(&req);
            if let (Some(t), Some(s)) = (tr.as_mut(), s) {
                t.end(s);
            }
            times.push(t.elapsed());
            if let (Some(t), Some(s)) = (tr.as_mut(), s) {
                serving::charge_gather(t, s, answer.as_ref().ok());
            }
            let expected = answer.ok();
            let ok = match (&served.digest, &expected) {
                (Some(d), Some(e)) => {
                    events += e.gather.scatter_events;
                    *d == serving::answer_digest(e) && e.prune == PruneStats::default()
                }
                _ => false,
            };
            checks.check(ok, || {
                format!("live-n: answer to {req:?} differs from the replay")
            });
        }
        (times, events)
    }
}

/// Runs the workload.
pub fn run(seed: u64, budget: Budget, process_start: Instant) -> Outcome {
    let mut out = Outcome {
        workload: "live-n",
        aliases: [
            "query_p50_ms",
            "query_p90_ms",
            "query_per_s",
            "update_p50_ms",
            "update_p90_ms",
        ],
        main_tail_p: 0.9,
        aux_tail_p: 0.9,
        ..Outcome::default()
    };
    let mut checks = Checks::default();
    let mut generate_ms = Vec::new();

    // Set-up: generate, run the influence phase once, assemble the first
    // snapshot, start the live server, first QUERY. Each repetition stops
    // the previous server before it starts.
    let mut kept: Option<(Server, Client, Problem<Sigmoid>)> = None;
    for rep in 0..common::SETUP_REPS {
        if let Some((server, client, _)) = kept.take() {
            serving::stop(server, client);
        }
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let t = Instant::now();
        let dataset = presets::new_york().generate();
        generate_ms.push(common::ms(t.elapsed()));
        let problem = common::problem(dataset);
        let (live, snapshot, _) =
            LiveUpdater::new("new_york", &problem, common::D_HAT, common::THREADS, 1);
        let engine = QueryEngine::new(snapshot, common::THREADS);
        let server = Server::start_live(serving::server_config(), engine, live)
            .expect("server binds loopback");
        let mut client = Client::connect(&server.addr().to_string()).expect("client connects");
        let first = client.query(&serving::request(None, common::K));
        out.setup_s.push(start.elapsed().as_secs_f64());
        let direct =
            solve_threaded(&problem, common::method(), Selector::Auto, common::THREADS).solution;
        let ok = first.as_ref().is_ok_and(|a| {
            common::solution_digest(&a.solution) == common::solution_digest(&direct)
        });
        if !ok {
            checks.fail("live-n: first served answer differs from solve_threaded".into());
        }
        kept = Some((server, client, problem));
    }
    let Some((server, mut client, problem)) = kept else {
        unreachable!("SETUP_REPS > 0");
    };
    eprintln!("live-n: set up in {:.3} s", common::median(&out.setup_s));

    let mut replay = Replay::new(&problem, seed, budget.traced);
    let snapshot_bytes = replay.engine.snapshot_bytes().len();
    let mut pop = Population::new(&problem, seed);
    let mut stream = QueryStream::new(seed);

    // The mixed phase, in windows. In a traced run every other cycle is
    // served inside spans and a tracer window of its own. After each
    // window, untimed, its cycles are checked against the in-process
    // replay, in order; the replay of a traced cycle makes its per-layer
    // calls in spans, in a replica window.
    let mut tracer = budget.traced.then(Tracer::new);
    let mut batch: Vec<(Cycle, bool)> = Vec::new();
    let mut ping_us = Vec::new();
    let mut traced_cycles = 0usize;
    let (mut n_cycles, mut queries) = (0usize, 0usize);
    let (mut flipped, mut evals, mut events) = (0u64, 0u64, 0u64);
    let mut first_us = Vec::new();
    let mut answer_us = Vec::new();
    let mut transport_us = Vec::new();
    let mut critical_us = Vec::new();
    for _ in 0..common::windows_in(budget.phase(1.0)) {
        let mut reads = Window::default();
        let mut writes = Window::default();
        let start = Instant::now();
        while start.elapsed() < common::WINDOW || n_cycles + batch.len() < COUNTER_CYCLES {
            let traced = budget.traced_sample(n_cycles + batch.len());
            match tracer.as_mut().filter(|_| traced) {
                Some(tr) => {
                    tr.open_window();
                    let (cycle, _) =
                        serve_cycle(&mut client, &mut pop, &mut stream, Some(&mut *tr));
                    traced_cycles += 1;
                    if traced_cycles.is_multiple_of(PING_EVERY) {
                        let b = Instant::now();
                        let pong = tr.time("serve.ping", cycle.id, None, || client.ping());
                        ping_us.push(common::us(b.elapsed()));
                        if let Err(e) = pong {
                            checks.fail(format!("live-n: ping failed: {e}"));
                        }
                    }
                    tr.close_window();
                    out.traced_main_ms
                        .extend(cycle.queries.iter().map(|q| common::ms(q.1)));
                    batch.push((cycle, true));
                }
                None => {
                    let (cycle, update) = serve_cycle(&mut client, &mut pop, &mut stream, None);
                    writes.ms.push(common::ms(update));
                    reads
                        .ms
                        .extend(cycle.queries.iter().map(|q| common::ms(q.1)));
                    batch.push((cycle, false));
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let served: usize = batch.iter().map(|(c, _)| c.queries.len()).sum();
        reads.secs = secs;
        reads.ops = served;
        writes.secs = secs;
        writes.ops = batch.len();
        out.main.push(reads);
        out.aux.push(writes);
        queries += served;

        if let Some(tr) = tracer.as_mut() {
            tr.open_replica();
        }
        for (cycle, traced) in batch.drain(..) {
            let tr = tracer.as_mut().filter(|_| traced);
            let (times, e) = replay.check(&cycle, &mut checks, tr);
            if n_cycles < COUNTER_CYCLES {
                let r = cycle.update.as_ref();
                flipped += r.map_or(0, |r| r.flipped);
                evals += r.map_or(0, |r| r.prob_evals);
                events += e;
            }
            n_cycles += 1;
            if !traced {
                continue;
            }
            for (j, (&(s, rtt), inproc)) in cycle.queries.iter().zip(times).enumerate() {
                let in_process = if j == 0 {
                    &mut first_us
                } else {
                    &mut answer_us
                };
                in_process.push(common::us(inproc));
                if s.digest.is_some() && !s.cached {
                    transport_us.push(common::us(rtt) - common::us(inproc));
                    critical_us.push(s.critical_ns as f64 / 1e3);
                }
            }
        }
        if let Some(tr) = tracer.as_mut() {
            tr.close_window();
        }
    }
    let last = client.query(&serving::request(None, common::K));
    let stats = client.stats();
    serving::stop(server, client);

    // The final epoch must equal a from-scratch solve on the mutated users.
    let mutated = Problem::new(
        replay.live.engine().users().to_vec(),
        problem.facilities.clone(),
        problem.candidates.clone(),
        common::K,
        common::TAU,
        Sigmoid::paper_default(),
    );
    let scratch =
        solve_threaded(&mutated, common::method(), Selector::Auto, common::THREADS).solution;
    let ok = last
        .as_ref()
        .is_ok_and(|a| common::solution_digest(&a.solution) == common::solution_digest(&scratch));
    if !ok {
        checks.fail("live-n: final epoch differs from a from-scratch solve".into());
    }

    let (hits, misses) = match &stats {
        Ok(s) => (s.cache_hits, s.cache_misses),
        Err(e) => {
            checks.fail(format!("live-n: STATS failed: {e}"));
            (0, 0)
        }
    };
    let hit_frac = hits as f64 / (hits + misses).max(1) as f64;
    if let Some(tr) = &tracer {
        let ms_of = |name| common::median(&tr.durations(name)) / 1e6;
        out.layer.extend([
            ("data.generate_ms", common::median(&generate_ms)),
            ("serve.snapshot_bytes", snapshot_bytes as f64),
            ("serve.apply_batch_ms", ms_of("serve.apply_batch")),
            ("serve.engine_new_ms", ms_of("serve.engine_new")),
            ("serve.assemble_ms", ms_of("serve.assemble")),
            ("core.compact_ms", ms_of("core.compact")),
            ("core.update_apply_us", ms_of("core.update_apply") * 1e3),
            ("serve.first_answer_us", common::median(&first_us)),
            ("serve.answer_p50_us", common::percentile(&answer_us, 0.5)),
            ("serve.answer_p99_us", common::percentile(&answer_us, 0.99)),
            ("serve.transport_p50_us", common::median(&transport_us)),
            ("serve.ping_p50_us", common::median(&ping_us)),
            ("serve.cache_hit_frac", hit_frac),
            ("core.gather_critical_us", common::median(&critical_us)),
            ("core.update_flipped", flipped as f64),
            ("core.update_prob_evals", evals as f64),
            ("core.scatter_events", events as f64),
        ]);
    }
    out.context.push(("updates", n_cycles.to_string()));
    out.context.push(("queries", queries.to_string()));
    out.context
        .push(("cache_hit_frac", format!("{hit_frac:.4}")));
    out.context.push((
        "first_after_epoch_frac",
        format!("{:.4}", 1.0 / QUERIES_PER_UPDATE as f64),
    ));
    out.checks = checks;
    out.tracer = tracer;
    out
}
