//! What `query-n` and `live-n` share: the server configuration, the
//! seeded QUERY stream, and the comparison of a served answer with an
//! in-process one.

use crate::common::{self, Rng};
use crate::trace::Tracer;
use mc2ls_core::algorithms::Selector;
use mc2ls_core::PruneStats;
use mc2ls_influence::{Model, BLOCK_SIZE_AUTO};
use mc2ls_serve::{Client, QueryAnswer, QueryRequest, ServeError, Server, ServerConfig};
use std::time::Duration;

/// `mc2ls serve` defaults, with one worker: one closed-loop client never
/// keeps a second worker busy.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_pending: 64,
        cache_capacity: 256,
        threads: common::THREADS,
        ..ServerConfig::default()
    }
}

/// Stops `server` and waits for it. The request goes over `client`, or
/// over a fresh connection when the server has dropped that one (it drops
/// a connection idle for `idle_timeout`, 30 s); without it the join would
/// never return.
pub fn stop(server: Server, mut client: Client) {
    if client.shutdown().is_err() {
        if let Ok(mut fresh) = Client::connect(&server.addr().to_string()) {
            let _ = fresh.shutdown();
        }
    }
    server.join();
}

/// A request as `mc2ls query` sends it.
pub fn request(candidates: Option<Vec<u32>>, k: usize) -> QueryRequest {
    QueryRequest {
        candidates,
        k,
        tau: common::TAU,
        block_size: BLOCK_SIZE_AUTO,
        selector: Selector::Auto,
        pf_exact: false,
        model: Model::Cumulative,
    }
}

/// Size of the candidate subsets a subset query asks about.
pub const SUBSET: usize = 40;

/// The seeded QUERY stream: k uniform in 5–20; three queries in four ask
/// about a fresh random 40-candidate subset (a cache miss), the rest about
/// the full candidate set, whose 16 keys stay cached.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: Rng,
}

impl QueryStream {
    /// The stream of workload seed `seed`.
    pub fn new(seed: u64) -> QueryStream {
        QueryStream {
            rng: Rng::new(common::derive(seed, 3)),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> QueryRequest {
        let k = 5 + self.rng.below(16);
        if self.rng.below(4) == 0 {
            return request(None, k);
        }
        let mut ids: Vec<u32> = (0..common::N_CANDIDATES as u32).collect();
        for i in 0..SUBSET {
            let j = i + self.rng.below(ids.len() - i);
            ids.swap(i, j);
        }
        ids.truncate(SUBSET);
        request(Some(ids), k)
    }
}

/// The 16 full-set keys, issued once before timing so the cache holds them.
pub fn full_set_keys() -> impl Iterator<Item = QueryRequest> {
    (5..=20).map(|k| request(None, k))
}

/// Digest of an answer: picks, gains and `cinf` bit for bit, the
/// selection and scatter counters, and whether every prune counter is 0
/// (the serving path evaluates no influence set). Two answers agree when
/// their digests do.
pub fn answer_digest(a: &QueryAnswer) -> u64 {
    let s = &a.selection;
    common::Fnv::default()
        .word(common::solution_digest(&a.solution))
        .words([
            s.gain_evals,
            s.users_scanned,
            s.users_rescanned,
            s.gain_updates,
            s.inverted_entries,
            s.heap_pushes,
            s.covered_users,
            a.gather.scatter_events,
            u64::from(a.prune == PruneStats::default()),
        ])
        .finish()
}

/// Charges the shard scatter an uncached answer reports (`GatherStats`)
/// to the span `span` of the QUERY or in-process answer that produced it,
/// as a `core.gather` phase. With one scatter worker (`THREADS` = 1) the
/// scatter's wall time is its summed busy time.
pub fn charge_gather(tr: &mut Tracer, span: usize, answer: Option<&QueryAnswer>) {
    if let Some(a) = answer {
        if !a.cached {
            tr.charge(span, "core.gather", Duration::from_nanos(a.gather.busy_ns));
        }
    }
}

/// What the client keeps of one served QUERY: its answer's digest (`None`
/// when the request failed), whether it came from the cache, and the
/// server's own critical-path time.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// The answer's digest, `None` when the request failed.
    pub digest: Option<u64>,
    /// Whether the answer came from the cache.
    pub cached: bool,
    /// The server's own critical-path time, ns.
    pub critical_ns: u64,
}

impl Served {
    /// What to keep of `answer`.
    pub fn of(answer: &Result<QueryAnswer, ServeError>) -> Served {
        match answer {
            Ok(a) => Served {
                digest: Some(answer_digest(a)),
                cached: a.cached,
                critical_ns: a.gather.critical_path_ns,
            },
            Err(_) => Served {
                digest: None,
                cached: false,
                critical_ns: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_mixed() {
        let a: Vec<_> = {
            let mut s = QueryStream::new(11);
            (0..400)
                .map(|_| {
                    let r = s.next_request();
                    (r.k, r.candidates)
                })
                .collect()
        };
        let b: Vec<_> = {
            let mut s = QueryStream::new(11);
            (0..400)
                .map(|_| {
                    let r = s.next_request();
                    (r.k, r.candidates)
                })
                .collect()
        };
        assert_eq!(a, b);
        let full = a.iter().filter(|(_, c)| c.is_none()).count();
        assert!((60..140).contains(&full), "full-set share off: {full}/400");
        for (k, c) in &a {
            assert!((5..=20).contains(k));
            if let Some(c) = c {
                let mut d = c.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), SUBSET);
            }
        }
    }
}
