//! The traced run's span recorder. Spans are taken in the benchmark's own
//! files, around calls into each layer's public functions; nothing inside
//! the program is instrumented. Spans stay in memory and are written out
//! once, at exit.
//!
//! A span's layer is the prefix of its name before the first `.`
//! (`index.iqt_build` belongs to `index`). Its self time is its duration
//! minus the part covered by its children. A called function that reports
//! its own phase times (`PhaseTimes` of `influence_sets_threaded`) has
//! them charged as [`Phase`]s: children of its span with a duration but
//! no timestamps.
//!
//! Spans count only inside windows. An accounted window holds traced
//! samples: its wall time is split into the layers' self time and the
//! `other` row, the time no root span covers. A replica window holds calls
//! re-run only to time them on their own, when the same work already sits
//! inside an accounted span; its spans give per-call durations but stay
//! out of the self-time split, so no work is counted twice.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The workspace modules spans are attributed to.
pub const LAYERS: [&str; 6] = ["data", "index", "influence", "core", "serve", "candgen"];

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A share of a span's time that the called function measured and
/// reported itself.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `<layer>.<phase>`.
    pub name: &'static str,
    /// Index of the span the phase ran inside.
    pub parent: usize,
    /// Reported duration, nanoseconds.
    pub dur_ns: u64,
}

/// A stretch of the run in which spans count.
#[derive(Debug, Clone, Copy)]
struct Window {
    start_ns: u64,
    end_ns: u64,
    /// Whether the window's wall time enters the self-time split.
    accounted: bool,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    phases: Vec<Phase>,
    /// In time order and disjoint: each opens after the last one closed.
    windows: Vec<Window>,
    next_req: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            phases: Vec::new(),
            windows: Vec::new(),
            next_req: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Charges `dur` of span `parent` to the phase `name`, as the called
    /// function reported it.
    pub fn charge(&mut self, parent: usize, name: &'static str, dur: Duration) {
        self.phases.push(Phase {
            name,
            parent,
            dur_ns: u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX),
        });
    }

    fn open(&mut self, accounted: bool) {
        let now = self.now_ns();
        self.windows.push(Window {
            start_ns: now,
            end_ns: now,
            accounted,
        });
    }

    /// Starts an accounted window around traced samples.
    pub fn open_window(&mut self) {
        self.open(true);
    }

    /// Starts a replica window: its spans give durations only.
    pub fn open_replica(&mut self) {
        self.open(false);
    }

    /// Ends the current window.
    pub fn close_window(&mut self) {
        let now = self.now_ns();
        if let Some(w) = self.windows.last_mut() {
            w.end_ns = now;
        }
    }

    /// Durations in ns of every span or phase called `name` inside a
    /// window.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .iter()
            .filter(|s| s.name == name && self.window_of(s).is_some())
            .map(|s| s.dur_ns() as f64);
        let phases = self
            .phases
            .iter()
            .filter(|p| p.name == name && self.window_of(&self.spans[p.parent]).is_some())
            .map(|p| p.dur_ns as f64);
        spans.chain(phases).collect()
    }

    /// The window `s` lies in, if any.
    fn window_of(&self, s: &Span) -> Option<Window> {
        let i = self
            .windows
            .partition_point(|w| w.start_ns <= s.start_ns)
            .checked_sub(1)?;
        let w = self.windows[i];
        (s.end_ns <= w.end_ns).then_some(w)
    }

    fn accounted(&self, s: &Span) -> bool {
        self.window_of(s).is_some_and(|w| w.accounted)
    }

    /// Self time per layer and the uncovered `other` time, in ns, over
    /// the accounted windows, plus those windows' total wall time.
    pub fn accounting(&self) -> Accounting {
        let layer_of = |name: &str| {
            let layer = name.split('.').next().unwrap_or(name);
            LAYERS.iter().position(|&l| l == layer)
        };
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut layer_self_ns = [0u64; LAYERS.len()];
        for p in &self.phases {
            child_ns[p.parent] += p.dur_ns;
            if let (true, Some(l)) = (self.accounted(&self.spans[p.parent]), layer_of(p.name)) {
                layer_self_ns[l] += p.dur_ns;
            }
        }
        let mut root_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if !self.accounted(s) {
                continue;
            }
            if s.parent.is_none() {
                root_ns += s.dur_ns();
            }
            if let Some(l) = layer_of(s.name) {
                layer_self_ns[l] += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        let wall_ns: u64 = self
            .windows
            .iter()
            .filter(|w| w.accounted)
            .map(|w| w.end_ns - w.start_ns)
            .sum();
        Accounting {
            layer_self_ns,
            other_ns: wall_ns.saturating_sub(root_ns),
            wall_ns,
        }
    }

    /// Every span, then every phase, as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{{\"phase\":\"{}\",\"parent\":{},\"dur_ns\":{}}}",
                p.name, p.parent, p.dur_ns
            );
        }
        out
    }
}

/// Where the traced windows' wall time went.
#[derive(Debug, Clone)]
pub struct Accounting {
    /// Self time per entry of [`LAYERS`].
    pub layer_self_ns: [u64; LAYERS.len()],
    /// Window time covered by no root span.
    pub other_ns: u64,
    /// Total window time.
    pub wall_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            req: 1,
            start_ns: a,
            end_ns: b,
        }
    }

    fn window(start_ns: u64, end_ns: u64, accounted: bool) -> Window {
        Window {
            start_ns,
            end_ns,
            accounted,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_other_is_uncovered() {
        let mut t = Tracer::new();
        // Window 0..100: root 10..60 with a 20..50 child, another root
        // 70..80 — other = 100 - 50 - 10 = 40.
        t.windows.push(window(0, 100, true));
        t.spans.push(span("core.solve", None, 10, 60));
        t.spans.push(span("core.influence", Some(0), 20, 50));
        t.spans.push(span("serve.query", None, 70, 80));
        let acc = t.accounting();
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.other_ns, 40);
        let core = LAYERS.iter().position(|&l| l == "core").unwrap();
        let serve = LAYERS.iter().position(|&l| l == "serve").unwrap();
        assert_eq!(acc.layer_self_ns[core], 20 + 30);
        assert_eq!(acc.layer_self_ns[serve], 10);
        assert_eq!(t.durations("core.influence"), vec![30.0]);
        assert!(t.to_json_lines().contains("\"parent\":0"));
    }

    #[test]
    fn phases_move_self_time_and_replicas_stay_out() {
        let mut t = Tracer::new();
        // Accounted 0..100 holding a 0..80 span of which the call reported
        // 50 ns as an index phase; replica 100..200 holding a 30 ns span.
        t.windows.push(window(0, 100, true));
        t.windows.push(window(100, 200, false));
        t.spans.push(span("core.influence", None, 0, 80));
        t.spans.push(span("index.iqt_build", None, 120, 150));
        t.charge(0, "index.indexing", Duration::from_nanos(50));
        let acc = t.accounting();
        let core = LAYERS.iter().position(|&l| l == "core").unwrap();
        let index = LAYERS.iter().position(|&l| l == "index").unwrap();
        assert_eq!(acc.wall_ns, 100);
        assert_eq!(acc.other_ns, 20);
        assert_eq!(acc.layer_self_ns[core], 30);
        assert_eq!(acc.layer_self_ns[index], 50);
        assert_eq!(t.durations("index.iqt_build"), vec![30.0]);
        assert_eq!(t.durations("index.indexing"), vec![50.0]);
        // A span outside every window counts nowhere.
        t.spans.push(span("core.influence", None, 210, 220));
        assert_eq!(t.durations("core.influence"), vec![80.0]);
    }
}
