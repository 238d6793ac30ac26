//! Pieces every workload shares: the instance shape, the seeded request
//! randomness, the timed-loop helpers, latency summaries and the run
//! context read from the host.

use mc2ls_core::algorithms::Selector;
use mc2ls_core::{IqtConfig, Method, Problem, Solution};
use mc2ls_data::Dataset;
use mc2ls_influence::Sigmoid;
use std::time::{Duration, Instant};

/// Paper defaults (§VII-A), fixed for every workload.
pub const N_CANDIDATES: usize = 100;
/// Existing competitor facilities.
pub const N_FACILITIES: usize = 200;
/// Sites to select.
pub const K: usize = 10;
/// Influence threshold.
pub const TAU: f64 = 0.7;
/// IQuad-tree leaf diagonal `d̂` in km.
pub const D_HAT: f64 = 2.0;
/// Solver threads: the shipped CLI default. Per-request parallelism is kept
/// out of the gated workloads (see README.md).
pub const THREADS: usize = 1;
/// Each workload sets up this many times per run, freeing each set-up
/// before the next; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// The IQT pipeline at `d̂ = 2 km`, as `mc2ls solve --method iqt` runs it.
pub fn method() -> Method {
    Method::Iqt(IqtConfig::iqt(D_HAT))
}

/// `mc2ls solve` picks CELF when `--selector` is absent.
pub const SOLVE_SELECTOR: Selector = Selector::LazyGreedy;

/// Site seed of the candidate and facility sample: `mc2ls`'s default
/// `--site-seed`. It stays fixed — a per-seed sample moves query cost by
/// ±15 % between seeds (README.md), more than any bound could absorb.
pub const SITE_SEED: u64 = 42;

/// The workload instance over a generated preset, as `mc2ls solve
/// --preset …` builds it: the calibrated users and positions, and
/// candidate and facility sites sampled from the POI pool.
pub fn problem(dataset: Dataset) -> Problem<Sigmoid> {
    let (candidates, facilities) =
        dataset.sample_sites_disjoint(N_CANDIDATES, N_FACILITIES, SITE_SEED);
    Problem::new(
        dataset.users,
        facilities,
        candidates,
        K,
        TAU,
        Sigmoid::paper_default(),
    )
}

/// FNV-1a over `u64` words: answers are kept as digests so the memory a
/// run holds does not grow with the number of requests it completes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(mut self, v: u64) -> Fnv {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    /// Folds every word in.
    pub fn words(self, vs: impl IntoIterator<Item = u64>) -> Fnv {
        vs.into_iter().fold(self, Fnv::word)
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a solution: picks, marginal gains and `cinf`, bit for bit.
pub fn solution_digest(s: &Solution) -> u64 {
    Fnv::default()
        .words(s.selected.iter().map(|&c| u64::from(c)))
        .words(s.marginal_gains.iter().map(|g| g.to_bits()))
        .word(s.cinf.to_bits())
        .finish()
}

/// An independent sub-seed of `seed` for stream `lane`.
pub fn derive(seed: u64, lane: u64) -> u64 {
    let mut r = Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64()
}

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Length of one measurement window. Every timed phase is a whole number
/// of windows; each window ends at the first operation that completes
/// after this long, and its answers are checked, untimed, before the next
/// window starts.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Windows in a timed phase of length `phase` (at least one).
pub fn windows_in(phase: Duration) -> usize {
    ((phase.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1)
}

/// One window of a timed phase: its timed wall, the operations of its
/// verb it completed (traced ones too), and their untraced latencies.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Timed wall of the window, seconds.
    pub secs: f64,
    /// Operations completed.
    pub ops: usize,
    /// Untraced latencies, ms.
    pub ms: Vec<f64>,
}

impl Window {
    /// Operations per second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.secs.max(1e-9)
    }
}

/// The windows of a phase that the host let run at full speed: the faster
/// half by operations per second, their latencies pooled. A co-tenant on
/// the shared host only ever slows a window down, so the slower half is
/// where host contention lands; a change in the program moves every
/// window, the kept half included.
#[derive(Debug, Clone, Default)]
pub struct Steady {
    /// Pooled untraced latencies of the kept windows, ms.
    pub ms: Vec<f64>,
    /// Operations per second over the kept windows.
    pub per_s: f64,
    /// Windows kept.
    pub kept: usize,
    /// Fastest window's rate over the slowest's.
    pub rate_spread: f64,
}

/// The faster half (rounded up) of `windows`.
pub fn steady(windows: &[Window]) -> Steady {
    if windows.is_empty() {
        return Steady::default();
    }
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let kept = &order[..windows.len().div_ceil(2)];
    let (ops, secs) = kept
        .iter()
        .fold((0, 0.0), |(ops, secs), w| (ops + w.ops, secs + w.secs));
    Steady {
        ms: kept.iter().flat_map(|w| w.ms.iter().copied()).collect(),
        per_s: ops as f64 / secs.max(1e-9),
        kept: kept.len(),
        rate_spread: order[0].rate() / order[order.len() - 1].rate().max(1e-9),
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A run's length and mode. An untraced run measures every sample of a
/// phase untraced. A traced run alternates: every other sample is traced
/// and the rest are the untraced baseline of `trace.overhead_pct`, so both
/// kinds see the same host speed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`.
    pub traced: bool,
}

impl Budget {
    /// Length of a phase owning `share` of the run.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Whether sample `i` of a phase is traced.
    pub fn traced_sample(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }
}

/// A CPU affinity mask: one bit per CPU, room for 1,024 CPUs.
pub type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread's affinity, `None` if it cannot be read.
pub fn affinity() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a valid, writable buffer of the size passed.
    let read = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (read >= 0).then_some(mask)
}

/// Sets the calling thread's affinity; threads it starts later inherit it.
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a valid buffer of `size_of::<CpuMask>()` bytes for
    // the duration of the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// Pins the calling thread, and so every thread it starts later (the
/// in-process server's included), to the first CPU it may run on. Returns
/// that CPU and the mask before, or `None` if the mask could not be read
/// or set, in which case nothing changed.
///
/// Client and server take turns in a closed loop, so one CPU runs the
/// same work without cross-CPU wake-ups, and only one vCPU of the shared
/// host has to be scheduled for a request to progress (README.md).
pub fn pin_to_one_cpu() -> Option<(usize, CpuMask)> {
    let before = affinity()?;
    let cpu = (0..before.len() * 64).find(|&c| before[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one).then_some((cpu, before))
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU steal ticks so far (`/proc/stat`, aggregate `cpu` line).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn spin(iters: u64) -> u64 {
    let mut x = 1u64;
    for _ in 0..iters {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    std::hint::black_box(x)
}

/// Effective cores from a fixed spin probe: two threads each spin the work
/// one thread spun alone; `2 · t1 / t2` is 2.0 on two free cores and 1.0
/// when the second thread gets no processor of its own. Median of three.
pub fn effective_cores() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        spin(ITERS);
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ITERS));
            let b = s.spawn(|| spin(ITERS));
            let _ = (a.join(), b.join());
        });
        let two = t.elapsed().as_secs_f64();
        samples.push(2.0 * one / two.max(1e-9));
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn steady_keeps_the_faster_half() {
        let w = |secs: f64, ops: usize, v: f64| Window {
            secs,
            ops,
            ms: vec![v; ops],
        };
        // Rates 10, 4, 8, 2 and 6 per second: 10, 8 and 6 are kept.
        let windows = [
            w(1.0, 10, 1.0),
            w(1.0, 4, 9.0),
            w(0.5, 4, 2.0),
            w(2.0, 4, 9.0),
            w(0.5, 3, 3.0),
        ];
        let s = steady(&windows);
        assert_eq!(s.kept, 3);
        assert_eq!(s.ms.len(), 17);
        assert!(s.ms.iter().all(|&v| v < 9.0));
        assert!((s.per_s - 17.0 / 2.0).abs() < 1e-12);
        assert!((s.rate_spread - 5.0).abs() < 1e-12);
        assert_eq!(steady(&[]).kept, 0);
    }

    #[test]
    fn pins_to_one_cpu_and_back() {
        let (cpu, before) = pin_to_one_cpu().expect("affinity is readable and settable");
        assert_eq!(before[cpu / 64] >> (cpu % 64) & 1, 1);
        let pinned = affinity().expect("affinity is readable");
        assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        let on_thread = std::thread::spawn(affinity).join().unwrap();
        assert_eq!(on_thread, Some(pinned), "a new thread inherits the pin");
        assert!(set_affinity(&before));
        assert_eq!(affinity(), Some(before));
    }

    #[test]
    fn windows_are_whole() {
        assert_eq!(windows_in(Duration::from_secs(19)), 38);
        assert_eq!(windows_in(Duration::from_millis(100)), 1);
    }

    #[test]
    fn rng_is_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert!((0..16).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(derive(7, 1), derive(7, 2));
    }
}
