//! Sample statistics shared by every workload.

use std::time::{Duration, Instant};

/// Nearest-rank percentile `q` (0..=1) of `sorted` samples.
///
/// A percentile above the median is reported only when at least ten
/// samples lie beyond it; with fewer it says more about the run length
/// than about the system, and `None` is returned. The median needs one
/// sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts samples in place for [`percentile`].
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match that tool's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    sort(&mut d);
    let ld = d.len();
    match ld {
        0 => return (f64::NAN, f64::NAN),
        1 => return (d[0], d[0]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One closed window of about a second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Units of work completed per second.
    pub rate: f64,
    /// Median latency of the exchanges that completed in it, µs.
    pub p50_us: f64,
}

/// Exchanges grouped into windows of about one second.
///
/// A window closes at the first completion at or after its nominal
/// end, so its duration is measured rather than assumed and a window
/// never splits an exchange.
pub struct Windows {
    start: Instant,
    units: f64,
    latencies: Vec<f64>,
    closed: Vec<Window>,
}

/// Nominal window width.
const WINDOW: Duration = Duration::from_secs(1);

impl Windows {
    /// Opens the first window at `start`.
    pub fn new(start: Instant) -> Windows {
        Windows {
            start,
            units: 0.0,
            latencies: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Records one exchange that completed `units` of work at `now`
    /// after `latency_us`.
    pub fn add(&mut self, now: Instant, units: f64, latency_us: f64) {
        self.units += units;
        self.latencies.push(latency_us);
        if now - self.start >= WINDOW {
            self.close(now);
        }
    }

    fn close(&mut self, now: Instant) {
        sort(&mut self.latencies);
        self.closed.push(Window {
            rate: self.units / (now - self.start).as_secs_f64().max(1e-9),
            p50_us: percentile(&self.latencies, 0.5).unwrap_or(f64::NAN),
        });
        self.start = now;
        self.units = 0.0;
        self.latencies.clear();
    }

    /// The closed windows. A run shorter than one window yields its
    /// single partial window.
    pub fn finish(mut self, now: Instant) -> Vec<Window> {
        if self.closed.is_empty() && !self.latencies.is_empty() {
            self.close(now);
        }
        self.closed
    }
}

/// Latency and throughput of the quietest tenth of a run: the 10th
/// percentile of the windows' median latencies and the 90th percentile
/// of their rates (nearest rank); `None` without windows.
///
/// On a shared host, interference only ever slows a window down, and
/// it comes and goes over seconds to minutes; the quiet decile follows
/// what the code costs, not what the neighbours did. A change to the
/// code moves every window, so it moves the quiet decile too.
pub fn quiet(windows: &[Window]) -> Option<(f64, f64)> {
    if windows.is_empty() {
        return None;
    }
    let mut p50s: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    let mut rates: Vec<f64> = windows.iter().map(|w| w.rate).collect();
    sort(&mut p50s);
    sort(&mut rates);
    let rank = |sorted: &[f64], q: f64| {
        let n = sorted.len();
        sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    };
    Some((rank(&p50s, 0.1), rank(&rates, 0.9)))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
