//! Result collection and printing: operation/failure counts, named
//! metrics with units, sample statistics and output digests.

use std::fmt::Write as _;
use std::time::Instant;

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records one operation whose output checks found `problems`
    /// (empty = the operation's outputs are correct).
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED {what}: {p}");
            }
        }
    }

    /// Records a metric for the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints the metric table, then the result object as the last
    /// line of stdout.
    pub fn finish(&self) {
        println!(
            "failed_frac = {}/{} = {} (operations failing an output check / attempted)",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<40} {value:>16.6} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The low percentile the end-to-end metrics take of short operations,
/// of which a run holds hundreds or thousands. Other tenants of a
/// shared host slow this program down in phases of seconds to minutes;
/// the fastest of many short samples keeps closest to the program's own
/// speed. Long operations, of which a run holds only tens, are reported
/// at the median instead: there the fastest sample is a single lucky
/// one and moves more from run to run (see NOTES.md).
pub const FAST: f64 = 1.0;

/// The `p`-th percentile of `xs` by nearest rank, `p` in (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s.get(rank.clamp(1, s.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Prints the sample count, the fast percentile, p5, median and tail
/// of `xs`.
pub fn describe(what: &str, xs: &[f64], unit: &str) {
    let (pct, tail_value) = tail(xs);
    println!(
        "{what}: n = {}, p{FAST} {:.3} {unit}, p5 {:.3} {unit}, p50 {:.3} {unit}, \
         p{pct} {tail_value:.3} {unit}",
        xs.len(),
        percentile(xs, FAST),
        percentile(xs, 5.0),
        median(xs)
    );
}

/// The highest whole percentile that has at least ten samples beyond
/// it, with its nearest-rank value: `(percentile, value)`. With ten
/// samples or fewer no percentile qualifies, and the maximum is
/// returned as percentile 100.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return (100, s.last().copied().unwrap_or(f64::NAN));
    }
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    (p, s[rank - 1])
}

/// Interquartile range as a share of the median (the spread measure
/// the benchmark's bounds are checked against).
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    // Exclusive-method quartiles, as Python's statistics.quantiles.
    let q = |p: f64| {
        let h = p * (n as f64 + 1.0);
        let lo = (h.floor() as usize).clamp(1, n);
        let hi = (h.ceil() as usize).clamp(1, n);
        s[lo - 1] + (h - h.floor()) * (s[hi - 1] - s[lo - 1])
    };
    (q(0.75) - q(0.25)) / median(xs)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// CPU time this process has used so far, all threads, user and
/// system, in seconds (`CLOCK_PROCESS_CPUTIME_ID`). The kernel leaves
/// out the time the VM's virtual CPUs were descheduled by the host
/// (steal time) and the time the process waited for a CPU, so other
/// tenants of a shared host cannot add to it the way they add to wall
/// time. For a serial operation on an idle machine the two are equal.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Times one operation on both clocks: CPU time, which the bounded
/// metrics use, and wall time, which is printed beside it.
pub struct Timer {
    wall: Instant,
    cpu: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// `(CPU seconds, wall seconds)` since [`Timer::start`].
    pub fn stop(&self) -> (f64, f64) {
        (cpu_s() - self.cpu, self.wall.elapsed().as_secs_f64())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a 64 digest of a byte stream, for golden output digests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Checks a digest against its golden value at the default seed.
/// Other seeds have no golden value and always pass.
pub fn check_golden(problems: &mut Vec<String>, seed: u64, what: &str, got: Digest, golden: &str) {
    println!("digest {what} = {}", got.hex());
    if seed == crate::DEFAULT_SEED && got.hex() != golden {
        problems.push(format!(
            "{what} digest {} differs from the golden {golden}",
            got.hex()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 90);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), 2.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&xs[..3], 10.0), 18.0);
    }

    #[test]
    fn rel_iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }
}
