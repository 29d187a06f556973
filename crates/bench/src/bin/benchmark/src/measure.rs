//! Sample statistics, process counters, output digests, and the host
//! record every result carries.
//!
//! Timings are kept as raw samples and summarized here; nothing is ever
//! bucketed.

use crate::json;

/// Sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quantile `q` of already-sorted samples, interpolating linearly between
/// the two closest ranks. `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// First and third quartiles the way Python's
/// `statistics.quantiles(values, n=4)` (default `exclusive` method) gives
/// them — the rule the run-to-run spread is judged by. Fewer than two
/// samples give the single sample (or `NaN`) for both.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let data = sorted(samples);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared against.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / median(samples).abs()
}

/// The highest of p90 / p99 / p99.9 / p99.99 that still has at least ten
/// samples beyond it, if any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9]
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
}

/// Median, quartiles, sample count, and the supported tail of one set of
/// raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(quantile, value)` of the highest percentile with ≥ 10 samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize raw samples.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        let (q1, q3) = quartiles(samples);
        Summary {
            n: s.len(),
            q1,
            median: quantile(&s, 0.5),
            q3,
            tail: tail_quantile(s.len()).map(|q| (q, quantile(&s, q))),
        }
    }

    /// One human-readable line, values scaled by `scale` into `unit`.
    pub fn line(&self, scale: f64, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!(", p{} {:.4}", q * 100.0, v * scale),
            None => String::new(),
        };
        format!(
            "median {:.4} {unit} (q1 {:.4}, q3 {:.4}{tail}; n={})",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// What a result depends on besides the code: results from different
/// hosts are never compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Build profile: `release`, or `debug` with debug assertions on.
    pub profile: String,
    /// `rustc -V` of the `rustc` on the path (empty if there is none).
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// This process's host record. Runs `rustc -V`, so call it outside
    /// timed regions.
    pub fn current() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_default();
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_owned(),
            rustc,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_owned())
                .unwrap_or_default(),
        }
    }

    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"profile\":{},\"rustc\":{},\"kernel\":{}}}",
            self.available_parallelism,
            json::string(&self.profile),
            json::string(&self.rustc),
            json::string(&self.kernel)
        )
    }

    /// Read back a record written by [`Host::to_json`].
    pub fn from_json(v: &json::Value) -> Option<Host> {
        Some(Host {
            available_parallelism: v.get("available_parallelism")?.as_f64()? as usize,
            profile: v.get("profile")?.as_str()?.to_owned(),
            rustc: v.get("rustc")?.as_str()?.to_owned(),
            kernel: v.get("kernel")?.as_str()?.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped rank extrapolates past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(9), None);
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(14_680), Some(0.999));
        assert_eq!(tail_quantile(36_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.tail.map(|t| t.0), Some(0.9));
        assert!((s.median - 49.5).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn host_record_round_trips() {
        let h = Host::current();
        assert!(h.available_parallelism >= 1);
        let v = json::parse(&h.to_json()).unwrap();
        assert_eq!(Host::from_json(&v), Some(h));
    }
}
