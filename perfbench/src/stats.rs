//! Summary statistics, the results line, and output digests.

use esca_tensor::SparseTensor;
use serde::Content;

/// One reported metric: value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail sample: the highest percentile that still has at least ten
/// samples beyond it. Returns `(value, percentile)`, where `percentile`
/// is the share of samples at or below the value, in percent; `None`
/// with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let n = xs.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = n - BEYOND - 1;
    Some((v[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The benchmark's final stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Results {
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Content::Map(vec![
                    ("value".to_string(), Content::F64(m.value)),
                    ("unit".to_string(), Content::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let root = Content::Map(vec![
            ("correct".to_string(), Content::Bool(self.correct)),
            ("attempted".to_string(), Content::U64(self.attempted)),
            ("failed".to_string(), Content::U64(self.failed)),
            ("metrics".to_string(), Content::Map(metrics)),
        ]);
        serde_json::to_string(&root).expect("a content tree always serializes")
    }

    /// Parses a results line (the round trip of [`Results::to_json`]).
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root: Content = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let count = |key: &str| match root.field(key) {
            Content::U64(v) => Ok(*v),
            other => Err(format!("`{key}` is a {}, not a count", other.kind())),
        };
        let correct = match root.field("correct") {
            Content::Bool(b) => *b,
            other => return Err(format!("`correct` is a {}", other.kind())),
        };
        let entries = root
            .field("metrics")
            .as_map()
            .ok_or("`metrics` is not a map")?;
        let metrics = entries
            .iter()
            .map(|(name, entry)| {
                let value = match entry.field("value") {
                    Content::F64(v) => *v,
                    Content::U64(v) => *v as f64,
                    Content::I64(v) => *v as f64,
                    other => return Err(format!("{name}: value is a {}", other.kind())),
                };
                let unit = entry.field("unit").as_str().ok_or("unit is not a string")?;
                Ok(Metric::new(name, value, unit))
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// 64-bit FNV-1a, the digest behind output hashes and the identity
/// digest: stable across runs, platforms and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A tensor's coordinates, then every feature's bytes.
    pub fn tensor<T: Copy, const N: usize>(
        &mut self,
        t: &SparseTensor<T>,
        feature_bytes: impl Fn(T) -> [u8; N],
    ) {
        for c in t.coords() {
            for v in [c.x, c.y, c.z] {
                self.bytes(&v.to_le_bytes());
            }
        }
        for &v in t.features() {
            self.bytes(&feature_bytes(v));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(v, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 100 samples: the 90th is the highest with ten beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for good in [
            "setup_s",
            "sscn.gemm.macs",
            "esca.admission.over_quota",
            "1a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".lead", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn results_round_trip_through_json() {
        let r = Results {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms_p50", 1.203_456_789_012_3, "ms"),
                Metric::new("setup_s", 0.812_7, "s"),
                Metric::new("sscn.gemm.macs", 123_456_789.0, "count"),
            ],
        };
        let json = r.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(Results::from_json(&json).unwrap(), r);
        assert!(json.starts_with(r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"#));
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut empty = Fnv::default();
        empty.bytes(b"");
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
    }
}
