//! Order statistics and small host probes.

use std::time::Duration;

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail latency: the highest of p99, p95 and p90 that has at least
/// ten samples beyond it. Below 100 samples none does, and p90 is used
/// anyway; the returned label says so.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let n = values.len();
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if (n as f64 * (1.0 - q)).round() as usize >= 10 {
            return (percentile(values, q), label);
        }
    }
    (
        percentile(values, 0.90),
        "p90 (fewer than 10 samples beyond)",
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over bytes: the digest the answer checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_tail_label() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&v), (90.0, "p90"));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, "p99"));
        assert_eq!(
            tail(&[1.0, 2.0, 3.0]).1,
            "p90 (fewer than 10 samples beyond)"
        );
    }
}
