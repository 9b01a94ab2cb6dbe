//! Small numeric helpers and readers for the process and the obs registry.

use mris_obs::{MetricEntry, MetricValue, Obs};

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A frozen copy of the obs registry's metrics.
pub struct ObsRead(Vec<MetricEntry>);

impl ObsRead {
    pub fn take(obs: &Obs) -> ObsRead {
        ObsRead(obs.registry().snapshot())
    }

    /// A counter summed over its labels (0 when never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| match v {
                MetricValue::Counter(c) => *c as f64,
                _ => 0.0,
            })
            .sum()
    }

    /// Sum of a histogram's recorded values (seconds, for span families).
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, _, v)| match v {
                MetricValue::Histogram(h) => h.sum,
                _ => 0.0,
            })
            .sum()
    }
}
