//! Metric names, summary statistics, digests and the result line.

use std::fmt::Write as _;

use grit::RunOutput;

/// Better-direction of a metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One printed metric. `count` marks an exact count taken from the
/// program's own outputs (deterministic for a seed), as opposed to a host
/// timing; a later change may rest a named count claim on it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub count: bool,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A host timing or other measured (noisy) value.
    pub fn timing(&mut self, name: &'static str, value: f64, unit: &'static str, better: Better) {
        self.0.push(Metric {
            name,
            value,
            unit,
            better,
            count: false,
        });
    }

    /// An exact, seed-deterministic value derived from simulated results.
    pub fn count(&mut self, name: &'static str, value: f64, unit: &'static str, better: Better) {
        self.0.push(Metric {
            name,
            value,
            unit,
            better,
            count: true,
        });
    }
}

/// Operations attempted and the violations, errors and refusals among
/// them, each with a one-line reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failure of an operation already counted.
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: FAILED: {why}");
        }
        self.failures.push(why);
    }
}

/// Prints the human-readable metric table and, last, the one-line JSON
/// result the benchmark contract asks for.
pub fn emit(workload: &str, metrics: &Metrics, tally: &Tally) {
    for m in &metrics.0 {
        println!(
            "metric {workload} {:<32} {:>16.6} {:<8} better={:<6} kind={}",
            m.name,
            m.value,
            m.unit,
            m.better.name(),
            if m.count { "count" } else { "measured" }
        );
    }
    let mut json = String::new();
    let failed = tally.failures.len();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        tally.attempted.max(1)
    );
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Smallest value of a sample (infinite when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise minimum over repeats of one sample vector: each item's
/// cost in this run with the least disturbance. On a shared host, other
/// tenants' use of its caches and memory can slow this process by 20-50 %
/// for seconds to minutes at a time; that load only ever adds time.
/// The fastest repeat of an item is the estimate it disturbs least, where
/// a per-item median still follows a slow stretch that covers half the
/// run.
pub fn min_of<'a>(repeats: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let repeats: Vec<&[f64]> = repeats.into_iter().collect();
    let items = repeats.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..items)
        .map(|i| fastest(&repeats.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Linear-interpolated percentile `p` in `[0, 100]` (NaN when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The tail of a latency sample: the highest of a fixed ladder of
/// percentiles that still has at least ten samples beyond it (the
/// maximum when the sample is too small for any). Returns
/// `(value, percentile, samples)`.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len();
    for p in LADDER {
        if (n as f64) * (1.0 - p / 100.0) >= 10.0 {
            return (percentile(xs, p), p, n);
        }
    }
    (percentile(xs, 100.0), 100.0, n)
}

/// FNV-1a 64 over bytes, folded into a running hash.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Offset basis of FNV-1a 64.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every simulated statistic of one run: all of `RunMetrics`
/// (aux series in key order, floats by bit pattern) and the page-attribute
/// summary. Host timings (`RunOutput::timing`) are excluded, so the digest
/// is a pure function of the simulated behaviour.
pub fn digest(out: &RunOutput) -> u64 {
    let m = &out.metrics;
    let mut text = format!(
        "{} {} {} {} {:?} {:?} {:?} {} {} {:x}|{:?}",
        m.total_cycles,
        m.accesses,
        m.local_accesses,
        m.remote_accesses,
        m.breakdown,
        m.faults,
        m.scheme_mix,
        m.nvlink_bytes,
        m.pcie_bytes,
        m.oversubscription_rate.to_bits(),
        out.page_attrs,
    );
    let mut keys: Vec<&String> = m.aux.keys().collect();
    keys.sort();
    for k in keys {
        let _ = write!(text, "|{k}:");
        for v in &m.aux[k] {
            let _ = write!(text, "{:x},", v.to_bits());
        }
    }
    fnv(FNV_BASIS, text.as_bytes())
}

/// Cheap accounting identities every finished run must satisfy.
pub fn check_identities(out: &RunOutput, generated_accesses: u64) -> Result<(), String> {
    let m = &out.metrics;
    let per_gpu: f64 = m.aux("per_gpu_accesses").unwrap_or_default().iter().sum();
    if per_gpu as u64 != m.accesses {
        return Err(format!(
            "per-GPU accesses sum to {per_gpu}, run reports {}",
            m.accesses
        ));
    }
    if m.accesses != generated_accesses {
        return Err(format!(
            "run replayed {} accesses, the workload generated {generated_accesses}",
            m.accesses
        ));
    }
    if m.total_cycles == 0 {
        return Err("run reports zero simulated cycles".into());
    }
    if m.local_accesses + m.remote_accesses > m.accesses {
        return Err(format!(
            "local {} + remote {} accesses exceed {}",
            m.local_accesses, m.remote_accesses, m.accesses
        ));
    }
    let per_gpu_faults: f64 = m.aux("per_gpu_faults").unwrap_or_default().iter().sum();
    if per_gpu_faults as u64 != m.faults.total_faults() {
        return Err(format!(
            "per-GPU faults sum to {per_gpu_faults}, run reports {}",
            m.faults.total_faults()
        ));
    }
    let finish = m.aux("per_gpu_finish_cycles").unwrap_or_default();
    if finish.iter().fold(0.0f64, |a, &b| a.max(b)) as u64 != m.total_cycles {
        return Err("total cycles differ from the latest per-GPU finish".into());
    }
    for key in ["tlb_l1_hit_rate", "tlb_l2_hit_rate"] {
        if m.aux(key).unwrap_or_default().iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(format!("{key} outside [0, 1]"));
        }
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The paper's GRIT geomean gains over on-touch, access-counter and
/// duplication (Fig. 17: +60 %, +49 %, +29 %).
pub const PAPER_GAINS: [(&str, f64); 3] = [
    ("on-touch", 0.60),
    ("access-counter", 0.49),
    ("duplication", 0.29),
];

/// Mean absolute gap, in percentage points, between simulated GRIT geomean
/// gains and the paper's, over the baselines present. `cycles(app, label)`
/// gives one cell's simulated cycles; `apps` are the rows compared.
pub fn paper_gap_pp(apps: usize, cycles: impl Fn(usize, &str) -> Option<f64>) -> f64 {
    let mut gaps = Vec::new();
    for (base, paper) in PAPER_GAINS {
        let ratios: Vec<f64> =
            (0..apps).filter_map(|a| Some(cycles(a, base)? / cycles(a, "grit")?)).collect();
        if ratios.len() == apps && apps > 0 {
            let gain = grit_metrics::geomean(&ratios) - 1.0;
            gaps.push((gain - paper).abs() * 100.0);
        }
    }
    if gaps.is_empty() {
        f64::NAN
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }
}

/// Deterministic 64-bit generator (SplitMix64) for workload inputs.
pub struct Rng(pub u64);

impl Rng {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (_, p, n) = tail(&xs);
        assert_eq!((p, n), (99.0, 1000));
        let (v, p, _) = tail(&xs[..15]);
        assert_eq!((v, p), (14.0, 100.0));
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 25.0), 2.5);
        assert!(median(&[]).is_nan());
    }
}
