//! What a run prints: named metrics with units, the result line, and the
//! canonical form of a simulation report used to compare two runs.

use std::fmt::Write as _;

use albatross_container::simrun::SimReport;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Simulated packets offered to the pod across all measured runs.
    pub attempted: u64,
    /// Packets offered in runs whose checks failed.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Canonical form of the first simulation report.
    pub fingerprint: String,
}

impl Outcome {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Debug formatting keeps every digit and always prints a valid
            // JSON number for finite values.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Minor page faults the process has taken so far (field 10 of
/// `/proc/self/stat`), or 0 where that file cannot be read.
pub fn minor_faults() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name, field 2, is in parentheses and may hold spaces.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// Anonymous memory backed by transparent huge pages (`AnonHugePages` in
/// `/proc/self/smaps_rollup`), in KiB, or 0 where that file cannot be read.
pub fn anon_huge_pages_kb() -> u64 {
    std::fs::read_to_string("/proc/self/smaps_rollup")
        .ok()
        .and_then(|rollup| {
            rollup
                .lines()
                .find_map(|l| l.strip_prefix("AnonHugePages:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Every field of a report in a canonical text form: equal strings mean
/// equal reports. Per-tenant maps are listed in VNI order and the latency
/// histogram bucket by bucket.
pub fn fingerprint(r: &SimReport) -> String {
    let mut base = r.clone();
    let delivered = std::mem::take(&mut base.tenant_delivered);
    let tenant_latency = std::mem::take(&mut base.tenant_latency);
    let mut out = format!("{base:?}");
    let _ = write!(out, " latency_mean={:?} buckets=", r.latency.mean());
    for (v, n) in r.latency.nonempty_buckets() {
        let _ = write!(out, "{v}:{n},");
    }
    let mut vnis: Vec<_> = delivered.keys().copied().collect();
    vnis.sort_unstable();
    for vni in vnis {
        let _ = write!(out, " delivered[{vni}]={:?}", delivered[&vni]);
    }
    let mut vnis: Vec<_> = tenant_latency.keys().copied().collect();
    vnis.sort_unstable();
    for vni in vnis {
        let h = &tenant_latency[&vni];
        let _ = write!(out, " latency[{vni}]={h:?}");
        for (v, n) in h.nonempty_buckets() {
            let _ = write!(out, "{v}:{n},");
        }
    }
    out
}
