//! Metric names, units and the arithmetic that turns a run's samples and
//! counters into them.

use std::collections::BTreeMap;

use rl_bench::json::Json;

use crate::driver::{Counters, CLASSES};
use crate::trace::{SpanTotals, ROOT, SPANS};

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("read_p50_us", "us"),
    ("query_p50_us", "us"),
    ("write_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The tail quantile of the latency families. A p99 does not repeat run
/// to run: compaction stalls about one commit in 256, which puts the 99th
/// percentile on the edge of the stalls.
pub const TAIL_QUANTILE: f64 = 0.95;

/// `<class>_<label>_us` for each class, from its latencies in ns.
fn latencies(latency_ns: &[Vec<u64>; 3], q: f64, label: &str) -> Vec<(String, f64)> {
    CLASSES
        .iter()
        .zip(latency_ns)
        .map(|(class, lat)| {
            let mut lat = lat.clone();
            lat.sort_unstable();
            let name = format!("{}_{label}_us", class.name());
            (name, quantile(&lat, q) as f64 / 1e3)
        })
        .collect()
}

/// The end-to-end metric values, in [`END_TO_END`] order, from the
/// latencies of each class (in [`CLASSES`] order, ns).
pub fn end_to_end_values(
    throughput_ops_s: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    latency_ns: &[Vec<u64>; 3],
) -> Vec<(String, f64)> {
    let mut out = vec![("throughput_ops_s".to_string(), throughput_ops_s)];
    out.extend(latencies(latency_ns, 0.5, "p50"));
    out.push(("setup_s".to_string(), setup_s));
    out.push(("peak_rss_mb".to_string(), peak_rss_mb));
    out
}

/// Per-layer metrics that are not per-span, reported by the traced run.
const LAYER_COUNTERS: &[(&str, &str)] = &[
    ("read_p95_us", "us"),
    ("query_p95_us", "us"),
    ("write_p95_us", "us"),
    ("recovery_s", "s"),
    ("disk_bytes_per_user_byte", "B/B"),
    ("bench.trace_throughput_ratio", "ratio"),
    ("fdb.commit.p99_us", "us"),
    ("fdb.grv_calls_per_op", "count"),
    ("fdb.read_ops_per_op", "count"),
    ("fdb.attempts_per_op", "count"),
    ("fdb.conflict_rate", "ratio"),
    ("fdb.commits_per_wal_append", "count"),
    ("fdb.live_keys_end_over_start", "ratio"),
    ("record.keys_read_per_query_row", "count"),
    ("record.record_fetches_per_query", "count"),
    ("record.keys_read_per_write", "count"),
    ("record.keys_written_per_write", "count"),
    ("storage.page_hit_rate", "ratio"),
    ("storage.page_misses_per_op", "count"),
    ("storage.page_evictions_per_op", "count"),
    ("storage.page_flushes_per_write", "count"),
    ("fdb.get.mean_us", "us"),
    ("fdb.get_range.mean_us", "us"),
    ("storage.page_read.mean_us", "us"),
    ("storage.wal_append.mean_us", "us"),
    ("storage.page_flush.mean_us", "us"),
];

/// The `rl_obs` recorder histograms read as layer timings, by metric.
const RECORDER_HISTOGRAMS: &[(&str, &str)] = &[
    ("fdb.get.mean_us", "get"),
    ("fdb.get_range.mean_us", "get_range"),
    ("storage.page_read.mean_us", "page_read"),
    ("storage.wal_append.mean_us", "wal_append"),
    ("storage.page_flush.mean_us", "page_flush"),
];

/// Every per-layer metric with its unit: per span its mean time per call
/// and its self time as a share of op time, then the counters.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for &span in SPANS {
        if span != ROOT {
            out.push((format!("{span}.mean_us"), "us"));
        }
        out.push((format!("{span}.share"), "ratio"));
    }
    out.extend(LAYER_COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Database counter deltas over the measured window.
#[derive(Debug, Default, Clone, Copy)]
pub struct DbDeltas {
    pub grv_calls: u64,
    pub page_hits: u64,
    pub page_misses: u64,
    pub page_evictions: u64,
    pub page_flushes: u64,
    pub wal_appends: u64,
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    pub spans: &'a BTreeMap<&'static str, SpanTotals>,
    /// Counters over the whole measured window.
    pub all: &'a Counters,
    /// Counters over the traced slices only.
    pub traced: &'a Counters,
    pub db: DbDeltas,
    /// Live keys at the start and the end of the measured window.
    pub live_keys: (usize, usize),
    pub untraced_ops_s: f64,
    pub traced_ops_s: f64,
    /// Mean µs of each `rl_obs` recorder histogram, by recorder name.
    pub recorder_mean_us: &'a BTreeMap<String, f64>,
    /// Latencies of the untraced slices, per class.
    pub latency_ns: &'a [Vec<u64>; 3],
}

/// The per-layer metric values, in [`per_layer`] order.
pub fn layer_values(t: &Traced<'_>) -> Vec<(String, f64)> {
    let none = SpanTotals::default();
    let op_ns = t.spans.get(ROOT).map_or(0, |s| s.total_ns) as f64;
    let (all, tr, db) = (t.all, t.traced, &t.db);
    let write_commits = all.commits.saturating_sub(all.conflicts) as f64;
    let mut values = BTreeMap::new();
    for &span in SPANS {
        let s = t.spans.get(span).unwrap_or(&none);
        values.insert(
            format!("{span}.mean_us"),
            ratio(s.total_ns as f64, s.calls as f64) / 1e3,
        );
        values.insert(format!("{span}.share"), ratio(s.self_ns as f64, op_ns));
    }
    let commit = t.spans.get("fdb.commit").map(|s| {
        let mut d = s.durations_ns.clone();
        d.sort_unstable();
        quantile(&d, 0.99) as f64 / 1e3
    });
    let ops = all.ops as f64;
    let counters: [(&str, f64); 16] = [
        (
            "bench.trace_throughput_ratio",
            ratio(t.traced_ops_s, t.untraced_ops_s),
        ),
        ("fdb.commit.p99_us", commit.unwrap_or(0.0)),
        ("fdb.grv_calls_per_op", ratio(db.grv_calls as f64, ops)),
        (
            "fdb.read_ops_per_op",
            ratio(tr.read_ops as f64, tr.ops as f64),
        ),
        (
            "fdb.attempts_per_op",
            ratio(all.attempts as f64, (all.ops + all.failed) as f64),
        ),
        (
            "fdb.conflict_rate",
            ratio(all.conflicts as f64, all.commits as f64),
        ),
        (
            "fdb.commits_per_wal_append",
            ratio(write_commits, db.wal_appends as f64),
        ),
        (
            "fdb.live_keys_end_over_start",
            ratio(t.live_keys.1 as f64, t.live_keys.0 as f64),
        ),
        (
            "record.keys_read_per_query_row",
            ratio(tr.query_keys_read as f64, tr.query_rows as f64),
        ),
        (
            "record.record_fetches_per_query",
            ratio(tr.query_fetches as f64, tr.queries as f64),
        ),
        (
            "record.keys_read_per_write",
            ratio(tr.write_keys_read as f64, tr.writes as f64),
        ),
        (
            "record.keys_written_per_write",
            ratio(tr.write_keys_written as f64, tr.writes as f64),
        ),
        (
            "storage.page_hit_rate",
            ratio(db.page_hits as f64, (db.page_hits + db.page_misses) as f64),
        ),
        (
            "storage.page_misses_per_op",
            ratio(db.page_misses as f64, ops),
        ),
        (
            "storage.page_evictions_per_op",
            ratio(db.page_evictions as f64, ops),
        ),
        (
            "storage.page_flushes_per_write",
            ratio(db.page_flushes as f64, all.writes as f64),
        ),
    ];
    values.extend(counters.iter().map(|&(n, v)| (n.to_string(), v)));
    values.extend(latencies(t.latency_ns, TAIL_QUANTILE, "p95"));
    for &(metric, hist) in RECORDER_HISTOGRAMS {
        values.insert(
            metric.to_string(),
            t.recorder_mean_us.get(hist).copied().unwrap_or(0.0),
        );
    }
    per_layer()
        .into_iter()
        .map(|(name, _)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v)
        })
        .collect()
}

/// The `metrics` object of the result line.
pub fn metrics_json(values: &[(String, f64)], units: &[(String, &str)]) -> Json {
    let mut out = Json::obj();
    for (name, value) in values {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        out.set(
            name.as_str(),
            Json::obj().with("value", *value).with("unit", unit),
        );
    }
    out
}

/// The result line: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    let pretty = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics)
        .to_pretty();
    // Strings never hold raw newlines, so dropping each line's leading
    // indentation and the newlines gives the same object on one line.
    pretty.lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_is_one_parseable_line() {
        let units = vec![("a_us".to_string(), "us")];
        let line = result_line(true, 5, 0, metrics_json(&[("a_us".into(), 1.25)], &units));
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.keys(),
            vec!["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(
            parsed.get_path("metrics.a_us.value").and_then(Json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            parsed.get_path("metrics.a_us.unit").and_then(Json::as_str),
            Some("us")
        );
    }
}
