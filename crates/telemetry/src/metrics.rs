//! The metrics registry: typed counters, gauges, and histograms under a
//! dotted label scheme.
//!
//! Labels are dotted paths — `sxe.extends_inserted`,
//! `opt.rewrites.licm`, `compile.boundaries`, `pass.dce.wall_ns`,
//! `vm.op.aload` — stored in `BTreeMap`s so every export is
//! deterministically ordered. [`Registry::merge`] adds counters,
//! overwrites gauges, and folds histograms bucket-by-bucket, which is
//! how shard workers and repeated compiles aggregate exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::fmt_duration_ns;
use crate::json;

/// Number of power-of-two histogram buckets (bucket *i* counts values
/// `v` with `v == 0 ? i == 0 : floor(log2(v)) + 1 == i`); covers the
/// full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram of `u64` samples (typically nanoseconds) in power-of-two
/// buckets, tracking exact count/sum/min/max alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean sample (zero when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket bounds:
    /// the upper bound of the bucket holding the `q`-th sample, clamped
    /// to the observed `max`. Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i).saturating_sub(1) };
                return upper.min(self.max).max(self.min);
            }
        }
        self.max
    }
}

/// Typed named metrics: monotonic counters, last-write gauges, and
/// [`Histogram`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Current value of counter `name` (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the gauge `name`.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a sample into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: impl Into<String>, value: u64) {
        self.histograms.entry(name.into()).or_default().observe(value);
    }

    /// The histogram `name`, if any sample was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in label order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate the counters whose name starts with `prefix`, in label
    /// order. BTreeMap range semantics make this a contiguous walk, so
    /// a namespaced family like `serve.net.*` is cheap to snapshot even
    /// from a large registry.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate gauges in label order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in label order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the other's value, histograms merge.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Export as the flat metrics JSON document described by
    /// `schemas/metrics.schema.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"sxe-metrics/1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(s, "{sep}    {}: {v}", json::quote(k));
        }
        if !self.counters.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(s, "{sep}    {}: {}", json::quote(k), json::number(*v));
        }
        if !self.gauges.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                json::quote(k),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        if !self.histograms.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// A human-readable table: counters, gauges, then histograms (with
    /// durations formatted by the shared [`fmt_duration_ns`] formatter
    /// for every `*_ns` label).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        if self.is_empty() {
            return "metrics: (empty)\n".to_string();
        }
        let _ = writeln!(s, "metrics:");
        for (k, v) in &self.counters {
            let _ = writeln!(s, "  {k:<44} {v:>12}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(s, "  {k:<44} {v:>12.2}");
        }
        for (k, h) in &self.histograms {
            let (mean, max) = if k.ends_with("_ns") {
                (fmt_duration_ns(h.mean()), fmt_duration_ns(h.max))
            } else {
                (h.mean().to_string(), h.max.to_string())
            };
            let _ = writeln!(
                s,
                "  {k:<44} {:>12}  (n={}, mean={mean}, max={max})",
                h.count, h.count
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.add("a.b", 2);
        r.add("a.b", 3);
        r.set_gauge("g", 1.5);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(1.5));
    }

    #[test]
    fn counters_with_prefix_walks_exactly_the_family() {
        let mut r = Registry::new();
        r.add("serve.net.conn_refused", 1);
        r.add("serve.net.malformed_frames", 2);
        r.add("serve.nett-lookalike", 9); // shares a string prefix, not the family
        r.add("serve.requests", 3);
        r.add("aaa.first", 4);
        let family: Vec<(&str, u64)> = r.counters_with_prefix("serve.net.").collect();
        assert_eq!(
            family,
            vec![("serve.net.conn_refused", 1), ("serve.net.malformed_frames", 2)]
        );
        assert_eq!(r.counters_with_prefix("zzz.").count(), 0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1107);
        assert_eq!((h.min, h.max), (1, 1000));
        assert_eq!(h.mean(), 221);
        assert!(h.quantile(0.5) >= 2 && h.quantile(0.5) <= 100);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_adds_counters_and_folds_histograms() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.add("c", 1);
        b.add("c", 2);
        a.observe("h", 10);
        b.observe("h", 20);
        b.set_gauge("g", 7.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").unwrap().count, 2);
        assert_eq!(a.histogram("h").unwrap().sum, 30);
        assert_eq!(a.gauge("g"), Some(7.0));
    }

    #[test]
    fn json_export_parses_back() {
        let mut r = Registry::new();
        r.add("sxe.extends_inserted", 4);
        r.set_gauge("throughput.modules_per_sec", 123.25);
        r.observe("pass.dce.wall_ns", 1500);
        let text = r.to_json();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("sxe.extends_inserted")).and_then(
                crate::json::Value::as_f64
            ),
            Some(4.0)
        );
        let h = doc.get("histograms").and_then(|h| h.get("pass.dce.wall_ns")).unwrap();
        assert_eq!(h.get("count").and_then(crate::json::Value::as_f64), Some(1.0));
        assert_eq!(h.get("sum").and_then(crate::json::Value::as_f64), Some(1500.0));
    }

    #[test]
    fn summary_renders_every_kind() {
        let mut r = Registry::new();
        r.add("compile.boundaries", 9);
        r.set_gauge("speedup", 2.0);
        r.observe("pass.licm.wall_ns", 2_000_000);
        let s = r.summary();
        assert!(s.contains("compile.boundaries"));
        assert!(s.contains("speedup"));
        assert!(s.contains("pass.licm.wall_ns"));
        assert!(s.contains("ms"), "durations use the shared formatter: {s}");
    }
}
