//! Order statistics and the metric table every run reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sxe_telemetry::json::{number, quote};

/// Median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The value at quantile `q` (nearest rank on the sorted values).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A tail percentile that keeps at least ten samples beyond it: `q`
/// itself when the sample is large enough, otherwise the highest
/// quantile that still leaves ten samples above. Returns the value and
/// the quantile actually used.
#[must_use]
pub fn tail(values: &[f64], q: f64) -> (f64, f64) {
    let n = values.len() as f64;
    let q_used = q.min(((n - 10.0) / n).max(0.5));
    (quantile(values, q_used), q_used)
}

/// Geometric mean of positive values (1 for an empty slice).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit (`ms`, `kinst/s`, `count`, ...).
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count).
    pub n: u64,
    /// Free-form note: the quantile used for a tail, the base of a ratio.
    pub note: String,
}

/// Named metrics in a deterministic (sorted) order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Record `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, n: u64) {
        self.set_noted(name, value, unit, n, String::new());
    }

    /// Record `name` with a note.
    pub fn set_noted(&mut self, name: &str, value: f64, unit: &'static str, n: u64, note: String) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                n,
                note,
            },
        );
    }

    /// Fold `other` in, replacing same-named entries.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": u, "n": n, "note": s}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"note\": {}}}",
                quote(name),
                number(m.value),
                quote(m.unit),
                m.n,
                quote(&m.note)
            );
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, q) = tail(&v, 0.99);
        assert!((q - 0.9).abs() < 1e-12);
        assert_eq!(value, 90.0);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99), (1980.0, 0.99));
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
