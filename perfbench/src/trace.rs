//! Span recording around calls into the program's crates.
//!
//! Every unit of work (a module, a kernel, a request) gets its own
//! [`Lane`], labelled with the unit's id, so all spans of one unit share
//! that id. Spans stay in memory; [`Tracer::write`] exports them once,
//! through `sxe-telemetry`'s Chrome-trace exporter, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use sxe_telemetry::{chrome_trace, ArgValue, Clock, Event, Lane, Span};

/// Collects units' spans and per-layer self time.
#[derive(Debug, Default)]
pub struct Tracer {
    clock: Option<Clock>,
    events: Vec<Event>,
    /// Self time per layer (span category), nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans recorded.
    pub spans: u64,
}

impl Tracer {
    /// A recording tracer (`on`) or one whose lanes record nothing.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            clock: on.then(Clock::new),
            ..Tracer::default()
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.clock.is_some()
    }

    /// A lane for one unit of work.
    #[must_use]
    pub fn unit(&self, id: &str) -> Unit {
        Unit {
            lane: Lane::new(self.clock, id),
        }
    }

    /// Finish a unit: fold its spans into the per-layer self times and
    /// keep them for the exported trace when `keep`.
    pub fn finish(&mut self, unit: Unit, keep: bool) {
        let events = unit.lane.into_events();
        self.spans += events.len() as u64;
        for (cat, ns) in self_times(&events) {
            *self.self_ns.entry(cat).or_insert(0) += ns;
        }
        if keep {
            self.events.extend(events);
        }
    }

    /// Export the kept spans as a Chrome trace-event document.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }
}

/// One unit's lane.
#[derive(Debug)]
pub struct Unit {
    lane: Lane,
}

impl Unit {
    /// Run `f` inside a span `name` of layer `cat`; returns its result
    /// and wall time in nanoseconds (measured whether or not the lane
    /// records).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let span = self.lane.begin(name, cat);
        let t = Instant::now();
        let r = f();
        let ns = elapsed_ns(t);
        self.lane.end(span);
        (r, ns)
    }

    /// Open a span that encloses later spans of this unit.
    pub fn open(&mut self, name: &'static str, cat: &'static str) -> (Span, Instant) {
        (self.lane.begin(name, cat), Instant::now())
    }

    /// Close a span from [`Unit::open`]; returns its wall time.
    pub fn close(&mut self, (span, t): (Span, Instant)) -> u64 {
        let ns = elapsed_ns(t);
        self.lane.end(span);
        ns
    }

    /// Record work of `ns` nanoseconds that a callee measured inside the
    /// currently open span (chain creation inside elimination). The span
    /// is placed to end now, so it nests inside the open one; it carries
    /// a `synthetic` tag because its true start is not observable from
    /// outside.
    pub fn record(&mut self, name: &'static str, cat: &'static str, ns: u64) {
        if self.lane.is_enabled() {
            let start = self.lane.now_ns().saturating_sub(ns);
            self.lane
                .complete_since(name, cat, start, vec![("synthetic", ArgValue::Bool(true))]);
        }
    }
}

/// Nanoseconds since `t`.
#[must_use]
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-category self time of one lane's spans: each span's duration
/// minus the part its direct children cover.
fn self_times(events: &[Event]) -> Vec<(&'static str, u64)> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].ts_ns, std::cmp::Reverse(events[i].dur_ns)));
    let mut child = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = stack.last() {
            let t = &events[top];
            if e.ts_ns >= t.ts_ns + t.dur_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child[parent] += e.dur_ns;
        }
        stack.push(i);
    }
    events
        .iter()
        .zip(child)
        .map(|(e, c)| (e.cat, e.dur_ns.saturating_sub(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new(true);
        let mut unit = tracer.unit("u");
        let outer = unit.open("outer", "a");
        let (_, inner) = unit.span("inner", "b", || {
            (0..1_000_000u64).map(std::hint::black_box).sum::<u64>()
        });
        let total = unit.close(outer);
        tracer.finish(unit, true);
        assert!(tracer.self_ns["b"] >= inner / 2, "the child keeps its time");
        assert!(
            tracer.self_ns["a"] <= total.saturating_sub(inner / 2),
            "the parent loses the child's time"
        );
        assert!(tracer.chrome_trace().contains("\"inner\""));
    }
}
