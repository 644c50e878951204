//! # sxe-telemetry — tracing spans, metrics, and exporters
//!
//! The measurement substrate for the whole compile pipeline (and the VM
//! that executes its output). Three layers:
//!
//! * **spans** ([`Session`], [`Lane`], [`Span`], [`Event`]) — a
//!   span-based tracer with monotonic timestamps drawn from one shared
//!   [`Clock`]. Recording is lock-free: every unit of work (a shard
//!   worker's function, the module prologue) owns a private
//!   [`Lane`] buffer, and the driver merges lanes back into the
//!   session **in function order** — mirroring the sharded compiler's
//!   deterministic merge — so the trace is identical at any `--threads`
//!   (modulo thread ids and wall-clock values).
//! * **metrics** ([`Registry`]) — typed counters, gauges, and
//!   histograms under a dotted label scheme (`sxe.extends_inserted`,
//!   `compile.boundaries`, `pass.dce.wall_ns`, `vm.op.aload`, ...), with a
//!   [`Registry::merge`] so shard workers and repeated compiles
//!   aggregate exactly.
//! * **exporters** — Chrome trace-event JSON
//!   ([`Telemetry::chrome_trace`], loadable in `chrome://tracing` and
//!   Perfetto), a flat metrics JSON ([`Telemetry::metrics_json`],
//!   validated by `schemas/metrics.schema.json` via the
//!   `validate-metrics` bin), and a human [`Telemetry::summary`] table.
//!
//! The [`Telemetry`] handle is the pipeline-facing sink. A disabled
//! handle ([`Telemetry::disabled`], the default) is a null sink: every
//! operation short-circuits on one branch, no event is allocated, and
//! compiled output is byte-identical to a build with no telemetry at
//! all.
//!
//! ```
//! use sxe_telemetry::{ArgValue, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! let mut lane = tel.lane("demo");
//! let span = lane.begin("compile", "jit");
//! lane.end_with(span, vec![("status", ArgValue::from("ok"))]);
//! tel.submit(lane.into_events());
//! tel.metrics(|m| m.add("sxe.extends_eliminated.total", 3));
//! assert!(tel.chrome_trace().contains("\"compile\""));
//! assert!(tel.metrics_json().contains("extends_eliminated"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod export;
pub mod json;
mod metrics;
pub mod schema;
mod span;

pub use clock::Clock;
pub use export::{chrome_trace, fmt_duration, fmt_duration_ns};
pub use metrics::{Histogram, Registry};
pub use span::{current_tid, ArgValue, Event, Lane, Phase, Session, Span, Telemetry};
