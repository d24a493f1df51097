//! # lnic-sim: deterministic discrete-event simulation engine
//!
//! The foundation of the λ-NIC reproduction. Every other crate in the
//! workspace models its hardware or software component on top of this
//! engine: a nanosecond-resolution virtual clock, a time-ordered event
//! queue with deterministic tie-breaking (see [`queue`]),
//! dynamically-typed messages, and measurement utilities (series,
//! summaries, ECDFs, histograms).
//!
//! ## Example
//!
//! ```
//! use lnic_sim::prelude::*;
//!
//! #[derive(Debug)]
//! struct Request(u64);
//!
//! /// A fixed-service-time server that records per-request latency.
//! struct Server {
//!     service: SimDuration,
//!     latencies: Series,
//! }
//!
//! impl Component for Server {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
//!         let req = msg.downcast::<Request>().expect("server takes Request");
//!         let sent_at = SimTime::from_nanos(req.0);
//!         let done = ctx.now() + self.service;
//!         self.latencies.record(done - sent_at);
//!     }
//! }
//!
//! let mut sim = Simulation::new(7);
//! let server = sim.add(Server {
//!     service: SimDuration::from_micros(5),
//!     latencies: Series::new("latency"),
//! });
//! for i in 0..10 {
//!     let at = SimDuration::from_micros(i * 100);
//!     sim.post(server, at, Request((SimTime::ZERO + at).as_nanos()));
//! }
//! sim.run();
//! let summary = sim.get::<Server>(server).unwrap().latencies.summary();
//! assert_eq!(summary.count, 10);
//! assert_eq!(summary.mean_ns, 5_000.0);
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod lease;
pub mod message;
pub mod metrics;
pub mod queue;
pub mod time;
pub mod trace;

pub use check::InvariantChecker;
pub use engine::{Component, ComponentId, Ctx, Simulation, TimerId};
pub use fault::{FaultEvent, FaultPlan, TimedFault};
pub use message::{AnyMessage, Message};
pub use metrics::{Counter, Ecdf, LogHistogram, Series, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{HashSink, JsonlSink, RingSink, TraceEvent, TraceRecord, TraceSink, Tracer};

/// Convenience re-exports for component authors.
pub mod prelude {
    pub use crate::check::InvariantChecker;
    pub use crate::engine::{Component, ComponentId, Ctx, Simulation, TimerId};
    pub use crate::fault::{FaultEvent, FaultPlan, TimedFault};
    pub use crate::message::{AnyMessage, Message};
    pub use crate::metrics::{Counter, Ecdf, LogHistogram, Series, Summary};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{
        HashSink, JsonlSink, RingSink, TraceEvent, TraceRecord, TraceSink, Tracer,
    };
}
