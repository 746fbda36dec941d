//! # simnet — deterministic discrete-event simulation of a cloud region
//!
//! `simnet` is the substrate for the HopsFS-CL reproduction: a deterministic
//! discrete-event simulator of processes deployed across the availability
//! zones (AZs) of a cloud region. It provides:
//!
//! - virtual [`SimTime`] and an event loop ([`Simulation`]);
//! - an actor model ([`Actor`], [`Ctx`]) with latency-accurate message
//!   passing over a region topology seeded with the paper's measured
//!   `us-west1` inter-AZ latencies ([`LatencyModel::gcp_us_west1`]);
//! - CPU modeled as named thread lanes with queueing, batching and
//!   utilization accounting ([`Lanes`]), and disks as bandwidth-limited
//!   queues ([`Disk`]);
//! - fault injection ([`Fault`], [`Schedule`]): crash/restart with a
//!   crash-recovery hook, pause/resume, whole-AZ kills, symmetric and
//!   asymmetric partitions (AZ- and node-level), node isolation, gray
//!   slowdowns, probabilistic message drop/duplication/delay
//!   ([`LinkFault`]), and disk stalls — composable into seeded, replayable
//!   schedules;
//! - a shared retry/backoff vocabulary for protocol layers
//!   ([`RetryPolicy`]);
//! - cross-AZ traffic accounting and measurement primitives
//!   ([`Histogram`], [`Counter`]), plus an availability timeline recorder
//!   that turns per-class outcome streams into unavailability windows and
//!   MTTR ([`AvailabilityRecorder`]).
//!
//! Protocol crates (`ndb`, `hopsfs`, `cephsim`) build their actors on top of
//! this; the `bench` crate turns the resulting measurements into the paper's
//! tables and figures.
//!
//! # Examples
//!
//! ```
//! use simnet::{LatencyModel, AzId};
//!
//! // Table I from the paper is built in:
//! let m = LatencyModel::gcp_us_west1();
//! assert_eq!(m.rtt(AzId(1), AzId(2)).as_micros(), 399);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod availability;
mod cpu;
mod flow;
mod hash;
mod metrics;
mod nemesis;
mod retry;
mod sim;
mod time;
mod topology;
mod trace;
mod wheel;

pub use availability::{AvailabilityRecorder, AvailabilityReport, UnavailabilityWindow};
pub use cpu::{Batching, Disk, DiskOp, LaneClassSpec, Lanes, UtilizationWindow};
pub use flow::{poisson_interarrival, Admission, BoundedQueue, Gate, RateCurve, TokenBucket};
pub use hash::{FastHasher, FastMap, FastSet};
pub use metrics::{Counter, Histogram};
pub use nemesis::{Fault, NemesisTrace, Schedule};
pub use retry::RetryPolicy;
pub use sim::{downcast, Actor, Ctx, FaultScope, LinkFault, NodeId, NodeSpec, Payload, Simulation};
pub use time::{SimDuration, SimTime};
pub use topology::{AzId, HostId, LatencyModel, Location};
pub use trace::{chrome_trace_json, CpuMetric, MetricsRegistry, Span, SpanId, Tracer};
pub use wheel::{EventHandle, EventQueue};
