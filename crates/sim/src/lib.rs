#![warn(missing_docs)]
//! # loadex-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used to reproduce the
//! experimental platform of Guermouche & L'Excellent (RR-5478, 2005): a
//! distributed asynchronous system of `N` processes communicating only by
//! message passing.
//!
//! The engine is a classical event-list discrete-event simulator:
//!
//! * [`SimTime`] — simulated time in integer nanoseconds (no floating-point
//!   drift, total order, deterministic).
//! * [`EventQueue`] — a binary-heap calendar with stable FIFO tie-breaking so
//!   that two events scheduled for the same instant are handled in the order
//!   they were scheduled. This makes every run bit-reproducible. A burst of
//!   consecutive same-instant events (a broadcast's `P − 1` deliveries)
//!   takes one heap entry, not one per event; the pop order is unchanged
//!   (see the [`queue`] module docs for the layout and why).
//! * [`Simulator`] / [`World`] — the run loop. The `World` owns all process
//!   state; the simulator owns time and the calendar.
//! * [`rng`] — a small, self-contained, splittable PRNG (SplitMix64 and
//!   xoshiro256**) so that simulation randomness is stable across platforms
//!   and dependency versions.
//! * [`stats`] — counters, gauges with time-integrals, and streaming moments
//!   used by the experiment harness.
//!
//! The engine is deliberately generic: the network model lives in
//! `loadex-net`, the application (a multifrontal solver) in `loadex-solver`.

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{ActorId, Scheduler, SimConfig, Simulator, StopReason, World};
pub use queue::EventQueue;
pub use rng::{SimRng, SplitMix64};
pub use stats::{Counter, StatSet, TimeWeightedGauge, Welford};
pub use time::{SimDuration, SimTime};
