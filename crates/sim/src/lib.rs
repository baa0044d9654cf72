//! Deterministic discrete-event simulation kernel for the petabit
//! router-in-a-package reproduction.
//!
//! Design follows the event-driven idioms of embedded network stacks
//! (smoltcp): synchronous, allocation-light, fully deterministic. The
//! kernel offers:
//!
//! * [`EventQueue`] — a time-ordered queue with **deterministic
//!   tie-breaking** (FIFO among equal-time events, by insertion sequence
//!   number), so a simulation is a pure function of its configuration and
//!   seed. One `BinaryHeap` kernel; checkpoints store its entries in pop
//!   order and rebuild it with [`EventQueue::from_entries`].
//! * [`arena`] — recycling pools ([`VecPool`]) that keep hot-loop
//!   buffer churn out of the allocator without touching determinism.
//! * [`rng`] — seeded, stream-splittable random number generation. Every
//!   stochastic component of the workspace takes an explicit `u64` seed.
//! * [`snapshot`] — versioned, CRC-checked checkpoint containers with
//!   atomic-rename writes and two-slot rotation, the storage layer under
//!   crash-safe soak resume.
//! * [`stats`] — counters, histograms with exact quantiles,
//!   time-weighted gauges and busy-time accumulators used by the
//!   experiments.
//!
//! # Example
//!
//! ```
//! use rip_sim::EventQueue;
//! use rip_units::{SimTime, TimeDelta};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, Ev::Ping(0));
//! let mut seen = Vec::new();
//! while let Some((now, Ev::Ping(n))) = q.pop() {
//!     seen.push((now.as_ps(), n));
//!     if n < 3 {
//!         q.schedule(now + TimeDelta::from_ns(1), Ev::Ping(n + 1));
//!     }
//! }
//! assert_eq!(seen.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod queue;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use arena::VecPool;
pub use queue::{EventQueue, QueueRestoreError};
