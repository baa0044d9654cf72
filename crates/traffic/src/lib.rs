//! Synthetic traffic for the petabit router-in-a-package reproduction.
//!
//! The paper has no traces (it is a vision paper about a router that does
//! not exist yet); its traffic-dependent claims are distributional:
//! 100 % throughput for *admissible* matrices, SPS balance under hashed
//! (ECMP/LAG) traffic, imbalance under fill-order skew, and adversarial
//! concentration against a known split pattern. This crate generates
//! exactly those distributions:
//!
//! * [`Packet`] / [`FlowKey`] — variable-size packets with 5-tuple flows;
//! * [`SizeDistribution`] — 64 B / 1,500 B / IMIX / uniform / empirical
//!   packet-size mixes;
//! * [`TrafficMatrix`] — uniform, hotspot, permutation, log-normal and
//!   custom matrices with admissibility checks;
//! * [`PacketGenerator`] — Poisson / CBR / bursty on–off arrival
//!   processes targeting a load level on a port;
//! * [`FiberFill`] — per-fiber load skew models (operators connect the
//!   first fibers first — §2.1 Challenge 4);
//! * [`hash`] — ECMP/LAG 5-tuple hashing (FNV-1a and CRC-32C) used to
//!   spread flows over fibers/wavelengths;
//! * [`Attacker`] — adversarial generators that exploit a known split
//!   pattern (experiment E17);
//! * [`PacketSource`] — pull-based streaming: generators, bounded and
//!   k-way-merged sources, and slice replay, all byte-identical to the
//!   materialized batch helpers for the same seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod arrivals;
mod fill;
pub mod hash;
mod matrix;
mod packet;
mod size;
mod source;

pub use adversarial::Attacker;
pub use arrivals::{ArrivalProcess, PacketGenerator};
pub use fill::FiberFill;
pub use matrix::TrafficMatrix;
pub use packet::{FlowKey, Packet};
pub use size::SizeDistribution;
pub use source::{
    BoundedSource, MergedSource, PacketSource, Packets, ReplaySource, StatefulSource,
};
