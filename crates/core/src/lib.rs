//! # Petabit Router-in-a-Package — core library
//!
//! This crate implements the two architectural contributions of
//! *"Petabit Router-in-a-Package: Rethinking Internet Routers in the Age
//! of In-Packaged Optics and Heterogeneous Integration"* (Keslassy &
//! Lin, HotNets '25), on top of the workspace's HBM device simulator
//! (`rip-hbm`), photonics front end (`rip-photonics`) and traffic
//! generators (`rip-traffic`):
//!
//! 1. **The Split-Parallel Switch** ([`SpsRouter`], §2): the incoming
//!    fibers of each ribbon are spatially split — without processing —
//!    across `H` independent HBM switches, so every packet crosses
//!    exactly one O/E→E/O conversion.
//! 2. **The HBM switch with Parallel Frame Interleaving**
//!    ([`HbmSwitch`], §3): input ports pack variable-size packets into
//!    `k = 4 KiB` batches in per-output SRAM queues; an `N×N` cyclical
//!    crossbar stripes batches over `N` tail-SRAM modules; batches
//!    aggregate into `K = 512 KiB` frames that the PFI engine writes to
//!    (and reads from) `B` HBM stacks at peak data rates using cyclical
//!    staggered bank interleaving; head SRAM and output ports unpack
//!    frames back into packets and hash them over the egress
//!    fibers/wavelengths.
//!
//! The switch is a deterministic discrete-event simulation running
//! against a command-level HBM4 timing model — every ACT/RD/WR/PRE/REFsb
//! the PFI schedule implies is issued and validated against
//! JEDEC-style rules.
//!
//! ## Quick start
//!
//! ```
//! use rip_core::{HbmSwitch, RouterConfig};
//! use rip_traffic::{Packet, TrafficMatrix};
//! use rip_units::{DataSize, SimTime};
//!
//! let cfg = RouterConfig::small(); // ratio-preserving scaled config
//! let switch = HbmSwitch::new(cfg).unwrap();
//! let trace = vec![Packet::new(1, 0, 2, DataSize::from_bytes(1500), SimTime::ZERO)];
//! let report = switch.run(&trace, SimTime::from_ns(1_000_000));
//! assert_eq!(report.delivered_packets, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod config;
mod crossbar;
mod error;
mod hbm_switch;
mod mimic;
mod output;
mod resilience;
mod sps;
mod sram;

pub use batch::{Batch, BatchAssembler, Chunk};
pub use config::{DrainPolicy, RouterConfig, SRAM_INTERFACE_BITS};
pub use crossbar::CyclicalCrossbar;
pub use error::ConfigError;
pub use hbm_switch::{CheckpointedRunError, HbmSwitch, RunOutcome, SwitchReport};
pub use mimic::{MimicChecker, MimicReport};
pub use output::{OutputPort, PacketDeparture};
pub use resilience::{FaultAction, FaultEvent, FaultKind, FaultPlan, FaultPlanError};
pub use sps::{
    LiveOptions, PerSwitch, PlaneResult, PlaneSource, SpsReport, SpsRouter, SpsWorkload,
};
pub use sram::{Frame, HeadSram, SramOccupancy, TailSram};
