//! Router configuration: every parameter of §2.2/§3.2, with the
//! reference instantiation and ratio-preserving scaled variants.

use rip_hbm::{HbmGeometry, HbmTiming, PfiConfig, RegionMode};
use rip_units::{DataRate, DataSize};
use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// The SRAM interface width used throughout the paper's HBM switch
/// (input ports, crossbar ports and tail/head SRAM modules): 2,048 bits.
pub const SRAM_INTERFACE_BITS: u64 = 2_048;

/// How long a run keeps simulating after arrivals stop, so in-flight
/// data can drain to the outputs.
///
/// Replaces the former hard-coded `drain = 2 × horizon`: the policy is
/// carried on [`RouterConfig`], validated with it, and honored by the
/// SPS router, the mimicking checker and the bench binaries. Absent
/// from a serialized config, it deserializes to the default (factor 2),
/// which is byte-identical to the old constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DrainPolicy {
    /// Simulate until `factor ×` the arrival horizon. `factor` counts
    /// the horizon itself, so it must be at least 1 (1 = stop with the
    /// arrivals, no extra drain time); the default is 2 — one extra
    /// horizon of drain, ample for every admissible workload in the
    /// experiment suite.
    HorizonFactor {
        /// Multiple of the arrival horizon to simulate in total.
        factor: u64,
    },
}

impl Default for DrainPolicy {
    fn default() -> Self {
        DrainPolicy::HorizonFactor { factor: 2 }
    }
}

impl DrainPolicy {
    /// The absolute simulation deadline for an arrival horizon.
    pub fn deadline(&self, horizon: rip_units::SimTime) -> rip_units::SimTime {
        match *self {
            DrainPolicy::HorizonFactor { factor } => {
                rip_units::SimTime::from_ps(horizon.as_ps().saturating_mul(factor))
            }
        }
    }

    /// Reject degenerate policies (a factor of 0 would end runs before
    /// the first arrival).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            DrainPolicy::HorizonFactor { factor: 0 } => Err(ConfigError::DrainFactorZero),
            _ => Ok(()),
        }
    }
}

/// Complete configuration of one router-in-a-package.
///
/// The reference values ([`RouterConfig::reference`]) are the paper's:
/// N = 16 ribbons × F = 64 fibers × W = 16 wavelengths × R = 40 Gb/s,
/// H = 16 HBM switches of B = 4 HBM4 stacks each, γ = 4, S = 1 KiB,
/// k = 4 KiB batches and K = 512 KiB frames. Scaled variants keep every
/// ratio the paper's correctness arguments rely on (k = N × interface
/// width, K = γ·T·S, α = F/H, memory rate ≥ 2·N·P) and are validated by
/// [`RouterConfig::validate`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterConfig {
    /// N — fiber ribbons, also ports per HBM switch.
    pub ribbons: usize,
    /// F — fibers per ribbon.
    pub fibers_per_ribbon: usize,
    /// W — WDM wavelengths per fiber per direction.
    pub wavelengths: usize,
    /// R — rate per wavelength.
    pub rate_per_wavelength: DataRate,
    /// H — parallel HBM switches.
    pub switches: usize,
    /// B — HBM stacks per HBM switch.
    pub stacks_per_switch: usize,
    /// HBM device geometry.
    pub hbm_geometry: HbmGeometry,
    /// HBM timing rules.
    pub hbm_timing: HbmTiming,
    /// γ — banks per interleaving group.
    pub gamma: usize,
    /// S — PFI segment size.
    pub segment: DataSize,
    /// Internal speedup of the SRAM → HBM pipeline relative to the line
    /// rate (the "small speedup" of Design 6 for OQ mimicking).
    pub speedup: f64,
    /// Input-port VOQ byte budget per port (drops beyond it).
    pub input_queue_limit: DataSize,
    /// Per-output head SRAM budget, in frames.
    pub head_frames: usize,
    /// Pad partial frames / bypass the HBM when an output would
    /// otherwise idle (§4 "Latency and bypass").
    pub padding_and_bypass: bool,
    /// T' — stripe frames over a subset of the channels (§5 datacenter
    /// variant; `None` = full stripe, the WAN design).
    pub stripe_channels: Option<usize>,
    /// HBM row allocation among per-output FIFO regions (§3.2: static
    /// or dynamic with large pages).
    pub region_mode: RegionMode,
    /// Serialize each packet on its hashed (fiber, wavelength) lane at
    /// the wavelength rate `R` in addition to the aggregate port
    /// (exposes ECMP/LAG lane-collision effects; off = aggregate-only).
    pub per_lane_egress: bool,
    /// Form a padded batch if a partial batch waits longer than this
    /// many batch times at an input port (0 disables the timeout).
    pub batch_timeout_batches: u64,
    /// How long runs keep draining after arrivals end (defaults to
    /// twice the arrival horizon; see [`DrainPolicy`]).
    #[serde(default)]
    pub drain: DrainPolicy,
}

impl RouterConfig {
    /// The paper's reference configuration (§2.2, §3.2).
    pub fn reference() -> Self {
        RouterConfig {
            ribbons: 16,
            fibers_per_ribbon: 64,
            wavelengths: 16,
            rate_per_wavelength: DataRate::from_gbps(40),
            switches: 16,
            stacks_per_switch: 4,
            hbm_geometry: HbmGeometry::hbm4(),
            hbm_timing: HbmTiming::hbm4(),
            gamma: 4,
            segment: DataSize::from_kib(1),
            speedup: 1.0,
            input_queue_limit: DataSize::from_mib(1),
            head_frames: 2,
            padding_and_bypass: true,
            batch_timeout_batches: 64,
            drain: DrainPolicy::default(),
            stripe_channels: None,
            region_mode: RegionMode::Static,
            per_lane_egress: false,
        }
    }

    /// A scaled-down configuration that preserves the paper's ratios,
    /// sized for packet-level discrete-event simulation: N = H = 4
    /// ports/switches, one 8-channel stack per switch (exactly 2·N·P of
    /// memory bandwidth), γ = 4, S = 1 KiB.
    pub fn small() -> Self {
        RouterConfig {
            ribbons: 4,
            fibers_per_ribbon: 16,
            wavelengths: 4,
            rate_per_wavelength: DataRate::from_gbps(40),
            switches: 4,
            stacks_per_switch: 1,
            hbm_geometry: HbmGeometry {
                channels_per_stack: 8,
                channel_width_bits: 64,
                gbps_per_pin: 10,
                banks_per_channel: 32,
                row_size: DataSize::from_kib(2),
                stack_capacity: DataSize::from_gib(16),
                burst_length: 8,
            },
            hbm_timing: HbmTiming::hbm4(),
            gamma: 4,
            segment: DataSize::from_kib(1),
            speedup: 1.0,
            input_queue_limit: DataSize::from_kib(512),
            head_frames: 2,
            padding_and_bypass: true,
            batch_timeout_batches: 64,
            drain: DrainPolicy::default(),
            stripe_channels: None,
            region_mode: RegionMode::Static,
            per_lane_egress: false,
        }
    }

    /// An even smaller configuration for fault-injection studies:
    /// T = 4 channels per switch, so one dead channel is exactly a
    /// quarter of the plane's memory bandwidth — degradation ratios
    /// come out as round fractions. Same ratio discipline as
    /// [`RouterConfig::small`] (k = N × interface width, K = γ·T·S,
    /// memory rate = 2·N·P exactly).
    pub fn resilience_small() -> Self {
        RouterConfig {
            ribbons: 4,
            fibers_per_ribbon: 16,
            wavelengths: 2,
            rate_per_wavelength: DataRate::from_gbps(40),
            switches: 4,
            stacks_per_switch: 1,
            hbm_geometry: HbmGeometry {
                channels_per_stack: 4,
                channel_width_bits: 64,
                gbps_per_pin: 10,
                banks_per_channel: 16,
                row_size: DataSize::from_kib(2),
                stack_capacity: DataSize::from_gib(16),
                burst_length: 8,
            },
            hbm_timing: HbmTiming::hbm4(),
            gamma: 4,
            segment: DataSize::from_kib(1),
            speedup: 1.0,
            input_queue_limit: DataSize::from_kib(512),
            head_frames: 2,
            padding_and_bypass: true,
            batch_timeout_batches: 64,
            drain: DrainPolicy::default(),
            stripe_channels: None,
            region_mode: RegionMode::Static,
            per_lane_egress: false,
        }
    }

    /// A mid-size scaled configuration: N = H = 8 ports/switches of
    /// 640 Gb/s, two 8-channel stacks (exactly 2·N·P), k = 2 KiB,
    /// K = 64 KiB. Heavier than [`RouterConfig::small`]; used by the
    /// scaling tests and benches.
    pub fn medium() -> Self {
        RouterConfig {
            ribbons: 8,
            fibers_per_ribbon: 32,
            wavelengths: 4,
            rate_per_wavelength: DataRate::from_gbps(40),
            switches: 8,
            stacks_per_switch: 2,
            hbm_geometry: HbmGeometry {
                channels_per_stack: 8,
                channel_width_bits: 64,
                gbps_per_pin: 10,
                banks_per_channel: 32,
                row_size: DataSize::from_kib(2),
                stack_capacity: DataSize::from_gib(16),
                burst_length: 8,
            },
            hbm_timing: HbmTiming::hbm4(),
            gamma: 4,
            segment: DataSize::from_kib(1),
            speedup: 1.0,
            input_queue_limit: DataSize::from_mib(1),
            head_frames: 2,
            padding_and_bypass: true,
            batch_timeout_batches: 64,
            drain: DrainPolicy::default(),
            stripe_channels: None,
            region_mode: RegionMode::Static,
            per_lane_egress: false,
        }
    }

    /// α = F/H — fibers per (ribbon, switch) pair.
    pub fn alpha(&self) -> usize {
        self.fibers_per_ribbon / self.switches
    }

    /// Rate of one fiber (`W·R`).
    pub fn fiber_rate(&self) -> DataRate {
        self.rate_per_wavelength * self.wavelengths as u64
    }

    /// P — per-port rate of an HBM switch (`α·W·R`).
    pub fn port_rate(&self) -> DataRate {
        self.fiber_rate() * self.alpha() as u64
    }

    /// Internal (sped-up) port rate of the SRAM/HBM pipeline.
    pub fn internal_rate(&self) -> DataRate {
        self.port_rate().scale(self.speedup)
    }

    /// T — HBM channels per switch.
    pub fn channels(&self) -> usize {
        self.stacks_per_switch * self.hbm_geometry.channels_per_stack
    }

    /// k — batch size (`N ×` the 2,048-bit interface width).
    pub fn batch_size(&self) -> DataSize {
        DataSize::from_bits(SRAM_INTERFACE_BITS) * self.ribbons as u64
    }

    /// Batch slice size (`k/N` = 256 B).
    pub fn batch_slice(&self) -> DataSize {
        self.batch_size() / self.ribbons as u64
    }

    /// K — frame size (`γ·T'·S`, where `T'` is the stripe width).
    pub fn frame_size(&self) -> DataSize {
        let stripe = self.stripe_channels.unwrap_or_else(|| self.channels());
        self.segment * (self.gamma * stripe) as u64
    }

    /// Batches per frame (`K/k`).
    pub fn batches_per_frame(&self) -> u64 {
        self.frame_size() / self.batch_size()
    }

    /// Total package ingress (`N·F·W·R`).
    pub fn total_ingress(&self) -> DataRate {
        self.fiber_rate() * (self.ribbons * self.fibers_per_ribbon) as u64
    }

    /// Total package I/O, both directions.
    pub fn total_io(&self) -> DataRate {
        self.total_ingress() * 2
    }

    /// Memory I/O each HBM switch must sustain (`2·N·P`).
    pub fn per_switch_memory_io(&self) -> DataRate {
        self.port_rate() * (2 * self.ribbons) as u64
    }

    /// Peak bandwidth of the HBM group in one switch.
    pub fn hbm_peak(&self) -> DataRate {
        self.hbm_geometry.channel_rate() * self.channels() as u64
    }

    /// Buffer capacity per switch (all stacks).
    pub fn buffer_per_switch(&self) -> DataSize {
        self.hbm_geometry.stack_capacity * self.stacks_per_switch as u64
    }

    /// HBM frames each per-output FIFO region can hold.
    pub fn region_frames(&self) -> u64 {
        (self.buffer_per_switch() / self.ribbons as u64) / self.frame_size()
    }

    /// The PFI configuration for this router's switches.
    pub fn pfi(&self) -> PfiConfig {
        PfiConfig {
            gamma: self.gamma,
            segment: self.segment,
            num_outputs: self.ribbons,
            stripe_channels: self.stripe_channels,
            region_mode: self.region_mode,
        }
    }

    /// Validate every constraint the design relies on.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ribbons == 0 || self.switches == 0 || self.stacks_per_switch == 0 {
            return Err(ConfigError::ZeroCounts);
        }
        if !self.fibers_per_ribbon.is_multiple_of(self.switches) {
            return Err(ConfigError::FiberSwitchDivisibility {
                fibers: self.fibers_per_ribbon,
                switches: self.switches,
            });
        }
        self.hbm_geometry.validate().map_err(ConfigError::Hbm)?;
        self.hbm_timing.validate().map_err(ConfigError::Hbm)?;
        if !(1.0..=4.0).contains(&self.speedup) {
            return Err(ConfigError::SpeedupOutOfRange(self.speedup));
        }
        // Memory bandwidth must cover ingress + egress with the speedup.
        let needed = self.per_switch_memory_io().scale(self.speedup);
        if self.hbm_peak().bps() < needed.bps() {
            return Err(ConfigError::MemoryBelowRequired {
                peak: self.hbm_peak(),
                needed,
            });
        }
        // Frame must be a whole number of batches.
        if !self.frame_size().is_multiple_of(self.batch_size()) {
            return Err(ConfigError::FrameBatchMismatch {
                frame: self.frame_size(),
                batch: self.batch_size(),
            });
        }
        if self.head_frames == 0 {
            return Err(ConfigError::NoHeadFrames);
        }
        if self.region_frames() < 2 {
            return Err(ConfigError::RegionTooSmall);
        }
        self.drain.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_every_paper_number() {
        let c = RouterConfig::reference();
        c.validate().expect("reference config valid");
        assert_eq!(c.alpha(), 4);
        assert_eq!(c.port_rate(), DataRate::from_gbps(2560));
        assert_eq!(c.channels(), 128);
        assert_eq!(c.batch_size(), DataSize::from_kib(4));
        assert_eq!(c.batch_slice(), DataSize::from_bytes(256));
        assert_eq!(c.frame_size(), DataSize::from_kib(512));
        assert_eq!(c.batches_per_frame(), 128);
        assert_eq!(c.total_ingress().bps(), 655_360_000_000_000);
        assert_eq!(c.per_switch_memory_io().tbps(), 81.92);
        assert_eq!(c.hbm_peak().tbps(), 81.92);
        assert_eq!(c.buffer_per_switch(), DataSize::from_gib(256));
        // 256 GiB / 16 outputs / 512 KiB frames = 32,768 frames.
        assert_eq!(c.region_frames(), 32 * 1024);
        c.pfi()
            .validate(&rip_hbm::HbmGroup::new(
                c.stacks_per_switch,
                c.hbm_geometry,
                c.hbm_timing,
            ))
            .expect("reference PFI valid");
    }

    #[test]
    fn small_config_preserves_ratios() {
        let c = RouterConfig::small();
        c.validate().expect("small config valid");
        assert_eq!(c.alpha(), 4);
        assert_eq!(c.port_rate(), DataRate::from_gbps(640));
        assert_eq!(c.batch_size(), DataSize::from_kib(1));
        assert_eq!(c.batch_slice(), DataSize::from_bytes(256));
        assert_eq!(c.frame_size(), DataSize::from_kib(32));
        assert_eq!(c.batches_per_frame(), 32);
        // Memory exactly covers 2NP as in the reference design.
        assert_eq!(c.per_switch_memory_io(), c.hbm_peak());
    }

    #[test]
    fn resilience_config_preserves_ratios() {
        let c = RouterConfig::resilience_small();
        c.validate().expect("resilience config valid");
        assert_eq!(c.alpha(), 4);
        assert_eq!(c.channels(), 4);
        // P = 4 fibers x 2λ x 40 Gb/s = 320 Gb/s per port.
        assert_eq!(c.port_rate(), DataRate::from_gbps(320));
        assert_eq!(c.batch_size(), DataSize::from_kib(1));
        assert_eq!(c.frame_size(), DataSize::from_kib(16));
        assert_eq!(c.batches_per_frame(), 16);
        // Memory exactly covers 2NP: 4 x 640 Gb/s = 2.56 Tb/s.
        assert_eq!(c.per_switch_memory_io(), c.hbm_peak());
        // One dead channel = exactly a quarter of the HBM peak.
        assert_eq!(c.hbm_peak(), c.hbm_geometry.channel_rate() * 4);
        c.pfi()
            .validate(&rip_hbm::HbmGroup::new(
                c.stacks_per_switch,
                c.hbm_geometry,
                c.hbm_timing,
            ))
            .expect("resilience PFI valid");
    }

    #[test]
    fn medium_config_preserves_ratios() {
        let c = RouterConfig::medium();
        c.validate().expect("medium config valid");
        assert_eq!(c.alpha(), 4);
        assert_eq!(c.port_rate(), DataRate::from_gbps(640));
        assert_eq!(c.batch_size(), DataSize::from_kib(2));
        assert_eq!(c.batch_slice(), DataSize::from_bytes(256));
        assert_eq!(c.frame_size(), DataSize::from_kib(64));
        assert_eq!(c.per_switch_memory_io(), c.hbm_peak());
    }

    #[test]
    fn validation_catches_violations() {
        let mut c = RouterConfig::small();
        c.fibers_per_ribbon = 15;
        assert!(c.validate().is_err());

        let mut c = RouterConfig::small();
        c.speedup = 0.5;
        assert!(c.validate().is_err());

        let mut c = RouterConfig::small();
        c.speedup = 1.5; // memory no longer covers 2NP x speedup
        assert!(c.validate().is_err());

        let mut c = RouterConfig::small();
        c.head_frames = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn speedup_scales_internal_rate() {
        let mut c = RouterConfig::small();
        // Give the memory headroom, then speed up.
        c.hbm_geometry.channels_per_stack = 16;
        c.speedup = 1.5;
        c.validate().expect("sped-up config valid");
        assert_eq!(c.internal_rate(), DataRate::from_gbps(960));
    }
}
