//! Typed configuration errors for the router core.

use std::error::Error;
use std::fmt;

use rip_hbm::PfiConfigError;
use rip_units::{DataRate, DataSize};

use crate::resilience::FaultPlanError;

/// Everything [`crate::RouterConfig::validate`] (and the constructors
/// built on it) can reject, as a typed error instead of a bare string.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A structural count (ribbons, switches, stacks) is zero.
    ZeroCounts,
    /// `F` fibers per ribbon do not divide evenly over `H` switches.
    FiberSwitchDivisibility {
        /// F — fibers per ribbon.
        fibers: usize,
        /// H — switches.
        switches: usize,
    },
    /// The HBM geometry or timing set is inconsistent.
    Hbm(String),
    /// The internal speedup is outside the design's `[1, 4]` window.
    SpeedupOutOfRange(f64),
    /// HBM peak bandwidth does not cover `2·N·P ×` speedup.
    MemoryBelowRequired {
        /// Available HBM peak.
        peak: DataRate,
        /// Required memory I/O.
        needed: DataRate,
    },
    /// The frame size is not a whole number of batches.
    FrameBatchMismatch {
        /// K — frame size.
        frame: DataSize,
        /// k — batch size.
        batch: DataSize,
    },
    /// The head SRAM budget is zero frames.
    NoHeadFrames,
    /// A per-output HBM region cannot hold even two frames.
    RegionTooSmall,
    /// The drain policy's horizon factor is zero (the run would end
    /// before the arrival horizon itself).
    DrainFactorZero,
    /// The PFI engine rejected the derived interleaving parameters.
    Pfi(PfiConfigError),
    /// The optical front end rejected the split parameters.
    Photonics(String),
    /// The telemetry epoch period is zero (`epoch_ps` / `--epoch`
    /// would never close an epoch).
    EpochZero,
    /// A `--trace-window` specification was rejected.
    TraceWindow(rip_telemetry::TraceWindowError),
    /// The checkpoint interval is zero epochs (`--checkpoint-every 0`
    /// would snapshot never — or constantly, depending on how you read
    /// it; both are configuration mistakes).
    CheckpointIntervalZero,
    /// Checkpointing was requested without a telemetry epoch period:
    /// snapshots are taken at epoch boundaries, so there is no boundary
    /// to snapshot at.
    CheckpointNeedsEpochs,
    /// The snapshot path's parent directory does not exist or is not
    /// writable.
    CheckpointDir {
        /// The offending snapshot path, as given.
        path: String,
        /// The underlying I/O failure.
        reason: String,
    },
    /// A plane subset handed to [`crate::SpsRouter::run_planes`] (or a
    /// `ripsim plane-worker` `--planes` list) is empty, unsorted,
    /// repeats a plane, or names a plane the router does not have.
    PlaneSubset {
        /// Why the subset was rejected.
        reason: String,
    },
    /// The fault plan handed to [`crate::SpsRouter::run_planes`] failed
    /// [`crate::FaultPlan::validate`] for the router's configuration,
    /// or the one handed to [`crate::HbmSwitch::run_with_faults`] failed
    /// [`crate::FaultPlan::validate_switch`] for the switch's.
    FaultPlan(FaultPlanError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCounts => write!(f, "counts must be positive"),
            ConfigError::FiberSwitchDivisibility { fibers, switches } => {
                write!(f, "F = {fibers} not divisible by H = {switches}")
            }
            ConfigError::Hbm(msg) => write!(f, "HBM parameters invalid: {msg}"),
            ConfigError::SpeedupOutOfRange(s) => write!(f, "speedup {s} out of [1, 4]"),
            ConfigError::MemoryBelowRequired { peak, needed } => write!(
                f,
                "HBM peak {peak} below required {needed} (2·N·P × speedup)"
            ),
            ConfigError::FrameBatchMismatch { frame, batch } => {
                write!(f, "frame {frame} not a multiple of batch {batch}")
            }
            ConfigError::NoHeadFrames => {
                write!(f, "head SRAM must hold at least one frame")
            }
            ConfigError::RegionTooSmall => {
                write!(f, "per-output HBM region must hold at least 2 frames")
            }
            ConfigError::DrainFactorZero => {
                write!(f, "drain policy must cover at least 1× the arrival horizon")
            }
            ConfigError::Pfi(e) => write!(f, "PFI configuration invalid: {e}"),
            ConfigError::Photonics(msg) => {
                write!(f, "optical front end invalid: {msg}")
            }
            ConfigError::EpochZero => {
                write!(f, "telemetry epoch period must be positive")
            }
            ConfigError::TraceWindow(e) => write!(f, "{e}"),
            ConfigError::CheckpointIntervalZero => {
                write!(f, "checkpoint interval must be at least one epoch")
            }
            ConfigError::CheckpointNeedsEpochs => {
                write!(
                    f,
                    "checkpointing requires a telemetry epoch period (set epoch_ps or --epoch)"
                )
            }
            ConfigError::CheckpointDir { path, reason } => {
                write!(f, "snapshot path {path} is not writable: {reason}")
            }
            ConfigError::PlaneSubset { reason } => {
                write!(f, "invalid plane subset: {reason}")
            }
            ConfigError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Pfi(e) => Some(e),
            ConfigError::TraceWindow(e) => Some(e),
            ConfigError::FaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PfiConfigError> for ConfigError {
    fn from(e: PfiConfigError) -> Self {
        ConfigError::Pfi(e)
    }
}

impl From<rip_telemetry::TraceWindowError> for ConfigError {
    fn from(e: rip_telemetry::TraceWindowError) -> Self {
        ConfigError::TraceWindow(e)
    }
}
