//! Component-level fault schedules and degraded-mode accounting.
//!
//! A [`FaultPlan`] is a deterministic, time-stamped schedule of component
//! failures (and recoveries) threaded through every layer of the router:
//!
//! * **HBM** — [`FaultKind::HbmChannelDown`] and
//!   [`FaultKind::HbmBankStuck`] make the PFI engine re-derive its
//!   staggered interleave over the surviving channels/banks (in-flight
//!   data drains before a channel goes dark);
//! * **memory controller** — [`FaultKind::RefreshStorm`] models a rogue
//!   refresh engine pumping REFsb indiscriminately for a fixed duration;
//! * **photonics** — [`FaultKind::WavelengthLoss`] kills one comb-laser
//!   line of a ribbon, [`FaultKind::PlaneDown`] takes a whole HBM switch
//!   out of the optical split so ingress traffic re-steers onto the
//!   survivors.
//!
//! Plans are validated against a [`RouterConfig`] up front
//! ([`FaultPlan::validate`]) and replayed exactly — two runs with the
//! same seed and plan are byte-identical.

use std::error::Error;
use std::fmt;

use rip_hbm::{HbmGroup, PfiConfigError, PfiController};
use rip_units::{SimTime, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::config::RouterConfig;

/// One failing (or recovering) component.
///
/// At the router (SPS) level, `channel` indices are **global**
/// (`0..H·T`, plane = `channel / T`); a plan fed directly to one
/// [`crate::HbmSwitch`] uses switch-local indices (`0..T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// An HBM channel fails: it accepts no new frame segments (data
    /// already written drains out before the channel goes dark).
    HbmChannelDown {
        /// Failing channel.
        channel: usize,
    },
    /// A bank sticks: it cannot activate for new frames; its segments
    /// re-home onto healthy banks of the same interleaving group.
    HbmBankStuck {
        /// Channel holding the bank.
        channel: usize,
        /// Stuck bank.
        bank: usize,
    },
    /// The refresh engine goes rogue and pumps REFsb indiscriminately
    /// for `duration`, colliding with the PFI activate schedule.
    /// Self-recovering — explicit [`FaultAction::Recover`] is rejected.
    RefreshStorm {
        /// How long the storm lasts.
        duration: TimeDelta,
    },
    /// One WDM wavelength of a ribbon goes dark (a comb-laser line
    /// dying takes it out on every fiber of the ribbon).
    WavelengthLoss {
        /// Affected ribbon.
        ribbon: usize,
        /// Lost wavelength index.
        lambda: usize,
    },
    /// A whole HBM switch plane goes down: the optical split is rebuilt
    /// so its fibers re-steer to the surviving planes.
    PlaneDown {
        /// Failing switch plane.
        switch: usize,
    },
}

impl FaultKind {
    /// Whether this fault is applied at the optical front end (epoch
    /// re-split) rather than inside an HBM switch.
    pub fn is_photonic(&self) -> bool {
        matches!(
            self,
            FaultKind::WavelengthLoss { .. } | FaultKind::PlaneDown { .. }
        )
    }
}

/// Whether the component fails or returns to service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultAction {
    /// The component fails at the event time.
    Inject,
    /// The component returns to service at the event time.
    Recover,
}

/// One time-stamped fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which component.
    pub kind: FaultKind,
    /// Fail or recover.
    pub action: FaultAction,
}

/// A deterministic fault schedule, kept sorted by event time (events at
/// the same instant apply in insertion order).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (a run under it is byte-identical to a plain run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a failure at `at`.
    pub fn inject(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(FaultEvent {
            at,
            kind,
            action: FaultAction::Inject,
        });
        self
    }

    /// Add a recovery at `at` (must match an earlier injection).
    pub fn recover(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.push(FaultEvent {
            at,
            kind,
            action: FaultAction::Recover,
        });
        self
    }

    /// Append an event, keeping the schedule time-sorted (stable).
    pub fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
        self.events.sort_by_key(|e| e.at);
    }

    /// The schedule, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether any event touches the optical front end.
    pub fn has_photonic_events(&self) -> bool {
        self.events.iter().any(|e| e.kind.is_photonic())
    }

    /// Check the plan against a configuration: indices in range,
    /// recoveries matching earlier injections, no duplicate active
    /// injections, storms self-recovering, at least one switch plane
    /// alive at all times, and every switch's degraded HBM still
    /// servable by the PFI engine at every instant. Channel indices are
    /// validated against the router-wide range `0..H·T`.
    pub fn validate(&self, cfg: &RouterConfig) -> Result<(), FaultPlanError> {
        let channels = cfg.switches * cfg.channels();
        let banks = cfg.hbm_geometry.banks_per_channel;
        let mut active: Vec<FaultKind> = Vec::new();
        let mut planes_down = vec![false; cfg.switches];
        for ev in &self.events {
            match ev.kind {
                FaultKind::HbmChannelDown { channel } => {
                    if channel >= channels {
                        return Err(FaultPlanError::ChannelOutOfRange { channel, channels });
                    }
                }
                FaultKind::HbmBankStuck { channel, bank } => {
                    if channel >= channels {
                        return Err(FaultPlanError::ChannelOutOfRange { channel, channels });
                    }
                    if bank >= banks {
                        return Err(FaultPlanError::BankOutOfRange {
                            channel,
                            bank,
                            banks,
                        });
                    }
                }
                FaultKind::RefreshStorm { duration } => {
                    if matches!(ev.action, FaultAction::Recover) {
                        return Err(FaultPlanError::StormRecover);
                    }
                    if duration.is_zero() {
                        return Err(FaultPlanError::ZeroStormDuration);
                    }
                }
                FaultKind::WavelengthLoss { ribbon, lambda } => {
                    if ribbon >= cfg.ribbons {
                        return Err(FaultPlanError::RibbonOutOfRange {
                            ribbon,
                            ribbons: cfg.ribbons,
                        });
                    }
                    if lambda >= cfg.wavelengths {
                        return Err(FaultPlanError::WavelengthOutOfRange {
                            ribbon,
                            lambda,
                            wavelengths: cfg.wavelengths,
                        });
                    }
                }
                FaultKind::PlaneDown { switch } => {
                    if switch >= cfg.switches {
                        return Err(FaultPlanError::SwitchOutOfRange {
                            switch,
                            switches: cfg.switches,
                        });
                    }
                }
            }
            // Storms self-recover; everything else must pair up.
            if !matches!(ev.kind, FaultKind::RefreshStorm { .. }) {
                match ev.action {
                    FaultAction::Inject => {
                        if active.contains(&ev.kind) {
                            return Err(FaultPlanError::DuplicateInject { kind: ev.kind });
                        }
                        active.push(ev.kind);
                        if let FaultKind::PlaneDown { switch } = ev.kind {
                            planes_down[switch] = true;
                            if planes_down.iter().all(|&d| d) {
                                return Err(FaultPlanError::AllPlanesDown);
                            }
                        }
                    }
                    FaultAction::Recover => {
                        match active.iter().position(|k| *k == ev.kind) {
                            Some(i) => {
                                active.remove(i);
                            }
                            None => {
                                return Err(FaultPlanError::RecoverWithoutInject { kind: ev.kind });
                            }
                        }
                        if let FaultKind::PlaneDown { switch } = ev.kind {
                            planes_down[switch] = false;
                        }
                    }
                }
            }
        }
        self.check_servable(cfg)
    }

    /// Check a plan for one [`crate::HbmSwitch`] run on its own, the
    /// way [`crate::HbmSwitch::run_with_faults`] and `ripsim soak` run
    /// it: the same checks as [`FaultPlan::validate`], but with channel
    /// indices switch-local (`0..T`) and the switch as the router's
    /// only plane — so a plane-down event leaves nothing to carry
    /// traffic.
    pub fn validate_switch(&self, cfg: &RouterConfig) -> Result<(), FaultPlanError> {
        self.validate(&RouterConfig {
            switches: 1,
            ..cfg.clone()
        })
    }

    /// Replay each switch plane's channel/bank faults in event order on
    /// a healthy copy of its HBM group, and check after every
    /// transition that the PFI engine can still place every frame
    /// (`PfiController::check_degraded`) — the check the switch makes
    /// as it applies each fault. A configuration the controller rejects
    /// outright is left to [`RouterConfig::validate`].
    fn check_servable(&self, cfg: &RouterConfig) -> Result<(), FaultPlanError> {
        for switch in 0..cfg.switches {
            let plan = self.project_switch(cfg, switch);
            let touches_hbm = plan.events.iter().any(|e| {
                matches!(
                    e.kind,
                    FaultKind::HbmChannelDown { .. } | FaultKind::HbmBankStuck { .. }
                )
            });
            if !touches_hbm {
                continue;
            }
            let mut group = HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing);
            let Ok(pfi) = PfiController::new(cfg.pfi(), &group) else {
                return Ok(());
            };
            for ev in &plan.events {
                match (ev.kind, ev.action) {
                    (FaultKind::HbmChannelDown { channel }, FaultAction::Inject) => {
                        group.fail_channel(channel)
                    }
                    (FaultKind::HbmChannelDown { channel }, FaultAction::Recover) => {
                        group.recover_channel(channel)
                    }
                    (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Inject) => {
                        group.stick_bank(channel, bank)
                    }
                    (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Recover) => {
                        group.unstick_bank(channel, bank)
                    }
                    _ => continue,
                }
                pfi.check_degraded(&group)
                    .map_err(|reason| FaultPlanError::Unservable {
                        at: ev.at,
                        switch,
                        reason,
                    })?;
            }
        }
        Ok(())
    }

    /// The sub-plan one switch plane sees: HBM channel/bank events whose
    /// global channel lives on `switch` (re-indexed to switch-local
    /// channels), plus refresh storms (which hit every plane's
    /// controller). Front-end events are handled by the SPS layer and
    /// are excluded here.
    pub fn project_switch(&self, cfg: &RouterConfig, switch: usize) -> FaultPlan {
        let t = cfg.channels();
        let mut plan = FaultPlan::new();
        for ev in &self.events {
            let kind = match ev.kind {
                FaultKind::HbmChannelDown { channel } if channel / t == switch => {
                    FaultKind::HbmChannelDown {
                        channel: channel % t,
                    }
                }
                FaultKind::HbmBankStuck { channel, bank } if channel / t == switch => {
                    FaultKind::HbmBankStuck {
                        channel: channel % t,
                        bank,
                    }
                }
                FaultKind::RefreshStorm { duration } => FaultKind::RefreshStorm { duration },
                _ => continue,
            };
            plan.push(FaultEvent { kind, ..*ev });
        }
        plan
    }
}

/// Why a [`FaultPlan`] was rejected for a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A channel index exceeds the plan's channel range: the router's
    /// `H·T`, or one switch's `T` for [`FaultPlan::validate_switch`].
    ChannelOutOfRange {
        /// Offending index.
        channel: usize,
        /// Channels the plan may name.
        channels: usize,
    },
    /// A bank index exceeds the banks per channel.
    BankOutOfRange {
        /// Channel the event named.
        channel: usize,
        /// Offending bank index.
        bank: usize,
        /// Banks per channel.
        banks: usize,
    },
    /// A ribbon index exceeds `N`.
    RibbonOutOfRange {
        /// Offending index.
        ribbon: usize,
        /// Ribbon count.
        ribbons: usize,
    },
    /// A wavelength index exceeds `W`.
    WavelengthOutOfRange {
        /// Ribbon the event named.
        ribbon: usize,
        /// Offending wavelength index.
        lambda: usize,
        /// Wavelengths per fiber.
        wavelengths: usize,
    },
    /// A switch index exceeds `H`.
    SwitchOutOfRange {
        /// Offending index.
        switch: usize,
        /// Switch count.
        switches: usize,
    },
    /// Refresh storms self-recover; explicit recovery is meaningless.
    StormRecover,
    /// A refresh storm must last a positive duration.
    ZeroStormDuration,
    /// A recovery without a matching earlier injection.
    RecoverWithoutInject {
        /// The unmatched component.
        kind: FaultKind,
    },
    /// The same component injected twice without recovering in between.
    DuplicateInject {
        /// The doubly-injected component.
        kind: FaultKind,
    },
    /// The plan takes every switch plane down at once — nothing could
    /// carry traffic.
    AllPlanesDown,
    /// At `at`, the failed channels/banks of `switch` leave its PFI
    /// engine unable to place frames.
    Unservable {
        /// First instant that cannot be served.
        at: SimTime,
        /// Affected switch plane.
        switch: usize,
        /// What the PFI engine cannot do.
        reason: PfiConfigError,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ChannelOutOfRange { channel, channels } => {
                write!(f, "channel {channel} out of range ({channels} channels)")
            }
            FaultPlanError::BankOutOfRange {
                channel,
                bank,
                banks,
            } => write!(
                f,
                "bank {bank} of channel {channel} out of range ({banks} banks/channel)"
            ),
            FaultPlanError::RibbonOutOfRange { ribbon, ribbons } => {
                write!(f, "ribbon {ribbon} out of range (N = {ribbons})")
            }
            FaultPlanError::WavelengthOutOfRange {
                ribbon,
                lambda,
                wavelengths,
            } => write!(
                f,
                "wavelength {lambda} of ribbon {ribbon} out of range (W = {wavelengths})"
            ),
            FaultPlanError::SwitchOutOfRange { switch, switches } => {
                write!(f, "switch {switch} out of range (H = {switches})")
            }
            FaultPlanError::StormRecover => {
                write!(f, "refresh storms self-recover; drop the explicit Recover")
            }
            FaultPlanError::ZeroStormDuration => {
                write!(f, "refresh storm duration must be positive")
            }
            FaultPlanError::RecoverWithoutInject { kind } => {
                write!(f, "recovery of {kind:?} without a matching injection")
            }
            FaultPlanError::DuplicateInject { kind } => {
                write!(f, "{kind:?} injected twice without recovering")
            }
            FaultPlanError::AllPlanesDown => {
                write!(f, "plan takes every switch plane down at once")
            }
            FaultPlanError::Unservable { at, switch, reason } => {
                write!(
                    f,
                    "fault plan cannot be served at {at} on switch {switch}: {reason}"
                )
            }
        }
    }
}

impl Error for FaultPlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FaultPlanError::Unservable { reason, .. } => Some(reason),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_ns(us * 1000)
    }

    #[test]
    fn plan_sorts_events_by_time() {
        let plan = FaultPlan::new()
            .recover(t(20), FaultKind::HbmChannelDown { channel: 1 })
            .inject(t(5), FaultKind::HbmChannelDown { channel: 1 })
            .inject(t(10), FaultKind::PlaneDown { switch: 0 });
        let times: Vec<_> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![t(5), t(10), t(20)]);
        assert_eq!(plan.len(), 3);
        assert!(plan.has_photonic_events());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn validation_accepts_well_formed_plans() {
        let cfg = RouterConfig::small();
        let plan = FaultPlan::new()
            .inject(t(1), FaultKind::HbmChannelDown { channel: 3 })
            .recover(t(2), FaultKind::HbmChannelDown { channel: 3 })
            .inject(
                t(3),
                FaultKind::RefreshStorm {
                    duration: TimeDelta::from_ns(500),
                },
            )
            .inject(
                t(4),
                FaultKind::WavelengthLoss {
                    ribbon: 0,
                    lambda: 1,
                },
            )
            .inject(t(5), FaultKind::PlaneDown { switch: 2 });
        plan.validate(&cfg).expect("plan should be valid");
        // Empty plans are trivially valid.
        FaultPlan::new().validate(&cfg).unwrap();
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let cfg = RouterConfig::small(); // H=4, T=8, 32 banks, N=4, W=4
        let oob = FaultPlan::new().inject(t(1), FaultKind::HbmChannelDown { channel: 32 });
        assert_eq!(
            oob.validate(&cfg),
            Err(FaultPlanError::ChannelOutOfRange {
                channel: 32,
                channels: 32
            })
        );
        let bank = FaultPlan::new().inject(
            t(1),
            FaultKind::HbmBankStuck {
                channel: 0,
                bank: 32,
            },
        );
        assert!(matches!(
            bank.validate(&cfg),
            Err(FaultPlanError::BankOutOfRange { .. })
        ));
        let storm_rec = FaultPlan::new().recover(
            t(1),
            FaultKind::RefreshStorm {
                duration: TimeDelta::from_ns(10),
            },
        );
        assert_eq!(storm_rec.validate(&cfg), Err(FaultPlanError::StormRecover));
        let zero_storm = FaultPlan::new().inject(
            t(1),
            FaultKind::RefreshStorm {
                duration: TimeDelta::ZERO,
            },
        );
        assert_eq!(
            zero_storm.validate(&cfg),
            Err(FaultPlanError::ZeroStormDuration)
        );
        let unmatched = FaultPlan::new().recover(t(1), FaultKind::HbmChannelDown { channel: 0 });
        assert!(matches!(
            unmatched.validate(&cfg),
            Err(FaultPlanError::RecoverWithoutInject { .. })
        ));
        let dup = FaultPlan::new()
            .inject(t(1), FaultKind::HbmChannelDown { channel: 0 })
            .inject(t(2), FaultKind::HbmChannelDown { channel: 0 });
        assert!(matches!(
            dup.validate(&cfg),
            Err(FaultPlanError::DuplicateInject { .. })
        ));
        let blackout = (0..4).fold(FaultPlan::new(), |p, s| {
            p.inject(t(1 + s as u64), FaultKind::PlaneDown { switch: s })
        });
        assert_eq!(blackout.validate(&cfg), Err(FaultPlanError::AllPlanesDown));
        let lam = FaultPlan::new().inject(
            t(1),
            FaultKind::WavelengthLoss {
                ribbon: 0,
                lambda: 4,
            },
        );
        assert!(matches!(
            lam.validate(&cfg),
            Err(FaultPlanError::WavelengthOutOfRange { .. })
        ));
    }

    #[test]
    fn projection_reindexes_channels_per_plane() {
        let cfg = RouterConfig::small(); // T = 8 channels per switch
        let plan = FaultPlan::new()
            .inject(t(1), FaultKind::HbmChannelDown { channel: 9 }) // plane 1, local 1
            .inject(
                t(2),
                FaultKind::HbmBankStuck {
                    channel: 17,
                    bank: 3,
                },
            ) // plane 2
            .inject(
                t(3),
                FaultKind::RefreshStorm {
                    duration: TimeDelta::from_ns(100),
                },
            )
            .inject(t(4), FaultKind::PlaneDown { switch: 1 });
        let p0 = plan.project_switch(&cfg, 0);
        // Plane 0 only sees the storm.
        assert_eq!(p0.len(), 1);
        assert!(matches!(
            p0.events()[0].kind,
            FaultKind::RefreshStorm { .. }
        ));
        let p1 = plan.project_switch(&cfg, 1);
        assert_eq!(p1.len(), 2);
        assert_eq!(
            p1.events()[0].kind,
            FaultKind::HbmChannelDown { channel: 1 }
        );
        let p2 = plan.project_switch(&cfg, 2);
        assert_eq!(
            p2.events()[0].kind,
            FaultKind::HbmBankStuck {
                channel: 1,
                bank: 3
            }
        );
    }
}
