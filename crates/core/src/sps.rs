//! The top-level Split-Parallel Switch (§2): the optical front end
//! splits fibers over `H` independent HBM switches; each packet crosses
//! exactly one of them (one OEO conversion).

use rip_photonics::{FrontEnd, SplitMap, SplitPattern};
use rip_telemetry::{
    plane_source_name, MemorySink, MetricsRegistry, ProfileHub, Record, SharedSink, TelemetrySink,
};
use rip_traffic::hash::{lane_for, HashKind};
use rip_traffic::{
    ArrivalProcess, BoundedSource, FiberFill, MergedSource, Packet, PacketGenerator, PacketSource,
    SizeDistribution, TrafficMatrix,
};
use rip_units::{DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::config::RouterConfig;
use crate::error::ConfigError;
use crate::hbm_switch::{HbmSwitch, SwitchReport};
use crate::resilience::{FaultAction, FaultKind, FaultPlan};

/// Workload specification for an SPS run.
#[derive(Debug, Clone)]
pub struct SpsWorkload {
    /// Ribbon-to-ribbon traffic matrix (destination mix per ribbon).
    pub tm: TrafficMatrix,
    /// Aggregate offered load per ribbon, in units of total ribbon rate
    /// (1.0 = all fibers full).
    pub load: f64,
    /// How the load is spread over each ribbon's fibers.
    pub fill: FiberFill,
    /// Packet-size mix.
    pub sizes: SizeDistribution,
    /// Arrival process per fiber.
    pub process: ArrivalProcess,
    /// Flow pool per fiber.
    pub flows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SpsWorkload {
    /// A uniform Poisson/IMIX workload at the given load.
    pub fn uniform(ribbons: usize, load: f64, seed: u64) -> Self {
        SpsWorkload {
            tm: TrafficMatrix::uniform(ribbons, 1.0),
            load,
            fill: FiberFill::Uniform,
            sizes: SizeDistribution::Imix,
            process: ArrivalProcess::Poisson,
            flows: 128,
            seed,
        }
    }
}

/// Options controlling live epoch streaming in [`SpsRouter::run`].
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Epoch period (sim time) of every plane's epoch clock.
    pub period: TimeDelta,
    /// Lifecycle sampling: 1-in-N packets by flow hash (0 = off).
    pub sample_one_in: u64,
}

/// Per-switch summary within an SPS report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerSwitch {
    /// Full switch report.
    pub report: SwitchReport,
}

/// End-to-end SPS run outcome.
///
/// Field order and the `BTreeMap`-backed metrics make the serialized
/// form byte-stable across runs and thread schedules: per-plane reports
/// are always collected and merged in plane order after the crossbeam
/// join, never in thread-completion order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpsReport {
    /// Per-switch outcomes.
    pub switches: Vec<PerSwitch>,
    /// Total offered bytes.
    pub offered: DataSize,
    /// Total delivered bytes.
    pub delivered: DataSize,
    /// `1 − delivered/offered`.
    pub loss_fraction: f64,
    /// Offered-byte imbalance across switches: max/mean.
    pub load_imbalance: f64,
    /// Packets dropped at the optical front end (lost wavelengths).
    pub front_end_dropped_packets: u64,
    /// Bytes dropped at the optical front end.
    pub front_end_dropped: DataSize,
    /// Per-plane offered load relative to plane ingress capacity
    /// (`N·P` over the generation horizon); > 1 means a degraded split
    /// re-steered more traffic onto the plane than it can carry.
    pub plane_overload: Vec<f64>,
    /// Telemetry merged over all planes in plane order (counters add,
    /// histograms merge bucket-wise, gauges keep the latest write), so
    /// totals are invariant under plane-count repartitioning.
    pub metrics: MetricsRegistry,
}

/// One finished plane: its switch report and the front-end drops
/// attributed to it. [`SpsRouter::run_planes`] returns it, a fleet
/// worker's `plane_done` line carries one, and
/// [`SpsRouter::finish_run`] folds a full set into the router-level
/// report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlaneResult {
    /// Global plane index.
    pub plane: usize,
    /// Packets the optical front end dropped toward this plane.
    pub fe_packets: u64,
    /// Bytes the optical front end dropped toward this plane.
    pub fe_bytes: DataSize,
    /// The plane's switch report.
    pub report: SwitchReport,
}

/// The Split-Parallel Switch: `H` HBM switches behind a spatial fiber
/// split.
pub struct SpsRouter {
    cfg: RouterConfig,
    front_end: FrontEnd,
    profile: Option<ProfileHub>,
}

/// One photonic-fault epoch: the front-end state effective from `start`
/// until the next epoch begins.
struct Epoch {
    start: SimTime,
    split: SplitMap,
    /// Lost wavelengths, `[ribbon][lambda]`.
    lost: Vec<Vec<bool>>,
}

/// The streaming front end of one plane: a pull-based demultiplexing
/// source built by [`SpsRouter::plane_source`].
///
/// It builds the per-fiber [`PacketGenerator`]s (seeded by global
/// fiber index) of exactly the fibers that the split of some photonic
/// epoch routes to this plane, k-way-merges them in global `(arrival,
/// input, id)` order with lane order as the final tie-break, and
/// filters the merged stream through the fault epochs: packets on a
/// lost wavelength are dropped at the front end (counted here when
/// this plane would have received them), and packets a re-spliced
/// epoch steers to other planes are skipped. A fiber no epoch sends to
/// this plane can contribute neither packets nor drops, so it gets no
/// lane: generation cost per plane is O(own fibers) and memory O(own
/// fibers), with no materialized trace.
pub struct PlaneSource {
    merged: MergedSource<BoundedSource<PacketGenerator>>,
    /// `(ribbon, fiber)` of each merged lane, indexed by lane. The
    /// fiber lives here because [`Packet`] does not carry it, and the
    /// split map routes by fiber.
    fibers: Vec<(usize, usize)>,
    epochs: Vec<Epoch>,
    /// Whether each epoch has any lost wavelength (skips the per-packet
    /// flow hash in healthy epochs).
    epoch_has_loss: Vec<bool>,
    plane: usize,
    wavelengths: usize,
    fe_dropped_packets: u64,
    fe_dropped: DataSize,
}

impl PlaneSource {
    /// Packets dropped at the optical front end that this plane's split
    /// would otherwise have received (lost-wavelength drops). Summing
    /// over all planes reproduces the router-global front-end count.
    pub fn front_end_dropped_packets(&self) -> u64 {
        self.fe_dropped_packets
    }

    /// Bytes of the packets counted by
    /// [`PlaneSource::front_end_dropped_packets`].
    pub fn front_end_dropped(&self) -> DataSize {
        self.fe_dropped
    }
}

impl PacketSource for PlaneSource {
    fn next_packet(&mut self) -> Option<Packet> {
        loop {
            let (lane, p) = self.merged.next_with_lane()?;
            let (ribbon, fiber) = self.fibers[lane];
            let e = self.epochs.partition_point(|ep| ep.start <= p.arrival) - 1;
            let ep = &self.epochs[e];
            let target = ep.split.switch_for(ribbon, fiber);
            if self.epoch_has_loss[e] {
                let lambda = lane_for(p.flow, self.wavelengths, HashKind::Crc32c);
                if ep.lost[ribbon][lambda] {
                    if target == self.plane {
                        self.fe_dropped_packets += 1;
                        self.fe_dropped += p.size;
                    }
                    continue;
                }
            }
            if target == self.plane {
                return Some(p);
            }
        }
    }
}

impl SpsRouter {
    /// Build an SPS router with the given split pattern.
    pub fn new(cfg: RouterConfig, pattern: SplitPattern) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let front_end = FrontEnd::new(
            cfg.ribbons,
            cfg.fibers_per_ribbon,
            cfg.wavelengths,
            cfg.rate_per_wavelength,
            cfg.switches,
            pattern,
        )
        .map_err(ConfigError::Photonics)?;
        Ok(SpsRouter {
            cfg,
            front_end,
            profile: None,
        })
    }

    /// Attach a wall-clock profile hub: every plane simulation this
    /// router spawns ([`Self::run_planes`] and everything built on it)
    /// profiles its engine loop as source `planeNN` into `hub`.
    /// Profiling never alters reports, telemetry or snapshots — the
    /// hub stream is wall-clock-only and lives outside every
    /// deterministic surface.
    pub fn set_profile_hub(&mut self, hub: ProfileHub) {
        self.profile = Some(hub);
    }

    /// The attached profile hub, when [`Self::set_profile_hub`] was
    /// called — fleet workers drain it into their wire stream.
    pub fn profile_hub(&self) -> Option<&ProfileHub> {
        self.profile.as_ref()
    }

    /// The optical front end (split map, rates).
    pub fn front_end(&self) -> &FrontEnd {
        &self.front_end
    }

    /// Build the streaming front end for one plane: a [`PlaneSource`]
    /// yielding, in arrival order, exactly the packets the optical
    /// split (under `plan`'s photonic faults) sends to plane `plane` —
    /// without materializing any trace. Pass [`FaultPlan::default`]
    /// for a healthy front end.
    pub fn plane_source(
        &self,
        w: &SpsWorkload,
        horizon: SimTime,
        plan: &FaultPlan,
        plane: usize,
    ) -> PlaneSource {
        assert_eq!(w.tm.n(), self.cfg.ribbons, "TM must be ribbon-sized");
        assert!(plane < self.cfg.switches, "plane index out of range");
        let epochs = self.epochs(plan);
        let f = self.cfg.fibers_per_ribbon;
        let fiber_loads = w.fill.loads(f, w.load * f as f64);
        let mut fibers = Vec::new();
        let mut lanes = Vec::new();
        for ribbon in 0..self.cfg.ribbons {
            for (fiber, &load) in fiber_loads.iter().enumerate() {
                if load <= 0.0
                    || !epochs
                        .iter()
                        .any(|ep| ep.split.switch_for(ribbon, fiber) == plane)
                {
                    continue;
                }
                let g = PacketGenerator::new(
                    ribbon,
                    self.front_end.fiber_rate(),
                    load.min(1.0),
                    w.tm.row(ribbon).to_vec(),
                    w.sizes.clone(),
                    w.process,
                    w.flows,
                    rip_sim::rng::derive_seed(w.seed, (ribbon * f + fiber) as u64),
                )
                .expect("valid generator");
                fibers.push((ribbon, fiber));
                lanes.push(BoundedSource::new(g, horizon));
            }
        }
        let epoch_has_loss = epochs
            .iter()
            .map(|e| e.lost.iter().flatten().any(|&b| b))
            .collect();
        PlaneSource {
            merged: MergedSource::new(lanes),
            fibers,
            epochs,
            epoch_has_loss,
            plane,
            wavelengths: self.cfg.wavelengths,
            fe_dropped_packets: 0,
            fe_dropped: DataSize::ZERO,
        }
    }

    /// Run the full router on `w` until `horizon` (+ drain time) under
    /// `plan`, optionally streaming live telemetry.
    ///
    /// The `H` HBM switches are fully independent after the optical
    /// split — exactly the property the SPS architecture banks on — so
    /// they are simulated on parallel threads ([`Self::run_planes`]);
    /// results are deterministic regardless of scheduling because each
    /// switch's simulation is self-contained. Photonic events in `plan`
    /// (lost wavelengths, dead planes) partition time into epochs with
    /// re-derived split maps at the front end, and HBM events are
    /// projected onto the plane that owns each global channel (refresh
    /// storms hit every plane's controller). Pass [`FaultPlan::default`]
    /// for a healthy run; a plan that fails [`FaultPlan::validate`] for
    /// this router is a [`ConfigError::FaultPlan`].
    ///
    /// With `live = Some((opts, sink))` every plane streams epoch deltas
    /// (and sampled lifecycle spans) while it runs. Per-plane records
    /// are buffered per plane and replayed into `sink` in plane order
    /// after the ordered join, renamed `plane00`, `plane01`, … — so the
    /// stream is byte-stable across thread schedules, exactly like the
    /// merged report. A final `sps` `run_end` record carries the
    /// plane-merged registry.
    pub fn run(
        &self,
        w: &SpsWorkload,
        horizon: SimTime,
        plan: &FaultPlan,
        live: Option<(LiveOptions, &mut dyn TelemetrySink)>,
    ) -> Result<SpsReport, ConfigError> {
        let all: Vec<usize> = (0..self.cfg.switches).collect();
        let (opts, sink) = live.unzip();
        let planes = self.run_planes(w, horizon, plan, opts, &all)?;
        Ok(self.finish_run(planes, horizon, sink))
    }

    /// The drain deadline this router runs to for a given arrival
    /// horizon — the sim time stamped on the final `run_end` record.
    /// Exposed so out-of-process collectors can close their merged
    /// stream with the exact timestamp the single-process runner uses.
    pub fn drain_deadline(&self, horizon: SimTime) -> SimTime {
        self.cfg.drain.deadline(horizon)
    }

    /// Run only the given subset of planes, returning each plane's
    /// result with its staged telemetry records in emission order
    /// (empty when `live` is unset). Replaying the records renamed to
    /// `planeNN` in ascending plane order — across however many
    /// processes ran the subsets — reproduces the single-process stream
    /// byte-for-byte.
    ///
    /// This is the worker half of the fleet split: each plane's
    /// simulation is fully self-contained (its own [`PlaneSource`],
    /// RNG lanes derived from the plane-independent fiber index, and
    /// the fault plan projected per plane), so running planes `{0, 2}`
    /// here and `{1, 3}` in another process produces exactly the
    /// per-plane results the single-process [`SpsRouter::run`]
    /// computes — byte-for-byte, for any partitioning. The subset must
    /// be non-empty, strictly ascending and within range; anything else
    /// is a [`ConfigError::PlaneSubset`].
    ///
    /// The last plane of the subset runs on the calling thread and the
    /// others on scoped threads beside it, so a single-plane subset
    /// spawns no thread; results return in subset (ascending plane)
    /// order regardless of thread scheduling. A fault plan that fails
    /// [`FaultPlan::validate`] for this router is a
    /// [`ConfigError::FaultPlan`].
    pub fn run_planes(
        &self,
        w: &SpsWorkload,
        horizon: SimTime,
        plan: &FaultPlan,
        live: Option<LiveOptions>,
        planes: &[usize],
    ) -> Result<Vec<(PlaneResult, MemorySink)>, ConfigError> {
        if planes.is_empty() {
            return Err(ConfigError::PlaneSubset {
                reason: "the subset is empty".into(),
            });
        }
        for pair in planes.windows(2) {
            if pair[1] <= pair[0] {
                return Err(ConfigError::PlaneSubset {
                    reason: format!(
                        "planes must be strictly ascending (found {} after {})",
                        pair[1], pair[0]
                    ),
                });
            }
        }
        if let Some(&worst) = planes.iter().find(|&&p| p >= self.cfg.switches) {
            return Err(ConfigError::PlaneSubset {
                reason: format!(
                    "plane {worst} out of range (router has {} planes)",
                    self.cfg.switches
                ),
            });
        }
        plan.validate(&self.cfg).map_err(ConfigError::FaultPlan)?;
        let run = |plane| self.run_plane(w, horizon, plan, live, plane);
        let (&last, others) = planes.split_last().expect("checked non-empty");
        let runs = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = others
                .iter()
                .map(|&plane| scope.spawn(move |_| run(plane)))
                .collect();
            let last_run = run(last);
            let mut runs: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("switch simulation thread panicked"))
                .collect();
            runs.push(last_run);
            runs
        })
        .expect("crossbeam scope");
        Ok(runs)
    }

    /// Simulate one plane end to end: its streaming front-end demux
    /// feeds a fresh [`HbmSwitch`] under the plane's projection of
    /// `plan`, with live records staged into the returned sink. Memory
    /// is O(own fibers + in-flight), independent of horizon. `plan`
    /// must have passed [`FaultPlan::validate`] for this router.
    fn run_plane(
        &self,
        w: &SpsWorkload,
        horizon: SimTime,
        plan: &FaultPlan,
        live: Option<LiveOptions>,
        plane: usize,
    ) -> (PlaneResult, MemorySink) {
        let mut src = self.plane_source(w, horizon, plan, plane);
        let staged = SharedSink::new();
        let mut sw = HbmSwitch::new(self.cfg.clone()).expect("validated config");
        if let Some(h) = &self.profile {
            sw.enable_profiler_as(h.clone(), &plane_source_name(plane));
        }
        if let Some(o) = live {
            sw.enable_live_telemetry(o.period, o.sample_one_in, Box::new(staged.clone()));
        }
        let drain = self.drain_deadline(horizon);
        let plan = plan.project_switch(&self.cfg, plane);
        sw.run_source(&mut src, drain, &plan)
            .expect("a router-validated plan is valid on each plane");
        let result = PlaneResult {
            plane,
            fe_packets: src.front_end_dropped_packets(),
            fe_bytes: src.front_end_dropped(),
            report: sw.into_report(),
        };
        (result, staged.take())
    }

    /// Close a run over every plane of this router, in plane order:
    /// replay each plane's staged records into `sink` renamed
    /// `planeNN`, fold the results into the router-level report
    /// (front-end drop totals, per-plane overload against the ingress
    /// capacity, load imbalance and the deterministic metrics merge) and
    /// close the stream with an `sps` `run_end` carrying the merged
    /// registry. The threaded runner and the out-of-process fleet
    /// collector both end here, so both produce byte-identical streams
    /// and reports from the same per-plane results.
    pub fn finish_run(
        &self,
        planes: impl IntoIterator<Item = (PlaneResult, MemorySink)>,
        horizon: SimTime,
        mut sink: Option<&mut dyn TelemetrySink>,
    ) -> SpsReport {
        // Plane ingress capacity over the generation horizon.
        let plane_capacity =
            (self.cfg.port_rate() * self.cfg.ribbons as u64).data_in(horizon.since(SimTime::ZERO));
        let mut switches = Vec::with_capacity(self.cfg.switches);
        let mut offered = DataSize::ZERO;
        let mut delivered = DataSize::ZERO;
        let mut fe_dropped_packets = 0u64;
        let mut fe_dropped = DataSize::ZERO;
        let mut plane_overload = Vec::with_capacity(self.cfg.switches);
        // Deterministic telemetry merge: results arrive in plane order,
        // and the merge itself is associative/commutative, so thread
        // scheduling cannot change it.
        let mut metrics = MetricsRegistry::new();
        for (result, staged) in planes {
            if let Some(sink) = sink.as_deref_mut() {
                staged.replay_renamed(&plane_source_name(result.plane), sink);
            }
            let PlaneResult {
                fe_packets,
                fe_bytes,
                report,
                ..
            } = result;
            fe_dropped_packets += fe_packets;
            fe_dropped += fe_bytes;
            metrics.merge(&report.metrics);
            offered += report.offered_bytes;
            delivered += report.delivered_bytes;
            plane_overload.push(if plane_capacity.is_zero() {
                0.0
            } else {
                report.offered_bytes.bits() as f64 / plane_capacity.bits() as f64
            });
            switches.push(PerSwitch { report });
        }
        let max = switches
            .iter()
            .map(|s| s.report.offered_bytes.bits())
            .max()
            .unwrap_or(0);
        let mean = if switches.is_empty() {
            0
        } else {
            offered.bits() / switches.len() as u64
        };
        let report = SpsReport {
            offered,
            delivered,
            loss_fraction: if offered.is_zero() {
                0.0
            } else {
                1.0 - delivered.bits() as f64 / offered.bits() as f64
            },
            load_imbalance: if mean == 0 {
                1.0
            } else {
                max as f64 / mean as f64
            },
            switches,
            front_end_dropped_packets: fe_dropped_packets,
            front_end_dropped: fe_dropped,
            plane_overload,
            metrics,
        };
        if let Some(sink) = sink {
            let at = self.drain_deadline(horizon);
            let totals = &report.metrics;
            sink.record("sps", Record::RunEnd { at, totals });
        }
        report
    }

    /// The photonic-fault epochs of `plan`: every wavelength-loss or
    /// plane transition snapshots a new front-end state (split map +
    /// lost-wavelength mask) effective from its timestamp.
    fn epochs(&self, plan: &FaultPlan) -> Vec<Epoch> {
        let mut alive = vec![true; self.cfg.switches];
        let mut lost = vec![vec![false; self.cfg.wavelengths]; self.cfg.ribbons];
        let mut epochs = vec![Epoch {
            start: SimTime::ZERO,
            split: self.front_end.split().clone(),
            lost: lost.clone(),
        }];
        for ev in plan.events().iter().filter(|e| e.kind.is_photonic()) {
            match ev.kind {
                FaultKind::WavelengthLoss { ribbon, lambda } => {
                    lost[ribbon][lambda] = matches!(ev.action, FaultAction::Inject);
                }
                FaultKind::PlaneDown { switch } => {
                    alive[switch] = matches!(ev.action, FaultAction::Recover);
                }
                _ => unreachable!("filtered to photonic events"),
            }
            let split = if alive.iter().all(|&a| a) {
                self.front_end.split().clone()
            } else {
                self.front_end
                    .degraded_split(&alive)
                    .expect("validated plan keeps at least one plane alive")
            };
            let ep = Epoch {
                start: ev.at,
                split,
                lost: lost.clone(),
            };
            match epochs.last_mut() {
                Some(last) if last.start == ev.at => *last = ep,
                _ => epochs.push(ep),
            }
        }
        epochs
    }

    /// Fluid-model per-switch per-output loads for `workload` (fast path
    /// for imbalance studies; no packet simulation). Returns
    /// `loads[switch][output]` in units of switch-port rate.
    pub fn fluid_loads(&self, w: &SpsWorkload) -> Vec<Vec<f64>> {
        let f = self.cfg.fibers_per_ribbon;
        let alpha = self.cfg.alpha() as f64;
        let mut loads = vec![vec![0.0; self.cfg.ribbons]; self.cfg.switches];
        for ribbon in 0..self.cfg.ribbons {
            let fiber_loads = w.fill.loads(f, w.load * f as f64);
            let row_total = w.tm.row_load(ribbon).max(f64::MIN_POSITIVE);
            for (fiber, &load) in fiber_loads.iter().enumerate() {
                let sw = self.front_end.split().switch_for(ribbon, fiber);
                for (out, l) in loads[sw].iter_mut().enumerate() {
                    // Fiber load is in fiber-rate units; a switch port
                    // aggregates alpha fibers.
                    *l += load * (w.tm.demand(ribbon, out) / row_total) / alpha;
                }
            }
        }
        loads
    }

    /// Predicted loss fraction from the fluid loads: any per-switch
    /// output loaded beyond 1.0 drops the excess.
    pub fn fluid_loss(&self, w: &SpsWorkload) -> f64 {
        let loads = self.fluid_loads(w);
        let total: f64 = loads.iter().flatten().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let excess: f64 = loads.iter().flatten().map(|&l| (l - 1.0).max(0.0)).sum();
        excess / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_router(pattern: SplitPattern) -> SpsRouter {
        SpsRouter::new(RouterConfig::small(), pattern).unwrap()
    }

    #[test]
    fn uniform_fill_balances_switch_loads() {
        let r = small_router(SplitPattern::Sequential);
        let w = SpsWorkload::uniform(4, 0.6, 2);
        let loads = r.fluid_loads(&w);
        for sw in &loads {
            for &l in sw {
                assert!((l - 0.6).abs() < 1e-9, "load {l}");
            }
        }
        assert_eq!(r.fluid_loss(&w), 0.0);
    }

    #[test]
    fn first_filled_skew_overloads_first_switch_under_sequential_split() {
        let r = small_router(SplitPattern::Sequential);
        let mut w = SpsWorkload::uniform(4, 0.25, 3);
        // All traffic on the first quarter of each ribbon's fibers —
        // exactly the fibers feeding switch 0.
        w.fill = FiberFill::FirstFilled { used: 4 };
        let loads = r.fluid_loads(&w);
        // Switch 0 sees per-output load 1.0; others none.
        assert!((loads[0][0] - 1.0).abs() < 1e-9, "{}", loads[0][0]);
        assert!(loads[1].iter().all(|&l| l == 0.0));
        // Raising the load past the first fibers' capacity spills over.
        let mut w2 = w.clone();
        w2.load = 0.5;
        w2.fill = FiberFill::FirstFilled { used: 8 };
        let loads2 = r.fluid_loads(&w2);
        assert!(loads2[0][0] > 0.9);
        assert!(loads2[1][0] > 0.9);
        assert!(loads2[2][0] == 0.0);
    }

    #[test]
    fn pseudo_random_split_spreads_fill_skew() {
        let seq = small_router(SplitPattern::Sequential);
        let rand = small_router(SplitPattern::PseudoRandom { seed: 77 });
        let mut w = SpsWorkload::uniform(4, 0.25, 4);
        w.fill = FiberFill::FirstFilled { used: 4 };
        let seq_max = seq
            .fluid_loads(&w)
            .iter()
            .flatten()
            .cloned()
            .fold(0.0, f64::max);
        let rand_max = rand
            .fluid_loads(&w)
            .iter()
            .flatten()
            .cloned()
            .fold(0.0, f64::max);
        assert!((seq_max - 1.0).abs() < 1e-9);
        assert!(
            rand_max < seq_max,
            "pseudo-random max {rand_max} should beat sequential {seq_max}"
        );
    }

    #[test]
    fn end_to_end_uniform_run_is_lossless() {
        let r = small_router(SplitPattern::PseudoRandom { seed: 5 });
        let w = SpsWorkload::uniform(4, 0.5, 6);
        let report = r
            .run(&w, SimTime::from_ns(30_000), &FaultPlan::default(), None)
            .unwrap();
        assert!(report.offered.bytes() > 0);
        assert!(
            report.loss_fraction < 0.001,
            "loss {}",
            report.loss_fraction
        );
        assert!(report.load_imbalance < 1.2, "{}", report.load_imbalance);
        assert_eq!(report.switches.len(), 4);
    }

    #[test]
    fn healthy_striped_plane_source_holds_only_its_own_fibers() {
        let r = small_router(SplitPattern::Striped);
        let cfg = RouterConfig::small();
        let w = SpsWorkload::uniform(cfg.ribbons, 0.5, 1);
        let own = cfg.ribbons * cfg.fibers_per_ribbon / cfg.switches;
        let split = r.front_end().split();
        for plane in 0..cfg.switches {
            let src = r.plane_source(&w, SimTime::from_ns(1_000), &FaultPlan::default(), plane);
            assert_eq!(src.fibers.len(), own, "plane {plane}");
            let routed = |&(ribbon, fiber): &(usize, usize)| split.switch_for(ribbon, fiber);
            assert!(src.fibers.iter().all(|rf| routed(rf) == plane));
        }
    }

    #[test]
    fn tm_size_mismatch_panics() {
        let r = small_router(SplitPattern::Sequential);
        let mut w = SpsWorkload::uniform(4, 0.5, 1);
        w.tm = TrafficMatrix::uniform(8, 1.0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.plane_source(&w, SimTime::from_ns(100), &FaultPlan::default(), 0)
        }));
        assert!(res.is_err());
    }
}
