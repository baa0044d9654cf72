//! The three workloads, one untraced or traced repetition of each, and
//! the output checks every repetition must pass.

use std::collections::HashMap;
use std::time::Instant;

use rip_bench::fleet::{push_worker_stream, Collector, FleetJob};
use rip_core::{
    FaultPlan, HbmSwitch, LiveOptions, PacketDeparture, RouterConfig, SpsReport, SpsRouter,
    SpsWorkload, SwitchReport,
};
use rip_photonics::SplitPattern;
use rip_telemetry::{
    JsonlSink, LengthFramedReader, MetricsRegistry, ProfileHub, Watchdog, WatchdogConfig,
};
use rip_traffic::{
    ArrivalProcess, BoundedSource, FiberFill, MergedSource, Packet, PacketGenerator, PacketSource,
    SizeDistribution, TrafficMatrix,
};
use rip_units::{DataSize, SimTime, TimeDelta};

use crate::util::{fnv1a, SharedBuf, FNV_BASIS};

/// Flow pool per generator (the `ripsim` spec default).
const FLOWS: usize = 256;

/// Share of every ribbon's traffic sent to output 0 on the fleet
/// workload. `configs/hotspot.json`'s 0.25 is exactly 1/n on `small`'s
/// four ribbons, the uniform matrix. 0.27 loads output 0 to 0.972 of a
/// port at 0.9 load (admissible up to 1/(4 · 0.9) ≈ 0.278), so its HBM
/// queue stands two to three times deeper than any other output's.
const HOT_FRACTION: f64 = 0.27;

/// The named workloads. Later changes refer to them by these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One paper-scale HBM switch plane, uniform IMIX at 0.8 load.
    PaperImix,
    /// The `small` plane with fixed 64 B packets at 0.8 load.
    Small64b,
    /// Four `small` SPS planes through the fleet worker/collector path,
    /// hotspot matrix at 0.9 load, live telemetry on.
    SpsFleetHotspot,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Kind; 3] = [Kind::PaperImix, Kind::Small64b, Kind::SpsFleetHotspot];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperImix => "paper_imix",
            Kind::Small64b => "small_64b",
            Kind::SpsFleetHotspot => "sps_fleet_hotspot",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }
}

/// A fully specified workload instance: configuration, traffic and the
/// seed every generator derives from.
pub struct Workload {
    pub kind: Kind,
    pub cfg: RouterConfig,
    pub tm: TrafficMatrix,
    pub load: f64,
    pub sizes: SizeDistribution,
    /// Arrival horizon; the run continues to the config's drain deadline.
    pub horizon: SimTime,
    pub seed: u64,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::PaperImix => {
                let cfg = RouterConfig::reference();
                Workload {
                    kind,
                    tm: TrafficMatrix::uniform(cfg.ribbons, 1.0),
                    cfg,
                    load: 0.8,
                    sizes: SizeDistribution::Imix,
                    horizon: SimTime::from_ns(100_000),
                    seed,
                }
            }
            Kind::Small64b => {
                let cfg = RouterConfig::small();
                Workload {
                    kind,
                    tm: TrafficMatrix::uniform(cfg.ribbons, 1.0),
                    cfg,
                    load: 0.8,
                    sizes: SizeDistribution::Fixed(DataSize::from_bytes(64)),
                    horizon: SimTime::from_ns(200_000),
                    seed,
                }
            }
            Kind::SpsFleetHotspot => {
                let cfg = RouterConfig::small();
                Workload {
                    kind,
                    tm: TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, HOT_FRACTION),
                    cfg,
                    load: 0.9,
                    sizes: SizeDistribution::Imix,
                    horizon: SimTime::from_ns(100_000),
                    seed,
                }
            }
        }
    }

    pub fn is_fleet(&self) -> bool {
        self.kind == Kind::SpsFleetHotspot
    }

    /// Simulated deadline: arrivals stop at the horizon, the run drains
    /// until the config's drain policy says stop.
    pub fn deadline(&self) -> SimTime {
        self.cfg.drain.deadline(self.horizon)
    }

    /// The single-switch workloads' merged arrival stream.
    pub fn switch_source(&self) -> MergedSource<BoundedSource<PacketGenerator>> {
        rip_bench::switch_source(
            &self.cfg,
            &self.tm,
            self.load,
            self.sizes.clone(),
            ArrivalProcess::Poisson,
            self.horizon,
            self.seed,
        )
    }

    pub fn sps_workload(&self) -> SpsWorkload {
        SpsWorkload {
            tm: self.tm.clone(),
            load: self.load,
            fill: FiberFill::Uniform,
            sizes: self.sizes.clone(),
            process: ArrivalProcess::Poisson,
            flows: FLOWS,
            seed: self.seed,
        }
    }

    /// Every fiber's generator merged into one stream: the SPS
    /// workload's traffic before the photonic split, seeded exactly as
    /// [`SpsRouter::plane_source`] seeds its lanes.
    pub fn fiber_source(&self) -> MergedSource<BoundedSource<PacketGenerator>> {
        let w = self.sps_workload();
        let f = self.cfg.fibers_per_ribbon;
        let fiber_rate = self.cfg.fiber_rate();
        let mut lanes = Vec::new();
        for ribbon in 0..self.cfg.ribbons {
            for (fiber, &load) in w.fill.loads(f, w.load * f as f64).iter().enumerate() {
                if load <= 0.0 {
                    continue;
                }
                let g = PacketGenerator::new(
                    ribbon,
                    fiber_rate,
                    load.min(1.0),
                    w.tm.row(ribbon).to_vec(),
                    w.sizes.clone(),
                    w.process,
                    w.flows,
                    rip_sim::rng::derive_seed(w.seed, (ribbon * f + fiber) as u64),
                )
                .expect("valid fiber generator");
                lanes.push(BoundedSource::new(g, self.horizon));
            }
        }
        MergedSource::new(lanes)
    }

    pub fn router(&self) -> SpsRouter {
        SpsRouter::new(self.cfg.clone(), SplitPattern::Striped).expect("valid SPS config")
    }

    /// Live telemetry as `repro fleet` streams it: 2 µs epochs and
    /// 1-in-256 lifecycle sampling.
    pub fn live() -> LiveOptions {
        LiveOptions {
            period: TimeDelta::from_ps(2_000_000),
            sample_one_in: 256,
        }
    }

    /// The per-switch arrival streams the engine sees: the merged source
    /// for a single switch, one [`SpsRouter::plane_source`] per plane.
    pub fn switch_streams(&self) -> Vec<Vec<Packet>> {
        if self.is_fleet() {
            let router = self.router();
            let w = self.sps_workload();
            (0..self.cfg.switches)
                .map(|p| {
                    router
                        .plane_source(&w, self.horizon, &FaultPlan::default(), p)
                        .packets()
                        .collect()
                })
                .collect()
        } else {
            vec![self.switch_source().packets().collect()]
        }
    }

    /// Everything a run constructs before its first arrival, built and
    /// dropped: config validation, switch (and router) construction with
    /// their HBM groups, and source construction.
    pub fn setup_only(&self) -> Setup {
        let t0 = Instant::now();
        if self.is_fleet() {
            let router = self.router();
            let w = self.sps_workload();
            let t_planes = Instant::now();
            for p in 0..self.cfg.switches {
                let src = router.plane_source(&w, self.horizon, &FaultPlan::default(), p);
                let sw = HbmSwitch::new(self.cfg.clone()).expect("valid config");
                std::hint::black_box((&src, &sw));
            }
            let t_end = Instant::now();
            std::hint::black_box(&router);
            Setup {
                total_s: t_end.duration_since(t0).as_secs_f64(),
                in_run_s: t_end.duration_since(t_planes).as_secs_f64(),
            }
        } else {
            let src = self.switch_source();
            let sw = HbmSwitch::new(self.cfg.clone()).expect("valid config");
            std::hint::black_box((&src, &sw));
            Setup {
                total_s: t0.elapsed().as_secs_f64(),
                in_run_s: 0.0,
            }
        }
    }
}

/// Host seconds of one standalone setup.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Everything before the first arrival.
    pub total_s: f64,
    /// The part a repetition's `run_s` repeats: the fleet worker calls
    /// build their plane switches and sources (the router is built
    /// before them). Zero for a single switch.
    pub in_run_s: f64,
}

/// The config echo fleet workers and the collector agree on.
fn echo() -> serde_json::Value {
    serde_json::parse("{\"bench\":\"rip-ledger\"}").expect("echo parses")
}

/// Packet accounting of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Conservation {
    pub offered: u64,
    pub delivered: u64,
    /// Neither delivered nor dropped with a counted cause (input VOQ,
    /// HBM region, front end) by the drain deadline. The report does not
    /// tell a packet still inside the switch there from a lost one, so
    /// both count here: the strict reading.
    pub lost: u64,
    pub delivered_bits: u64,
}

impl Conservation {
    fn add_switch(&mut self, r: &SwitchReport) {
        let dropped = r.dropped_packets_fault + r.dropped_packets_congestion;
        let accounted = r.delivered_packets + dropped;
        let mut lost = r.offered_packets.abs_diff(accounted);
        // A report whose departure log disagrees with its own delivered
        // count has lost (or invented) packets.
        lost += (r.departures.len() as u64).abs_diff(r.delivered_packets);
        self.offered += r.offered_packets;
        self.delivered += r.delivered_packets;
        self.lost += lost;
        self.delivered_bits += r.delivered_bytes.bits();
    }

    pub fn of_switch(r: &SwitchReport) -> Self {
        let mut c = Conservation::default();
        c.add_switch(r);
        c
    }

    pub fn of_sps(r: &SpsReport) -> Self {
        let mut c = Conservation::default();
        for s in &r.switches {
            c.add_switch(&s.report);
        }
        // Front-end drops (a counted cause) happen before a plane sees
        // the packet.
        c.offered += r.front_end_dropped_packets;
        c
    }
}

/// Deterministic counts of one run (they repeat exactly for a seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub pkts: u64,
    pub hbm_cmds: u64,
    pub frames_written: u64,
    pub frames_read: u64,
    pub frames_bypassed: u64,
    pub telemetry_records: u64,
    pub fleet_stream_bytes: u64,
}

impl Counts {
    fn from_metrics(m: &MetricsRegistry, pkts: u64) -> Self {
        Counts {
            pkts,
            hbm_cmds: ["act", "pre", "rd", "wr", "ref"]
                .iter()
                .map(|c| m.counter(&format!("hbm.cmd.{c}")))
                .sum(),
            frames_written: m.counter("switch.frames.written"),
            frames_read: m.counter("switch.frames.read"),
            frames_bypassed: m.counter("switch.frames.bypass"),
            ..Counts::default()
        }
    }
}

/// Host-time split of the fleet path, seconds, and the stream's makeup.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTimes {
    pub worker_s: f64,
    pub ingest_s: f64,
    pub merge_s: f64,
    pub merged_records: u64,
    /// Bytes of the worker streams' `plane_done` frames (the per-plane
    /// reports).
    pub plane_done_bytes: u64,
}

/// The simulated result of one repetition, kept for the checks.
pub enum Output {
    Switch(SwitchReport),
    Sps(SpsReport),
}

/// One repetition's measurements and outputs.
pub struct Rep {
    /// Host seconds before the first arrival (single-switch workloads;
    /// the fleet path builds its planes inside the worker call).
    pub setup_s: Option<f64>,
    /// Host seconds from the start of setup to a conservation-checked,
    /// serialized result.
    pub wall_s: f64,
    /// Host seconds of the simulation calls: `run_source`, or the fleet
    /// worker calls (which also build each plane and frame its stream).
    pub run_s: f64,
    /// `into_report` (or the fleet merge's report stitch) plus report
    /// serialization.
    pub report_s: f64,
    pub cons: Conservation,
    pub counts: Counts,
    pub fleet: Option<FleetTimes>,
    /// Digest of the serialized report and, for the fleet, the merged
    /// telemetry stream.
    pub digest: u64,
    pub output: Output,
    /// The merged telemetry stream (fleet only).
    pub merged: Vec<u8>,
}

/// Profile hubs for traced repetitions, each writing its records to a
/// buffer. The engines' and the collector's are kept apart so that
/// worker records the collector re-labels are not counted twice.
pub struct Hubs {
    pub engine: ProfileHub,
    pub collect: ProfileHub,
    pub engine_out: SharedBuf,
    pub collect_out: SharedBuf,
}

impl Hubs {
    pub fn new() -> Self {
        let (engine, collect) = (ProfileHub::new(), ProfileHub::new());
        let (engine_out, collect_out) = (SharedBuf::default(), SharedBuf::default());
        engine.set_output(Box::new(engine_out.clone()));
        collect.set_output(Box::new(collect_out.clone()));
        Hubs {
            engine,
            collect,
            engine_out,
            collect_out,
        }
    }
}

/// Run one repetition; `hubs` attaches the profiler.
pub fn run(w: &Workload, hubs: Option<&Hubs>) -> Rep {
    if w.is_fleet() {
        run_fleet(w, hubs)
    } else {
        run_switch(w, hubs)
    }
}

fn run_switch(w: &Workload, hubs: Option<&Hubs>) -> Rep {
    let t0 = Instant::now();
    let src = w.switch_source();
    let mut sw = HbmSwitch::new(w.cfg.clone()).expect("valid config");
    if let Some(h) = hubs {
        sw.enable_profiler(h.engine.clone());
    }
    let t_setup = Instant::now();
    sw.run_source(src, w.deadline(), &FaultPlan::default());
    let t_run = Instant::now();
    let report = sw.into_report();
    let json = serde_json::to_string(&report).expect("report serializes");
    let t_report = Instant::now();
    let cons = Conservation::of_switch(&report);
    let t_end = Instant::now();
    let counts = Counts::from_metrics(&report.metrics, report.delivered_packets);
    Rep {
        setup_s: Some(t_setup.duration_since(t0).as_secs_f64()),
        wall_s: t_end.duration_since(t0).as_secs_f64(),
        run_s: t_run.duration_since(t_setup).as_secs_f64(),
        report_s: t_report.duration_since(t_run).as_secs_f64(),
        cons,
        counts,
        fleet: None,
        digest: fnv1a(FNV_BASIS, json.as_bytes()),
        output: Output::Switch(report),
        merged: Vec::new(),
    }
}

fn run_fleet(w: &Workload, hubs: Option<&Hubs>) -> Rep {
    let planes = w.cfg.switches;
    let t0 = Instant::now();
    let mut router = w.router();
    if let Some(h) = hubs {
        router.set_profile_hub(h.engine.clone());
    }
    let workload = w.sps_workload();
    let plan = FaultPlan::default();
    let job = FleetJob {
        router: &router,
        workload: &workload,
        plan: &plan,
        horizon: w.horizon,
        live: Workload::live(),
        echo: echo(),
    };
    // One single-plane worker at a time, into memory: at most one
    // simulation thread runs and no socket is crossed.
    let t_workers = Instant::now();
    let streams: Vec<Vec<u8>> = (0..planes)
        .map(|p| push_worker_stream(&job, p as u64, &[p], Vec::new()).expect("worker pushes"))
        .collect();
    let t_ingest = Instant::now();
    // Built once the streams exist, so the collector profiler's first
    // window does not cover the workers.
    let mut collector = Collector::new(echo(), planes);
    if let Some(h) = hubs {
        collector = collector.with_profiler(h.collect.clone());
    }
    for s in &streams {
        collector.ingest(&s[..]).expect("stream ingests");
    }
    let t_merge = Instant::now();
    let mut merged = Vec::new();
    let outcome = {
        let sink = JsonlSink::new(&mut merged);
        let (mut wd, _alarms) = Watchdog::new(WatchdogConfig::default(), sink);
        collector
            .finish(&router, w.horizon, &mut wd)
            .expect("every plane delivered")
    };
    let t_report = Instant::now();
    let json = serde_json::to_string(&outcome.report).expect("report serializes");
    let t_json = Instant::now();
    let cons = Conservation::of_sps(&outcome.report);
    let t_end = Instant::now();
    let mut counts = Counts::from_metrics(&outcome.report.metrics, cons.delivered);
    counts.telemetry_records = outcome.records;
    counts.fleet_stream_bytes = streams.iter().map(|s| s.len() as u64).sum();
    let digest = fnv1a(fnv1a(FNV_BASIS, json.as_bytes()), &merged);
    Rep {
        setup_s: None,
        wall_s: t_end.duration_since(t0).as_secs_f64(),
        run_s: t_ingest.duration_since(t_workers).as_secs_f64(),
        report_s: t_json.duration_since(t_report).as_secs_f64(),
        cons,
        counts,
        fleet: Some(FleetTimes {
            worker_s: t_ingest.duration_since(t_workers).as_secs_f64(),
            ingest_s: t_merge.duration_since(t_ingest).as_secs_f64(),
            merge_s: t_report.duration_since(t_merge).as_secs_f64(),
            merged_records: outcome.records,
            plane_done_bytes: streams.iter().map(|s| plane_done_bytes(s)).sum(),
        }),
        digest,
        output: Output::Sps(outcome.report),
        merged,
    }
}

/// Bytes of a worker stream's `plane_done` frames.
fn plane_done_bytes(stream: &[u8]) -> u64 {
    let mut reader = LengthFramedReader::new(stream);
    let mut bytes = 0;
    while let Ok(Some(frame)) = reader.read_frame() {
        if frame.starts_with(b"{\"record\":\"plane_done\"") {
            bytes += frame.len() as u64;
        }
    }
    bytes
}

/// Per plane of an SPS output, the median HBM queue depth in frames of
/// output 0 and of the deepest other output: what the hotspot does to
/// the HBM.
pub fn hot_queue_depths(w: &Workload, output: &Output) -> Vec<(f64, f64)> {
    let Output::Sps(r) = output else {
        return Vec::new();
    };
    r.switches
        .iter()
        .map(|s| {
            let p50 = |o: usize| {
                s.report
                    .metrics
                    .histogram(&format!("switch.out{o:02}.queue_depth_frames"))
                    .and_then(|h| h.quantile(0.5))
                    .unwrap_or(0.0)
            };
            let others = (1..w.cfg.ribbons).map(p50).fold(0.0, f64::max);
            (p50(0), others)
        })
        .collect()
}

/// A packet's flow identity: ingress, egress and 5-tuple, hashed.
fn flow_tag(p: &Packet) -> u64 {
    let h = fnv1a(FNV_BASIS, &(p.input as u64).to_le_bytes());
    let h = fnv1a(h, &(p.output as u64).to_le_bytes());
    fnv1a(h, &p.flow.to_bytes())
}

/// Check one switch's departure log against the packets it was offered:
/// every departure is an offered packet, none departs twice, and within
/// each flow packets depart in arrival order. `key` identifies a packet;
/// packets whose key is not unique in the offered stream are checked for
/// identity but skipped by the order check (their flow is ambiguous).
fn check_departures(
    offered: impl Iterator<Item = Packet>,
    departures: &[PacketDeparture],
    key: impl Fn(u64, SimTime) -> (u64, u64),
) -> Result<(), String> {
    // key -> (flow tag, times offered, times departed)
    let mut by_key: HashMap<(u64, u64), (u64, u32, u32)> = HashMap::new();
    for p in offered {
        by_key
            .entry(key(p.id, p.arrival))
            .or_insert((flow_tag(&p), 0, 0))
            .1 += 1;
    }
    let mut ordered: Vec<(u64, SimTime, SimTime, u64)> = Vec::with_capacity(departures.len());
    for d in departures {
        let Some(e) = by_key.get_mut(&key(d.packet, d.arrival)) else {
            return Err(format!(
                "departure of packet {} that was never offered",
                d.packet
            ));
        };
        e.2 += 1;
        if e.2 > e.1 {
            return Err(format!("packet {} departed twice", d.packet));
        }
        if e.1 == 1 {
            ordered.push((e.0, d.time, d.arrival, d.packet));
        }
    }
    drop(by_key);
    ordered.sort_unstable();
    for pair in ordered.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.0 == b.0 && b.2 < a.2 {
            return Err(format!(
                "flow order broken: packet {} (arrived {} ps) departed after packet {} (arrived {} ps)",
                b.3,
                b.2.as_ps(),
                a.3,
                a.2.as_ps()
            ));
        }
    }
    Ok(())
}

/// The per-flow order and identity checks for a repetition's output,
/// against freshly regenerated arrivals.
pub fn check_flows(w: &Workload, output: &Output) -> Result<(), String> {
    match output {
        // Packet ids are unique within a single switch's merged source.
        Output::Switch(r) => {
            check_departures(w.switch_source().packets(), &r.departures, |id, _| (id, 0))
        }
        // Fibers of one ribbon share an id range, so a plane identifies a
        // packet by id and arrival time.
        Output::Sps(r) => {
            let router = w.router();
            let sw = w.sps_workload();
            for (p, s) in r.switches.iter().enumerate() {
                let src = router.plane_source(&sw, w.horizon, &FaultPlan::default(), p);
                check_departures(src.packets(), &s.report.departures, |id, at| {
                    (id, at.as_ps())
                })
                .map_err(|e| format!("plane {p}: {e}"))?;
            }
            Ok(())
        }
    }
}
