//! Fleet-collector differential suite.
//!
//! The distributed plane-worker/collector split must be observably
//! indistinguishable from the single-process SPS runner: for every
//! shipped config in `configs/*.json` and several worker partitionings
//! of its planes, pushing each subset through the `rip-fleet/v1` wire
//! protocol and reassembling with the collector must produce a JSONL
//! telemetry stream AND a stitched report byte-identical to
//! `SpsRouter::run_streamed` through the identical watchdog chain —
//! regardless of the order the worker streams arrive in. Horizons are
//! capped so the suite stays fast in debug builds; the merge replays
//! plane-complete streams, so a capped run that diverged would diverge
//! at full length too.

use std::path::PathBuf;

use rip_bench::fleet::{push_worker_stream, CollectError, Collector, FleetJob};
use rip_core::{
    ConfigError, FaultKind, FaultPlan, FaultPlanError, LiveOptions, RouterConfig, SpsRouter,
    SpsWorkload,
};
use rip_photonics::SplitPattern;
use rip_telemetry::{JsonlSink, Watchdog, WatchdogConfig};
use rip_traffic::{ArrivalProcess, FiberFill, SizeDistribution, TrafficMatrix};
use rip_units::{SimTime, TimeDelta};
use serde::{Deserialize, Serialize, Value};

// ---------------------------------------------------------------------
// Local mirror of the `ripsim` spec schema (the binary does not export
// it): only the fields the fleet runs need, decoded with the same tags
// so every shipped config parses unchanged.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum MatrixSpec {
    Uniform,
    Hotspot { output: usize, fraction: f64 },
    Permutation { shift: usize },
    LogNormal { sigma: f64, seed: u64 },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum SizeSpec {
    Fixed { bytes: u64 },
    Uniform { min: u64, max: u64 },
    Imix,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum ProcessSpec {
    Poisson,
    Cbr,
    OnOff { mean_burst_packets: f64 },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SimSpec {
    router: RouterConfig,
    load: f64,
    matrix: MatrixSpec,
    sizes: SizeSpec,
    process: ProcessSpec,
    flows: usize,
    seed: u64,
    horizon_us: u64,
    drain_factor: u64,
    #[serde(default)]
    epoch_ps: Option<u64>,
}

/// Every shipped config file, with its decoded spec.
fn shipped_configs() -> Vec<(String, SimSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("configs/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no configs found in {}", dir.display());
    names
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&p).expect("config readable");
            let spec: SimSpec = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} does not decode as a SimSpec: {e}"));
            (name, spec)
        })
        .collect()
}

/// Debug-profile cap on arrival horizons.
const HORIZON_CAP_US: u64 = 20;

/// The fleet side of a shipped spec: the SPS router, the faithfully
/// translated workload, the capped horizon, the live-stream options
/// and the config echo both sides compare — mirroring what the
/// `ripsim` fleet modes build from the same file.
struct Parts {
    router: SpsRouter,
    switches: usize,
    workload: SpsWorkload,
    horizon: SimTime,
    live: LiveOptions,
    echo: Value,
}

fn fleet_parts(spec: &SimSpec) -> Parts {
    let n = spec.router.ribbons;
    let tm = match spec.matrix {
        MatrixSpec::Uniform => TrafficMatrix::uniform(n, 1.0),
        MatrixSpec::Hotspot { output, fraction } => {
            TrafficMatrix::hotspot(n, 1.0, output, fraction)
        }
        MatrixSpec::Permutation { shift } => {
            let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
            TrafficMatrix::permutation(&perm, 1.0).expect("valid permutation")
        }
        MatrixSpec::LogNormal { sigma, seed } => TrafficMatrix::log_normal(n, 1.0, sigma, seed),
    };
    let sizes = match spec.sizes {
        SizeSpec::Fixed { bytes } => {
            SizeDistribution::Fixed(rip_units::DataSize::from_bytes(bytes))
        }
        SizeSpec::Uniform { min, max } => SizeDistribution::Uniform { min, max },
        SizeSpec::Imix => SizeDistribution::Imix,
    };
    let process = match spec.process {
        ProcessSpec::Poisson => ArrivalProcess::Poisson,
        ProcessSpec::Cbr => ArrivalProcess::Cbr,
        ProcessSpec::OnOff { mean_burst_packets } => ArrivalProcess::OnOff { mean_burst_packets },
    };
    Parts {
        router: SpsRouter::new(spec.router.clone(), SplitPattern::Striped)
            .expect("shipped config is valid"),
        switches: spec.router.switches,
        workload: SpsWorkload {
            tm,
            load: spec.load,
            fill: FiberFill::Uniform,
            sizes,
            process,
            flows: spec.flows,
            seed: spec.seed,
        },
        horizon: SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000),
        live: LiveOptions {
            period: TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000)),
            sample_one_in: 256,
        },
        echo: spec.to_value(),
    }
}

/// Run the single-process oracle under `plan` through the collector's
/// exact sink chain (JSONL behind the SLO watchdogs) and return the
/// stream bytes and serialized report.
fn oracle(parts: &Parts, plan: &FaultPlan) -> (Vec<u8>, String) {
    let mut bytes = Vec::new();
    let report = {
        let sink = JsonlSink::new(&mut bytes);
        let (mut wd, _handle) = Watchdog::new(WatchdogConfig::default(), sink);
        parts
            .router
            .run_streamed(&parts.workload, parts.horizon, plan, parts.live, &mut wd)
    };
    (
        bytes,
        serde_json::to_string(&report).expect("report serializes"),
    )
}

/// Push every worker subset of `partition` under `plan`, ingest the
/// streams in reverse arrival order, and return the merged stream
/// bytes and serialized stitched report.
fn collect(parts: &Parts, plan: &FaultPlan, partition: &[Vec<usize>]) -> (Vec<u8>, String) {
    let job = FleetJob {
        router: &parts.router,
        workload: &parts.workload,
        plan,
        horizon: parts.horizon,
        live: parts.live,
        echo: parts.echo.clone(),
    };
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for (worker, subset) in partition.iter().enumerate() {
        streams.push(push_worker_stream(&job, worker as u64, subset, Vec::new()).expect("pushes"));
    }
    let mut collector = Collector::new(parts.echo.clone(), parts.switches);
    for stream in streams.iter().rev() {
        collector.ingest(&stream[..]).expect("stream ingests");
    }
    let mut bytes = Vec::new();
    let report = {
        let sink = JsonlSink::new(&mut bytes);
        let (mut wd, _handle) = Watchdog::new(WatchdogConfig::default(), sink);
        collector
            .finish(&parts.router, parts.horizon, &mut wd)
            .expect("full coverage")
            .report
    };
    (
        bytes,
        serde_json::to_string(&report).expect("report serializes"),
    )
}

#[test]
fn every_partitioning_of_every_shipped_config_matches_the_oracle() {
    for (name, spec) in &shipped_configs() {
        let parts = fleet_parts(spec);
        let planes = parts.switches;
        let (oracle_bytes, oracle_report) = oracle(&parts, &FaultPlan::default());
        assert!(
            !oracle_bytes.is_empty(),
            "{name}: oracle stream is empty — the comparison would be vacuous"
        );
        let partitionings: Vec<Vec<Vec<usize>>> = vec![
            // one worker per plane
            (0..planes).map(|p| vec![p]).collect(),
            // two workers owning interleaved halves
            vec![
                (0..planes).step_by(2).collect(),
                (1..planes).step_by(2).collect(),
            ],
        ];
        for partition in &partitionings {
            let (merged, report) = collect(&parts, &FaultPlan::default(), partition);
            assert_eq!(
                String::from_utf8(merged).expect("utf8"),
                String::from_utf8(oracle_bytes.clone()).expect("utf8"),
                "{name}: merged stream diverges for partition {partition:?}"
            );
            assert_eq!(
                report, oracle_report,
                "{name}: stitched report diverges for partition {partition:?}"
            );
        }
    }
}

#[test]
fn plane_down_partitions_match_the_oracle() {
    // A plane that goes down and recovers re-splices its fibers onto
    // the survivors for one epoch. Uneven partitions put a lone plane
    // on a worker's calling thread and run the rest beside it on
    // spawned threads; both must merge byte-identically.
    let (name, spec) = shipped_configs()
        .into_iter()
        .find(|(name, _)| name == "fleet_small.json")
        .expect("fleet_small.json ships");
    let parts = fleet_parts(&spec);
    assert_eq!(
        parts.switches, 4,
        "{name}: the partitions below assume 4 planes"
    );
    let plane = FaultKind::PlaneDown { switch: 2 };
    let plan = FaultPlan::new()
        .inject(SimTime::from_ns(5_000), plane)
        .recover(SimTime::from_ns(12_000), plane);
    plan.validate(&spec.router).expect("plan valid");
    let (oracle_bytes, oracle_report) = oracle(&parts, &plan);
    let (healthy_bytes, _) = oracle(&parts, &FaultPlan::default());
    assert_ne!(
        oracle_bytes, healthy_bytes,
        "{name}: the plane-down window changed nothing — the comparison would be vacuous"
    );
    for partition in [vec![vec![0], vec![1, 2, 3]], vec![vec![0, 2], vec![1, 3]]] {
        let (merged, report) = collect(&parts, &plan, &partition);
        assert_eq!(
            String::from_utf8(merged).expect("utf8"),
            String::from_utf8(oracle_bytes.clone()).expect("utf8"),
            "{name}: merged stream diverges for partition {partition:?}"
        );
        assert_eq!(
            report, oracle_report,
            "{name}: stitched report diverges for partition {partition:?}"
        );
    }
}

#[test]
fn an_unservable_fault_plan_is_a_typed_worker_error() {
    // One channel per stripe subset: losing channel 0 leaves plane 0's
    // subset 0 with no live channel, which the PFI engine cannot serve.
    let (_, mut spec) = shipped_configs().remove(0);
    spec.router.stripe_channels = Some(1);
    let parts = fleet_parts(&spec);
    let at = SimTime::from_ns(5_000);
    let plan = FaultPlan::new().inject(at, FaultKind::HbmChannelDown { channel: 0 });
    let job = FleetJob {
        router: &parts.router,
        workload: &parts.workload,
        plan: &plan,
        horizon: parts.horizon,
        live: parts.live,
        echo: parts.echo.clone(),
    };
    for subset in [vec![0], vec![1, 2]] {
        match push_worker_stream(&job, 0, &subset, Vec::new()) {
            Err(CollectError::Config(ConfigError::FaultPlan(FaultPlanError::Unservable {
                at: t,
                switch: 0,
                ..
            }))) => assert_eq!(t, at),
            other => panic!("want a typed Unservable plan error, got {other:?}"),
        }
    }
}

#[test]
fn a_worker_killed_mid_stream_is_typed_and_leaves_no_state() {
    let (_, spec) = shipped_configs().remove(0);
    let parts = fleet_parts(&spec);
    let planes = parts.switches;
    let plan = FaultPlan::default();
    let job = FleetJob {
        router: &parts.router,
        workload: &parts.workload,
        plan: &plan,
        horizon: parts.horizon,
        live: parts.live,
        echo: parts.echo.clone(),
    };
    let all: Vec<usize> = (0..planes).collect();
    let full = push_worker_stream(&job, 3, &all, Vec::new()).expect("pushes");
    let mut collector = Collector::new(parts.echo.clone(), planes);
    // Kill the stream mid-frame: the typed error carries the worker id
    // taken from the hello, and nothing is committed.
    match collector.ingest(&full[..full.len() / 2]) {
        Err(CollectError::WorkerTruncated { worker: Some(3) }) => {}
        other => panic!("want WorkerTruncated for worker 3, got {other:?}"),
    }
    assert_eq!(collector.workers_done(), 0);
    assert_eq!(collector.staged_records(), 0);
    assert_eq!(collector.missing_planes(), all);
    // The replacement push commits the whole subset.
    collector.ingest(&full[..]).expect("replacement ingests");
    assert_eq!(collector.missing_planes(), Vec::<usize>::new());
}
