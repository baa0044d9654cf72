//! Fleet-collector differential suite.
//!
//! The distributed plane-worker/collector split must be observably
//! indistinguishable from the single-process SPS runner: for every
//! shipped config in `configs/*.json` and several worker partitionings
//! of its planes, pushing each subset through the `rip-fleet/v1` wire
//! protocol and reassembling with the collector must produce a JSONL
//! telemetry stream AND a stitched report byte-identical to
//! `SpsRouter::run` through the identical watchdog chain —
//! regardless of the order the worker streams arrive in. Horizons are
//! capped so the suite stays fast in debug builds; the merge replays
//! plane-complete streams, so a capped run that diverged would diverge
//! at full length too.
//!
//! Worker bytes are outside input: truncated, spliced and byte-flipped
//! lines and streams must come back as typed errors, never a panic,
//! and a failed ingest must leave the collector's state untouched.

use std::sync::OnceLock;

use proptest::prelude::*;
use rip_bench::fleet::{push_worker_stream, CollectError, Collector, FleetJob};
use rip_bench::spec::SimSpec;
use rip_core::{
    ConfigError, FaultKind, FaultPlan, FaultPlanError, LiveOptions, SpsRouter, SpsWorkload,
};
use rip_integration_tests::shipped_configs;
use rip_photonics::SplitPattern;
use rip_telemetry::{parse_sink_line, JsonlSink, LengthFramedReader, Watchdog, WatchdogConfig};
use rip_units::{SimTime, TimeDelta};
use serde::{Serialize, Value};

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
    Parts {
        router: SpsRouter::new(spec.router.clone(), SplitPattern::Striped)
            .expect("shipped config is valid"),
        switches: spec.router.switches,
        workload: spec.sps_workload().expect("shipped config builds"),
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
            .run(
                &parts.workload,
                parts.horizon,
                plan,
                Some((parts.live, &mut wd)),
            )
            .expect("valid plan")
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
            // one worker owning every plane (a degenerate fleet)
            vec![(0..planes).collect()],
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

/// Real wire bytes for the hostile-input properties: a `small` job's
/// worker 0 stream (plane 0), committed first, and worker 1's stream
/// (the other planes), which the properties mutate.
struct Wire {
    echo: Value,
    planes: usize,
    first: Vec<u8>,
    second: Vec<u8>,
    /// `second`'s frames: each one JSONL line as a `JsonlSink` wrote it
    /// (telemetry) or a protocol control line.
    lines: Vec<String>,
}

fn wire() -> &'static Wire {
    static WIRE: OnceLock<Wire> = OnceLock::new();
    WIRE.get_or_init(|| {
        let cfg = rip_core::RouterConfig::small();
        let planes = cfg.switches;
        let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
        let workload = SpsWorkload::uniform(cfg.ribbons, 0.7, 11);
        let plan = FaultPlan::default();
        let echo = serde_json::parse("{\"spec\":\"hostile\"}").expect("echo parses");
        let job = FleetJob {
            router: &router,
            workload: &workload,
            plan: &plan,
            horizon: SimTime::from_ns(4_000),
            live: LiveOptions {
                period: TimeDelta::from_ps(1_000_000),
                sample_one_in: 16,
            },
            echo: echo.clone(),
        };
        let first = push_worker_stream(&job, 0, &[0], Vec::new()).expect("pushes");
        let rest: Vec<usize> = (1..planes).collect();
        let second = push_worker_stream(&job, 1, &rest, Vec::new()).expect("pushes");
        let mut reader = LengthFramedReader::new(&second[..]);
        let mut lines = Vec::new();
        while let Some(frame) = reader.read_frame().expect("well-formed stream") {
            lines.push(String::from_utf8(frame).expect("UTF-8 line"));
        }
        Wire {
            echo,
            planes,
            first,
            second,
            lines,
        }
    })
}

/// Ingest a mutated second stream into a collector that already holds
/// the first: the result is typed by construction, and a failed ingest
/// must leave the committed state exactly as it was.
fn ingest_mutated(bytes: &[u8]) -> Result<u64, CollectError> {
    let w = wire();
    let mut collector = Collector::new(w.echo.clone(), w.planes);
    collector
        .ingest(&w.first[..])
        .expect("first stream commits");
    let (staged, committed) = (collector.staged_records(), collector.committed_planes());
    let got = collector.ingest(bytes);
    if got.is_err() {
        assert_eq!(collector.staged_records(), staged, "{got:?}");
        assert_eq!(collector.committed_planes(), committed, "{got:?}");
        assert_eq!(collector.workers_done(), 1, "{got:?}");
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A strict prefix of a real line is never a record; every
    /// truncation, splice and byte flip is a typed `LineError` or a
    /// line that still parses — never a panic.
    #[test]
    fn mutated_sink_lines_are_typed_errors(
        pick in any::<prop::sample::Index>(),
        other in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let lines = &wire().lines;
        let line = lines[pick.index(lines.len())].as_bytes();
        let cut = cut.index(line.len());
        let truncated = String::from_utf8_lossy(&line[..cut]);
        prop_assert!(parse_sink_line(&truncated).is_err(), "{truncated}");
        let tail = lines[other.index(lines.len())].as_bytes();
        let spliced = [&line[..cut], &tail[at.index(tail.len())..]].concat();
        let _ = parse_sink_line(&String::from_utf8_lossy(&spliced));
        let mut flipped = line.to_vec();
        flipped[at.index(line.len())] ^= flip;
        let _ = parse_sink_line(&String::from_utf8_lossy(&flipped));
    }

    /// Truncated, spliced and byte-flipped worker streams: a truncated
    /// stream never commits, and no mutation panics or leaves partial
    /// state behind (see `ingest_mutated`).
    #[test]
    fn mutated_worker_streams_are_typed_errors(
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let w = wire();
        let cut = cut.index(w.second.len());
        prop_assert!(ingest_mutated(&w.second[..cut]).is_err());
        let spliced = [&w.second[..cut], &w.first[at.index(w.first.len())..]].concat();
        let _ = ingest_mutated(&spliced);
        let mut flipped = w.second.clone();
        flipped[at.index(w.second.len())] ^= flip;
        let _ = ingest_mutated(&flipped);
    }
}
