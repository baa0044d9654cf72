//! Kernel- and engine-equivalence differential suite.
//!
//! The timing-wheel event kernel must be observably indistinguishable
//! from the binary-heap oracle it replaced: for every shipped config in
//! `configs/*.json`, a same-seed run under each kernel must produce a
//! byte-identical serialized final report AND a byte-identical JSONL
//! live-telemetry stream. The same contract binds the switch's two
//! entry points into its run loop: a checkpointing run (snapshot at
//! every epoch) under either kernel must match the plain streaming run
//! on the wheel. Horizons are capped so the suite stays fast in debug
//! builds — the runs dispatch identical event sequences from the first
//! pop, so a capped run that diverges would diverge at full length too.

use std::path::PathBuf;

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, RunOutcome};
use rip_sim::QueueKind;
use rip_telemetry::{JsonlSink, SharedSink};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, SizeDistribution, TrafficMatrix,
};
use rip_units::{SimTime, TimeDelta};
use serde::Deserialize;

// ---------------------------------------------------------------------
// Local mirror of the `ripsim` spec schema (the binary does not export
// it): only the fields the differential runs need, decoded with the
// same tags so every shipped config parses unchanged.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum MatrixSpec {
    Uniform,
    Hotspot { output: usize, fraction: f64 },
    Permutation { shift: usize },
    LogNormal { sigma: f64, seed: u64 },
}

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum SizeSpec {
    Fixed { bytes: u64 },
    Uniform { min: u64, max: u64 },
    Imix,
}

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum ProcessSpec {
    Poisson,
    Cbr,
    OnOff { mean_burst_packets: f64 },
}

#[derive(Debug, Clone, Deserialize)]
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

fn build_source(spec: &SimSpec, horizon: SimTime) -> MergedSource<BoundedSource<PacketGenerator>> {
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
    let lanes: Vec<BoundedSource<PacketGenerator>> = (0..n)
        .map(|port| {
            let g = PacketGenerator::new(
                port,
                spec.router.port_rate(),
                (spec.load * tm.row_load(port)).min(1.0),
                tm.row(port).to_vec(),
                sizes.clone(),
                process,
                spec.flows,
                rip_sim::rng::derive_seed(spec.seed, port as u64),
            )
            .expect("config builds a valid generator");
            BoundedSource::new(g, horizon)
        })
        .collect();
    MergedSource::new(lanes)
}

/// Live-telemetry epoch period for a config: its own `epoch_ps`, or a
/// 2 us default so silent configs still exercise the JSONL comparison.
fn epoch_period(spec: &SimSpec) -> TimeDelta {
    TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000))
}

/// Run `spec` to completion under `kind` and return the serialized
/// final report plus the rendered JSONL telemetry stream.
fn run_kernel(spec: &SimSpec, kind: QueueKind, horizon: SimTime) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    assert_eq!(sw.queue_kind(), QueueKind::default_kind());
    sw.set_queue_kind(kind);
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    sw.run_source(build_source(spec, horizon), deadline, &FaultPlan::default());
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

/// [`run_kernel`] through the checkpointing entry point, with a
/// snapshot due at every epoch (the snapshots themselves are dropped).
fn run_checkpointed(spec: &SimSpec, kind: QueueKind, horizon: SimTime) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    sw.set_queue_kind(kind);
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let mut snapshots = 0u64;
    let outcome = sw
        .run_source_checkpointed(
            build_source(spec, horizon),
            deadline,
            &FaultPlan::default(),
            None,
            1,
            || false,
            |_, _, _| {
                snapshots += 1;
                Ok(())
            },
        )
        .expect("checkpointed run");
    assert_eq!(outcome, RunOutcome::Completed);
    assert!(snapshots > 0, "no checkpoint was due — comparison vacuous");
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
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

/// Debug-profile cap on arrival horizons: equivalence needs identical
/// event sequences, not full-length soaks.
const HORIZON_CAP_US: u64 = 30;

#[test]
fn wheel_and_heap_kernels_agree_on_every_shipped_config() {
    let configs = shipped_configs();
    assert!(
        configs.len() >= 4,
        "expected the 4 shipped configs, found {}",
        configs.len()
    );
    for (name, spec) in &configs {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        let (wheel_report, wheel_jsonl) = run_kernel(spec, QueueKind::TimingWheel, horizon);
        let (heap_report, heap_jsonl) = run_kernel(spec, QueueKind::BinaryHeap, horizon);
        assert_eq!(
            wheel_report, heap_report,
            "{name}: final reports diverged across kernels"
        );
        assert_eq!(
            wheel_jsonl, heap_jsonl,
            "{name}: JSONL telemetry streams diverged across kernels"
        );
        assert!(
            !wheel_jsonl.is_empty(),
            "{name}: telemetry comparison was vacuous"
        );
        // The reports carry real traffic — a config that moved no
        // packets would make the equivalence claim vacuous too.
        assert!(
            wheel_report.contains("\"offered_packets\":")
                && !wheel_report.contains("\"offered_packets\":0,"),
            "{name}: run offered no packets"
        );
    }
}

#[test]
fn every_engine_and_kernel_agrees_on_every_shipped_config() {
    // {plain, checkpointing} x {wheel, heap}, every shipped config,
    // byte-identical reports and JSONL streams against the plain/wheel
    // baseline. Taking snapshots must not perturb the run.
    let kinds = [QueueKind::TimingWheel, QueueKind::BinaryHeap];
    for (name, spec) in &shipped_configs() {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        let (base_report, base_jsonl) = run_kernel(spec, QueueKind::TimingWheel, horizon);
        assert!(!base_jsonl.is_empty(), "{name}: comparison was vacuous");
        for kind in kinds {
            let (report, jsonl) = run_checkpointed(spec, kind, horizon);
            assert_eq!(
                report, base_report,
                "{name}: checkpointed/{kind:?} report diverged from plain/TimingWheel"
            );
            assert_eq!(
                jsonl, base_jsonl,
                "{name}: checkpointed/{kind:?} JSONL stream diverged from plain/TimingWheel"
            );
        }
    }
}

#[test]
fn legacy_engine_block_loads_and_changes_nothing() {
    // Specs written while the switch had a selectable engine carry a
    // `router.engine` block. The decoder ignores unknown keys and every
    // engine produced identical output, so such a spec must still load
    // and run to the same bytes as the spec without the block.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs/soak_live.json");
    let text = std::fs::read_to_string(&path).expect("config readable");
    let legacy = text.replacen(
        "\"router\": {",
        "\"router\": {\n    \"engine\": {\"kind\": \"sharded\", \"shards\": 2},",
        1,
    );
    assert_ne!(legacy, text, "engine block was not inserted");
    let spec: SimSpec = serde_json::from_str(&text).expect("current spec decodes");
    let old: SimSpec = serde_json::from_str(&legacy).expect("legacy spec decodes");
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let (report, jsonl) = run_kernel(&spec, QueueKind::TimingWheel, horizon);
    assert!(!jsonl.is_empty(), "comparison was vacuous");
    assert_eq!(
        run_kernel(&old, QueueKind::TimingWheel, horizon),
        (report, jsonl),
        "a legacy engine block changed the run"
    );
}

#[test]
fn wheel_kernel_runs_are_deterministic() {
    // Differential equivalence is only meaningful if each kernel is
    // itself reproducible: two same-seed wheel runs must match bytewise.
    let (name, spec) = &shipped_configs()[0];
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let a = run_kernel(spec, QueueKind::TimingWheel, horizon);
    let b = run_kernel(spec, QueueKind::TimingWheel, horizon);
    assert_eq!(a, b, "{name}: same-seed wheel runs diverged");
}
