//! Self-profiler non-interference differential suite.
//!
//! The profiler observes and must never participate: enabling it may
//! not change one byte of any deterministic output surface. This suite
//! runs every shipped config under every entry point x kernel pairing twice
//! — once silent, once with a [`ProfileHub`] attached — and demands
//! byte-identical final reports and JSONL telemetry streams. The same
//! contract is checked for the two remaining deterministic surfaces:
//! Chrome trace exports and checkpoint snapshot containers. Each
//! comparison also asserts the profiled run actually recorded phases,
//! so a regression that silently disables the profiler cannot make the
//! identity claims vacuous.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, RunOutcome};
use rip_integration_tests::source_for;
use rip_sim::QueueKind;
use rip_telemetry::{JsonlSink, Phase, ProfileHub, ProfileRecord, SharedSink, TraceWindow};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, SizeDistribution, TrafficMatrix,
};
use rip_units::{SimTime, TimeDelta};
use serde::Deserialize;

// ---------------------------------------------------------------------
// Local mirror of the `ripsim` spec schema (the binary does not export
// it) — the same subset `kernel_equivalence.rs` decodes, so every
// shipped config parses unchanged.
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
    let lanes = (0..n)
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

fn epoch_period(spec: &SimSpec) -> TimeDelta {
    TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000))
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

/// Debug-profile cap on arrival horizons — identity needs identical
/// event sequences, not full-length soaks.
const HORIZON_CAP_US: u64 = 20;

/// The switch's two entry points into its run loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// `run_source`.
    Plain,
    /// `run_source_checkpointed`, with a snapshot due at every epoch.
    Checkpointed,
}

/// Run `spec` through `entry` under `kind`, optionally with a profiler
/// attached, and return the serialized final report plus the rendered
/// JSONL telemetry stream.
fn run_spec(
    spec: &SimSpec,
    kind: QueueKind,
    entry: Entry,
    horizon: SimTime,
    hub: Option<&ProfileHub>,
) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    sw.set_queue_kind(kind);
    if let Some(h) = hub {
        sw.enable_profiler(h.clone());
    }
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let source = build_source(spec, horizon);
    match entry {
        Entry::Plain => sw.run_source(source, deadline, &FaultPlan::default()),
        Entry::Checkpointed => {
            let outcome = sw
                .run_source_checkpointed(
                    source,
                    deadline,
                    &FaultPlan::default(),
                    None,
                    1,
                    || false,
                    |_, _, _| Ok(()),
                )
                .expect("checkpointed run");
            assert_eq!(outcome, RunOutcome::Completed);
        }
    }
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

#[test]
fn profiler_leaves_every_engine_and_kernel_byte_identical() {
    let entries = [Entry::Plain, Entry::Checkpointed];
    let kinds = [QueueKind::TimingWheel, QueueKind::BinaryHeap];
    for (name, spec) in &shipped_configs() {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        for entry in entries {
            for kind in kinds {
                let silent = run_spec(spec, kind, entry, horizon, None);
                // A ring-only hub, exactly what `--profile` without an
                // output stream attaches.
                let hub = ProfileHub::new();
                let profiled = run_spec(spec, kind, entry, horizon, Some(&hub));
                assert_eq!(
                    silent.0, profiled.0,
                    "{name}: {entry:?}/{kind:?} report changed under profiling"
                );
                assert_eq!(
                    silent.1, profiled.1,
                    "{name}: {entry:?}/{kind:?} JSONL stream changed under profiling"
                );
                assert!(!silent.1.is_empty(), "{name}: comparison was vacuous");
                assert!(
                    hub.records_total() > 0,
                    "{name}: {entry:?}/{kind:?} profiled run recorded nothing"
                );
            }
        }
    }
}

/// A `Write` handle on a shared buffer, so a hub's full record stream
/// can be read back after the run (its in-memory ring keeps only the
/// newest records).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn checkpointed_runs_record_the_same_engine_phases() {
    // Both entry points share one run loop, so the same profiled input
    // must sample the same per-event laps: lap sampling is a
    // deterministic 1-in-64 tick, so the summed span counts of the
    // engine phases match exactly.
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let engine_phases = [
        Phase::KernelPop,
        Phase::BatchAssembly,
        Phase::HbmTiming,
        Phase::BatchDrain,
        Phase::Dispatch,
    ];
    let counts = |entry: Entry| -> Vec<u64> {
        let hub = ProfileHub::new();
        let out = SharedBuf::default();
        hub.set_output(Box::new(out.clone()));
        run_spec(&spec, QueueKind::TimingWheel, entry, horizon, Some(&hub));
        hub.flush_output();
        let text = String::from_utf8(out.0.lock().expect("buffer lock").clone())
            .expect("profile stream is UTF-8");
        let records: Vec<ProfileRecord> = text
            .lines()
            .map(|l| {
                let line: serde_json::Value = serde_json::parse(l).expect("record line parses");
                let data = line
                    .as_object()
                    .and_then(|f| f.iter().find(|(k, _)| k == "data"))
                    .map(|(_, d)| d.clone())
                    .expect("profile line carries its record under `data`");
                serde_json::from_value(data).expect("record decodes")
            })
            .collect();
        assert_eq!(records.len() as u64, hub.records_total());
        engine_phases
            .iter()
            .map(|p| {
                records
                    .iter()
                    .filter_map(|r| r.phases.get(p.name()))
                    .map(|s| s.count)
                    .sum()
            })
            .collect()
    };
    let plain = counts(Entry::Plain);
    let checkpointed = counts(Entry::Checkpointed);
    // `Dispatch` covers faults only, and this run has none.
    assert!(
        plain[..4].iter().all(|&c| c > 0),
        "{name}: plain run sampled no laps for some phase: {plain:?}"
    );
    assert_eq!(
        checkpointed, plain,
        "{name}: checkpointed run sampled different engine laps (phases {engine_phases:?})"
    );
}

#[test]
fn profiler_leaves_chrome_traces_byte_identical() {
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let run = |hub: Option<&ProfileHub>| -> (String, Vec<u8>) {
        let mut sw = HbmSwitch::new(spec.router.clone()).expect("valid config");
        if let Some(h) = hub {
            sw.enable_profiler(h.clone());
        }
        sw.enable_chrome_trace(TraceWindow::all());
        sw.run_source(
            build_source(&spec, horizon),
            deadline,
            &FaultPlan::default(),
        );
        let rec = sw.take_chrome_trace().expect("trace enabled");
        let mut json: Vec<u8> = Vec::new();
        rec.write_chrome_json(&mut json).expect("trace serializes");
        let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
        (report, json)
    };
    let silent = run(None);
    let hub = ProfileHub::new();
    let profiled = run(Some(&hub));
    assert_eq!(
        silent.0, profiled.0,
        "{name}: traced report changed under profiling"
    );
    assert_eq!(
        silent.1, profiled.1,
        "{name}: Chrome trace changed under profiling"
    );
    assert!(silent.1.len() > 2, "{name}: trace comparison was vacuous");
    assert!(hub.records_total() > 0, "{name}: profiler recorded nothing");
}

#[test]
fn profiler_leaves_checkpoint_snapshots_byte_identical() {
    // The checkpoint path is itself instrumented (CheckpointSave
    // spans), so the snapshot payloads it persists are the surface most
    // at risk: compare every snapshot a checkpointed run writes, plus
    // its outcome, report, and telemetry stream.
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(20_000);
    let run = |hub: Option<&ProfileHub>| -> (Vec<String>, RunOutcome, String, Vec<u8>) {
        let staged = SharedSink::new();
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        if let Some(h) = hub {
            sw.enable_profiler(h.clone());
        }
        sw.enable_live_telemetry(TimeDelta::from_ns(2_000), 64, Box::new(staged.clone()));
        let snaps = RefCell::new(Vec::new());
        let outcome = sw
            .run_source_checkpointed(
                source_for(&cfg, &tm, 0.8, horizon, 0xF11D),
                cfg.drain.deadline(horizon),
                &FaultPlan::default(),
                None,
                2,
                || false,
                |state, _epochs, _spans| {
                    let body = serde_json::to_string(state).expect("snapshot serializes");
                    snaps.borrow_mut().push(body);
                    Ok(())
                },
            )
            .expect("checkpointed run");
        let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
        let mut jsonl: Vec<u8> = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut jsonl);
            staged.take().replay_into(&mut sink);
        }
        (snaps.into_inner(), outcome, report, jsonl)
    };
    let (snaps_off, outcome_off, report_off, jsonl_off) = run(None);
    let hub = ProfileHub::new();
    let (snaps_on, outcome_on, report_on, jsonl_on) = run(Some(&hub));
    assert!(!snaps_off.is_empty(), "run wrote no snapshots — vacuous");
    assert_eq!(
        snaps_off, snaps_on,
        "snapshot payloads changed under profiling"
    );
    assert_eq!(
        outcome_off, outcome_on,
        "run outcome changed under profiling"
    );
    assert_eq!(report_off, report_on, "report changed under profiling");
    assert_eq!(jsonl_off, jsonl_on, "JSONL stream changed under profiling");
    assert!(hub.records_total() > 0, "profiler recorded nothing");
    // The checkpoint path must actually have been attributed.
    let saved: u64 = hub
        .recent()
        .iter()
        .filter_map(|r| r.phases.get(Phase::CheckpointSave.name()))
        .map(|s| s.count)
        .sum();
    assert!(saved > 0, "no CheckpointSave spans were recorded");
}

#[test]
fn profile_records_are_well_formed() {
    // Structural contract of the records the identity tests rely on:
    // every phase key is a known `Phase` name, every entry carries at
    // least one span, and per-source epoch stamps never run backwards.
    let (name, spec) = shipped_configs().remove(0);
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let hub = ProfileHub::new();
    run_spec(
        &spec,
        QueueKind::TimingWheel,
        Entry::Plain,
        horizon,
        Some(&hub),
    );
    let records = hub.recent();
    assert!(!records.is_empty(), "{name}: no records to validate");
    let known: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    let mut last_epoch: std::collections::BTreeMap<&str, u64> = Default::default();
    for rec in &records {
        assert!(!rec.phases.is_empty(), "{name}: empty record was flushed");
        for (phase, s) in &rec.phases {
            assert!(
                known.contains(&phase.as_str()),
                "{name}: unknown phase {phase}"
            );
            assert!(s.count > 0, "{name}: zero-span phase {phase} emitted");
        }
        if let Some(prev) = last_epoch.get(rec.source.as_str()) {
            assert!(
                rec.epoch >= *prev,
                "{name}: {} epochs ran backwards",
                rec.source
            );
        }
        last_epoch.insert(rec.source.as_str(), rec.epoch);
    }
    assert!(
        records.iter().any(|r| r.source == "engine"),
        "{name}: no engine-source records"
    );
    let rendered = hub.render_prometheus("ripsim");
    assert!(rendered.contains("ripsim_profile_phase_seconds_total{source=\"engine\""));
    assert!(rendered.contains("ripsim_profile_records_total{source=\"engine\"}"));
}
