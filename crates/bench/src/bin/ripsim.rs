//! `ripsim` — run an HBM-switch simulation from a JSON specification.
//!
//! The downstream-user entry point: describe a router configuration and
//! a workload in one JSON file, get the switch report. Writes a sample
//! spec with `--example-spec`. `ripsim resilience` runs the canned
//! fault-injection demo: one of four HBM channels dies mid-run and
//! recovers, and the report shows the before/during/after timeline.
//! `ripsim trace [spec.json] --chrome <out.json>` runs the spec (or the
//! example spec) and exports a Chrome trace-event JSON file for
//! Perfetto: per-bank HBM command timelines, per-output PFI frame
//! lifecycles, sampled packet spans, and per-plane SPS activity lanes,
//! optionally bounded by `--trace-window <start_ps>:<end_ps>`. Every
//! timestamp is sim time, so two same-seed exports are byte-identical.
//! `ripsim soak [spec.json] [--epoch <ps>]` reruns the spec at 4x its
//! arrival horizon and checks the streaming engine's in-flight working
//! set stays flat. With an epoch period (from `--epoch` or the spec's
//! `epoch_ps` field) both runs stream live epoch deltas and sampled
//! lifecycle spans to stdout as JSONL while they execute; the human
//! summary moves to stderr, and in-process SLO watchdogs (stall,
//! drop-rate, degraded capacity) fail the soak with a nonzero exit when
//! they fire. `--metrics <addr>` serves the cumulative stream as a
//! Prometheus scrape endpoint; `--inject-channel-fault <ch>` proves the
//! degraded-capacity alarm end to end. A flight recorder keeps the
//! recent epochs and alarms and dumps them as `flight_<reason>.json`
//! (`--flight-dir`) on an alarm, a stop signal or a panic.
//!
//! `--checkpoint-every <epochs>` makes the soak crash-safe: every N-th
//! telemetry epoch, the engine's complete mid-run state (event queue,
//! SRAM/HBM occupancy and timing, generator RNGs, telemetry clock) is
//! written to a versioned, CRC-checked snapshot at `--checkpoint-path`
//! (default `ripsim-soak.snapshot`, two-slot rotation, atomic rename).
//! `ripsim soak <spec> --resume <path>` continues a killed soak from
//! its newest valid snapshot (falling back to the `.prev` slot when the
//! newest is truncated or corrupt): keep the first `keep_lines=K` lines
//! of the interrupted stdout stream (K is reported on stderr at resume)
//! and append the continuation's stdout, and the merged stream — and
//! the final report — is byte-identical to the uninterrupted same-seed
//! run. Checkpointing requires an epoch period and excludes `--metrics`
//! (the endpoint's cumulative state is not part of the snapshot).
//!
//! SIGINT/SIGTERM stop every soak with an epoch period the same way:
//! the run ends at the next epoch boundary (after one final snapshot
//! when checkpointing), stdout is flushed up to that epoch, the
//! `flight_signal.json` bundle is written, and `ripsim` exits 130.
//! When stdout cannot be written any more (a reader that closed the
//! pipe, as in `ripsim soak spec.json | head -1`), nothing more is
//! written, a soak with an epoch period ends at the next epoch
//! boundary, and `ripsim` prints one stderr line and exits 141 (the
//! status a shell reports for a process a closed pipe killed). Every
//! mode writes stdout the same way, so `ripsim spec.json | head -1`
//! ends the same.
//!
//! `ripsim plane-worker <spec.json> --worker <id> --planes <list>`
//! runs a subset of the spec's SPS planes and pushes their framed
//! telemetry stream — epoch deltas, sampled spans, per-plane reports —
//! to a collector (`--connect <addr>`) or a file (`--out <path>`).
//! `ripsim collect <spec.json> --listen <addr>` accepts worker streams
//! over localhost TCP until every plane is covered (or `--from
//! <file>...` for offline ingest), reassembles them in plane order, and re-emits the
//! single-process JSONL stream on stdout — byte-identical to
//! `ripsim collect <spec.json> --oracle`, which runs the same spec
//! in-process. The merged stream feeds the same SLO watchdogs the soak
//! runs (a fired alarm fails the collection), and `--metrics <addr>`
//! serves the fleet-wide Prometheus endpoint with per-plane labels. A
//! worker that dies mid-stream surfaces as a typed `worker_lost`
//! watchdog record and a nonzero exit, never a hang.
//!
//! Every subcommand parses its arguments against one flag table. An
//! unknown flag, a flag of another subcommand, a flag without its
//! value, a second operand, `--profile-out` without `--profile` and
//! `trace` without `--chrome` are usage errors (exit 2), as is a spec
//! that does not load; a run that fails exits 1.
//!
//! All simulation modes are pull-based: arrivals are generated on
//! demand by a merged packet source, never materialized as a trace, so
//! the horizon can grow without the memory footprint following it.
//!
//! ```text
//! ripsim --example-spec > my_sim.json
//! ripsim my_sim.json
//! ripsim trace my_sim.json --chrome trace.json
//! ripsim soak my_sim.json
//! ripsim soak configs/soak_live.json > epochs.jsonl
//! ripsim soak my_sim.json --epoch 2000000 > epochs.jsonl
//! ripsim soak my_sim.json --checkpoint-every 50 > part1.jsonl   # kill it
//! ripsim soak my_sim.json --resume ripsim-soak.snapshot > part2.jsonl
//! ripsim collect configs/fleet_small.json --listen 127.0.0.1:0 \
//!     --port-file port.txt > merged.jsonl &
//! ripsim plane-worker configs/fleet_small.json --worker 0 --planes 0 \
//!     --connect 127.0.0.1:$(cat port.txt)
//! ripsim plane-worker configs/fleet_small.json --worker 1 --planes 1,2,3 \
//!     --connect 127.0.0.1:$(cat port.txt)
//! ripsim collect configs/fleet_small.json --oracle > oracle.jsonl
//! diff merged.jsonl oracle.jsonl   # byte-identical
//! ripsim resilience
//! ```

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use rip_bench::fleet::{push_worker_stream, CollectError, Collector, FleetJob};
use rip_bench::spec::SimSpec;
use rip_bench::{soak_scales, uniform_trace, version_line, SoakFailure, Table, SERVICE_VERSION};
use rip_core::{
    ConfigError, FaultKind, FaultPlan, HbmSwitch, LiveOptions, RouterConfig, RunOutcome, SpsRouter,
    SpsWorkload,
};
use rip_photonics::SplitPattern;
use rip_sim::snapshot::SnapshotError;
use rip_telemetry::{
    ChromeTraceSink, FanoutSink, FlightBundle, FlightRecorder, FrameListener, JsonlSink,
    MetricsEndpoint, ProfileHub, Record, SharedSink, TelemetrySink, TraceWindow, Watchdog,
    WatchdogConfig, WatchdogEvent, WatchdogHandle, WatchdogKind,
};
use rip_units::{DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize, Value};

/// `print!` through [`WatchedStdout`]: a closed stdout is noted for
/// `main`'s exit 141, not a panic.
macro_rules! out {
    ($($arg:tt)*) => {{
        let _ = write!(WatchedStdout(std::io::stdout()), $($arg)*);
    }};
}

/// `println!` through [`WatchedStdout`], as [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {{
        let _ = writeln!(WatchedStdout(std::io::stdout()), $($arg)*);
    }};
}

fn run(spec: &SimSpec) -> Result<(), String> {
    let horizon = SimTime::from_ns(spec.horizon_us * 1000);
    let source = spec.build_source(horizon)?;
    let n = spec.router.ribbons;
    outln!(
        "spec: {} ports x {}, frame {}, load {:.2}, streaming arrivals over {} us",
        n,
        spec.router.port_rate(),
        spec.router.frame_size(),
        spec.load,
        spec.horizon_us
    );
    let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
    sw.run_source(
        source,
        spec.router.drain.deadline(horizon),
        &FaultPlan::default(),
    )
    .map_err(|e| e.to_string())?;
    let r = sw.into_report();

    let mut t = Table::new(&["metric", "value"]);
    t.row(&["offered packets".into(), r.offered_packets.to_string()]);
    t.row(&["delivered packets".into(), r.delivered_packets.to_string()]);
    t.row(&[
        "delivery fraction".into(),
        format!("{:.3}%", r.delivery_fraction * 100.0),
    ]);
    t.row(&["delivered rate".into(), format!("{}", r.delivered_rate)]);
    t.row(&[
        "drops input / HBM-region".into(),
        format!("{} / {}", r.dropped_input, r.dropped_frames),
    ]);
    t.row(&[
        "delay mean / p99".into(),
        format!(
            "{:.2} us / {:.2} us",
            r.delays_ns().mean().unwrap_or(f64::NAN) / 1e3,
            r.delays_ns().quantile(0.99).unwrap_or(f64::NAN) / 1e3
        ),
    ]);
    t.row(&[
        "HBM utilization".into(),
        format!("{:.1}%", r.hbm_utilization * 100.0),
    ]);
    t.row(&[
        "SRAM peaks in/tail/head".into(),
        format!("{} / {} / {}", r.input_peak, r.tail_peak, r.head_peak),
    ]);
    t.row(&["padding injected".into(), format!("{}", r.padded_bytes)]);
    t.row(&[
        "peak in-flight packets".into(),
        r.peak_in_flight_packets.to_string(),
    ]);
    out!("{}", t.titled("ripsim report"));
    Ok(())
}

/// `--profile` / `--profile-out`: the wall-clock self-profiler,
/// shared by `soak`, `trace`, `plane-worker` and `collect`. Profile
/// records are a separate stream from the deterministic telemetry:
/// they go to stderr (or `--profile-out <file>`), never stdout, so
/// reports, JSONL, traces and checkpoints stay byte-identical with
/// profiling on or off.
#[derive(Default, Clone)]
struct ProfileOptions {
    /// Enable the self-profiler.
    profile: bool,
    /// Write profile JSONL here instead of stderr.
    profile_out: Option<String>,
}

/// Build the profile hub for `opts`, wiring its JSONL output to stderr
/// or the `--profile-out` file. `None` when profiling is off — the hot
/// paths then cost one `Option` discriminant check and zero clock
/// reads.
fn build_profile_hub(opts: &ProfileOptions) -> Result<Option<ProfileHub>, String> {
    if !opts.profile {
        return Ok(None);
    }
    let hub = ProfileHub::new();
    match &opts.profile_out {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
            hub.set_output(Box::new(std::io::BufWriter::new(file)));
        }
        None => hub.set_output(Box::new(std::io::stderr())),
    }
    Ok(Some(hub))
}

// ------------------------------------------------------------------
// The metrics endpoint and output chain shared by `soak` and `collect`
// ------------------------------------------------------------------

/// `--metrics`, `--metrics-port-file` and `--metrics-hold-ms`.
#[derive(Default)]
struct MetricsOptions {
    /// Serve Prometheus exposition of the live epoch stream at this
    /// address (e.g. `127.0.0.1:0` for an ephemeral port).
    addr: Option<String>,
    /// Write the bound metrics port to this file once the endpoint is
    /// up — how CI discovers an ephemeral port.
    port_file: Option<String>,
    /// Keep the metrics endpoint alive this long after the runs finish
    /// so a scraper can read the final totals.
    hold_ms: u64,
}

impl MetricsOptions {
    /// Bind the endpoint when `--metrics` is given: build info, the
    /// profiler's families when profiling, and the bound port announced
    /// on stderr and in the port file.
    fn bind(&self, hub: &Option<ProfileHub>) -> Result<Option<MetricsEndpoint>, String> {
        let Some(addr) = &self.addr else {
            return Ok(None);
        };
        let ep = MetricsEndpoint::bind(addr).map_err(|e| format!("metrics bind: {e}"))?;
        ep.set_build_info("ripsim", SERVICE_VERSION);
        if let Some(h) = hub {
            ep.attach_profile_hub("ripsim", h.clone());
        }
        let port = ep.local_addr().port();
        eprintln!("metrics endpoint on port {port}");
        if let Some(path) = &self.port_file {
            std::fs::write(path, format!("{port}\n"))
                .map_err(|e| format!("metrics port file: {e}"))?;
        }
        Ok(Some(ep))
    }

    /// Keep a bound endpoint serving for `--metrics-hold-ms`.
    fn hold(&self, endpoint: &Option<MetricsEndpoint>) {
        if self.hold_ms > 0 && endpoint.is_some() {
            eprintln!("holding metrics endpoint for {} ms", self.hold_ms);
            std::thread::sleep(std::time::Duration::from_millis(self.hold_ms));
        }
    }
}

/// The live stream's output chain, shared by `soak` and `collect`:
/// JSONL on buffered stdout, the metrics endpoint when one is bound and
/// the flight recorder when one is given, fanned out in that order and
/// watched by the SLO watchdogs.
///
/// A checkpointing soak passes `checkpoint: Some(records)` instead. Its
/// stdout is written line by line, so every line a snapshot counts has
/// left the process before the snapshot does; its JSONL record count
/// starts at `records` (the interrupted run's count on a mid-run
/// resume); and it has no watchdogs, whose state is not in the
/// snapshot.
fn output_chain(
    endpoint: Option<&MetricsEndpoint>,
    recorder: Option<&FlightRecorder>,
    checkpoint: Option<u64>,
) -> (Box<dyn TelemetrySink + Send>, Option<WatchdogHandle>) {
    let mut fan = FanoutSink::new();
    let stdout = WatchedStdout(std::io::stdout());
    match checkpoint {
        Some(records) => {
            let mut jsonl = JsonlSink::new(stdout);
            jsonl.set_records(records);
            fan.push(Box::new(jsonl));
        }
        None => fan.push(Box::new(JsonlSink::new(std::io::BufWriter::new(stdout)))),
    }
    if let Some(ep) = endpoint {
        fan.push(Box::new(ep.clone()));
    }
    if let Some(rec) = recorder {
        fan.push(Box::new(rec.clone()));
    }
    if checkpoint.is_some() {
        return (Box::new(fan), None);
    }
    let (wd, handle) = Watchdog::new(WatchdogConfig::default(), fan);
    (Box::new(wd), Some(handle))
}

/// The first error writing stdout. A soak stops at the next epoch
/// boundary once it is set, and every mode ends with exit 141.
static STDOUT_ERROR: OnceLock<String> = OnceLock::new();

/// Stdout for every mode's output, noting its first write error in
/// [`STDOUT_ERROR`] (the JSONL sink itself stops writing there).
struct WatchedStdout(std::io::Stdout);

impl Write for WatchedStdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf).inspect_err(note_stdout_error)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush().inspect_err(note_stdout_error)
    }
}

fn note_stdout_error(e: &std::io::Error) {
    let _ = STDOUT_ERROR.set(e.to_string());
}

/// Exit 141 if any write to stdout failed.
fn exit_if_stdout_closed() {
    if let Some(e) = STDOUT_ERROR.get() {
        die(141, &format!("writing stdout failed ({e}); stopped there"));
    }
}

/// One stderr line per fired watchdog alarm.
fn print_watchdogs(events: &[WatchdogEvent]) {
    for e in events {
        eprintln!(
            "watchdog: {} epoch {} at {} ps: {:?}",
            e.source,
            e.epoch,
            e.at.as_ps(),
            e.kind
        );
    }
}

// ------------------------------------------------------------------
// `ripsim soak`
// ------------------------------------------------------------------

/// Command-line options of `ripsim soak` beyond the spec, the profiler
/// and the metrics endpoint.
#[derive(Default)]
struct SoakOptions {
    /// Kill this HBM channel a quarter into the arrival horizon and
    /// never recover it — the degraded-capacity watchdog must fire.
    inject_channel_fault: Option<usize>,
    /// Snapshot the engine every this many telemetry epochs.
    checkpoint_every: Option<u64>,
    /// Where the snapshot (and its `.prev` rotation slot) lives.
    checkpoint_path: Option<String>,
    /// Continue a killed soak from this snapshot.
    resume: Option<String>,
    /// Where flight-recorder post-mortem bundles land (default `.`).
    flight_dir: Option<String>,
}

// ------------------------------------------------------------------
// Graceful-stop plumbing for soaks. The handler only flips an atomic
// (the async-signal-safe subset); the run loop polls it at epoch
// boundaries and ends the run, and the soak ends through a flight dump
// (after a final snapshot when checkpointing) and exit 130.
// ------------------------------------------------------------------

// `signal(2)` from the platform libc this binary already links; used
// instead of a crate dependency for exactly two calls.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Set by SIGINT/SIGTERM; polled by the soak at epoch boundaries.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn request_stop(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// A stop signal arrived, or stdout can no longer be written.
fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst) || STDOUT_ERROR.get().is_some()
}

fn install_stop_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_stop as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Build the soak's flight recorder: a bounded ring of recent epoch
/// deltas, every watchdog event, and (when profiling) recent profile
/// records, dumped as a `flight_<reason>.json` post-mortem bundle on a
/// watchdog alarm, SIGINT/SIGTERM, or panic. Recording never touches
/// the deterministic output surfaces.
fn build_flight_recorder(spec: &SimSpec, hub: &Option<ProfileHub>) -> FlightRecorder {
    let rec = FlightRecorder::new("ripsim", SERVICE_VERSION, 64);
    rec.set_config_echo(spec.to_value());
    if let Some(h) = hub {
        rec.attach_profile_hub(h.clone());
    }
    rec
}

/// Chain a panic hook that dumps the flight bundle before the default
/// hook prints the panic message — a crashed soak leaves a post-mortem
/// behind, not just a backtrace.
fn install_flight_panic_hook(rec: FlightRecorder, dir: String) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Ok(Some(path)) = rec.dump(Path::new(&dir), "panic") {
            eprintln!("ripsim: flight bundle written to {}", path.display());
        }
        prev(info);
    }));
}

/// Report a flight dump's outcome on stderr (best-effort: a failed
/// dump must not mask the condition that triggered it).
fn report_flight_dump(rec: &FlightRecorder, dir: &str, reason: &str) {
    match rec.dump(Path::new(dir), reason) {
        Ok(Some(path)) => eprintln!("ripsim: flight bundle written to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("ripsim: flight dump failed: {e}"),
    }
}

/// Summary of one completed soak run inside a snapshot: just the
/// fields the end-of-soak scaling checks need.
#[derive(Clone, Serialize, Deserialize)]
struct RunDone {
    offered_packets: u64,
    delivered_packets: u64,
    peak_in_flight: u64,
}

/// Where a soak stands; a checkpointed soak writes it as its snapshot
/// payload (wrapped in the CRC envelope by `rip_sim::snapshot`).
#[derive(Serialize, Deserialize)]
struct SoakSnapshot {
    /// JSON echo of the spec; resuming under a different spec is
    /// refused.
    spec: String,
    /// Checkpoint interval in epochs (reused on resume unless
    /// overridden).
    every: u64,
    /// Index of the run in progress within [`SOAK_MULTS`].
    run_index: u64,
    /// JSONL lines fully emitted by completed runs, incl. `run_end`s.
    lines_done: u64,
    /// Completed runs' summaries, in order.
    done: Vec<RunDone>,
    /// JSONL lines the running run had emitted at snapshot time.
    records: u64,
    /// Engine snapshot of the running run; `Null` between runs.
    engine: Value,
}

impl SoakSnapshot {
    /// Record the running run's `records` lines and `engine` state
    /// (`Null` between runs) and crash-safely write the snapshot.
    fn persist(&mut self, path: &str, records: u64, engine: &Value) -> Result<(), SnapshotError> {
        self.records = records;
        self.engine = engine.clone();
        let payload = serde_json::to_string(self).expect("snapshot serializes");
        self.engine = Value::Null;
        rip_sim::snapshot::write_snapshot(Path::new(path), payload.as_bytes())
    }
}

/// The soak's arrival horizons, as multiples of the spec's.
const SOAK_MULTS: [u64; 2] = [1, 4];

/// The soak's starting progress and, when it is crash-safe
/// (`--checkpoint-every` or `--resume`), its snapshot path. A
/// `--resume` restores the progress from the newest valid snapshot and
/// reports `keep_lines=K` on stderr.
fn soak_progress(
    spec: &SimSpec,
    cli: &Cli,
    period: Option<TimeDelta>,
) -> Result<(SoakSnapshot, Option<String>), String> {
    let opts = &cli.soak;
    let mut progress = SoakSnapshot {
        spec: serde_json::to_string(spec).expect("spec serializes"),
        every: opts.checkpoint_every.unwrap_or(0),
        run_index: 0,
        lines_done: 0,
        done: Vec::new(),
        records: 0,
        engine: Value::Null,
    };
    if opts.checkpoint_every.is_none() && opts.resume.is_none() {
        if opts.checkpoint_path.is_some() {
            return Err("--checkpoint-path needs --checkpoint-every or --resume".into());
        }
        return Ok((progress, None));
    }
    if period.is_none() {
        return Err(ConfigError::CheckpointNeedsEpochs.to_string());
    }
    if cli.metrics.addr.is_some() {
        return Err(
            "--metrics cannot be combined with checkpointing: the endpoint's cumulative \
             state is not part of the snapshot"
                .into(),
        );
    }
    let path = opts
        .checkpoint_path
        .clone()
        .or_else(|| opts.resume.clone())
        .unwrap_or_else(|| "ripsim-soak.snapshot".into());
    if let Some(from) = &opts.resume {
        let (payload, slot) =
            rip_sim::snapshot::load_latest(Path::new(from)).map_err(|e| e.to_string())?;
        let text = String::from_utf8(payload).map_err(|_| "snapshot payload is not UTF-8")?;
        let snap: SoakSnapshot = serde_json::from_str(&text)
            .map_err(|e| format!("snapshot payload does not decode: {e}"))?;
        if snap.spec != progress.spec {
            return Err("snapshot mismatch: it was taken from a different spec".into());
        }
        if snap.run_index as usize >= SOAK_MULTS.len() || snap.done.len() != snap.run_index as usize
        {
            return Err("snapshot mismatch: run progress is inconsistent with this soak".into());
        }
        eprintln!(
            "ripsim: resuming soak (run {}) from {} -- keep_lines={}",
            snap.run_index + 1,
            slot.display(),
            snap.lines_done + snap.records
        );
        progress = SoakSnapshot {
            every: opts.checkpoint_every.unwrap_or(snap.every),
            ..snap
        };
    }
    if progress.every == 0 {
        return Err(ConfigError::CheckpointIntervalZero.to_string());
    }
    // Fail on an unwritable snapshot path now, not minutes into a run.
    let probe = format!("{path}.probe");
    std::fs::write(&probe, b"probe").map_err(|e| {
        let (path, reason) = (path.clone(), e.to_string());
        ConfigError::CheckpointDir { path, reason }.to_string()
    })?;
    let _ = std::fs::remove_file(&probe);
    Ok((progress, Some(path)))
}

/// `ripsim soak`: run the spec streaming at its horizon and again at 4x
/// the horizon, and check that offered traffic scales with the horizon
/// while the engine's peak in-flight packet count stays flat — the
/// O(in-flight) memory property of the pull-based engine. With an epoch
/// period, both runs stream live epoch deltas (plus 1-in-256 sampled
/// lifecycle spans) to stdout as JSONL through [`output_chain`], and
/// the human summary moves to stderr so the stream stays machine-clean.
///
/// Every run goes through [`HbmSwitch::run_source_checkpointed`]. A
/// crash-safe soak snapshots every `--checkpoint-every` epochs; a plain
/// soak's interval is never reached and its persist hook writes
/// nothing. SIGINT/SIGTERM end either kind the same way: the run stops
/// at the next epoch boundary (a crash-safe soak snapshots there first),
/// its sinks drop and flush stdout, the flight bundle is written, and
/// the soak returns [`RunOutcome::Interrupted`], which `main` turns
/// into exit 130. `head -n K interrupted.jsonl` + the resumed stream is
/// byte-identical to the uninterrupted run.
fn run_soak(spec: &SimSpec, cli: &Cli) -> Result<RunOutcome, String> {
    let opts = &cli.soak;
    let period = match spec.epoch_ps {
        Some(0) => return Err(ConfigError::EpochZero.to_string()),
        ps => ps.map(TimeDelta::from_ps),
    };
    let (mut progress, checkpoint) = soak_progress(spec, cli, period)?;
    if cli.metrics.addr.is_some() && period.is_none() {
        return Err("--metrics needs an epoch period (--epoch or spec epoch_ps)".into());
    }
    // Route the human lines to stderr whenever JSONL owns stdout.
    let say: fn(std::fmt::Arguments) = if period.is_some() {
        |a| eprintln!("{a}")
    } else {
        |a| outln!("{a}")
    };
    let hub = build_profile_hub(&cli.prof)?;
    let flight = build_flight_recorder(spec, &hub);
    let flight_dir = opts.flight_dir.clone().unwrap_or_else(|| ".".into());
    install_flight_panic_hook(flight.clone(), flight_dir.clone());
    if period.is_some() {
        // Only an epoch boundary polls the stop flag; without epochs,
        // keep the default (killing) disposition.
        install_stop_handlers();
    }
    let endpoint = cli.metrics.bind(&hub)?;
    // A stop request ends the soak at an epoch boundary or between
    // runs, once every sink of the stopped run has dropped.
    let stopped = || {
        if STDOUT_ERROR.get().is_some() {
            // Nobody reads the stream any more; `main` reports it.
            return RunOutcome::Interrupted;
        }
        match &checkpoint {
            Some(path) => eprintln!(
                "ripsim: stop requested; snapshot written to {path} -- \
                 resume with: ripsim soak <spec.json> --resume {path}"
            ),
            None => eprintln!("ripsim: stop requested"),
        }
        report_flight_dump(&flight, &flight_dir, "signal");
        if let Some(h) = &hub {
            h.flush_output();
        }
        RunOutcome::Interrupted
    };
    let mut watchdog_events = Vec::new();
    let first = progress.run_index as usize;
    for (idx, mult) in SOAK_MULTS.into_iter().enumerate().skip(first) {
        let horizon = SimTime::from_ns(spec.horizon_us * 1000 * mult);
        let source = spec.build_source(horizon)?;
        let mut plan = FaultPlan::new();
        if let Some(channel) = opts.inject_channel_fault {
            let at = SimTime::from_ps(horizon.as_ps() / 4);
            plan = plan.inject(at, FaultKind::HbmChannelDown { channel });
        }
        let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
        if let Some(h) = &hub {
            sw.enable_profiler(h.clone());
        }
        let resume = std::mem::replace(&mut progress.engine, Value::Null);
        let mut handle = None;
        if let Some(period) = period {
            // `progress.records` is 0 at a run's start, except on a
            // mid-run resume: there the count continues the
            // interrupted run's.
            let records = checkpoint.as_ref().map(|_| progress.records);
            let (chain, h) = output_chain(endpoint.as_ref(), Some(&flight), records);
            sw.enable_live_telemetry(period, 256, chain);
            handle = h;
        }
        // A plain soak never reaches its snapshot interval.
        let every = checkpoint.as_ref().map_or(u64::MAX, |_| progress.every);
        let outcome = sw
            .run_source_checkpointed(
                source,
                spec.router.drain.deadline(horizon),
                &plan,
                (resume != Value::Null).then_some(&resume),
                every,
                stop_requested,
                |engine: &Value, epochs: u64, spans: u64| match &checkpoint {
                    Some(path) => progress.persist(path, epochs + spans, engine),
                    None => Ok(()),
                },
            )
            .map_err(|e| e.to_string())?;
        if outcome == RunOutcome::Interrupted {
            drop(sw);
            return Ok(stopped());
        }
        let epochs = sw.live_epochs_emitted();
        let spans = sw.live_spans_emitted();
        let r = sw.into_report();
        say(format_args!(
            "horizon {} us: offered {}, delivered {}, peak in-flight {}",
            spec.horizon_us * mult,
            r.offered_packets,
            r.delivered_packets,
            r.peak_in_flight_packets
        ));
        if period.is_some() {
            say(format_args!(
                "streamed {epochs} epoch deltas and {spans} lifecycle spans"
            ));
        }
        watchdog_events.extend(handle.map(|h| h.events()).unwrap_or_default());
        progress.run_index += 1;
        progress.lines_done += epochs + spans + 1; // + the run_end line
        progress.done.push(RunDone {
            offered_packets: r.offered_packets,
            delivered_packets: r.delivered_packets,
            peak_in_flight: r.peak_in_flight_packets,
        });
        if idx + 1 < SOAK_MULTS.len() {
            if let Some(path) = &checkpoint {
                // Inter-run snapshot: the next run starts fresh.
                progress
                    .persist(path, 0, &Value::Null)
                    .map_err(|e| e.to_string())?;
            }
            if stop_requested() {
                return Ok(stopped());
            }
        }
    }
    if let Some(h) = &hub {
        h.flush_output();
    }
    cli.metrics.hold(&endpoint);
    if checkpoint.is_none() && period.is_some() {
        // Always-on count, alarm or not: scrapers and log parsers get
        // the same line either way, matching the Prometheus
        // `rip_watchdog_alarms_total` family the endpoint exports.
        say(format_args!(
            "soak watchdogs: {} alarm(s) across both horizons",
            watchdog_events.len()
        ));
    }
    if !watchdog_events.is_empty() {
        print_watchdogs(&watchdog_events);
        report_flight_dump(&flight, &flight_dir, "watchdog");
        let n = watchdog_events.len();
        return Err(format!("{n} watchdog alarm(s) fired during the soak"));
    }
    let (r1, r4) = (&progress.done[0], &progress.done[1]);
    match soak_scales(
        [r1.offered_packets, r4.offered_packets],
        [r1.peak_in_flight, r4.peak_in_flight],
    ) {
        Err(SoakFailure::OfferedDidNotScale) => Err(format!(
            "offered packets did not scale with the horizon: {} -> {}",
            r1.offered_packets, r4.offered_packets
        )),
        Err(SoakFailure::PeakGrew) => Err(format!(
            "peak in-flight grew with the horizon: {} -> {}",
            r1.peak_in_flight, r4.peak_in_flight
        )),
        Ok(()) => {
            say(format_args!(
                "soak OK: in-flight working set stays bounded at 4x the horizon"
            ));
            Ok(RunOutcome::Completed)
        }
    }
}

// --------------------------------------------------------------------
// `ripsim plane-worker` / `ripsim collect` — the fleet modes
// --------------------------------------------------------------------

/// Everything a fleet worker or collector derives from the shared spec
/// file — built identically on both sides, which is what makes the
/// worker's config echo comparable and the merged stream byte-identical
/// to the oracle's.
struct FleetParts {
    router: SpsRouter,
    workload: SpsWorkload,
    horizon: SimTime,
    live: LiveOptions,
    echo: Value,
}

/// Build the SPS router, workload, horizon and live-telemetry options
/// the fleet modes share. The fleet protocol *is* the live epoch
/// stream, so an epoch period (spec `epoch_ps` or `--epoch`) is
/// mandatory here, unlike in `soak`.
fn fleet_parts(spec: &SimSpec) -> Result<FleetParts, String> {
    spec.router.validate().map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&spec.load) {
        return Err(format!("load {} out of [0, 1]", spec.load));
    }
    if spec.horizon_us == 0 {
        return Err("horizon must be positive".into());
    }
    let period = match spec.epoch_ps {
        Some(0) => return Err(ConfigError::EpochZero.to_string()),
        Some(ps) => TimeDelta::from_ps(ps),
        None => {
            return Err(
                "fleet modes need an epoch period (--epoch or spec epoch_ps): \
                 the worker streams are the live epoch stream"
                    .into(),
            )
        }
    };
    let workload = spec.sps_workload()?;
    let router =
        SpsRouter::new(spec.router.clone(), SplitPattern::Striped).map_err(|e| e.to_string())?;
    Ok(FleetParts {
        router,
        workload,
        horizon: SimTime::from_ns(spec.horizon_us * 1000),
        live: LiveOptions {
            period,
            sample_one_in: 256,
        },
        echo: spec.to_value(),
    })
}

/// Command-line options of `ripsim plane-worker` (`--worker` and
/// `--planes` are required by the flag table).
#[derive(Default)]
struct WorkerOptions {
    worker: u64,
    planes: Vec<usize>,
    connect: Option<String>,
    out: Option<String>,
}

/// Parse a `--planes` list: comma-separated plane indices, strictly
/// ascending (the typed [`ConfigError::PlaneSubset`] catches disorder
/// and range later; only non-numbers are a usage error here).
fn parse_planes(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad plane index {p:?}: {e}"))
        })
        .collect()
}

/// `ripsim plane-worker`: run the spec's SPS planes named by
/// `--planes` and push their framed telemetry stream to a collector
/// (`--connect`, with retries — the collector may still be binding) or
/// to a file (`--out`, for offline `collect --from` ingest).
fn run_plane_worker(spec: &SimSpec, cli: &Cli) -> Result<(), String> {
    let opts = &cli.worker;
    let mut parts = fleet_parts(spec)?;
    let hub = build_profile_hub(&cli.prof)?;
    if let Some(h) = &hub {
        // The planes profile as `planeNN` into the hub; the worker
        // stream ships the recent records to the collector, which
        // re-labels them `wNN/planeNN` in its merged exposition.
        parts.router.set_profile_hub(h.clone());
    }
    let job = FleetJob {
        router: &parts.router,
        workload: &parts.workload,
        plan: &FaultPlan::default(),
        horizon: parts.horizon,
        live: parts.live,
        echo: parts.echo,
    };
    match (&opts.connect, &opts.out) {
        (Some(addr), None) => {
            // The collector may come up after the workers; retry the
            // connect for ~10 s before giving up.
            let mut stream = None;
            for attempt in 0..100 {
                match std::net::TcpStream::connect(addr) {
                    Ok(s) => {
                        stream = Some(s);
                        break;
                    }
                    Err(e) if attempt == 99 => {
                        return Err(format!("cannot connect to collector at {addr}: {e}"))
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
                }
            }
            // The retry loop above either set the stream or returned;
            // a typed error here keeps a logic slip from panicking an
            // otherwise-healthy fleet worker.
            let Some(stream) = stream else {
                return Err(format!("cannot connect to collector at {addr}"));
            };
            push_worker_stream(&job, opts.worker, &opts.planes, stream)
                .map_err(|e| e.to_string())?;
        }
        (None, Some(path)) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
            let out = push_worker_stream(&job, opts.worker, &opts.planes, file)
                .map_err(|e| e.to_string())?;
            out.sync_all().map_err(|e| e.to_string())?;
        }
        _ => return Err("plane-worker needs exactly one of --connect or --out".into()),
    }
    if let Some(h) = &hub {
        h.flush_output();
    }
    eprintln!(
        "worker {}: pushed planes {:?} ({} us horizon)",
        opts.worker, opts.planes, spec.horizon_us
    );
    Ok(())
}

/// Command-line options of `ripsim collect` beyond the spec, the
/// profiler and the metrics endpoint.
#[derive(Default)]
struct CollectOptions {
    /// Run the single-process `SpsRouter::run` oracle instead of
    /// collecting — the byte-identity reference for the merged stream.
    oracle: bool,
    /// Ingest worker streams from files (offline mode, any order).
    from: Vec<String>,
    /// Accept worker pushes on this TCP address (`127.0.0.1:0` for an
    /// ephemeral port).
    listen: Option<String>,
    /// Write the bound listen port to this file — how workers (and CI)
    /// discover an ephemeral port.
    port_file: Option<String>,
    /// Give up when coverage is still incomplete after this long
    /// (default 30 s).
    timeout_ms: Option<u64>,
}

/// Report a lost worker: a typed `worker_lost` watchdog record into the
/// output chain (stdout JSONL + Prometheus alarm counter) plus a human
/// line on stderr. Only called on failure paths, where the collection
/// exits nonzero — the byte-identity contract only covers clean runs.
fn note_worker_lost(sink: &mut dyn TelemetrySink, worker: u64, why: &str) {
    eprintln!("collector: worker {worker} lost: {why}");
    let event = WatchdogEvent {
        source: "collector".into(),
        epoch: 0,
        at: SimTime::ZERO,
        kind: WatchdogKind::WorkerLost { worker },
    };
    sink.record("collector", Record::Watchdog(&event));
}

/// `ripsim collect`: reassemble worker streams into the
/// single-process telemetry stream and report — or, with `--oracle`,
/// produce that single-process stream directly for a byte diff.
fn run_collect(spec: &SimSpec, cli: &Cli) -> Result<(), String> {
    let opts = &cli.collect;
    let mut parts = fleet_parts(spec)?;
    let hub = build_profile_hub(&cli.prof)?;
    let endpoint = cli.metrics.bind(&hub)?;
    // The same output chain as the oracle's, which is what makes
    // watchdog alarm positions (and the stream bytes around them) line
    // up: the stream outputs wrapped by the SLO watchdogs.
    let (mut chain, handle) = output_chain(endpoint.as_ref(), None, None);

    let summary: String;
    if opts.oracle {
        if let Some(h) = &hub {
            // The oracle's in-process planes profile as `planeNN` —
            // the same labels the merged fleet exposition carries.
            parts.router.set_profile_hub(h.clone());
        }
        let report = parts
            .router
            .run(
                &parts.workload,
                parts.horizon,
                &FaultPlan::default(),
                Some((parts.live, &mut *chain)),
            )
            .map_err(|e| e.to_string())?;
        summary = format!(
            "oracle: offered {} delivered {} over {} planes",
            report.offered, report.delivered, spec.router.switches
        );
    } else {
        let mut collector = Collector::new(parts.echo.clone(), spec.router.switches);
        if let Some(h) = &hub {
            collector = collector.with_profiler(h.clone());
        }
        if !opts.from.is_empty() {
            for path in &opts.from {
                let file =
                    std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                match collector.ingest(file) {
                    Ok(w) => eprintln!(
                        "collector: worker {w} committed from {path} ({} planes covered)",
                        collector.committed_planes().len()
                    ),
                    Err(e) => {
                        if let CollectError::WorkerTruncated { worker: Some(w) } = &e {
                            note_worker_lost(&mut *chain, *w, &e.to_string());
                        }
                        return Err(format!("ingesting {path}: {e}"));
                    }
                }
            }
        } else if let Some(addr) = &opts.listen {
            let listener =
                FrameListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            let port = listener.local_addr().port();
            eprintln!("collector listening on port {port}");
            if let Some(path) = &opts.port_file {
                std::fs::write(path, format!("{port}\n")).map_err(|e| format!("port file: {e}"))?;
            }
            let timeout_ms = opts.timeout_ms.unwrap_or(30_000);
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms.max(1));
            while !collector.missing_planes().is_empty() {
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "timed out after {timeout_ms} ms with planes {:?} still missing",
                        collector.missing_planes()
                    ));
                }
                let accepted = listener
                    .poll_accept(std::time::Duration::from_millis(500))
                    .map_err(|e| format!("accept: {e}"))?;
                match accepted {
                    Some(stream) => match collector.ingest(stream) {
                        Ok(w) => eprintln!(
                            "collector: worker {w} committed ({}/{} planes covered)",
                            collector.committed_planes().len(),
                            spec.router.switches
                        ),
                        Err(e) => {
                            // A worker died mid-stream (or pushed a
                            // conflicting run). Nothing of it was
                            // committed; fail loudly instead of waiting
                            // for a replacement that may never come.
                            if let CollectError::WorkerTruncated { worker: Some(w) } = &e {
                                note_worker_lost(&mut *chain, *w, &e.to_string());
                            }
                            return Err(e.to_string());
                        }
                    },
                    None => std::thread::sleep(std::time::Duration::from_millis(20)),
                }
            }
        } else {
            return Err("collect needs one of --oracle, --from or --listen".into());
        }
        let workers = collector.workers_done();
        let outcome = collector
            .finish(&parts.router, parts.horizon, &mut *chain)
            .map_err(|e| e.to_string())?;
        summary = format!(
            "collector: workers={} records={} offered {} delivered {}",
            workers, outcome.records, outcome.report.offered, outcome.report.delivered
        );
    }
    drop(chain); // flush the merged stream before reporting
    if let Some(h) = &hub {
        h.flush_output();
    }
    cli.metrics.hold(&endpoint);
    let events = handle.map(|h| h.events()).unwrap_or_default();
    eprintln!("{summary} watchdog_alarms={}", events.len());
    if !events.is_empty() {
        print_watchdogs(&events);
        return Err(format!("{} watchdog alarm(s) fired", events.len()));
    }
    Ok(())
}

// --------------------------------------------------------------------
// `ripsim trace` — Chrome trace-event export
// --------------------------------------------------------------------

/// `ripsim trace --chrome <out.json>`: run the spec with command-level
/// tracing on and export a Chrome trace-event JSON file for Perfetto.
/// The file carries three process groups:
///
/// * `hbm` — one track per (channel, bank) with the ACT/RD/WR/PRE/REFsb
///   command timeline as duration events (ACT spans tRCD, PRE spans
///   tRP) plus a per-channel tFAW rolling-window lane;
/// * `frames` — per-output PFI frame lifecycles on four lanes
///   (fill / staggered write / staggered read / drain);
/// * one process per telemetry source (`switch`, `plane00`…) with
///   sampled packet-lifecycle spans and per-epoch activity lanes; the
///   SPS planes come from a second, plane-parallel pass over the same
///   configuration.
///
/// Every timestamp is sim time in integer picoseconds (rendered as
/// Perfetto microseconds), so two same-seed exports are byte-identical.
/// `--trace-window <start_ps>:<end_ps>` bounds the recorded interval.
fn run_trace_chrome(
    spec: &SimSpec,
    out_path: &str,
    window: TraceWindow,
    prof: &ProfileOptions,
) -> Result<(), String> {
    let horizon = SimTime::from_ns(spec.horizon_us * 1000);
    let source = spec.build_source(horizon)?;
    let period = match spec.epoch_ps {
        Some(0) => return Err(ConfigError::EpochZero.to_string()),
        Some(ps) => TimeDelta::from_ps(ps),
        None => TimeDelta::from_ps(2_000_000),
    };
    let hub = build_profile_hub(prof)?;

    // Device pass: HBM command timelines and frame lifecycles recorded
    // in-simulation, plus the staged live stream for packet spans.
    let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
    if let Some(h) = &hub {
        sw.enable_profiler(h.clone());
    }
    sw.enable_chrome_trace(window);
    let staged = SharedSink::new();
    sw.enable_live_telemetry(period, 64, Box::new(staged.clone()));
    sw.run_source(
        source,
        spec.router.drain.deadline(horizon),
        &FaultPlan::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut rec = sw
        .take_chrome_trace()
        .expect("chrome trace was enabled above");
    let mut chrome = ChromeTraceSink::new(window);
    staged.take().replay_into(&mut chrome);

    // Plane pass: the same configuration and workload through the
    // plane-parallel SPS router; its per-plane epoch streams become one
    // activity lane per plane in the export.
    let mut router =
        SpsRouter::new(spec.router.clone(), SplitPattern::Striped).map_err(|e| e.to_string())?;
    if let Some(h) = &hub {
        router.set_profile_hub(h.clone());
    }
    let w = spec.sps_workload()?;
    let opts = LiveOptions {
        period,
        sample_one_in: 64,
    };
    let mut sps_staged = rip_telemetry::MemorySink::new();
    router
        .run(
            &w,
            horizon,
            &FaultPlan::default(),
            Some((opts, &mut sps_staged)),
        )
        .map_err(|e| e.to_string())?;
    sps_staged.replay_into(&mut chrome);

    rec.merge(chrome.into_recorder());
    let events = rec.len();
    let file =
        std::fs::File::create(out_path).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    rec.write_chrome_json(&mut out)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "wrote {events} trace events to {out_path} (window {}..{} ps); open in ui.perfetto.dev",
        window.start().as_ps(),
        window.end().as_ps()
    );
    if let Some(h) = &hub {
        h.flush_output();
    }
    Ok(())
}

// --------------------------------------------------------------------
// `ripsim flight-check` — post-mortem bundle validation
// --------------------------------------------------------------------

/// Validate a flight-recorder bundle: it decodes as a
/// [`FlightBundle`], a `flight` record with every field typed. Prints
/// a one-line summary on success — the CI smoke's schema gate, with no
/// external JSON tooling needed.
fn flight_check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bundle = FlightBundle::read(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!(
        "flight bundle OK: reason={} epochs={} watchdogs={} profiles={}",
        bundle.reason,
        bundle.epochs.len(),
        bundle.watchdogs.len(),
        bundle.profiles.len()
    ))
}

/// Delivered bits within `[from, to)`, from the departure log.
fn window_bits(
    r: &rip_core::SwitchReport,
    sizes: &HashMap<u64, DataSize>,
    from: SimTime,
    to: SimTime,
) -> u64 {
    r.departures
        .iter()
        .filter(|d| d.time >= from && d.time < to)
        .map(|d| sizes[&d.packet].bits())
        .sum()
}

/// The canned fault-injection demo: 1-of-4 HBM channels down at `T`,
/// recovered at `2T`, with the before/during/after timeline.
fn run_resilience() -> Result<(), String> {
    let cfg = RouterConfig::resilience_small();
    let t_fault = SimTime::from_ns(150 * 1000); // T = 150 us
    let t_recover = SimTime::from_ns(300 * 1000); // 2T
    let horizon = SimTime::from_ns(600 * 1000); // 4T of arrivals
    let drain = SimTime::from_ns(2_400 * 1000);
    let plan = FaultPlan::new()
        .inject(t_fault, FaultKind::HbmChannelDown { channel: 3 })
        .recover(t_recover, FaultKind::HbmChannelDown { channel: 3 });

    outln!(
        "resilience demo: {} channels x {}, channel 3 down {} -> {}",
        cfg.channels(),
        cfg.hbm_geometry.channel_rate(),
        t_fault,
        t_recover
    );

    // Load just above the degraded capacity: the fault window shows the
    // ~3/4 cliff, the post-recovery window the backlog catch-up.
    let trace = uniform_trace(&cfg, 0.75, horizon, 42);
    let sizes: HashMap<u64, DataSize> = trace.iter().map(|p| (p.id, p.size)).collect();
    let sw = HbmSwitch::new(cfg.clone()).map_err(|e| e.to_string())?;
    let r = sw
        .run_with_faults(&trace, drain, &plan)
        .map_err(|e| e.to_string())?;

    let window_secs = 150e-6;
    let rate = |bits: u64| bits as f64 / window_secs / 1e9; // Gb/s
    let healthy = window_bits(&r, &sizes, SimTime::ZERO, t_fault);
    let degraded = window_bits(&r, &sizes, t_fault, t_recover);
    let catchup = window_bits(&r, &sizes, t_recover, SimTime::from_ns(450 * 1000));
    let settled = window_bits(&r, &sizes, SimTime::from_ns(450 * 1000), horizon);
    let mut t = Table::new(&["phase", "window", "delivered", "vs healthy"]);
    for (phase, window, bits) in [
        ("healthy", "0-150 us", healthy),
        ("1/4 channels down", "150-300 us", degraded),
        ("recovered, catch-up", "300-450 us", catchup),
        ("recovered, settled", "450-600 us", settled),
    ] {
        t.row(&[
            phase.into(),
            window.into(),
            format!("{:.1} Gb/s", rate(bits)),
            format!("{:.2}", bits as f64 / healthy as f64),
        ]);
    }
    out!("{}", t.titled("delivered rate timeline (offered 0.75)"));

    let mut t = Table::new(&["metric", "value"]);
    t.row(&["time degraded".into(), format!("{}", r.time_degraded)]);
    t.row(&["HBM capacity lost".into(), format!("{}", r.capacity_lost)]);
    t.row(&[
        "drops fault / congestion".into(),
        format!(
            "{} / {}",
            r.dropped_packets_fault, r.dropped_packets_congestion
        ),
    ]);
    t.row(&[
        "recovery drain".into(),
        r.recovery_drain
            .map_or("not reached".into(), |d| format!("{d}")),
    ]);
    out!("{}", t.titled("degraded-mode accounting"));

    // Under the degraded admissible load (≤ 0.7 of 3/4 capacity), the
    // same fault costs zero packets.
    let safe_load = 0.5;
    let trace = uniform_trace(&cfg, safe_load, horizon, 42);
    let sw = HbmSwitch::new(cfg).map_err(|e| e.to_string())?;
    let r = sw
        .run_with_faults(&trace, drain, &plan)
        .map_err(|e| e.to_string())?;
    outln!(
        "at offered {:.2} (<= 0.7 of degraded capacity): {} fault drops, {} congestion drops, delivery {:.4}%",
        safe_load,
        r.dropped_packets_fault,
        r.dropped_packets_congestion,
        r.delivery_fraction * 100.0
    );
    Ok(())
}

// --------------------------------------------------------------------
// The command line: one flag table, one parser
// --------------------------------------------------------------------

/// The subcommands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Cmd {
    #[default]
    Run,
    Trace,
    Soak,
    Worker,
    Collect,
    FlightCheck,
    Resilience,
}

/// Each subcommand with the word that selects it (empty for the bare
/// run) and its operand in usage form: `<..>` required, `[..]`
/// optional, empty for none.
const COMMANDS: [(Cmd, &str, &str); 7] = [
    (Cmd::Run, "", "<spec.json>"),
    (Cmd::Trace, "trace", "[spec.json]"),
    (Cmd::Soak, "soak", "[spec.json]"),
    (Cmd::Worker, "plane-worker", "<spec.json>"),
    (Cmd::Collect, "collect", "<spec.json>"),
    (Cmd::FlightCheck, "flight-check", "<bundle.json>"),
    (Cmd::Resilience, "resilience", ""),
];

/// One flag: its name, its value placeholder (empty for a switch) and
/// the subcommands that accept it. [`Cli::apply`] stores its value.
struct Flag {
    name: &'static str,
    value: &'static str,
    cmds: &'static [Cmd],
}

const fn flag(name: &'static str, value: &'static str, cmds: &'static [Cmd]) -> Flag {
    Flag { name, value, cmds }
}

const PROFILED: &[Cmd] = &[Cmd::Trace, Cmd::Soak, Cmd::Worker, Cmd::Collect];
const METERED: &[Cmd] = &[Cmd::Soak, Cmd::Collect];

/// Every flag `ripsim` accepts. `--version` is answered before parsing,
/// whatever else the command line holds.
const FLAGS: &[Flag] = &[
    flag("--example-spec", "", &[Cmd::Run]),
    flag("--chrome", "<out.json>", &[Cmd::Trace]),
    flag("--trace-window", "<start_ps>:<end_ps>", &[Cmd::Trace]),
    flag("--epoch", "<ps>", &[Cmd::Soak, Cmd::Worker, Cmd::Collect]),
    flag("--worker", "<id>", &[Cmd::Worker]),
    flag("--planes", "<i,j,..>", &[Cmd::Worker]),
    flag("--connect", "<addr>", &[Cmd::Worker]),
    flag("--out", "<path>", &[Cmd::Worker]),
    flag("--oracle", "", &[Cmd::Collect]),
    flag("--from", "<file>", &[Cmd::Collect]),
    flag("--listen", "<addr>", &[Cmd::Collect]),
    flag("--port-file", "<path>", &[Cmd::Collect]),
    flag("--timeout-ms", "<ms>", &[Cmd::Collect]),
    flag("--inject-channel-fault", "<ch>", &[Cmd::Soak]),
    flag("--checkpoint-every", "<epochs>", &[Cmd::Soak]),
    flag("--checkpoint-path", "<path>", &[Cmd::Soak]),
    flag("--resume", "<path>", &[Cmd::Soak]),
    flag("--flight-dir", "<dir>", &[Cmd::Soak]),
    flag("--metrics", "<addr>", METERED),
    flag("--metrics-port-file", "<path>", METERED),
    flag("--metrics-hold-ms", "<ms>", METERED),
    flag("--profile", "", PROFILED),
    flag("--profile-out", "<path>", PROFILED),
];

/// Flags that only make sense with another flag, and flags a
/// subcommand cannot run without.
const NEEDS: [(&str, &str); 1] = [("--profile-out", "--profile")];
const REQUIRED: [(Cmd, &str); 3] = [
    (Cmd::Trace, "--chrome"),
    (Cmd::Worker, "--worker"),
    (Cmd::Worker, "--planes"),
];

/// Everything the command line sets; each subcommand reads its part.
#[derive(Default)]
struct Cli {
    cmd: Cmd,
    /// The word that selected the subcommand, for messages.
    name: &'static str,
    /// The positional operand: a spec file, or a flight bundle.
    operand: Option<String>,
    example_spec: bool,
    /// `--epoch`: overrides the spec's `epoch_ps`.
    epoch: Option<u64>,
    chrome: Option<String>,
    window: Option<TraceWindow>,
    prof: ProfileOptions,
    metrics: MetricsOptions,
    soak: SoakOptions,
    worker: WorkerOptions,
    collect: CollectOptions,
}

/// Parse a numeric flag value.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {flag} value {v}: {e}"))
}

impl Cli {
    /// Store one flag's value (`v` is empty for a switch).
    fn apply(&mut self, flag: &str, v: &str) -> Result<(), String> {
        let text = Some(v.to_string());
        match flag {
            "--example-spec" => self.example_spec = true,
            "--chrome" => self.chrome = text,
            "--trace-window" => {
                let w = TraceWindow::parse(v).map_err(|e| ConfigError::from(e).to_string())?;
                self.window = Some(w);
            }
            "--epoch" => self.epoch = Some(number(flag, v)?),
            "--worker" => self.worker.worker = number(flag, v)?,
            "--planes" => self.worker.planes = parse_planes(v)?,
            "--connect" => self.worker.connect = text,
            "--out" => self.worker.out = text,
            "--oracle" => self.collect.oracle = true,
            "--from" => self.collect.from.push(v.to_string()),
            "--listen" => self.collect.listen = text,
            "--port-file" => self.collect.port_file = text,
            "--timeout-ms" => self.collect.timeout_ms = Some(number(flag, v)?),
            "--inject-channel-fault" => self.soak.inject_channel_fault = Some(number(flag, v)?),
            "--checkpoint-every" => self.soak.checkpoint_every = Some(number(flag, v)?),
            "--checkpoint-path" => self.soak.checkpoint_path = text,
            "--resume" => self.soak.resume = text,
            "--flight-dir" => self.soak.flight_dir = text,
            "--metrics" => self.metrics.addr = text,
            "--metrics-port-file" => self.metrics.port_file = text,
            "--metrics-hold-ms" => self.metrics.hold_ms = number(flag, v)?,
            "--profile" => self.prof.profile = true,
            "--profile-out" => self.prof.profile_out = text,
            _ => return Err(format!("unknown flag {flag}")),
        }
        Ok(())
    }

    /// The spec the operand names (the example spec when there is
    /// none), with `--epoch` applied.
    fn spec(&self) -> Result<SimSpec, String> {
        let mut spec = match &self.operand {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                SimSpec::from_json(&text).map_err(|e| format!("bad spec: {e}"))?
            }
            None => SimSpec::example(),
        };
        if self.epoch.is_some() {
            spec.epoch_ps = self.epoch;
        }
        Ok(spec)
    }
}

/// Parse the arguments after the program name against [`COMMANDS`] and
/// [`FLAGS`]. Every usage error is an `Err`: an unknown flag, a flag of
/// another subcommand, a missing value, operand or required flag, a
/// flag without the one it needs, and a second operand.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (cmd, word, operand) = COMMANDS[1..]
        .iter()
        .find(|c| args.first().is_some_and(|a| a == c.1))
        .copied()
        .unwrap_or(COMMANDS[0]);
    let name = if word.is_empty() { "ripsim" } else { word };
    let mut cli = Cli {
        cmd,
        name,
        ..Cli::default()
    };
    let mut seen = Vec::new();
    let mut it = args[usize::from(!word.is_empty())..].iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if operand.is_empty() || cli.operand.is_some() {
                return Err(format!("unexpected argument {a}"));
            }
            cli.operand = Some(a.clone());
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == a) else {
            return Err(format!("unknown flag {a}"));
        };
        if !flag.cmds.contains(&cmd) {
            return Err(format!("{a} does not apply to {name}"));
        }
        let value = match flag.value {
            "" => "",
            hint => it.next().ok_or_else(|| format!("{a} needs {hint}"))?,
        };
        cli.apply(a, value)?;
        seen.push(flag.name);
    }
    for (flag, needs) in NEEDS {
        if seen.contains(&flag) && !seen.contains(&needs) {
            return Err(format!("{flag} needs {needs}"));
        }
    }
    for (_, flag) in REQUIRED.iter().filter(|r| r.0 == cmd) {
        if !seen.contains(flag) {
            return Err(format!("{name} needs {flag}"));
        }
    }
    if operand.starts_with('<') && cli.operand.is_none() && !cli.example_spec {
        return Err(format!("{name} needs {operand}"));
    }
    Ok(cli)
}

/// The usage text: one line per subcommand with exactly the flags the
/// table gives it.
fn usage() -> String {
    let mut text = String::from("usage:");
    for (cmd, word, operand) in COMMANDS {
        let mut line = vec!["ripsim".to_string(), word.into(), operand.into()];
        for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
            let body = format!("{} {}", f.name, f.value).trim_end().to_string();
            if REQUIRED.contains(&(cmd, f.name)) {
                line.push(body);
            } else {
                line.push(format!("[{body}]"));
            }
        }
        line.retain(|part| !part.is_empty());
        text.push_str(&format!("\n  {}", line.join(" ")));
    }
    text + "\n  ripsim --version"
}

/// Print `ripsim: <msg>` on stderr and exit with `code`.
fn die(code: i32, msg: &str) -> ! {
    eprintln!("ripsim: {msg}");
    std::process::exit(code)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        outln!("{}", version_line("ripsim"));
        exit_if_stdout_closed();
        return;
    }
    let cli = parse_args(&args).unwrap_or_else(|e| die(2, &format!("{e}\n{}", usage())));
    // A spec that does not load is a usage error, like a bad flag.
    let spec = || cli.spec().unwrap_or_else(|e| die(2, &e));
    let result = match cli.cmd {
        Cmd::Run if cli.example_spec => {
            let text = serde_json::to_string_pretty(&SimSpec::example()).expect("spec serializes");
            outln!("{text}");
            Ok(())
        }
        Cmd::Run => run(&spec()),
        Cmd::Trace => {
            let window = cli.window.unwrap_or_else(TraceWindow::all);
            let path = cli.chrome.as_deref().unwrap_or_default();
            run_trace_chrome(&spec(), path, window, &cli.prof)
        }
        // An interrupted soak has dropped its sinks (stdout is flushed)
        // and written its flight bundle by the time it returns.
        Cmd::Soak => run_soak(&spec(), &cli).map(|outcome| {
            if outcome == RunOutcome::Interrupted && STDOUT_ERROR.get().is_none() {
                std::process::exit(130);
            }
        }),
        Cmd::Worker => run_plane_worker(&spec(), &cli),
        Cmd::Collect => run_collect(&spec(), &cli),
        Cmd::FlightCheck => {
            flight_check(cli.operand.as_deref().unwrap_or_default()).map(|s| outln!("{s}"))
        }
        Cmd::Resilience => run_resilience(),
    };
    exit_if_stdout_closed();
    match result {
        Err(e) if matches!(cli.cmd, Cmd::Run | Cmd::Trace) => die(1, &e),
        Err(e) => die(1, &format!("{} FAILED: {e}", cli.name)),
        Ok(()) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn each_subcommand_accepts_exactly_its_old_flags() {
        // Each subcommand's flags, written out so that a table edit
        // which adds a flag to a subcommand or drops one fails here.
        let profile = "--profile --profile-out";
        let metrics = "--metrics --metrics-port-file --metrics-hold-ms";
        let expected = [
            (Cmd::Run, "--example-spec".to_string()),
            (Cmd::Trace, format!("--chrome --trace-window {profile}")),
            (
                Cmd::Soak,
                format!(
                    "--epoch --inject-channel-fault --checkpoint-every --checkpoint-path \
                     --resume --flight-dir {profile} {metrics}"
                ),
            ),
            (
                Cmd::Worker,
                format!("--worker --planes --epoch --connect --out {profile}"),
            ),
            (
                Cmd::Collect,
                format!(
                    "--oracle --from --listen --port-file --timeout-ms --epoch \
                     {profile} {metrics}"
                ),
            ),
            (Cmd::FlightCheck, String::new()),
            (Cmd::Resilience, String::new()),
        ];
        for (cmd, flags) in expected {
            let mut want: Vec<&str> = flags.split_whitespace().collect();
            let mut got: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.cmds.contains(&cmd))
                .map(|f| f.name)
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{cmd:?}");
        }
    }

    #[test]
    fn every_table_flag_applies() {
        for f in FLAGS {
            let v = match (f.name, f.value) {
                ("--trace-window", _) => "0:1000",
                (_, "") => "",
                _ => "1",
            };
            assert_eq!(Cli::default().apply(f.name, v), Ok(()), "{}", f.name);
        }
    }

    #[test]
    fn usage_errors_are_errs() {
        for (line, why) in [
            ("trace --metrics x", "--metrics does not apply to trace"),
            ("soak --chrome x", "--chrome does not apply to soak"),
            ("s.json --profile", "--profile does not apply to ripsim"),
            (
                "resilience --epoch 5",
                "--epoch does not apply to resilience",
            ),
            ("soak --no-such-flag", "unknown flag --no-such-flag"),
            ("soak --epoch", "--epoch needs <ps>"),
            ("collect s.json --from", "--from needs <file>"),
            (
                "soak --epoch x",
                "bad --epoch value x: invalid digit found in string",
            ),
            ("collect s.json --stage-cap 4", "unknown flag --stage-cap"),
            ("soak --profile-out p", "--profile-out needs --profile"),
            ("trace --trace-window 0:9", "trace needs --chrome"),
            ("s.json extra", "unexpected argument extra"),
            ("trace a.json b.json", "unexpected argument b.json"),
            ("flight-check a b", "unexpected argument b"),
            ("resilience extra", "unexpected argument extra"),
            ("", "ripsim needs <spec.json>"),
            ("collect --oracle", "collect needs <spec.json>"),
            (
                "plane-worker s.json --planes 0",
                "plane-worker needs --worker",
            ),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(why), "{line:?}");
        }
    }

    #[test]
    fn flags_land_in_their_options() {
        let cli = parse("plane-worker s.json --worker 3 --planes 1,2 --epoch 7").unwrap();
        assert_eq!(
            (cli.cmd, cli.operand.as_deref()),
            (Cmd::Worker, Some("s.json"))
        );
        assert_eq!(
            (cli.worker.worker, &cli.worker.planes[..]),
            (3, &[1, 2][..])
        );
        assert_eq!(cli.epoch, Some(7));
        let cli = parse("collect s.json --from a --from b --profile --profile-out p").unwrap();
        assert_eq!(cli.collect.from, ["a", "b"]);
        assert_eq!(cli.prof.profile_out.as_deref(), Some("p"));
        assert!(parse("--example-spec").unwrap().example_spec);
        assert!(parse("trace --chrome t.json --trace-window 0:10").is_ok());
    }

    #[test]
    fn usage_lists_exactly_the_table_flags() {
        let text = usage();
        let mut listed: Vec<&str> = text
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .filter(|w| w.starts_with("--"))
            .collect();
        listed.sort_unstable();
        listed.dedup();
        let mut table: Vec<&str> = FLAGS.iter().map(|f| f.name).collect();
        table.push("--version");
        table.sort_unstable();
        assert_eq!(listed, table);
    }
}
