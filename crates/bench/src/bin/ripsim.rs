//! `ripsim` — run an HBM-switch simulation from a JSON specification.
//!
//! The downstream-user entry point: describe a router configuration and
//! a workload in one JSON file, get the switch report. Writes a sample
//! spec with `--example-spec`. `ripsim resilience` runs the canned
//! fault-injection demo: one of four HBM channels dies mid-run and
//! recovers, and the report shows the before/during/after timeline.
//! `ripsim trace [spec.json]` runs the spec (or the example spec) with
//! event tracing on and streams the full telemetry surface — switch
//! events, counters, gauges, histogram summaries, queue-depth series —
//! to stdout as deterministic JSONL (sim-time-stamped only), closed by
//! a terminal `run_end` record carrying the record count and the full
//! metric totals. The writer is flushed even on early termination.
//! `ripsim trace --chrome <out.json>` instead exports a Chrome
//! trace-event JSON file for Perfetto: per-bank HBM command timelines,
//! per-output PFI frame lifecycles, sampled packet spans, and per-plane
//! SPS activity lanes, optionally bounded by
//! `--trace-window <start_ps>:<end_ps>`.
//! `ripsim soak [spec.json] [--epoch <ps>]` reruns the spec at 4x its
//! arrival horizon and checks the streaming engine's in-flight working
//! set stays flat. With an epoch period (from `--epoch` or the spec's
//! `epoch_ps` field) both runs stream live epoch deltas and sampled
//! lifecycle spans to stdout as JSONL while they execute; the human
//! summary moves to stderr, and in-process SLO watchdogs (stall,
//! drop-rate, degraded capacity) fail the soak with a nonzero exit when
//! they fire. `--metrics <addr>` serves the cumulative stream as a
//! Prometheus scrape endpoint; `--inject-channel-fault <ch>` proves the
//! degraded-capacity alarm end to end.
//!
//! `--checkpoint-every <epochs>` makes the soak crash-safe: every N-th
//! telemetry epoch, the engine's complete mid-run state (event queue,
//! SRAM/HBM occupancy and timing, generator RNGs, telemetry clock) is
//! written to a versioned, CRC-checked snapshot at `--checkpoint-path`
//! (default `ripsim-soak.snapshot`, two-slot rotation, atomic rename).
//! SIGINT/SIGTERM take one final snapshot at the next epoch boundary
//! and exit cleanly. `ripsim soak <spec> --resume <path>` continues a
//! killed soak from its newest valid snapshot (falling back to the
//! `.prev` slot when the newest is truncated or corrupt): keep the
//! first `keep_lines=K` lines of the interrupted stdout stream (K is
//! reported on stderr at resume) and append the continuation's stdout,
//! and the merged stream — and the final report — is byte-identical to
//! the uninterrupted same-seed run. Checkpointing requires an epoch
//! period and excludes `--metrics` (the endpoint's cumulative state is
//! not part of the snapshot).
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
//! All simulation modes are pull-based: arrivals are generated on
//! demand by a merged packet source, never materialized as a trace, so
//! the horizon can grow without the memory footprint following it.
//!
//! ```text
//! ripsim --example-spec > my_sim.json
//! ripsim my_sim.json
//! ripsim trace my_sim.json > telemetry.jsonl
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
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rip_bench::fleet::{push_worker_stream, CollectError, Collector, FleetJob};
use rip_bench::spec::SimSpec;
use rip_bench::{version_line, Table, SERVICE_VERSION};
use rip_core::{
    ConfigError, DrainPolicy, FaultKind, FaultPlan, HbmSwitch, LiveOptions, RouterConfig,
    RunOutcome, SpsRouter, SpsWorkload,
};
use rip_photonics::SplitPattern;
use rip_telemetry::{
    ChromeTraceSink, FanoutSink, FlightRecorder, FlightTee, FrameListener, JsonlSink,
    MetricsEndpoint, ProfileHub, SharedSink, TelemetrySink, TraceWindow, Watchdog, WatchdogConfig,
    WatchdogEvent, WatchdogKind,
};
use rip_traffic::{
    merge_streams, ArrivalProcess, PacketGenerator, SizeDistribution, TrafficMatrix,
};
use rip_units::{DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize, Value};

/// The spec's simulation deadline: its drain factor applied on top of
/// the arrival horizon by the explicit [`DrainPolicy`].
fn drain_deadline(spec: &SimSpec, horizon: SimTime) -> SimTime {
    DrainPolicy::HorizonFactor {
        factor: 1 + spec.drain_factor,
    }
    .deadline(horizon)
}

fn run(spec: &SimSpec) -> Result<(), String> {
    let horizon = SimTime::from_ns(spec.horizon_us * 1000);
    let source = spec.build_source(horizon)?;
    let n = spec.router.ribbons;
    println!(
        "spec: {} ports x {}, frame {}, load {:.2}, streaming arrivals over {} us",
        n,
        spec.router.port_rate(),
        spec.router.frame_size(),
        spec.load,
        spec.horizon_us
    );
    let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
    sw.run_source(source, drain_deadline(spec, horizon), &FaultPlan::default());
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
            r.delays_ns.mean().unwrap_or(f64::NAN) / 1e3,
            r.delays_ns.quantile(0.99).unwrap_or(f64::NAN) / 1e3
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
    t.print("ripsim report");
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
        if opts.profile_out.is_some() {
            return Err("--profile-out needs --profile".into());
        }
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

/// Command-line options of `ripsim soak` beyond the spec itself.
#[derive(Default)]
struct SoakOptions {
    /// Serve Prometheus exposition of the live epoch stream at this
    /// address (e.g. `127.0.0.1:0` for an ephemeral port).
    metrics: Option<String>,
    /// Write the bound metrics port to this file once the endpoint is
    /// up — how CI discovers an ephemeral port.
    metrics_port_file: Option<String>,
    /// Keep the metrics endpoint alive this long after the runs finish
    /// so a scraper can read the final totals.
    metrics_hold_ms: u64,
    /// Kill this HBM channel a quarter into the arrival horizon and
    /// never recover it — the degraded-capacity watchdog must fire.
    inject_channel_fault: Option<usize>,
    /// Snapshot the engine every this many telemetry epochs.
    checkpoint_every: Option<u64>,
    /// Where the snapshot (and its `.prev` rotation slot) lives.
    checkpoint_path: Option<String>,
    /// Continue a killed soak from this snapshot.
    resume: Option<String>,
    /// Wall-clock self-profiler options.
    prof: ProfileOptions,
    /// Where flight-recorder post-mortem bundles land (default `.`).
    flight_dir: Option<String>,
}

// ------------------------------------------------------------------
// Graceful-stop plumbing for checkpointed soaks. The handler only
// flips an atomic (the async-signal-safe subset); the run loop polls
// it at epoch boundaries and exits through a final snapshot.
// ------------------------------------------------------------------

// `signal(2)` from the platform libc this binary already links; used
// instead of a crate dependency for exactly two calls.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Set by SIGINT/SIGTERM; polled by the checkpointed soak loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn request_stop(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
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

/// Sink wrapper polling the stop flag at epoch boundaries for the
/// plain (non-checkpointed) soak: SIGINT/SIGTERM dump the flight
/// bundle and exit 130 instead of the default silent kill, so an
/// operator interrupting a wedged soak still gets the post-mortem.
struct SignalWatch<S: TelemetrySink> {
    inner: S,
    rec: FlightRecorder,
    dir: String,
}

impl<S: TelemetrySink> TelemetrySink for SignalWatch<S> {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &rip_telemetry::EpochDelta) {
        self.inner.on_epoch(source, epoch, delta);
        if STOP.load(Ordering::SeqCst) {
            eprintln!("ripsim: stop requested; dumping flight bundle");
            report_flight_dump(&self.rec, &self.dir, "signal");
            std::process::exit(130);
        }
    }

    fn on_span(&mut self, source: &str, span: &rip_telemetry::SpanEvent) {
        self.inner.on_span(source, span);
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        self.inner.on_watchdog(source, event);
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &rip_telemetry::MetricsRegistry) {
        self.inner.on_run_end(source, at, totals);
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

/// The payload of a soak snapshot (wrapped in the CRC envelope by
/// `rip_sim::snapshot`): where in the two-run soak we are, how many
/// stdout lines are already final, and the running engine's state.
#[derive(Serialize, Deserialize)]
struct SoakSnapshot {
    /// JSON echo of the spec; resuming under a different spec is
    /// refused.
    spec: String,
    /// Checkpoint interval in epochs (reused on resume unless
    /// overridden).
    every: u64,
    /// Index of the run in progress within the soak's mult sequence.
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

/// Serialize and crash-safely write one soak snapshot.
#[allow(clippy::too_many_arguments)]
fn persist_soak(
    path: &str,
    spec_echo: &str,
    every: u64,
    run_index: u64,
    lines_done: u64,
    done: &[RunDone],
    records: u64,
    engine: &Value,
) -> Result<(), rip_sim::snapshot::SnapshotError> {
    let snap = SoakSnapshot {
        spec: spec_echo.to_string(),
        every,
        run_index,
        lines_done,
        done: done.to_vec(),
        records,
        engine: engine.clone(),
    };
    let payload = serde_json::to_string(&snap).expect("snapshot serializes");
    rip_sim::snapshot::write_snapshot(Path::new(path), payload.as_bytes())
}

/// The crash-safe variant of [`run_soak`]: same two runs, same JSONL
/// stream, but through [`HbmSwitch::run_source_checkpointed`] with a
/// snapshot every `--checkpoint-every` epochs (and on SIGINT/SIGTERM,
/// which exit cleanly after one final snapshot). A `--resume` picks up
/// at the snapshotted run and epoch; stderr reports `keep_lines=K`, the
/// prefix of the interrupted stdout stream that is still valid —
/// `head -n K interrupted.jsonl` + the resumed stream is byte-identical
/// to the uninterrupted run.
///
/// The stream goes to stdout unbuffered-per-line (no `BufWriter`), so
/// every line a snapshot counts is on disk before the snapshot is; a
/// SIGKILL can only lose lines *after* the last checkpoint, which the
/// `keep_lines` prefix cuts anyway. Watchdogs and `--metrics` are off
/// in this mode: their cumulative state is not part of the snapshot.
fn run_soak_checkpointed(spec: &SimSpec, opts: &SoakOptions) -> Result<(), String> {
    let period = match spec.epoch_ps {
        Some(0) => return Err(ConfigError::EpochZero.to_string()),
        Some(ps) => TimeDelta::from_ps(ps),
        None => return Err(ConfigError::CheckpointNeedsEpochs.to_string()),
    };
    if opts.checkpoint_every == Some(0) {
        return Err(ConfigError::CheckpointIntervalZero.to_string());
    }
    if opts.metrics.is_some() {
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
    let spec_echo = serde_json::to_string(spec).expect("spec serializes");
    let (every, run_index, mut lines_done, mut done, records0, engine0) = match &opts.resume {
        Some(from) => {
            let (payload, slot) =
                rip_sim::snapshot::load_latest(Path::new(from)).map_err(|e| e.to_string())?;
            let text = String::from_utf8(payload)
                .map_err(|_| "snapshot payload is not UTF-8".to_string())?;
            let snap: SoakSnapshot = serde_json::from_str(&text)
                .map_err(|e| format!("snapshot payload does not decode: {e}"))?;
            if snap.spec != spec_echo {
                return Err("snapshot mismatch: it was taken from a different spec".into());
            }
            let every = opts.checkpoint_every.unwrap_or(snap.every);
            if every == 0 {
                return Err(ConfigError::CheckpointIntervalZero.to_string());
            }
            eprintln!(
                "ripsim: resuming soak (run {}) from {} -- keep_lines={}",
                snap.run_index + 1,
                slot.display(),
                snap.lines_done + snap.records
            );
            (
                every,
                snap.run_index,
                snap.lines_done,
                snap.done,
                snap.records,
                snap.engine,
            )
        }
        None => {
            let every = opts
                .checkpoint_every
                .expect("dispatch requires --checkpoint-every or --resume");
            (every, 0, 0, Vec::new(), 0, Value::Null)
        }
    };
    // Fail on an unwritable snapshot path now, not minutes into a run.
    let probe = format!("{path}.probe");
    if let Err(e) = std::fs::write(&probe, b"probe") {
        return Err(ConfigError::CheckpointDir {
            path: path.clone(),
            reason: e.to_string(),
        }
        .to_string());
    }
    let _ = std::fs::remove_file(&probe);
    install_stop_handlers();
    let hub = build_profile_hub(&opts.prof)?;
    let flight = build_flight_recorder(spec, &hub);
    let flight_dir = opts.flight_dir.clone().unwrap_or_else(|| ".".into());
    install_flight_panic_hook(flight.clone(), flight_dir.clone());

    let mults = [1u64, 4];
    if run_index as usize >= mults.len() || done.len() != run_index as usize {
        return Err("snapshot mismatch: run progress is inconsistent with this soak".into());
    }
    for idx in (run_index as usize)..mults.len() {
        let mult = mults[idx];
        let horizon = SimTime::from_ns(spec.horizon_us * 1000 * mult);
        let source = spec.build_source(horizon)?;
        let plan = match opts.inject_channel_fault {
            Some(channel) => {
                let plan = FaultPlan::new().inject(
                    SimTime::from_ps(horizon.as_ps() / 4),
                    FaultKind::HbmChannelDown { channel },
                );
                plan.validate(&spec.router).map_err(|e| e.to_string())?;
                plan
            }
            None => FaultPlan::default(),
        };
        let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
        if let Some(h) = &hub {
            sw.enable_profiler(h.clone());
        }
        // Line-buffered stdout, not BufWriter: each record line must be
        // out of the process before the snapshot that counts it lands.
        let mut sink = JsonlSink::new(std::io::stdout());
        let resume_engine = if idx as u64 == run_index && engine0 != Value::Null {
            // Mid-run resume: the restored engine continues the record
            // stream, and the sink's counter continues where the
            // interrupted run's stream left off (the final `run_end`
            // carries the full-run record count either way).
            sink.set_records(records0);
            Some(&engine0)
        } else {
            None
        };
        // The flight tee forwards every record unchanged (the stream
        // bytes — and the snapshots counting them — are identical with
        // or without it); it only copies recent epochs into the ring.
        sw.enable_live_telemetry(period, 256, Box::new(FlightTee::new(flight.clone(), sink)));
        let outcome = sw
            .run_source_checkpointed(
                source,
                drain_deadline(spec, horizon),
                &plan,
                resume_engine,
                every,
                || STOP.load(Ordering::SeqCst),
                |engine: &Value, epochs: u64, spans: u64| {
                    persist_soak(
                        &path,
                        &spec_echo,
                        every,
                        idx as u64,
                        lines_done,
                        &done,
                        epochs + spans,
                        engine,
                    )
                },
            )
            .map_err(|e| e.to_string())?;
        if outcome == RunOutcome::Interrupted {
            eprintln!(
                "ripsim: stop requested; snapshot written to {path} -- \
                 resume with: ripsim soak <spec.json> --resume {path}"
            );
            report_flight_dump(&flight, &flight_dir, "signal");
            if let Some(h) = &hub {
                h.flush_output();
            }
            return Ok(());
        }
        let epochs = sw.live_epochs_emitted();
        let spans = sw.live_spans_emitted();
        let r = sw.into_report();
        eprintln!(
            "horizon {} us: offered {}, delivered {}, peak in-flight {}",
            spec.horizon_us * mult,
            r.offered_packets,
            r.delivered_packets,
            r.peak_in_flight_packets
        );
        eprintln!("streamed {epochs} epoch deltas and {spans} lifecycle spans");
        lines_done += epochs + spans + 1; // + the run_end line
        done.push(RunDone {
            offered_packets: r.offered_packets,
            delivered_packets: r.delivered_packets,
            peak_in_flight: r.peak_in_flight_packets,
        });
        if idx + 1 < mults.len() {
            // Inter-run snapshot: the next run starts fresh.
            persist_soak(
                &path,
                &spec_echo,
                every,
                (idx + 1) as u64,
                lines_done,
                &done,
                0,
                &Value::Null,
            )
            .map_err(|e| e.to_string())?;
            if STOP.load(Ordering::SeqCst) {
                eprintln!(
                    "ripsim: stop requested between runs; snapshot written to {path} -- \
                     resume with: ripsim soak <spec.json> --resume {path}"
                );
                return Ok(());
            }
        }
    }
    if let Some(h) = &hub {
        h.flush_output();
    }
    let (r1, r2) = (&done[0], &done[1]);
    if r2.offered_packets < 3 * r1.offered_packets {
        return Err(format!(
            "offered packets did not scale with the horizon: {} -> {}",
            r1.offered_packets, r2.offered_packets
        ));
    }
    if r2.peak_in_flight > 2 * r1.peak_in_flight + 64 {
        return Err(format!(
            "peak in-flight grew with the horizon: {} -> {}",
            r1.peak_in_flight, r2.peak_in_flight
        ));
    }
    eprintln!("soak OK: in-flight working set stays bounded at 4x the horizon");
    Ok(())
}

/// A clonable handle sharing one [`MetricsEndpoint`] across the soak's
/// two runs (the endpoint owns the listener, so each run's fanout gets
/// a handle instead).
#[derive(Clone)]
struct SharedEndpoint(Arc<Mutex<MetricsEndpoint>>);

impl SharedEndpoint {
    /// Poison-tolerant lock: a panic on another thread must not
    /// cascade a second panic into the telemetry export path — the
    /// endpoint's state is a monotone counter set, safe to keep
    /// serving.
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsEndpoint> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TelemetrySink for SharedEndpoint {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &rip_telemetry::EpochDelta) {
        self.lock().on_epoch(source, epoch, delta);
    }

    fn on_span(&mut self, source: &str, span: &rip_telemetry::SpanEvent) {
        self.lock().on_span(source, span);
    }

    fn on_watchdog(&mut self, source: &str, event: &rip_telemetry::WatchdogEvent) {
        self.lock().on_watchdog(source, event);
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &rip_telemetry::MetricsRegistry) {
        self.lock().on_run_end(source, at, totals);
    }
}

/// `ripsim soak [spec.json] [--epoch <ps>]`: run the spec streaming at
/// its horizon and again at 4x the horizon, and check that offered
/// traffic scales with the horizon while the engine's peak in-flight
/// packet count stays flat — the O(in-flight) memory property of the
/// pull-based engine. With an epoch period, both runs stream live
/// epoch deltas (plus 1-in-256 sampled lifecycle spans) to stdout as
/// JSONL while they execute, and the human summary moves to stderr so
/// the stream stays machine-clean.
///
/// The epoch stream is always consumed in-process by the SLO watchdogs
/// (stall / drop-rate / degraded-capacity); a fired watchdog fails the
/// soak. `--metrics <addr>` additionally serves the stream's cumulative
/// totals as a Prometheus scrape endpoint, and
/// `--inject-channel-fault <ch>` kills an HBM channel mid-run to prove
/// the degraded-capacity alarm path end to end.
fn run_soak(spec: &SimSpec, opts: &SoakOptions) -> Result<(), String> {
    if opts.checkpoint_every.is_some() || opts.resume.is_some() {
        return run_soak_checkpointed(spec, opts);
    }
    if opts.checkpoint_path.is_some() {
        return Err("--checkpoint-path needs --checkpoint-every or --resume".into());
    }
    let period = match spec.epoch_ps {
        Some(0) => return Err(ConfigError::EpochZero.to_string()),
        Some(ps) => Some(TimeDelta::from_ps(ps)),
        None => None,
    };
    if opts.metrics.is_some() && period.is_none() {
        return Err("--metrics needs an epoch period (--epoch or spec epoch_ps)".into());
    }
    // Route the human lines to stderr whenever JSONL owns stdout.
    let say: fn(std::fmt::Arguments) = if period.is_some() {
        |a| eprintln!("{a}")
    } else {
        |a| println!("{a}")
    };
    let hub = build_profile_hub(&opts.prof)?;
    let flight = build_flight_recorder(spec, &hub);
    let flight_dir = opts.flight_dir.clone().unwrap_or_else(|| ".".into());
    install_flight_panic_hook(flight.clone(), flight_dir.clone());
    if period.is_some() {
        // SIGINT/SIGTERM flip the stop flag; SignalWatch polls it at
        // epoch boundaries and exits through a flight dump. Without an
        // epoch period nothing polls the flag, so leave the default
        // (killing) disposition in place.
        install_stop_handlers();
    }
    let endpoint = match &opts.metrics {
        Some(addr) => {
            let mut ep = MetricsEndpoint::bind(addr).map_err(|e| format!("metrics bind: {e}"))?;
            ep.set_build_info("ripsim", SERVICE_VERSION);
            if let Some(h) = &hub {
                ep.attach_profile_hub("ripsim", h.clone());
            }
            let port = ep.local_addr().port();
            say(format_args!("metrics endpoint on port {port}"));
            if let Some(path) = &opts.metrics_port_file {
                std::fs::write(path, format!("{port}\n"))
                    .map_err(|e| format!("metrics port file: {e}"))?;
            }
            Some(SharedEndpoint(Arc::new(Mutex::new(ep))))
        }
        None => None,
    };
    let mut watchdog_events = Vec::new();
    let mut reports = Vec::new();
    for mult in [1u64, 4] {
        let horizon = SimTime::from_ns(spec.horizon_us * 1000 * mult);
        let source = spec.build_source(horizon)?;
        let plan = match opts.inject_channel_fault {
            Some(channel) => {
                let plan = FaultPlan::new().inject(
                    SimTime::from_ps(horizon.as_ps() / 4),
                    FaultKind::HbmChannelDown { channel },
                );
                plan.validate(&spec.router).map_err(|e| e.to_string())?;
                plan
            }
            None => FaultPlan::default(),
        };
        let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
        if let Some(h) = &hub {
            sw.enable_profiler(h.clone());
        }
        let handle = period.map(|period| {
            let mut fan = FanoutSink::new();
            fan.push(Box::new(JsonlSink::new(std::io::BufWriter::new(
                std::io::stdout(),
            ))));
            if let Some(ep) = &endpoint {
                fan.push(Box::new(ep.clone()));
            }
            // Chain: watchdog detection -> flight ring -> outputs,
            // with the signal poll outermost. The tee and the poll
            // forward every record unchanged, so the stdout bytes are
            // identical with or without them.
            let tee = FlightTee::new(flight.clone(), fan);
            let (wd, handle) = Watchdog::new(WatchdogConfig::default(), tee);
            let watch = SignalWatch {
                inner: wd,
                rec: flight.clone(),
                dir: flight_dir.clone(),
            };
            sw.enable_live_telemetry(period, 256, Box::new(watch));
            handle
        });
        sw.run_source(source, drain_deadline(spec, horizon), &plan);
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
        if let Some(handle) = handle {
            watchdog_events.extend(handle.events());
        }
        reports.push(r);
    }
    if let Some(h) = &hub {
        h.flush_output();
    }
    if opts.metrics_hold_ms > 0 && endpoint.is_some() {
        say(format_args!(
            "holding metrics endpoint for {} ms",
            opts.metrics_hold_ms
        ));
        std::thread::sleep(std::time::Duration::from_millis(opts.metrics_hold_ms));
    }
    if period.is_some() {
        // Always-on count, alarm or not: scrapers and log parsers get
        // the same line either way, matching the Prometheus
        // `rip_watchdog_alarms_total` family the endpoint exports.
        say(format_args!(
            "soak watchdogs: {} alarm(s) across both horizons",
            watchdog_events.len()
        ));
    }
    if !watchdog_events.is_empty() {
        for e in &watchdog_events {
            say(format_args!(
                "watchdog: {} epoch {} at {} ps: {:?}",
                e.source,
                e.epoch,
                e.at.as_ps(),
                e.kind
            ));
        }
        report_flight_dump(&flight, &flight_dir, "watchdog");
        return Err(format!(
            "{} watchdog alarm(s) fired during the soak",
            watchdog_events.len()
        ));
    }
    let (r1, r2) = (&reports[0], &reports[1]);
    if r2.offered_packets < 3 * r1.offered_packets {
        return Err(format!(
            "offered packets did not scale with the horizon: {} -> {}",
            r1.offered_packets, r2.offered_packets
        ));
    }
    if r2.peak_in_flight_packets > 2 * r1.peak_in_flight_packets + 64 {
        return Err(format!(
            "peak in-flight grew with the horizon: {} -> {}",
            r1.peak_in_flight_packets, r2.peak_in_flight_packets
        ));
    }
    say(format_args!(
        "soak OK: in-flight working set stays bounded at 4x the horizon"
    ));
    Ok(())
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

/// Command-line options of `ripsim plane-worker`.
struct WorkerOptions {
    worker: u64,
    planes: Vec<usize>,
    connect: Option<String>,
    out: Option<String>,
    prof: ProfileOptions,
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
fn run_plane_worker(spec: &SimSpec, opts: &WorkerOptions) -> Result<(), String> {
    let mut parts = fleet_parts(spec)?;
    let hub = build_profile_hub(&opts.prof)?;
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

/// Command-line options of `ripsim collect`.
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
    /// Give up when coverage is still incomplete after this long.
    timeout_ms: u64,
    /// Serve the merged stream's cumulative totals as a fleet-wide
    /// Prometheus scrape endpoint at this address.
    metrics: Option<String>,
    /// Write the bound metrics port to this file.
    metrics_port_file: Option<String>,
    /// Keep the metrics endpoint alive this long after the merge.
    metrics_hold_ms: u64,
    /// Bound each plane's staging buffer to this many records
    /// (forfeits byte-identity when it evicts; reported in the
    /// summary's `dropped_records`).
    stage_cap: Option<usize>,
    /// Wall-clock self-profiler options.
    prof: ProfileOptions,
}

/// The collector's output chain — identical to the oracle's, which is
/// what makes watchdog alarm positions (and the stream bytes around
/// them) line up: JSONL on buffered stdout, optionally teed into the
/// shared Prometheus endpoint, wrapped by the SLO watchdogs.
fn collect_sink(
    endpoint: &Option<SharedEndpoint>,
) -> (Watchdog<FanoutSink>, rip_telemetry::WatchdogHandle) {
    let mut fan = FanoutSink::new();
    fan.push(Box::new(JsonlSink::new(std::io::BufWriter::new(
        std::io::stdout(),
    ))));
    if let Some(ep) = endpoint {
        fan.push(Box::new(ep.clone()));
    }
    Watchdog::new(WatchdogConfig::default(), fan)
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
    sink.on_watchdog("collector", &event);
}

/// `ripsim collect`: reassemble worker streams into the
/// single-process telemetry stream and report — or, with `--oracle`,
/// produce that single-process stream directly for a byte diff.
fn run_collect(spec: &SimSpec, opts: &CollectOptions) -> Result<(), String> {
    let mut parts = fleet_parts(spec)?;
    let hub = build_profile_hub(&opts.prof)?;
    let endpoint = match &opts.metrics {
        Some(addr) => {
            let mut ep = MetricsEndpoint::bind(addr).map_err(|e| format!("metrics bind: {e}"))?;
            ep.set_build_info("ripsim", SERVICE_VERSION);
            if let Some(h) = &hub {
                ep.attach_profile_hub("ripsim", h.clone());
            }
            let port = ep.local_addr().port();
            eprintln!("metrics endpoint on port {port}");
            if let Some(path) = &opts.metrics_port_file {
                std::fs::write(path, format!("{port}\n"))
                    .map_err(|e| format!("metrics port file: {e}"))?;
            }
            Some(SharedEndpoint(Arc::new(Mutex::new(ep))))
        }
        None => None,
    };
    let (mut wd, handle) = collect_sink(&endpoint);

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
                Some((parts.live, &mut wd)),
            )
            .map_err(|e| e.to_string())?;
        summary = format!(
            "oracle: offered {} delivered {} over {} planes",
            report.offered, report.delivered, spec.router.switches
        );
    } else {
        let mut collector = Collector::new(parts.echo.clone(), spec.router.switches);
        if let Some(cap) = opts.stage_cap {
            collector = collector.with_plane_capacity(cap);
        }
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
                            note_worker_lost(&mut wd, *w, &e.to_string());
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
            let deadline = std::time::Instant::now()
                + std::time::Duration::from_millis(opts.timeout_ms.max(1));
            while !collector.missing_planes().is_empty() {
                if std::time::Instant::now() >= deadline {
                    return Err(format!(
                        "timed out after {} ms with planes {:?} still missing",
                        opts.timeout_ms,
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
                                note_worker_lost(&mut wd, *w, &e.to_string());
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
            .finish(&parts.router, parts.horizon, &mut wd)
            .map_err(|e| e.to_string())?;
        if let Some(ep) = &endpoint {
            ep.lock().note_dropped_records(
                "sps",
                parts.router.drain_deadline(parts.horizon),
                outcome.dropped_records,
            );
        }
        summary = format!(
            "collector: workers={} records={} dropped_records={} offered {} delivered {}",
            workers,
            outcome.records,
            outcome.dropped_records,
            outcome.report.offered,
            outcome.report.delivered
        );
    }
    drop(wd); // flush the merged stream before reporting
    if let Some(h) = &hub {
        h.flush_output();
    }
    if opts.metrics_hold_ms > 0 && endpoint.is_some() {
        eprintln!("holding metrics endpoint for {} ms", opts.metrics_hold_ms);
        std::thread::sleep(std::time::Duration::from_millis(opts.metrics_hold_ms));
    }
    let events = handle.events();
    eprintln!("{summary} watchdog_alarms={}", events.len());
    if !events.is_empty() {
        for e in &events {
            eprintln!(
                "watchdog: {} epoch {} at {} ps: {:?}",
                e.source,
                e.epoch,
                e.at.as_ps(),
                e.kind
            );
        }
        return Err(format!("{} watchdog alarm(s) fired", events.len()));
    }
    Ok(())
}

// --------------------------------------------------------------------
// `ripsim trace` — JSONL telemetry export
// --------------------------------------------------------------------

/// Header line: schema tag plus the spec that produced the run.
#[derive(Serialize)]
struct MetaLine {
    record: String,
    schema: String,
    spec: SimSpec,
}

/// One switch milestone from the bounded event trace.
#[derive(Serialize)]
struct EventLine {
    record: String,
    t_ps: u64,
    event: rip_core::SwitchEvent,
}

/// Final value of a monotone counter.
#[derive(Serialize)]
struct CounterLine {
    record: String,
    name: String,
    value: u64,
}

/// Final value of a last-write-wins gauge.
#[derive(Serialize)]
struct GaugeLine {
    record: String,
    name: String,
    at_ps: u64,
    value: f64,
}

/// Summary of a log-bucketed histogram.
#[derive(Serialize)]
struct HistogramLine {
    record: String,
    name: String,
    count: u64,
    min: Option<f64>,
    max: Option<f64>,
    p50: Option<f64>,
    p99: Option<f64>,
}

/// One decimated point of a time series.
#[derive(Serialize)]
struct SeriesLine {
    record: String,
    name: String,
    t_ps: u64,
    value: f64,
}

/// Terminal record of a trace stream: carries the number of records
/// emitted before it plus the full metric totals, so a consumer can
/// both detect truncation and cross-check the per-record stream.
#[derive(Serialize)]
struct RunEndLine {
    record: String,
    t_ps: u64,
    records: u64,
    totals: rip_telemetry::MetricsRegistry,
}

/// JSONL writer for `ripsim trace`: buffers stdout, counts records,
/// and flushes even when the process unwinds early (broken pipe,
/// panic), so a consumer never silently loses the tail of a trace.
struct JsonlGuard {
    out: std::io::BufWriter<std::io::Stdout>,
    records: u64,
}

impl JsonlGuard {
    fn new() -> Self {
        JsonlGuard {
            out: std::io::BufWriter::new(std::io::stdout()),
            records: 0,
        }
    }

    fn emit<T: Serialize>(&mut self, line: &T) -> std::io::Result<()> {
        use std::io::Write;
        // Serialization cannot fail for these plain-data lines; only
        // the I/O below can (broken pipe, full disk), and that
        // propagates to a clean nonzero exit instead of a panic.
        let s = serde_json::to_string(line).expect("trace line serializes");
        self.out.write_all(s.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.records += 1;
        Ok(())
    }

    /// Close the stream with the terminal `run_end` record and flush.
    fn finish(
        mut self,
        at: SimTime,
        totals: rip_telemetry::MetricsRegistry,
    ) -> std::io::Result<()> {
        use std::io::Write;
        let records = self.records;
        self.emit(&RunEndLine {
            record: "run_end".into(),
            t_ps: at.as_ps(),
            records,
            totals,
        })?;
        self.out.flush()
    }
}

impl Drop for JsonlGuard {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = self.out.flush();
    }
}

/// Run `spec` with event tracing on and stream the whole telemetry
/// surface — events, counters, gauges, histogram summaries, series —
/// to stdout as JSONL. Every timestamp is sim time (picoseconds), so
/// two same-seed runs produce byte-identical output.
fn run_trace(spec: &SimSpec, prof: &ProfileOptions) -> Result<(), String> {
    let horizon = SimTime::from_ns(spec.horizon_us * 1000);
    let source = spec.build_source(horizon)?;
    let mut sw = HbmSwitch::new(spec.router.clone()).map_err(|e| e.to_string())?;
    let hub = build_profile_hub(prof)?;
    if let Some(h) = &hub {
        sw.enable_profiler(h.clone());
    }
    sw.enable_trace(1 << 20);
    sw.run_source(source, drain_deadline(spec, horizon), &FaultPlan::default());
    // Copy the series out before consuming the switch for its report;
    // the emission order below is part of the JSONL contract.
    let events: Vec<(SimTime, rip_core::SwitchEvent)> = sw
        .trace()
        .expect("tracing enabled")
        .events()
        .copied()
        .collect();
    let hbm_points: Vec<(SimTime, f64)> = sw.hbm_occupancy().points().to_vec();
    let output_points: Vec<Vec<(SimTime, f64)>> = (0..spec.router.ribbons)
        .map(|o| sw.output_depth(o).points().to_vec())
        .collect();
    let r = sw.into_report();

    let mut out = JsonlGuard::new();
    let stream = (|| -> std::io::Result<()> {
        out.emit(&MetaLine {
            record: "meta".into(),
            schema: "rip-trace/v1".into(),
            spec: spec.clone(),
        })?;
        for &(at, event) in &events {
            out.emit(&EventLine {
                record: "event".into(),
                t_ps: at.as_ps(),
                event,
            })?;
        }
        for (name, &value) in r.metrics.counters() {
            out.emit(&CounterLine {
                record: "counter".into(),
                name: name.clone(),
                value,
            })?;
        }
        for (name, g) in r.metrics.gauges() {
            out.emit(&GaugeLine {
                record: "gauge".into(),
                name: name.clone(),
                at_ps: g.at.as_ps(),
                value: g.value,
            })?;
        }
        for (name, h) in r.metrics.histograms() {
            out.emit(&HistogramLine {
                record: "histogram".into(),
                name: name.clone(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.5),
                p99: h.quantile(0.99),
            })?;
        }
        for &(t, value) in &hbm_points {
            out.emit(&SeriesLine {
                record: "series".into(),
                name: "hbm.frame_occupancy".into(),
                t_ps: t.as_ps(),
                value,
            })?;
        }
        for (o, points) in output_points.iter().enumerate() {
            let name = format!("out{o:02}.queue_depth_frames");
            for &(t, value) in points {
                out.emit(&SeriesLine {
                    record: "series".into(),
                    name: name.clone(),
                    t_ps: t.as_ps(),
                    value,
                })?;
            }
        }
        Ok(())
    })();
    stream.map_err(|e| format!("cannot write trace stream: {e}"))?;
    let end = r
        .departures
        .iter()
        .map(|d| d.time)
        .fold(SimTime::ZERO, SimTime::max);
    out.finish(end, r.metrics)
        .map_err(|e| format!("cannot write trace stream: {e}"))?;
    if let Some(h) = &hub {
        h.flush_output();
    }
    Ok(())
}

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
    sw.run_source(source, drain_deadline(spec, horizon), &FaultPlan::default());
    let mut rec = sw
        .take_chrome_trace()
        .expect("chrome trace was enabled above");
    let mut chrome = ChromeTraceSink::new(window);
    staged.take().replay_into(&mut chrome);

    // Plane pass: the same configuration through the plane-parallel SPS
    // router; its per-plane epoch streams become one activity lane per
    // plane in the export.
    let mut router =
        SpsRouter::new(spec.router.clone(), SplitPattern::Striped).map_err(|e| e.to_string())?;
    if let Some(h) = &hub {
        router.set_profile_hub(h.clone());
    }
    let w = SpsWorkload::uniform(spec.router.ribbons, spec.load, spec.seed);
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

/// Field lookup on a parsed JSON object (the vendored `Value` has no
/// `get`).
fn jget<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, val)| val)
}

/// Validate a flight-recorder bundle: parses as JSON, carries the
/// `flight` record tag, a reason, build info, and the three content
/// arrays. Prints a one-line summary on success — the CI smoke's
/// schema gate, with no external JSON tooling needed.
fn flight_check(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = serde_json::parse(&text).map_err(|e| format!("{path} does not parse: {e}"))?;
    let record = jget(&v, "record").and_then(Value::as_str).unwrap_or("");
    if record != "flight" {
        return Err(format!("{path}: record is {record:?}, want \"flight\""));
    }
    let reason = jget(&v, "reason")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing string field `reason`"))?
        .to_string();
    for key in ["service", "version"] {
        if jget(&v, key).and_then(Value::as_str).is_none() {
            return Err(format!("{path}: missing string field `{key}`"));
        }
    }
    for key in ["epochs_seen", "epochs_retained"] {
        let field = jget(&v, key).ok_or_else(|| format!("{path}: missing field `{key}`"))?;
        u64::from_value(field).map_err(|e| format!("{path}: field `{key}`: {e}"))?;
    }
    let mut counts = Vec::new();
    for key in ["epochs", "watchdogs", "profiles"] {
        let arr = jget(&v, key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: missing array field `{key}`"))?;
        counts.push(arr.len());
    }
    Ok(format!(
        "flight bundle OK: reason={reason} epochs={} watchdogs={} profiles={}",
        counts[0], counts[1], counts[2]
    ))
}

/// Build a uniform IMIX/Poisson trace for `cfg` at `load` over `horizon`.
fn uniform_trace(
    cfg: &RouterConfig,
    load: f64,
    horizon: SimTime,
    seed: u64,
) -> Vec<rip_traffic::Packet> {
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let streams: Vec<_> = (0..cfg.ribbons)
        .map(|port| {
            let mut g = PacketGenerator::new(
                port,
                cfg.port_rate(),
                load * tm.row_load(port),
                tm.row(port).to_vec(),
                SizeDistribution::Imix,
                ArrivalProcess::Poisson,
                256,
                rip_sim::rng::derive_seed(seed, port as u64),
            )
            .expect("valid generator");
            g.generate_until(horizon)
        })
        .collect();
    merge_streams(streams)
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
fn run_resilience() {
    let cfg = RouterConfig::resilience_small();
    let t_fault = SimTime::from_ns(150 * 1000); // T = 150 us
    let t_recover = SimTime::from_ns(300 * 1000); // 2T
    let horizon = SimTime::from_ns(600 * 1000); // 4T of arrivals
    let drain = SimTime::from_ns(2_400 * 1000);
    let plan = FaultPlan::new()
        .inject(t_fault, FaultKind::HbmChannelDown { channel: 3 })
        .recover(t_recover, FaultKind::HbmChannelDown { channel: 3 });
    plan.validate(&cfg).expect("demo plan valid");

    println!(
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
    let sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    let r = sw.run_with_faults(&trace, drain, &plan);

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
    t.print("delivered rate timeline (offered 0.75)");

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
    t.print("degraded-mode accounting");

    // Under the degraded admissible load (≤ 0.7 of 3/4 capacity), the
    // same fault costs zero packets.
    let safe_load = 0.5;
    let trace = uniform_trace(&cfg, safe_load, horizon, 42);
    let sw = HbmSwitch::new(cfg).expect("valid config");
    let r = sw.run_with_faults(&trace, drain, &plan);
    println!(
        "at offered {:.2} (<= 0.7 of degraded capacity): {} fault drops, {} congestion drops, delivery {:.4}%",
        safe_load,
        r.dropped_packets_fault,
        r.dropped_packets_congestion,
        r.delivery_fraction * 100.0
    );
}

/// Read and parse a spec file, exiting with a usage error on failure.
fn load_spec(path: &str) -> SimSpec {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ripsim: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ripsim: bad spec: {e}");
            std::process::exit(2);
        }
    }
}

/// Pull the value of `flag` off the argument iterator, exiting with a
/// usage error when it is missing.
fn require_value<'a>(rest: &mut std::slice::Iter<'a, String>, flag: &str, what: &str) -> &'a str {
    match rest.next() {
        Some(v) => v,
        None => {
            eprintln!("ripsim: {flag} needs {what}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("{}", version_line("ripsim"));
        return;
    }
    if args.first().map(String::as_str) == Some("resilience") {
        run_resilience();
        return;
    }
    if args.first().map(String::as_str) == Some("flight-check") {
        let Some(path) = args.get(1) else {
            eprintln!("ripsim: flight-check needs a bundle path");
            std::process::exit(2);
        };
        match flight_check(path) {
            Ok(summary) => println!("{summary}"),
            Err(e) => {
                eprintln!("ripsim: flight-check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.first().map(String::as_str) == Some("trace") {
        let mut spec_path: Option<&str> = None;
        let mut chrome: Option<&str> = None;
        let mut window: Option<TraceWindow> = None;
        let mut prof = ProfileOptions::default();
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            if a == "--profile" {
                prof.profile = true;
            } else if a == "--profile-out" {
                prof.profile_out = Some(require_value(&mut rest, "--profile-out", "a path").into());
            } else if a == "--chrome" {
                chrome = Some(require_value(&mut rest, "--chrome", "an output path"));
            } else if a == "--trace-window" {
                let v = require_value(&mut rest, "--trace-window", "<start_ps>:<end_ps>");
                match TraceWindow::parse(v) {
                    Ok(w) => window = Some(w),
                    Err(e) => {
                        eprintln!("ripsim: {}", ConfigError::from(e));
                        std::process::exit(2);
                    }
                }
            } else if spec_path.is_none() {
                spec_path = Some(a);
            } else {
                eprintln!("ripsim: unexpected argument {a}");
                std::process::exit(2);
            }
        }
        if window.is_some() && chrome.is_none() {
            eprintln!("ripsim: --trace-window only applies to --chrome exports");
            std::process::exit(2);
        }
        let spec = spec_path.map_or_else(SimSpec::example, load_spec);
        let result = match chrome {
            Some(path) => {
                run_trace_chrome(&spec, path, window.unwrap_or_else(TraceWindow::all), &prof)
            }
            None => run_trace(&spec, &prof),
        };
        if let Err(e) = result {
            eprintln!("ripsim: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("soak") {
        let mut spec_path: Option<&str> = None;
        let mut epoch: Option<u64> = None;
        let mut opts = SoakOptions::default();
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            if a == "--epoch" {
                let v = require_value(&mut rest, "--epoch", "a period in picoseconds");
                match v.parse::<u64>() {
                    Ok(ps) => epoch = Some(ps),
                    Err(e) => {
                        eprintln!("ripsim: bad --epoch value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--metrics" {
                opts.metrics = Some(require_value(&mut rest, "--metrics", "a bind address").into());
            } else if a == "--metrics-port-file" {
                opts.metrics_port_file =
                    Some(require_value(&mut rest, "--metrics-port-file", "a path").into());
            } else if a == "--metrics-hold-ms" {
                let v = require_value(&mut rest, "--metrics-hold-ms", "milliseconds");
                match v.parse::<u64>() {
                    Ok(ms) => opts.metrics_hold_ms = ms,
                    Err(e) => {
                        eprintln!("ripsim: bad --metrics-hold-ms value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--inject-channel-fault" {
                let v = require_value(&mut rest, "--inject-channel-fault", "a channel index");
                match v.parse::<usize>() {
                    Ok(ch) => opts.inject_channel_fault = Some(ch),
                    Err(e) => {
                        eprintln!("ripsim: bad --inject-channel-fault value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--checkpoint-every" {
                let v = require_value(&mut rest, "--checkpoint-every", "an epoch count");
                match v.parse::<u64>() {
                    Ok(n) => opts.checkpoint_every = Some(n),
                    Err(e) => {
                        eprintln!("ripsim: bad --checkpoint-every value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--checkpoint-path" {
                opts.checkpoint_path =
                    Some(require_value(&mut rest, "--checkpoint-path", "a path").into());
            } else if a == "--resume" {
                opts.resume = Some(require_value(&mut rest, "--resume", "a snapshot path").into());
            } else if a == "--profile" {
                opts.prof.profile = true;
            } else if a == "--profile-out" {
                opts.prof.profile_out =
                    Some(require_value(&mut rest, "--profile-out", "a path").into());
            } else if a == "--flight-dir" {
                opts.flight_dir =
                    Some(require_value(&mut rest, "--flight-dir", "a directory").into());
            } else if spec_path.is_none() {
                spec_path = Some(a);
            } else {
                eprintln!("ripsim: unexpected argument {a}");
                std::process::exit(2);
            }
        }
        let mut spec = spec_path.map_or_else(SimSpec::example, load_spec);
        if epoch.is_some() {
            spec.epoch_ps = epoch;
        }
        if let Err(e) = run_soak(&spec, &opts) {
            eprintln!("ripsim: soak FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("plane-worker") {
        let mut spec_path: Option<&str> = None;
        let mut epoch: Option<u64> = None;
        let mut worker: Option<u64> = None;
        let mut planes: Option<Vec<usize>> = None;
        let mut wopts = WorkerOptions {
            worker: 0,
            planes: Vec::new(),
            connect: None,
            out: None,
            prof: ProfileOptions::default(),
        };
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            if a == "--worker" {
                let v = require_value(&mut rest, "--worker", "a worker id");
                match v.parse::<u64>() {
                    Ok(w) => worker = Some(w),
                    Err(e) => {
                        eprintln!("ripsim: bad --worker value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--planes" {
                let v = require_value(&mut rest, "--planes", "a comma-separated plane list");
                match parse_planes(v) {
                    Ok(p) => planes = Some(p),
                    Err(e) => {
                        eprintln!("ripsim: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--epoch" {
                let v = require_value(&mut rest, "--epoch", "a period in picoseconds");
                match v.parse::<u64>() {
                    Ok(ps) => epoch = Some(ps),
                    Err(e) => {
                        eprintln!("ripsim: bad --epoch value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--connect" {
                wopts.connect = Some(require_value(&mut rest, "--connect", "an address").into());
            } else if a == "--out" {
                wopts.out = Some(require_value(&mut rest, "--out", "a path").into());
            } else if a == "--profile" {
                wopts.prof.profile = true;
            } else if a == "--profile-out" {
                wopts.prof.profile_out =
                    Some(require_value(&mut rest, "--profile-out", "a path").into());
            } else if spec_path.is_none() {
                spec_path = Some(a);
            } else {
                eprintln!("ripsim: unexpected argument {a}");
                std::process::exit(2);
            }
        }
        let Some(path) = spec_path else {
            eprintln!("ripsim: plane-worker needs a spec file");
            std::process::exit(2);
        };
        let (Some(worker), Some(planes)) = (worker, planes) else {
            eprintln!("ripsim: plane-worker needs --worker and --planes");
            std::process::exit(2);
        };
        wopts.worker = worker;
        wopts.planes = planes;
        let mut spec = load_spec(path);
        if epoch.is_some() {
            spec.epoch_ps = epoch;
        }
        if let Err(e) = run_plane_worker(&spec, &wopts) {
            eprintln!("ripsim: plane-worker FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("collect") {
        let mut spec_path: Option<&str> = None;
        let mut epoch: Option<u64> = None;
        let mut copts = CollectOptions {
            timeout_ms: 30_000,
            ..CollectOptions::default()
        };
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            if a == "--oracle" {
                copts.oracle = true;
            } else if a == "--from" {
                copts
                    .from
                    .push(require_value(&mut rest, "--from", "a stream file").into());
            } else if a == "--listen" {
                copts.listen = Some(require_value(&mut rest, "--listen", "a bind address").into());
            } else if a == "--port-file" {
                copts.port_file = Some(require_value(&mut rest, "--port-file", "a path").into());
            } else if a == "--timeout-ms" {
                let v = require_value(&mut rest, "--timeout-ms", "milliseconds");
                match v.parse::<u64>() {
                    Ok(ms) => copts.timeout_ms = ms,
                    Err(e) => {
                        eprintln!("ripsim: bad --timeout-ms value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--epoch" {
                let v = require_value(&mut rest, "--epoch", "a period in picoseconds");
                match v.parse::<u64>() {
                    Ok(ps) => epoch = Some(ps),
                    Err(e) => {
                        eprintln!("ripsim: bad --epoch value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--metrics" {
                copts.metrics =
                    Some(require_value(&mut rest, "--metrics", "a bind address").into());
            } else if a == "--metrics-port-file" {
                copts.metrics_port_file =
                    Some(require_value(&mut rest, "--metrics-port-file", "a path").into());
            } else if a == "--metrics-hold-ms" {
                let v = require_value(&mut rest, "--metrics-hold-ms", "milliseconds");
                match v.parse::<u64>() {
                    Ok(ms) => copts.metrics_hold_ms = ms,
                    Err(e) => {
                        eprintln!("ripsim: bad --metrics-hold-ms value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if a == "--profile" {
                copts.prof.profile = true;
            } else if a == "--profile-out" {
                copts.prof.profile_out =
                    Some(require_value(&mut rest, "--profile-out", "a path").into());
            } else if a == "--stage-cap" {
                let v = require_value(&mut rest, "--stage-cap", "a record count");
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => copts.stage_cap = Some(n),
                    Ok(_) => {
                        eprintln!("ripsim: --stage-cap must be positive");
                        std::process::exit(2);
                    }
                    Err(e) => {
                        eprintln!("ripsim: bad --stage-cap value {v}: {e}");
                        std::process::exit(2);
                    }
                }
            } else if spec_path.is_none() {
                spec_path = Some(a);
            } else {
                eprintln!("ripsim: unexpected argument {a}");
                std::process::exit(2);
            }
        }
        let Some(path) = spec_path else {
            eprintln!("ripsim: collect needs a spec file");
            std::process::exit(2);
        };
        let mut spec = load_spec(path);
        if epoch.is_some() {
            spec.epoch_ps = epoch;
        }
        if let Err(e) = run_collect(&spec, &copts) {
            eprintln!("ripsim: collect FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--example-spec") {
        println!(
            "{}",
            serde_json::to_string_pretty(&SimSpec::example()).expect("spec serializes")
        );
        return;
    }
    let Some(path) = args.first() else {
        eprintln!(
            "usage: ripsim <spec.json> | \
             ripsim trace [spec.json] [--chrome <out.json>] \
             [--trace-window <a>:<b>] [--profile [--profile-out <path>]] | \
             ripsim soak [spec.json] [--epoch <ps>] [--metrics <addr>] \
             [--metrics-port-file <path>] [--metrics-hold-ms <ms>] \
             [--inject-channel-fault <ch>] [--checkpoint-every <epochs>] \
             [--checkpoint-path <path>] [--resume <path>] \
             [--profile [--profile-out <path>]] [--flight-dir <dir>] | \
             ripsim plane-worker <spec.json> --worker <id> --planes <i,j,..> \
             [--epoch <ps>] (--connect <addr> | --out <path>) \
             [--profile [--profile-out <path>]] | \
             ripsim collect <spec.json> [--epoch <ps>] (--oracle | --from <file>... | \
             --listen <addr> [--port-file <path>] [--timeout-ms <ms>]) \
             [--metrics <addr>] [--metrics-port-file <path>] \
             [--metrics-hold-ms <ms>] [--stage-cap <n>] \
             [--profile [--profile-out <path>]] | \
             ripsim flight-check <bundle.json> | \
             ripsim --example-spec | ripsim --version | ripsim resilience"
        );
        std::process::exit(2);
    };
    let spec = load_spec(path);
    if let Err(e) = run(&spec) {
        eprintln!("ripsim: {e}");
        std::process::exit(1);
    }
}
