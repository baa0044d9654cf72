//! The fleet collector/worker driver: run SPS plane subsets in
//! separate processes and reassemble one byte-identical telemetry
//! stream and report.
//!
//! ## Wire protocol (`rip-fleet/v3`)
//!
//! A worker pushes one length-framed stream (see
//! [`rip_telemetry::LengthFramedWriter`]). Every frame is either one
//! JSON line without its newline or one binary departure block. Every
//! JSON line is one `{"record":"<kind>",…}` envelope
//! ([`rip_telemetry::RecordLine`]):
//!
//! 1. `fleet_hello`: the worker's identity, its owned plane subset
//!    (strictly ascending), and the exact spec it ran, which the
//!    collector compares against its own (`"schema":"rip-fleet/v3",
//!    "worker":W,"planes":[..],"echo":<config echo>`);
//! 2. for each owned plane, ascending: the plane's telemetry lines
//!    exactly as [`rip_telemetry::JsonlSink`] emits them (sources
//!    already renamed `planeNN`), then a `plane_done` line holding the
//!    fields of the plane's [`rip_core::PlaneResult`] (`"plane":N,
//!    "fe_packets":..,"fe_bytes":..,"report":<SwitchReport>`) with
//!    `report.departures` empty (`""`), then the plane's departures in
//!    delivery order as departure blocks (none when it delivered
//!    nothing);
//! 3. when the worker profiled itself, its recent wall-clock profile
//!    records as `profile` lines ([`ProfileRecord::write_line`]) — a
//!    bounded best-effort sidecar the collector routes into its own
//!    [`rip_telemetry::ProfileHub`] (source renamed `wNN/<source>`) and
//!    that never enters the deterministic merge;
//! 4. `fleet_end`, naming the worker again (`"worker":W`).
//!
//! The collector reads each line's kind once and decodes the line
//! straight into its kind's type (no `Value` tree). A line whose first
//! key is not `record` is a typed [`LineError`].
//!
//! ### Departure blocks
//!
//! A block carries at most [`BLOCK_DEPARTURES`] departures of one
//! plane:
//!
//! - the tag byte [`BLOCK_TAG`] (`0xFF`, which never occurs in UTF-8,
//!   so no JSON line starts with it);
//! - LEB128 varints: the plane, the index of the block's first
//!   departure in the plane's log, and the count;
//! - the departures in `rip-core`'s departure encoding
//!   ([`rip_core::DepartureEncoder`]: packet-id, time and
//!   `time − arrival` deltas, then the lane), its deltas restarting
//!   from 0 in each block so that a block decodes alone.
//!
//! A departure takes at least [`MIN_DEPARTURE_BYTES`] and at most
//! [`rip_core::MAX_DEPARTURE_BYTES`] (40) bytes, so a block frame stays
//! under 2.7 MB however long the run: the largest frame of a stream
//! does not grow with the horizon, and the collector reserves room for
//! a block's departures only after checking that its frame can hold
//! them. The same encoding, base64 over a whole log, is the log's JSON
//! form in reports, but a stream of raw blocks needs neither base64
//! nor one string as long as the log, so the departures travel as
//! binary and the collector decodes each block straight into the
//! pending plane's `report.departures`. A block before its plane's
//! `plane_done`, for another plane, with a wrong first index, a
//! truncated, overflowing or non-minimal varint, a lane above
//! `u32::MAX`, or trailing bytes, and a plane whose decoded departures
//! differ in number from its `delivered_packets`, are
//! [`CollectError::Protocol`] errors.
//!
//! The collector buffers a stream's contribution and **commits it only
//! at `fleet_end`**: a worker that dies mid-stream leaves no partial
//! state behind, so its replacement (or reconnect) re-sends the whole
//! subset and the merge is unaffected. EOF before `fleet_end` is the
//! typed [`CollectError::WorkerTruncated`].
//!
//! ## Why the merged output is byte-identical to the oracle
//!
//! `SpsRouter::run` ends in [`rip_core::SpsRouter::finish_run`]: it
//! replays per-plane staging buffers in ascending plane order and
//! closes with an `sps` `run_end` carrying the stitched registry. Plane
//! simulations are fully self-contained, so each worker's staged
//! records equal the oracle's for its planes; [`Collector::finish`]
//! hands the committed planes' pushed results and staged records to
//! the same `finish_run` — the same replay and fold, in the same order,
//! over the same values.
//! Line `records` counters are recomputed by the consumer's own
//! `JsonlSink` (the wire deliberately does not carry them: no single
//! worker can know how many lines the planes before its own
//! contributed).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};

use rip_core::{
    put_varint, ConfigError, DepartureCodecError, DepartureDecoder, DepartureEncoder, FaultPlan,
    LiveOptions, PacketDeparture, PlaneResult, SpsReport, SpsRouter, SpsWorkload,
    MIN_DEPARTURE_BYTES,
};
use rip_telemetry::{
    parse_plane_source, plane_source_name, prof_add, prof_lap, prof_now, read_record, write_record,
    EngineProfiler, FrameError, JsonlSink, LengthFramedReader, LengthFramedWriter, LineError,
    MemorySink, Phase, ProfileHub, ProfileRecord, RecordLine, SinkRecord, TelemetrySink,
};
use rip_units::SimTime;
use serde::{Deserialize, Serialize, Value};

/// The wire schema tag every `fleet_hello` must carry.
pub const FLEET_SCHEMA: &str = "rip-fleet/v3";

/// First byte of every departure block frame. It never occurs in
/// UTF-8, so no JSON line can start with it.
pub const BLOCK_TAG: u8 = 0xFF;

/// Most departures one block frame carries.
pub const BLOCK_DEPARTURES: usize = 65_536;

/// Everything a worker or collector needs to know about the run —
/// built identically on both sides from the shared spec file.
pub struct FleetJob<'a> {
    /// The router (both sides construct it from the same config).
    pub router: &'a SpsRouter,
    /// The workload.
    pub workload: &'a SpsWorkload,
    /// Fault plan (usually empty for fleet runs).
    pub plan: &'a FaultPlan,
    /// Arrival horizon.
    pub horizon: SimTime,
    /// Live-telemetry options — the fleet protocol *is* the live
    /// stream, so these are mandatory.
    pub live: LiveOptions,
    /// JSON echo of the originating spec; the collector refuses
    /// workers whose echo differs (they simulated a different run).
    pub echo: Value,
}

/// Everything that can go wrong pushing or collecting a fleet stream.
#[derive(Debug)]
pub enum CollectError {
    /// The plane subset or router configuration was rejected.
    Config(ConfigError),
    /// Plain I/O failure (connect, write, accept).
    Io(io::Error),
    /// The framed stream was malformed (truncated or oversize frame).
    Frame(FrameError),
    /// A frame held bytes that do not parse as a protocol line.
    Line(LineError),
    /// A stream violated the protocol (wrong first record, bad schema,
    /// a plane outside the worker's declared subset, ...).
    Protocol(String),
    /// A worker's config echo differs from the collector's spec.
    EchoMismatch {
        /// The offending worker id.
        worker: u64,
    },
    /// Two committed workers both claimed a plane.
    PlaneConflict {
        /// The doubly-claimed plane.
        plane: usize,
        /// The worker whose commit collided.
        worker: u64,
    },
    /// `finish` was called with planes still missing.
    Coverage {
        /// Planes no committed worker delivered.
        missing: Vec<usize>,
    },
    /// A stream ended before its `fleet_end` — the worker died or the
    /// connection was cut. Nothing from the stream was committed.
    WorkerTruncated {
        /// The worker id, when the stream got far enough to say it.
        worker: Option<u64>,
    },
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Config(e) => write!(f, "{e}"),
            CollectError::Io(e) => write!(f, "fleet I/O: {e}"),
            CollectError::Frame(e) => write!(f, "fleet framing: {e}"),
            CollectError::Line(e) => write!(f, "fleet line: {e}"),
            CollectError::Protocol(msg) => write!(f, "fleet protocol: {msg}"),
            CollectError::EchoMismatch { worker } => write!(
                f,
                "worker {worker} ran a different spec (config echo mismatch)"
            ),
            CollectError::PlaneConflict { plane, worker } => write!(
                f,
                "worker {worker} claims plane {plane}, already delivered by another worker"
            ),
            CollectError::Coverage { missing } => {
                write!(f, "no worker delivered planes {missing:?}")
            }
            CollectError::WorkerTruncated { worker } => match worker {
                Some(w) => write!(f, "worker {w}'s stream ended before fleet_end"),
                None => write!(f, "a worker stream ended before its fleet_hello completed"),
            },
        }
    }
}

impl std::error::Error for CollectError {}

impl From<ConfigError> for CollectError {
    fn from(e: ConfigError) -> Self {
        CollectError::Config(e)
    }
}

impl From<io::Error> for CollectError {
    fn from(e: io::Error) -> Self {
        CollectError::Io(e)
    }
}

impl From<FrameError> for CollectError {
    fn from(e: FrameError) -> Self {
        CollectError::Frame(e)
    }
}

/// Only departure blocks carry the codec's bytes on the wire.
impl From<DepartureCodecError> for CollectError {
    fn from(e: DepartureCodecError) -> Self {
        CollectError::Protocol(format!("departure block {e}"))
    }
}

impl From<LineError> for CollectError {
    fn from(e: LineError) -> Self {
        CollectError::Line(e)
    }
}

/// Run `planes` of the job and push the framed fleet stream into
/// `out`. Returns the writer (flushed) so a caller can keep the
/// underlying connection. This is the whole worker: everything else is
/// argument parsing.
pub fn push_worker_stream<W: Write>(
    job: &FleetJob<'_>,
    worker: u64,
    planes: &[usize],
    out: W,
) -> Result<W, CollectError> {
    let runs =
        job.router
            .run_planes(job.workload, job.horizon, job.plan, Some(job.live), planes)?;
    let mut framed = LengthFramedWriter::new(out);
    // One reused buffer for every control line: a plane's report
    // (megabytes on a big plane) is written into it once and framed
    // whole, never through intermediate strings.
    let mut line = String::new();
    let hello = FleetHello {
        schema: FLEET_SCHEMA.to_string(),
        worker,
        planes: planes.iter().map(|&p| p as u64).collect(),
        echo: job.echo.clone(),
    };
    write_record(&mut line, "fleet_hello", &hello);
    framed.write_frame(line.as_bytes())?;
    for (mut result, staged) in runs {
        {
            // The sink writes the plane's lines through the framer —
            // byte-for-byte the lines the oracle's merged stream holds
            // for this plane (except `run_end.records`, recomputed by
            // the collector's sink).
            let mut sink = JsonlSink::new(&mut framed);
            staged.replay_renamed(&plane_source_name(result.plane), &mut sink);
        }
        // The result without its departures, which follow as blocks.
        let departures = std::mem::take(&mut result.report.departures);
        line.clear();
        write_record(&mut line, "plane_done", &result);
        framed.write_frame(line.as_bytes())?;
        write_departure_blocks(&mut framed, result.plane, &departures)?;
    }
    // Wall-clock sidecar: when the router carries a profile hub (the
    // worker ran with `--profile`), ship its recent records as control
    // lines. The collector feeds them into its own hub — they are not
    // staged, not merged, and cannot perturb the deterministic stream.
    if let Some(hub) = job.router.profile_hub() {
        for rec in hub.recent() {
            line.clear();
            rec.write_line(&mut line);
            framed.write_frame(line.as_bytes())?;
        }
    }
    line.clear();
    write_record(&mut line, "fleet_end", &FleetEnd { worker });
    framed.write_frame(line.as_bytes())?;
    framed.flush()?;
    Ok(framed.into_inner())
}

/// The first line of a worker stream.
#[derive(Serialize, Deserialize)]
struct FleetHello {
    /// Always [`FLEET_SCHEMA`].
    schema: String,
    worker: u64,
    /// The planes the worker runs, strictly ascending.
    planes: Vec<u64>,
    /// The worker's config echo.
    echo: Value,
}

/// The last line of a worker stream: it commits the stream.
#[derive(Serialize, Deserialize)]
struct FleetEnd {
    worker: u64,
}

/// The merged outcome of a completed collection.
pub struct FleetOutcome {
    /// The stitched router-level report — byte-identical to the
    /// single-process run's.
    pub report: SpsReport,
    /// Telemetry records replayed into the sink (excluding the final
    /// `sps` `run_end` the replay closes with).
    pub records: u64,
}

/// Reassembles worker streams into the single-process telemetry stream
/// and report. Feed each worker's stream to [`Collector::ingest`]
/// (any order, any interleaving of workers across streams), then call
/// [`Collector::finish`] once every plane is covered.
pub struct Collector {
    echo: Value,
    switches: usize,
    /// Each committed plane: the worker that delivered it, its result
    /// and its staged records in emission order.
    committed: BTreeMap<usize, (u64, PlaneResult, MemorySink)>,
    workers: BTreeSet<u64>,
    prof: Option<EngineProfiler>,
}

impl Collector {
    /// A collector for a router with `switches` planes, expecting
    /// workers whose config echo equals `echo`.
    pub fn new(echo: Value, switches: usize) -> Self {
        Collector {
            echo,
            switches,
            committed: BTreeMap::new(),
            workers: BTreeSet::new(),
            prof: None,
        }
    }

    /// Attach the wall-clock self-profiler: ingest laps frame decode
    /// and staging, finish laps the merge replay, flushing into `hub`
    /// under source `collect`. Worker-pushed `profile` control lines
    /// are routed into the same hub with a `wNN/` source prefix.
    /// Profiling never alters the merged stream or the report.
    pub fn with_profiler(mut self, hub: ProfileHub) -> Self {
        self.prof = Some(EngineProfiler::new(hub, "collect"));
        self
    }

    /// Planes committed so far, ascending.
    pub fn committed_planes(&self) -> Vec<usize> {
        self.committed.keys().copied().collect()
    }

    /// Planes no committed worker has delivered yet, ascending.
    pub fn missing_planes(&self) -> Vec<usize> {
        (0..self.switches)
            .filter(|p| !self.committed.contains_key(p))
            .collect()
    }

    /// Workers whose streams committed.
    pub fn workers_done(&self) -> usize {
        self.workers.len()
    }

    /// Records staged across all committed planes.
    pub fn staged_records(&self) -> usize {
        self.committed
            .values()
            .map(|(_, _, staged)| staged.records().len())
            .sum()
    }

    /// Consume one worker stream to completion; returns the worker id
    /// once its `fleet_end` commits the contribution. On any error the
    /// stream's partial contribution is discarded — the worker (or its
    /// replacement) can push again.
    pub fn ingest<R: Read>(&mut self, stream: R) -> Result<u64, CollectError> {
        let mut reader = LengthFramedReader::new(stream);
        // --- fleet_hello ------------------------------------------------
        let mut t0 = prof_now(&self.prof);
        let first = match reader.read_frame()? {
            Some(frame) => frame,
            None => return Err(CollectError::WorkerTruncated { worker: None }),
        };
        let hello: FleetHello = read_record(&utf8(first)?, "fleet_hello").map_err(|e| {
            CollectError::Protocol(format!("stream must open with fleet_hello: {e}"))
        })?;
        prof_lap(&mut self.prof, Phase::FrameDecode, &mut t0);
        if hello.schema != FLEET_SCHEMA {
            return Err(CollectError::Protocol(format!(
                "unsupported fleet schema {:?} (want {FLEET_SCHEMA:?})",
                hello.schema
            )));
        }
        let FleetHello {
            worker,
            planes,
            echo,
            ..
        } = hello;
        if echo != self.echo {
            return Err(CollectError::EchoMismatch { worker });
        }
        let owned: BTreeSet<usize> = planes.iter().map(|&p| p as usize).collect();
        if owned.is_empty() || owned.len() != planes.len() {
            return Err(CollectError::Protocol(format!(
                "worker {worker} declares an empty or duplicated plane set"
            )));
        }
        if let Some(&worst) = owned.iter().find(|&&p| p >= self.switches) {
            return Err(CollectError::Protocol(format!(
                "worker {worker} declares plane {worst}, router has {}",
                self.switches
            )));
        }
        // --- telemetry + plane_done until fleet_end ---------------------
        let mut staged: BTreeMap<usize, MemorySink> = BTreeMap::new();
        let mut done: BTreeMap<usize, PlaneResult> = BTreeMap::new();
        // The plane whose `plane_done` came last, while its departure
        // blocks arrive; any other frame closes it.
        let mut pending: Option<PlaneResult> = None;
        loop {
            let mut t0 = prof_now(&self.prof);
            // Once the hello has identified the worker, both ways its
            // stream can die — EOF at a frame boundary or EOF mid-frame
            // — are the same typed condition, carrying the id.
            let frame = match reader.read_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) | Err(FrameError::Truncated { .. }) => {
                    return Err(CollectError::WorkerTruncated {
                        worker: Some(worker),
                    })
                }
                Err(e) => return Err(e.into()),
            };
            if frame.first() == Some(&BLOCK_TAG) {
                // The bulk of the stream: decoded straight into the
                // pending plane's log.
                let result = pending.as_mut().ok_or_else(|| {
                    CollectError::Protocol(format!(
                        "worker {worker} sent a departure block before its plane_done"
                    ))
                })?;
                decode_block(&frame, result.plane, &mut result.report.departures)?;
                prof_lap(&mut self.prof, Phase::FrameDecode, &mut t0);
                continue;
            }
            if let Some(result) = pending.take() {
                let (plane, report) = (result.plane, &result.report);
                if report.departures.len() as u64 != report.delivered_packets {
                    return Err(CollectError::Protocol(format!(
                        "plane {plane} sent {} departures for {} delivered packets",
                        report.departures.len(),
                        report.delivered_packets
                    )));
                }
                done.insert(plane, result);
            }
            let text = utf8(frame)?;
            let line = RecordLine::read(&text)?;
            match line.kind() {
                "plane_done" => {
                    let result: PlaneResult = line.decode()?;
                    prof_lap(&mut self.prof, Phase::FrameDecode, &mut t0);
                    let plane = result.plane;
                    if !owned.contains(&plane) {
                        return Err(CollectError::Protocol(format!(
                            "worker {worker} finished plane {plane}, outside its declared set"
                        )));
                    }
                    if !result.report.departures.is_empty() {
                        return Err(CollectError::Protocol(format!(
                            "plane {plane}'s plane_done carries departures; {FLEET_SCHEMA} sends them as blocks"
                        )));
                    }
                    pending = Some(result);
                }
                "fleet_end" => {
                    let end: FleetEnd = line.decode()?;
                    if end.worker != worker {
                        return Err(CollectError::Protocol(format!(
                            "worker {worker}'s stream ends as worker {}",
                            end.worker
                        )));
                    }
                    break;
                }
                "profile" => {
                    // Wall-clock sidecar from the worker: route into
                    // the profile hub (when profiling) under a
                    // per-worker source prefix. Never staged, never
                    // merged; an undecodable payload is dropped rather
                    // than failing the deterministic collection.
                    if let Some(p) = self.prof.as_ref() {
                        if let Ok(mut rec) = ProfileRecord::read_line(&text) {
                            rec.source = format!("w{worker:02}/{}", rec.source);
                            p.hub().record(rec);
                        }
                    }
                }
                kind => {
                    let rec = SinkRecord::from_line(&line)?.ok_or_else(|| {
                        CollectError::Protocol(format!(
                            "unknown control record {kind:?} from worker {worker}"
                        ))
                    })?;
                    prof_lap(&mut self.prof, Phase::FrameDecode, &mut t0);
                    let source = rec.view().0;
                    let plane = parse_plane_source(source).ok_or_else(|| {
                        CollectError::Protocol(format!(
                            "worker {worker} pushed a record for non-plane source {source:?}"
                        ))
                    })?;
                    if !owned.contains(&plane) {
                        return Err(CollectError::Protocol(format!(
                            "worker {worker} pushed plane {plane}, outside its declared set"
                        )));
                    }
                    staged.entry(plane).or_default().push_record(rec);
                    prof_add(&mut self.prof, Phase::Staging, t0);
                }
            }
        }
        // --- commit -----------------------------------------------------
        let tc = prof_now(&self.prof);
        for &plane in &owned {
            if !done.contains_key(&plane) {
                return Err(CollectError::Protocol(format!(
                    "worker {worker} sent fleet_end without plane_done for plane {plane}"
                )));
            }
            // Same worker re-pushing (reconnect after a partial stream
            // that never committed, or an idempotent retry): the new
            // stream replaces the old contribution below.
            if let Some(&(owner, ..)) = self.committed.get(&plane) {
                if owner != worker {
                    return Err(CollectError::PlaneConflict { plane, worker });
                }
            }
        }
        for (plane, result) in done {
            let records = staged.remove(&plane).unwrap_or_default();
            self.committed.insert(plane, (worker, result, records));
        }
        self.workers.insert(worker);
        prof_add(&mut self.prof, Phase::Staging, tc);
        // One profile record per committed stream keeps the hub's
        // per-epoch view aligned with worker arrivals.
        if let Some(p) = self.prof.as_mut() {
            p.flush_nonempty();
        }
        Ok(worker)
    }

    /// Replay the merged stream (planes ascending, records in emission
    /// order) into `sink` and close it with the stitched `sps`
    /// `run_end` through [`SpsRouter::finish_run`] — the byte-identical
    /// reconstruction of the single-process `SpsRouter::run` output.
    /// Fails with [`CollectError::Coverage`] when planes are missing.
    pub fn finish(
        self,
        router: &SpsRouter,
        horizon: SimTime,
        sink: &mut dyn TelemetrySink,
    ) -> Result<FleetOutcome, CollectError> {
        let missing = self.missing_planes();
        if !missing.is_empty() {
            return Err(CollectError::Coverage { missing });
        }
        let records = self.staged_records() as u64;
        let mut prof = self.prof;
        let t0 = prof_now(&prof);
        let planes = self.committed.into_values().map(|(_, r, s)| (r, s));
        let report = router.finish_run(planes, horizon, Some(sink));
        prof_add(&mut prof, Phase::MergeReplay, t0);
        if let Some(p) = prof.as_mut() {
            p.flush_nonempty();
        }
        Ok(FleetOutcome { report, records })
    }
}

/// Write `departures`, the delivery log of `plane`, into `out` as
/// departure block frames of at most [`BLOCK_DEPARTURES`] each (none
/// when the log is empty). See the module docs for the layout.
pub fn write_departure_blocks<W: Write>(
    out: &mut LengthFramedWriter<W>,
    plane: usize,
    departures: &[PacketDeparture],
) -> io::Result<()> {
    let mut block = Vec::new();
    for (i, chunk) in departures.chunks(BLOCK_DEPARTURES).enumerate() {
        block.clear();
        block.push(BLOCK_TAG);
        put_varint(&mut block, plane as u64);
        put_varint(&mut block, (i * BLOCK_DEPARTURES) as u64);
        put_varint(&mut block, chunk.len() as u64);
        let mut enc = DepartureEncoder::default();
        for d in chunk {
            enc.put(&mut block, d);
        }
        out.write_frame(&block)?;
    }
    Ok(())
}

/// Decode one departure block frame of `plane` and append its
/// departures to `departures`, whose length must be the block's first
/// index. Any frame that [`write_departure_blocks`] could not have
/// written is a [`CollectError::Protocol`] error; on an error,
/// `departures` may hold part of the block. Room is reserved only for
/// as many departures as the frame's bytes can hold.
pub fn decode_block(
    frame: &[u8],
    plane: usize,
    departures: &mut Vec<PacketDeparture>,
) -> Result<(), CollectError> {
    let Some((&BLOCK_TAG, body)) = frame.split_first() else {
        return Err(CollectError::Protocol("not a departure block".into()));
    };
    let mut r = DepartureDecoder::new(body);
    let got = r.varint()?;
    if got != plane as u64 {
        return Err(CollectError::Protocol(format!(
            "departure block for plane {got} while plane {plane} is pending"
        )));
    }
    let first = r.varint()?;
    if first != departures.len() as u64 {
        return Err(CollectError::Protocol(format!(
            "plane {plane}'s departure block starts at {first}, want {}",
            departures.len()
        )));
    }
    let count = r.varint()?;
    let room = r.remaining() / MIN_DEPARTURE_BYTES;
    if count == 0 || count > BLOCK_DEPARTURES as u64 || count > room as u64 {
        return Err(CollectError::Protocol(format!(
            "departure block of {count} departures in {} bytes (at most {BLOCK_DEPARTURES})",
            frame.len()
        )));
    }
    departures.reserve(count as usize);
    for _ in 0..count {
        departures.push(r.departure()?);
    }
    if r.remaining() != 0 {
        return Err(CollectError::Protocol(format!(
            "departure block has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(())
}

/// A frame's text; a frame that is not UTF-8 is a protocol error.
fn utf8(frame: Vec<u8>) -> Result<String, CollectError> {
    String::from_utf8(frame).map_err(|_| CollectError::Protocol("frame is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_core::RouterConfig;
    use rip_photonics::SplitPattern;
    use rip_telemetry::{MemorySink, Watchdog, WatchdogConfig};
    use rip_units::TimeDelta;

    fn job_parts() -> (
        SpsRouter,
        SpsWorkload,
        FaultPlan,
        SimTime,
        LiveOptions,
        Value,
    ) {
        let cfg = RouterConfig::small();
        let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
        let w = SpsWorkload::uniform(cfg.ribbons, 0.7, 7);
        let horizon = SimTime::from_ns(30_000);
        let live = LiveOptions {
            period: TimeDelta::from_ps(2_000_000),
            sample_one_in: 256,
        };
        let echo = serde_json::parse("{\"spec\":\"test\"}").expect("echo parses");
        (router, w, FaultPlan::default(), horizon, live, echo)
    }

    fn oracle_stream(
        router: &SpsRouter,
        w: &SpsWorkload,
        plan: &FaultPlan,
        horizon: SimTime,
        live: LiveOptions,
    ) -> (Vec<u8>, SpsReport) {
        let mut bytes = Vec::new();
        let report = {
            let sink = JsonlSink::new(&mut bytes);
            let (mut wd, _handle) = Watchdog::new(WatchdogConfig::default(), sink);
            router
                .run(w, horizon, plan, Some((live, &mut wd)))
                .expect("valid plan")
        };
        (bytes, report)
    }

    fn collect_stream(
        router: &SpsRouter,
        horizon: SimTime,
        collector: Collector,
    ) -> (Vec<u8>, SpsReport) {
        let mut bytes = Vec::new();
        let report = {
            let sink = JsonlSink::new(&mut bytes);
            let (mut wd, _handle) = Watchdog::new(WatchdogConfig::default(), sink);
            collector
                .finish(router, horizon, &mut wd)
                .expect("full coverage")
                .report
        };
        (bytes, report)
    }

    #[test]
    fn two_partitionings_are_byte_identical_to_the_oracle() {
        let (router, w, plan, horizon, live, echo) = job_parts();
        let job = FleetJob {
            router: &router,
            workload: &w,
            plan: &plan,
            horizon,
            live,
            echo: echo.clone(),
        };
        let (oracle, oracle_report) = oracle_stream(&router, &w, &plan, horizon, live);
        let planes = RouterConfig::small().switches;
        let partitionings: Vec<Vec<Vec<usize>>> = vec![
            // one worker per plane
            (0..planes).map(|p| vec![p]).collect(),
            // split in two: even-ish halves, deliberately interleaved
            vec![
                (0..planes).step_by(2).collect(),
                (1..planes).step_by(2).collect(),
            ],
        ];
        for partition in partitionings {
            let mut collector = Collector::new(echo.clone(), planes);
            // Ingest in reverse worker order to prove arrival order is
            // irrelevant.
            let mut streams: Vec<Vec<u8>> = Vec::new();
            for (worker, subset) in partition.iter().enumerate() {
                let out = push_worker_stream(&job, worker as u64, subset, Vec::new())
                    .expect("worker pushes");
                streams.push(out);
            }
            for stream in streams.iter().rev() {
                collector.ingest(&stream[..]).expect("stream ingests");
            }
            let (merged, report) = collect_stream(&router, horizon, collector);
            assert_eq!(
                String::from_utf8(merged).expect("utf8"),
                String::from_utf8(oracle.clone()).expect("utf8"),
                "merged stream diverges for partition {partition:?}"
            );
            assert_eq!(
                serde_json::to_string(&report).expect("report serializes"),
                serde_json::to_string(&oracle_report).expect("report serializes"),
            );
        }
    }

    #[test]
    fn truncated_stream_is_typed_and_uncommitted() {
        let (router, w, plan, horizon, live, echo) = job_parts();
        let job = FleetJob {
            router: &router,
            workload: &w,
            plan: &plan,
            horizon,
            live,
            echo: echo.clone(),
        };
        let all: Vec<usize> = (0..RouterConfig::small().switches).collect();
        let full = push_worker_stream(&job, 0, &all, Vec::new()).expect("worker pushes");
        let mut collector = Collector::new(echo.clone(), all.len());
        // Cut the stream before its fleet_end frame.
        match collector.ingest(&full[..full.len() - 8]) {
            Err(CollectError::WorkerTruncated { .. }) | Err(CollectError::Frame(_)) => {}
            other => panic!("want truncation, got {other:?}"),
        }
        assert_eq!(collector.workers_done(), 0);
        assert_eq!(collector.staged_records(), 0);
        // The reconnect re-push commits cleanly.
        collector.ingest(&full[..]).expect("retry ingests");
        assert_eq!(collector.missing_planes(), Vec::<usize>::new());
    }

    #[test]
    fn echo_mismatch_and_plane_conflict_are_typed() {
        let (router, w, plan, horizon, live, echo) = job_parts();
        let job = FleetJob {
            router: &router,
            workload: &w,
            plan: &plan,
            horizon,
            live,
            echo: echo.clone(),
        };
        let stream = push_worker_stream(&job, 0, &[0], Vec::new()).expect("worker pushes");
        let planes = RouterConfig::small().switches;
        let mut wrong = Collector::new(Value::Null, planes);
        assert!(matches!(
            wrong.ingest(&stream[..]),
            Err(CollectError::EchoMismatch { worker: 0 })
        ));
        let mut collector = Collector::new(echo.clone(), planes);
        collector.ingest(&stream[..]).expect("first claim");
        let rival = push_worker_stream(&job, 1, &[0], Vec::new()).expect("worker pushes");
        assert!(matches!(
            collector.ingest(&rival[..]),
            Err(CollectError::PlaneConflict {
                plane: 0,
                worker: 1
            })
        ));
        // An idempotent re-push by the owner is fine.
        collector.ingest(&stream[..]).expect("owner re-push");
    }

    #[test]
    fn committed_planes_replay_in_plane_order() {
        let (router, w, plan, horizon, live, echo) = job_parts();
        let job = FleetJob {
            router: &router,
            workload: &w,
            plan: &plan,
            horizon,
            live,
            echo: echo.clone(),
        };
        let planes = RouterConfig::small().switches;
        let mut collector = Collector::new(echo, planes);
        // One worker per plane, committed in a scrambled order.
        for plane in (0..planes).rev().step_by(2).chain((0..planes).step_by(2)) {
            let stream = push_worker_stream(&job, plane as u64, &[plane], Vec::new())
                .expect("worker pushes");
            collector.ingest(&stream[..]).expect("stream ingests");
        }
        let staged = collector.staged_records();
        let mut sink = MemorySink::new();
        let outcome = collector
            .finish(&router, horizon, &mut sink)
            .expect("full coverage");
        assert_eq!(outcome.records as usize, staged);
        // Every staged record, then the `sps` close.
        let sources: Vec<&str> = sink.records().iter().map(|r| r.view().0).collect();
        assert_eq!(sources.len(), staged + 1);
        assert_eq!(sources.last(), Some(&"sps"));
        let order: Vec<&str> = sources.iter().copied().fold(Vec::new(), |mut seen, s| {
            if seen.last() != Some(&s) {
                seen.push(s);
            }
            seen
        });
        let want: Vec<String> = (0..planes).map(plane_source_name).collect();
        assert_eq!(
            order[..planes],
            want[..],
            "planes replay in ascending order"
        );
    }

    #[test]
    fn missing_planes_fail_coverage() {
        let (router, w, plan, horizon, live, echo) = job_parts();
        let job = FleetJob {
            router: &router,
            workload: &w,
            plan: &plan,
            horizon,
            live,
            echo: echo.clone(),
        };
        let planes = RouterConfig::small().switches;
        let mut collector = Collector::new(echo, planes);
        let stream = push_worker_stream(&job, 0, &[0], Vec::new()).expect("worker pushes");
        collector.ingest(&stream[..]).expect("ingests");
        let missing = collector.missing_planes();
        assert_eq!(missing, (1..planes).collect::<Vec<_>>());
        let mut sink = MemorySink::new();
        match collector.finish(&router, horizon, &mut sink) {
            Err(CollectError::Coverage { missing: m }) => assert_eq!(m, missing),
            other => panic!(
                "want coverage error, got {:?}",
                other.map(|o| o.report.offered)
            ),
        }
    }
}
