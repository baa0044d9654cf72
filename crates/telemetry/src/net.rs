//! Network telemetry: a std-only scrape endpoint and a push framing.
//!
//! [`MetricsEndpoint`] is a [`TelemetrySink`] that is also its own
//! scrape server. It binds a `TcpListener` (port 0 gives an ephemeral
//! port — CI uses that), accumulates epoch deltas into one cumulative
//! registry per source, and answers any HTTP GET with the current
//! totals as `text/plain` Prometheus exposition, so a scrape during a
//! soak sees the run's current totals. Clones share one state and one
//! accept thread; the thread shuts down (via a self-connect poke) when
//! the last clone drops, so the whole exporter stays inside `std` — no
//! async runtime, no HTTP dependency.
//!
//! [`LengthFramedWriter`] adapts any `Write` into the collector push
//! format: each newline-terminated record (e.g. a [`crate::JsonlSink`]
//! line) is re-emitted as a `u32` big-endian byte length followed by
//! the record bytes without the newline. `JsonlSink<LengthFramedWriter
//! <TcpStream>>` therefore pushes length-framed JSONL epoch deltas to a
//! collector with no new serialization code.
//!
//! [`LengthFramedReader`] is the receiving half: it decodes that wire
//! format back into whole records with typed errors for truncated and
//! oversized frames, and its decode state survives transient I/O errors
//! (a read timeout mid-frame can be retried without losing bytes).
//! [`FrameListener`] is the std-only accept machinery a collector
//! binary polls for incoming worker pushes.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sink::{render_registries, Exposition};
use crate::{MetricsRegistry, ProfileHub, Record, TelemetrySink};

/// The live stream's Prometheus scrape endpoint: a [`TelemetrySink`]
/// that serves what it has received.
///
/// Every connection gets one `HTTP/1.0 200` `text/plain` response,
/// rendered at scrape time, and is closed — exactly what a Prometheus
/// scraper (or `bash /dev/tcp`, as ci.sh does) needs. The body is the
/// build-info families (once [`MetricsEndpoint::set_build_info`] is
/// called), one cumulative registry per source (`run_end` totals are
/// authoritative) and the attached profiler's families.
#[derive(Clone)]
pub struct MetricsEndpoint {
    state: Arc<Mutex<Exported>>,
    server: Arc<Server>,
}

/// What a scrape renders.
#[derive(Default)]
struct Exported {
    info: Option<BuildInfo>,
    cumulative: BTreeMap<String, MetricsRegistry>,
    /// Self-profiling families as `<prefix>_profile_*` (wall-clock
    /// exporter metadata, like the build info — never simulation
    /// telemetry).
    profile: Option<(String, ProfileHub)>,
}

/// Build metadata served ahead of the registries.
struct BuildInfo {
    service: String,
    version: String,
    started: Instant,
}

impl Exported {
    /// The scrape body. Uptime is wall-clock by design — it is
    /// scrape-time exporter metadata, not simulation telemetry.
    fn render(&self) -> String {
        let mut out = Exposition::default();
        if let Some(info) = &self.info {
            let name = format!("{}_build_info", info.service);
            out.family(&name, "gauge", "Build metadata of the serving binary");
            out.sample(&name, &[("version", &info.version)], 1);
            let name = format!("{}_uptime_seconds", info.service);
            out.family(
                &name,
                "gauge",
                "Wall-clock seconds since the exporter started",
            );
            let secs = info.started.elapsed().as_secs_f64();
            out.sample(&name, &[], format_args!("{secs:.3}"));
        }
        render_registries(&self.cumulative, &mut out);
        if let Some((prefix, hub)) = &self.profile {
            hub.write_prometheus(prefix, &mut out);
        }
        out.into_string()
    }
}

/// The accept thread, stopped and joined when the last endpoint clone
/// drops.
struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Poke the blocking accept so the thread observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl MetricsEndpoint {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving scrapes.
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state: Arc<Mutex<Exported>> = Arc::default();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (state_t, shutdown_t) = (state.clone(), shutdown.clone());
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if shutdown_t.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                // Drain whatever request line arrived (best effort; the
                // response does not depend on it).
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf);
                let text = lock(&state_t).render();
                let _ = write!(
                    stream,
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    text.len(),
                    text
                );
                let _ = stream.flush();
            }
        });
        let server = Server {
            addr,
            shutdown,
            handle: Some(handle),
        };
        Ok(MetricsEndpoint {
            state,
            server: Arc::new(server),
        })
    }

    /// The bound address (reports the real port after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.addr
    }

    /// Serve `<service>_build_info{version="..."} 1` and a
    /// `<service>_uptime_seconds` gauge ahead of the registries.
    /// `service` must already be a valid metric-name prefix
    /// (`[a-zA-Z_][a-zA-Z0-9_]*`, e.g. `ripsim`); the version label is
    /// escaped per the exposition grammar.
    pub fn set_build_info(&self, service: &str, version: &str) {
        debug_assert!(
            !service.is_empty()
                && service
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !service.starts_with(|c: char| c.is_ascii_digit()),
            "service must be a valid metric-name prefix"
        );
        lock(&self.state).info = Some(BuildInfo {
            service: service.to_string(),
            version: version.to_string(),
            started: Instant::now(),
        });
    }

    /// Serve `<prefix>_profile_*` families rendered from `hub`'s
    /// cumulative totals after the registries. `prefix` must be a valid
    /// metric-name prefix (e.g. `ripsim`).
    pub fn attach_profile_hub(&self, prefix: &str, hub: ProfileHub) {
        lock(&self.state).profile = Some((prefix.to_string(), hub));
    }
}

/// Poison-tolerant lock: a panic on another thread must not cascade a
/// second panic into the export path — the state is a monotone counter
/// set, safe to keep serving.
fn lock(state: &Mutex<Exported>) -> MutexGuard<'_, Exported> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

impl TelemetrySink for MetricsEndpoint {
    fn record(&mut self, source: &str, rec: Record<'_>) {
        // Spans carry no registry state.
        if let Record::Span(_) = rec {
            return;
        }
        let mut state = lock(&self.state);
        let entry = state.cumulative.entry(source.to_string()).or_default();
        match rec {
            Record::Epoch { delta, .. } => entry.apply_delta(delta),
            // Alarm tallies survive as a counter family so silent
            // streams and alarmed streams are distinguishable at
            // scrape time.
            Record::Watchdog(_) => entry.inc("watchdog.alarms", 1),
            Record::RunEnd { totals, .. } => {
                // `totals` is authoritative for the engine's own
                // metrics, but watchdog alarm counts are stream-side
                // observations that the engine registry never carries —
                // preserve them across the overwrite.
                let alarms = entry.counters().get("watchdog.alarms").copied();
                *entry = totals.clone();
                if let Some(n) = alarms {
                    entry.inc("watchdog.alarms", n);
                }
            }
            Record::Span(_) => {}
        }
    }
}

fn write_frame<W: Write>(inner: &mut W, record: &[u8]) -> io::Result<()> {
    let len = u32::try_from(record.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "record exceeds u32 frame"))?;
    inner.write_all(&len.to_be_bytes())?;
    inner.write_all(record)
}

/// Re-frames newline-delimited records as `u32` big-endian length
/// prefixes followed by the record bytes (newline stripped) — the
/// collector push wire format. Partial lines are buffered until their
/// newline arrives; `flush` forwards to the inner writer without
/// emitting incomplete frames.
pub struct LengthFramedWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> LengthFramedWriter<W> {
    /// Frame records into `inner`.
    pub fn new(inner: W) -> Self {
        LengthFramedWriter {
            inner,
            buf: Vec::new(),
        }
    }

    /// Unwrap the inner writer (any incomplete trailing line is
    /// discarded — frames are whole records only).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for LengthFramedWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            // A whole line in one write is framed straight from `data`.
            if self.buf.is_empty() {
                write_frame(&mut self.inner, &rest[..nl])?;
            } else {
                self.buf.extend_from_slice(&rest[..nl]);
                write_frame(&mut self.inner, &self.buf)?;
                self.buf.clear();
            }
            rest = &rest[nl + 1..];
        }
        self.buf.extend_from_slice(rest);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Decode failure on the length-framed push stream.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a frame header or frame body: `got` of
    /// `expected` bytes of the current unit arrived before EOF.
    Truncated {
        /// Bytes the current header/body still needed.
        expected: usize,
        /// Bytes of it that actually arrived.
        got: usize,
    },
    /// A header announced a frame longer than the configured bound —
    /// a corrupt stream or a hostile peer; reading on would buffer
    /// unbounded garbage.
    Oversize {
        /// Announced frame length.
        len: u32,
        /// The configured bound ([`LengthFramedReader::with_max_frame`]).
        max: u32,
    },
    /// The underlying reader failed. Timeout-style errors
    /// (`WouldBlock`/`TimedOut`) are retryable: the reader's decode
    /// state is kept, so the next [`LengthFramedReader::read_frame`]
    /// resumes mid-frame.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => write!(
                f,
                "frame stream truncated: {got}/{expected} bytes of the current unit before EOF"
            ),
            FrameError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Default [`LengthFramedReader`] frame bound: far above any telemetry
/// record the workspace emits, far below anything that could OOM the
/// collector.
pub const MAX_FRAME_BYTES: u32 = 1 << 26; // 64 MiB

/// The receiving half of [`LengthFramedWriter`]: decodes `u32`
/// big-endian length-prefixed frames back into whole records.
///
/// Decode state is kept across calls, so a transient
/// [`FrameError::Io`] (e.g. a socket read timeout mid-frame) can be
/// retried without corrupting the stream position. EOF exactly on a
/// frame boundary is the clean end of stream (`Ok(None)`); EOF anywhere
/// else is [`FrameError::Truncated`].
pub struct LengthFramedReader<R: Read> {
    inner: R,
    max_frame: u32,
    header: [u8; 4],
    header_got: usize,
    body: Vec<u8>,
    body_need: Option<usize>,
}

impl<R: Read> LengthFramedReader<R> {
    /// Decode frames from `inner` with the default
    /// [`MAX_FRAME_BYTES`] bound.
    pub fn new(inner: R) -> Self {
        Self::with_max_frame(inner, MAX_FRAME_BYTES)
    }

    /// Decode frames from `inner`, rejecting frames above `max_frame`
    /// bytes with [`FrameError::Oversize`].
    pub fn with_max_frame(inner: R, max_frame: u32) -> Self {
        LengthFramedReader {
            inner,
            max_frame,
            header: [0; 4],
            header_got: 0,
            body: Vec::new(),
            body_need: None,
        }
    }

    /// Unwrap the inner reader, discarding any partially decoded frame.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// The next whole frame, `Ok(None)` at a clean end of stream.
    pub fn read_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        // Header first (unless a body is already in progress).
        while self.body_need.is_none() {
            if self.header_got == 4 {
                let len = u32::from_be_bytes(self.header);
                if len > self.max_frame {
                    return Err(FrameError::Oversize {
                        len,
                        max: self.max_frame,
                    });
                }
                self.body_need = Some(len as usize);
                self.body.clear();
                break;
            }
            let n = self.inner.read(&mut self.header[self.header_got..4])?;
            if n == 0 {
                if self.header_got == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(FrameError::Truncated {
                    expected: 4,
                    got: self.header_got,
                });
            }
            self.header_got += n;
        }
        let need = self.body_need.expect("body length decoded above");
        while self.body.len() < need {
            let mut chunk = [0u8; 4096];
            let want = (need - self.body.len()).min(chunk.len());
            let n = self.inner.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(FrameError::Truncated {
                    expected: need,
                    got: self.body.len(),
                });
            }
            self.body.extend_from_slice(&chunk[..n]);
        }
        self.header_got = 0;
        self.body_need = None;
        Ok(Some(std::mem::take(&mut self.body)))
    }
}

/// Std-only accept machinery for a collector: a non-blocking
/// `TcpListener` polled between ingest attempts, so a single thread can
/// interleave accepting worker pushes with deadline checks — no async
/// runtime, mirroring [`MetricsEndpoint`].
pub struct FrameListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl FrameListener {
    /// Bind `addr` (`127.0.0.1:0` gives an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(FrameListener { listener, addr })
    }

    /// The bound address (real port after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept one pending connection, or `None` when nobody is waiting.
    /// The returned stream is switched back to blocking mode with
    /// `read_timeout` applied, ready for a [`LengthFramedReader`].
    pub fn poll_accept(&self, read_timeout: std::time::Duration) -> io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(read_timeout))?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_units::SimTime;

    /// One HTTP GET against `addr`, returning the whole response.
    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    }

    /// One epoch whose delta counts `n` switch packets.
    fn record_packets(endpoint: &mut MetricsEndpoint, source: &str, n: u64) {
        let mut reg = MetricsRegistry::new();
        let prev = reg.snapshot(SimTime::ZERO);
        reg.inc("switch.packets", n);
        let delta = reg.snapshot(SimTime::from_ns(100)).delta_since(&prev);
        endpoint.record(
            source,
            Record::Epoch {
                epoch: 0,
                delta: &delta,
            },
        );
    }

    #[test]
    fn server_serves_published_body_on_ephemeral_port() {
        let mut endpoint = MetricsEndpoint::bind("127.0.0.1:0").expect("bind");
        let addr = endpoint.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port must be resolved");
        record_packets(&mut endpoint, "switch", 1);
        let response = scrape(addr);
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain"));
        assert!(
            response.ends_with("rip_switch_packets_total{source=\"switch\"} 1\n"),
            "{response}"
        );
        // A clone keeps serving after the original drops; the last
        // drop joins the accept thread, so returning at all proves the
        // thread stopped.
        let clone = endpoint.clone();
        drop(endpoint);
        assert!(scrape(addr).contains("rip_switch_packets_total"));
        drop(clone);
    }

    #[test]
    fn endpoint_republishes_on_each_epoch() {
        let mut endpoint = MetricsEndpoint::bind("127.0.0.1:0").expect("bind");
        let addr = endpoint.local_addr();
        record_packets(&mut endpoint, "switch", 5);
        assert!(
            scrape(addr).contains("rip_switch_packets_total{source=\"switch\"} 5"),
            "epoch totals must be scrapable mid-run"
        );
        let mut reg = MetricsRegistry::new();
        reg.inc("switch.packets", 7);
        endpoint.record(
            "switch",
            Record::RunEnd {
                at: SimTime::from_ns(200),
                totals: &reg,
            },
        );
        assert!(scrape(addr).contains("rip_switch_packets_total{source=\"switch\"} 7"));
    }

    #[test]
    fn server_prepends_build_info_and_uptime_families() {
        let mut endpoint = MetricsEndpoint::bind("127.0.0.1:0").expect("bind");
        endpoint.set_build_info("ripsim", "1.2.3\"quoted\"");
        record_packets(&mut endpoint, "switch", 1);
        let response = scrape(endpoint.local_addr());
        // The version label is escaped per the exposition grammar and
        // each family carries exactly one HELP and one TYPE line.
        assert!(
            response.contains("ripsim_build_info{version=\"1.2.3\\\"quoted\\\"\"} 1\n"),
            "{response}"
        );
        for family in ["ripsim_build_info", "ripsim_uptime_seconds"] {
            assert_eq!(
                response
                    .matches(&format!("# TYPE {family} gauge\n"))
                    .count(),
                1,
                "{response}"
            );
            assert_eq!(
                response.matches(&format!("# HELP {family} ")).count(),
                1,
                "{response}"
            );
        }
        assert!(response.contains("\nripsim_uptime_seconds "), "{response}");
        assert!(
            response.ends_with("rip_switch_packets_total{source=\"switch\"} 1\n"),
            "{response}"
        );
    }

    #[test]
    fn endpoint_counts_watchdog_alarms_across_run_end() {
        let mut endpoint = MetricsEndpoint::bind("127.0.0.1:0").expect("bind");
        let event = crate::WatchdogEvent {
            source: "plane00".into(),
            epoch: 3,
            at: SimTime::from_ns(100),
            kind: crate::WatchdogKind::Stall { epochs: 16 },
        };
        endpoint.record("plane00", Record::Watchdog(&event));
        endpoint.record("plane00", Record::Watchdog(&event));
        let mut totals = MetricsRegistry::new();
        totals.inc("switch.packets", 9);
        endpoint.record(
            "plane00",
            Record::RunEnd {
                at: SimTime::from_ns(200),
                totals: &totals,
            },
        );
        let response = scrape(endpoint.local_addr());
        // run_end's authoritative totals must not erase the stream-side
        // alarm tally.
        assert!(
            response.contains("rip_watchdog_alarms_total{source=\"plane00\"} 2"),
            "{response}"
        );
        assert!(
            response.contains("rip_switch_packets_total{source=\"plane00\"} 9"),
            "{response}"
        );
    }

    #[test]
    fn endpoint_escapes_hostile_profile_sources() {
        let endpoint = MetricsEndpoint::bind("127.0.0.1:0").expect("bind");
        let hub = ProfileHub::new();
        let mut acc = crate::PhaseAcc::new();
        acc.add_ns_n(crate::Phase::FrameDecode, 3, 1);
        hub.record(acc.flush("w01/\"p\\x\nrip_fake 1", 0));
        endpoint.attach_profile_hub("ripsim", hub);
        let response = scrape(endpoint.local_addr());
        assert!(
            response.contains(
                "ripsim_profile_records_total{source=\"w01/\\\"p\\\\x\\nrip_fake 1\"} 1\n"
            ),
            "{response}"
        );
        assert!(!response.contains("\nrip_fake"), "{response}");
    }

    #[test]
    fn reader_round_trips_writer_frames() {
        let mut framed = LengthFramedWriter::new(Vec::new());
        framed.write_all(b"{\"a\":1}\n{\"bb\":2}\n").expect("write");
        framed.write_all(b"third line\n").expect("write");
        let bytes = framed.into_inner();
        let mut reader = LengthFramedReader::new(&bytes[..]);
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some(&b"{\"a\":1}"[..])
        );
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some(&b"{\"bb\":2}"[..])
        );
        assert_eq!(
            reader.read_frame().unwrap().as_deref(),
            Some(&b"third line"[..])
        );
        assert!(reader.read_frame().unwrap().is_none(), "clean EOF");
        assert!(reader.read_frame().unwrap().is_none(), "EOF is sticky");
    }

    #[test]
    fn reader_types_truncation_and_oversize() {
        // EOF mid-header.
        let mut reader = LengthFramedReader::new(&[0u8, 0][..]);
        match reader.read_frame() {
            Err(FrameError::Truncated {
                expected: 4,
                got: 2,
            }) => {}
            other => panic!("want header truncation, got {other:?}"),
        }
        // EOF mid-body.
        let mut wire = 10u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let mut reader = LengthFramedReader::new(&wire[..]);
        match reader.read_frame() {
            Err(FrameError::Truncated {
                expected: 10,
                got: 3,
            }) => {}
            other => panic!("want body truncation, got {other:?}"),
        }
        // Oversize header.
        let wire = u32::MAX.to_be_bytes();
        let mut reader = LengthFramedReader::with_max_frame(&wire[..], 1024);
        match reader.read_frame() {
            Err(FrameError::Oversize {
                len: u32::MAX,
                max: 1024,
            }) => {}
            other => panic!("want oversize, got {other:?}"),
        }
    }

    #[test]
    fn reader_resumes_after_transient_io_errors() {
        /// Yields one byte per read, interleaving `WouldBlock` errors —
        /// the shape of a socket with a short read timeout.
        struct Choppy<'a> {
            data: &'a [u8],
            pos: usize,
            tick: bool,
        }
        impl Read for Choppy<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.tick = !self.tick;
                if self.tick {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
                }
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut framed = LengthFramedWriter::new(Vec::new());
        framed.write_all(b"hello\nworld\n").expect("write");
        let wire = framed.into_inner();
        let mut reader = LengthFramedReader::new(Choppy {
            data: &wire,
            pos: 0,
            tick: false,
        });
        let mut frames = Vec::new();
        loop {
            match reader.read_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![b"hello".to_vec(), b"world".to_vec()]);
    }

    #[test]
    fn length_framing_wraps_whole_lines_only() {
        let mut framed = LengthFramedWriter::new(Vec::new());
        framed.write_all(b"{\"a\":1}\n{\"bb\"").expect("write");
        framed.write_all(b":2}\n").expect("write");
        let bytes = framed.into_inner();
        let mut want = Vec::new();
        want.extend_from_slice(&7u32.to_be_bytes());
        want.extend_from_slice(b"{\"a\":1}");
        want.extend_from_slice(&8u32.to_be_bytes());
        want.extend_from_slice(b"{\"bb\":2}");
        assert_eq!(bytes, want);
    }
}
