//! Fleet-collector differential suite.
//!
//! The distributed plane-worker/collector split must be observably
//! indistinguishable from the single-process SPS runner: for every
//! shipped config in `configs/*.json` and several worker partitionings
//! of its planes, pushing each subset through the `rip-fleet/v3` wire
//! protocol and reassembling with the collector must produce a JSONL
//! telemetry stream AND a stitched report byte-identical to
//! `SpsRouter::run` through the identical watchdog chain —
//! regardless of the order the worker streams arrive in. Horizons are
//! capped so the suite stays fast in debug builds; the merge replays
//! plane-complete streams, so a capped run that diverged would diverge
//! at full length too.
//!
//! Worker bytes are outside input: truncated, spliced and byte-flipped
//! lines, departure blocks and streams must come back as typed errors,
//! never a panic, and a failed ingest must leave the collector's state
//! untouched. The departure block codec round-trips every departure
//! log exactly, reserves no more than a block's bytes can hold, and
//! keeps a stream's largest frame flat as the horizon grows.

use std::sync::OnceLock;

use proptest::prelude::*;
use rip_bench::fleet::{
    decode_block, push_worker_stream, write_departure_blocks, CollectError, Collector, FleetJob,
    BLOCK_DEPARTURES, BLOCK_TAG,
};
use rip_bench::spec::SimSpec;
use rip_core::{
    ConfigError, DepartureLog, FaultKind, FaultPlan, FaultPlanError, LiveOptions, PacketDeparture,
    RouterConfig, SpsRouter, SpsWorkload,
};
use rip_integration_tests::shipped_configs;
use rip_photonics::SplitPattern;
use rip_telemetry::{
    parse_sink_line, JsonlSink, LengthFramedReader, LengthFramedWriter, Watchdog, WatchdogConfig,
};
use rip_traffic::SizeDistribution;
use rip_units::{DataSize, SimTime, TimeDelta};
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
    /// `second`'s frames in stream order.
    frames: Vec<Vec<u8>>,
    /// `second`'s JSON frames: each one JSONL line as a `JsonlSink`
    /// wrote it (telemetry) or a protocol control line. The departure
    /// blocks between them are in `frames` only.
    lines: Vec<String>,
}

/// Every frame of a well-formed stream, in order.
fn frames_of(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut reader = LengthFramedReader::new(stream);
    let mut frames = Vec::new();
    while let Some(frame) = reader.read_frame().expect("well-formed stream") {
        frames.push(frame);
    }
    frames
}

/// Frame `frames` back into a stream.
fn stream_of<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut framed = LengthFramedWriter::new(Vec::new());
    for frame in frames {
        framed.write_frame(frame).expect("frames a record");
    }
    framed.into_inner()
}

fn is_block(frame: &[u8]) -> bool {
    frame.first() == Some(&BLOCK_TAG)
}

fn wire() -> &'static Wire {
    static WIRE: OnceLock<Wire> = OnceLock::new();
    WIRE.get_or_init(|| {
        let cfg = RouterConfig::small();
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
        let frames = frames_of(&second);
        let lines = frames
            .iter()
            .filter(|f| !is_block(f))
            .map(|f| String::from_utf8(f.clone()).expect("UTF-8 line"))
            .collect();
        Wire {
            echo,
            planes,
            first,
            second,
            frames,
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

    /// A byte flipped inside one of the second stream's departure
    /// blocks, or the block cut short: the block decoder's errors reach
    /// `ingest` typed, and a flip that still decodes commits like any
    /// other stream.
    #[test]
    fn mutated_departure_blocks_are_typed_errors(
        pick in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let w = wire();
        let blocks: Vec<usize> = (0..w.frames.len()).filter(|&i| is_block(&w.frames[i])).collect();
        let i = blocks[pick.index(blocks.len())];
        let mut frames = w.frames.clone();
        let at = at.index(frames[i].len());
        frames[i][at] ^= flip;
        let _ = ingest_mutated(&stream_of(frames.iter().map(Vec::as_slice)));
        frames[i].truncate(at);
        prop_assert!(ingest_mutated(&stream_of(frames.iter().map(Vec::as_slice))).is_err());
    }
}

/// A departure field: mostly the values the codec's deltas wrap at.
fn edge_u64() -> impl Strategy<Value = u64> {
    (0u8..4, any::<u64>()).prop_map(|(kind, r)| match kind {
        0 => u64::MAX - r % 3,
        1 => r % 3,
        2 => r % 100_000,
        _ => r,
    })
}

fn departure() -> impl Strategy<Value = PacketDeparture> {
    (edge_u64(), edge_u64(), edge_u64(), edge_u64(), edge_u64()).prop_map(
        // Lanes keep the low half, so their edges are at `u32::MAX`.
        |(packet, time, arrival, fiber, wavelength)| PacketDeparture {
            packet,
            time: SimTime::from_ps(time),
            arrival: SimTime::from_ps(arrival),
            fiber: fiber as u32,
            wavelength: wavelength as u32,
        },
    )
}

/// `departures` written as `plane`'s block frames, and the log the
/// collector's decoder builds back from them.
fn blocks_round_trip(
    plane: usize,
    departures: &[PacketDeparture],
) -> (Vec<Vec<u8>>, Vec<PacketDeparture>) {
    let mut framed = LengthFramedWriter::new(Vec::new());
    write_departure_blocks(&mut framed, plane, departures).expect("blocks frame");
    let blocks = frames_of(&framed.into_inner());
    let mut back = Vec::new();
    for block in &blocks {
        decode_block(block, plane, &mut back).expect("block decodes");
    }
    (blocks, back)
}

/// LEB128, as the block layout writes its varints.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// A departure takes at least five bytes, so a decode into an empty
/// log may reserve room for at most a fifth of the frame's bytes (or
/// `Vec`'s smallest allocation, four 40-byte items).
fn reserved_within_frame(frame: &[u8], log: &[PacketDeparture], capacity: usize) -> bool {
    log.len() * 5 <= frame.len() && capacity <= (frame.len() / 5).max(4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any log round-trips exactly: ids and times at and near
    /// `u64::MAX`, arrivals after departures, ids and times that go
    /// down, any lane.
    #[test]
    fn departure_logs_round_trip_through_blocks(
        plane in 0usize..64,
        log in prop::collection::vec(departure(), 0..300),
    ) {
        let (blocks, back) = blocks_round_trip(plane, &log);
        prop_assert_eq!(&back, &log);
        prop_assert_eq!(blocks.len(), log.len().div_ceil(BLOCK_DEPARTURES));
    }

    /// Arbitrary bytes after a block header that names the pending
    /// plane and index: a typed error or a decode, never a panic, and
    /// never more room reserved than the frame could hold.
    #[test]
    fn arbitrary_block_bytes_decode_or_fail_within_their_frame(
        count in 0u64..70_000,
        body in prop::collection::vec(any::<u8>(), 0..400),
        headed in any::<bool>(),
    ) {
        let mut frame = vec![BLOCK_TAG];
        if headed {
            frame.extend([0, 0]);
            frame.extend(varint(count));
        }
        frame.extend(&body);
        let mut back = Vec::new();
        let got = decode_block(&frame, 0, &mut back);
        prop_assert!(matches!(got, Ok(()) | Err(CollectError::Protocol(_))), "{got:?}");
        prop_assert!(reserved_within_frame(&frame, &back, back.capacity()), "{} in {}", back.capacity(), frame.len());
        if got.is_ok() {
            prop_assert_eq!(back.len() as u64, count);
        }
    }

    /// Real blocks, truncated, spliced or with bytes flipped: typed
    /// errors or decodes, never a panic or an oversized reservation.
    #[test]
    fn mutated_blocks_decode_or_fail_within_their_frame(
        log in prop::collection::vec(departure(), 1..200),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..4),
    ) {
        let (blocks, _) = blocks_round_trip(3, &log);
        let block = &blocks[0];
        let cut = cut.index(block.len());
        let mut flipped = block.clone();
        for (i, flip) in &flips {
            flipped[i.index(block.len())] ^= flip;
        }
        let spliced = [&block[..cut], &block[at.index(block.len())..]].concat();
        for frame in [&block[..cut], &flipped[..], &spliced[..]] {
            let mut back = Vec::new();
            let got = decode_block(frame, 3, &mut back);
            prop_assert!(matches!(got, Ok(()) | Err(CollectError::Protocol(_))), "{got:?}");
            prop_assert!(reserved_within_frame(frame, &back, back.capacity()));
        }
        // A strict prefix never decodes.
        prop_assert!(decode_block(&block[..cut], 3, &mut Vec::new()).is_err());
    }
}

#[test]
fn logs_round_trip_across_block_boundaries() {
    // Ids and times that climb, fall and wrap, arrivals on both sides
    // of the departure, lanes up to `u32::MAX`.
    let departure = |i: u64| PacketDeparture {
        packet: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        time: SimTime::from_ps(if i.is_multiple_of(7) {
            u64::MAX - i
        } else {
            i * 1_000
        }),
        arrival: SimTime::from_ps(i * 1_000 + (i % 3) * 500),
        fiber: (i % 5) as u32,
        wavelength: if i.is_multiple_of(11) {
            u32::MAX
        } else {
            (i % 4) as u32
        },
    };
    for n in [
        0,
        1,
        BLOCK_DEPARTURES - 1,
        BLOCK_DEPARTURES,
        BLOCK_DEPARTURES + 1,
    ] {
        let log: Vec<PacketDeparture> = (0..n as u64).map(departure).collect();
        let (blocks, back) = blocks_round_trip(9, &log);
        assert!(back == log, "{n} departures do not round-trip");
        assert_eq!(blocks.len(), n.div_ceil(BLOCK_DEPARTURES), "{n} departures");
        // Each block decodes alone, given only the index it starts at.
        if let Some(last) = blocks.get(1) {
            let mut alone = log[..BLOCK_DEPARTURES].to_vec();
            decode_block(last, 9, &mut alone).expect("the second block decodes alone");
            assert!(alone == log);
        }
    }
    // A header that claims a full block over a few bytes is refused
    // before anything is reserved.
    let mut frame = vec![BLOCK_TAG, 0, 0];
    frame.extend(varint(BLOCK_DEPARTURES as u64));
    frame.extend([0; 10]);
    let mut back = Vec::new();
    assert!(matches!(
        decode_block(&frame, 0, &mut back),
        Err(CollectError::Protocol(_))
    ));
    assert_eq!(back.capacity(), 0);
}

#[test]
fn overlong_truncated_and_trailing_block_bytes_are_refused() {
    let refused = |frame: &[u8], want: &str| match decode_block(frame, 0, &mut Vec::new()) {
        Err(CollectError::Protocol(msg)) if msg.contains(want) => {}
        other => panic!("want a protocol error with {want:?} on {frame:?}, got {other:?}"),
    };
    // Plane 0 written in two bytes, one past 64 bits, 11 bytes long.
    refused(&[BLOCK_TAG, 0x80, 0x00], "overlong varint");
    let mut past = vec![BLOCK_TAG];
    past.extend([0xff; 9]);
    past.push(0x02);
    refused(&past, "overlong varint");
    let mut long = vec![BLOCK_TAG];
    long.extend([0x80; 10]);
    long.push(0x00);
    refused(&long, "overlong varint");
    refused(&[BLOCK_TAG, 0x80], "ends inside a varint");
    refused(&[BLOCK_TAG], "ends inside a varint");
    refused(&[b'{', 0, 0, 1, 0, 0, 0, 0, 0], "not a departure block");
    // One departure of five zero fields, then a stray byte.
    let one = [BLOCK_TAG, 0, 0, 1, 0, 0, 0, 0, 0];
    let mut back = Vec::new();
    decode_block(&one, 0, &mut back).expect("one departure decodes");
    assert_eq!(back.len(), 1);
    refused(&[&one[..], &[0]].concat(), "trailing bytes");
    // `u64::MAX` takes ten bytes, the last one 0x01.
    assert_eq!(varint(u64::MAX).len(), 10);
    let mut max_plane = vec![BLOCK_TAG];
    max_plane.extend(varint(u64::MAX));
    refused(&max_plane, "block for plane 18446744073709551615");
}

/// Ingest `frames` (the second stream, edited) after the first stream
/// and expect a protocol error whose message holds `want`.
fn refused_with(frames: &[Vec<u8>], want: &str) {
    match ingest_mutated(&stream_of(frames.iter().map(Vec::as_slice))) {
        Err(CollectError::Protocol(msg)) if msg.contains(want) => {}
        other => panic!("want a protocol error with {want:?}, got {other:?}"),
    }
}

#[test]
fn misplaced_and_miscounted_blocks_are_typed_errors() {
    let w = wire();
    let first = w
        .frames
        .iter()
        .position(|f| is_block(f))
        .expect("the second stream has a departure block");
    assert!(w.frames[first - 1].starts_with(b"{\"record\":\"plane_done\",\"plane\":1,"));
    let edited = |edit: &dyn Fn(&mut Vec<Vec<u8>>)| {
        let mut frames = w.frames.clone();
        edit(&mut frames);
        frames
    };
    refused_with(
        &edited(&|f| f.swap(first - 1, first)),
        "departure block before its plane_done",
    );
    refused_with(
        &edited(&|f| f[first][1] = 2),
        "block for plane 2 while plane 1 is pending",
    );
    refused_with(
        &edited(&|f| f.insert(first, f[first].clone())),
        "departure block starts at",
    );
    refused_with(
        &edited(&|f| {
            f.remove(first);
        }),
        "departures for",
    );
    // A departure carried inline in the plane_done line.
    let inline = serde_json::to_string(&DepartureLog::from(vec![PacketDeparture {
        packet: 1,
        time: SimTime::from_ps(2),
        arrival: SimTime::from_ps(1),
        fiber: 0,
        wavelength: 0,
    }]))
    .expect("departure serializes");
    refused_with(
        &edited(&|f| {
            let line = String::from_utf8(f[first - 1].clone()).expect("UTF-8 line");
            let line = line.replacen(
                "\"departures\":\"\"",
                &format!("\"departures\":{inline}"),
                1,
            );
            f[first - 1] = line.into_bytes();
        }),
        "carries departures",
    );
    // A rip-fleet/v2 stream.
    refused_with(
        &edited(&|f| {
            let hello = String::from_utf8(f[0].clone()).expect("UTF-8 line");
            f[0] = hello
                .replacen("rip-fleet/v3", "rip-fleet/v2", 1)
                .into_bytes();
        }),
        "unsupported fleet schema \"rip-fleet/v2\"",
    );
    // A hello whose `record` key is not its first.
    refused_with(
        &edited(&|f| {
            let hello = String::from_utf8(f[0].clone()).expect("UTF-8 line");
            let fields = hello
                .strip_prefix("{\"record\":\"fleet_hello\",")
                .and_then(|rest| rest.strip_suffix('}'))
                .expect("the hello opens with its record key");
            f[0] = format!("{{{fields},\"record\":\"fleet_hello\"}}").into_bytes();
        }),
        "stream must open with fleet_hello",
    );
}

#[test]
fn a_worker_streams_largest_frame_does_not_grow_with_the_horizon() {
    // One `small` plane of 64 B packets at 0.9 fills a block in about
    // 15 µs of simulated time.
    let cfg = RouterConfig::small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let mut workload = SpsWorkload::uniform(cfg.ribbons, 0.9, 13);
    workload.sizes = SizeDistribution::Fixed(DataSize::from_bytes(64));
    let plan = FaultPlan::default();
    let echo = serde_json::parse("{}").expect("echo parses");
    // (largest frame, departures) of plane 0's stream at `us`.
    let largest = |us: u64| {
        let job = FleetJob {
            router: &router,
            workload: &workload,
            plan: &plan,
            horizon: SimTime::from_ns(us * 1_000),
            live: LiveOptions {
                period: TimeDelta::from_ps(5_000_000),
                sample_one_in: 0,
            },
            echo: echo.clone(),
        };
        let frames = frames_of(&push_worker_stream(&job, 0, &[0], Vec::new()).expect("pushes"));
        let mut log = Vec::new();
        for block in frames.iter().filter(|f| is_block(f)) {
            decode_block(block, 0, &mut log).expect("block decodes");
        }
        let largest = frames.iter().map(Vec::len).max().expect("frames");
        (largest, log.len())
    };
    let (short, short_n) = largest(20);
    let (long, long_n) = largest(40);
    assert!(
        short_n > BLOCK_DEPARTURES,
        "{short_n} departures fill no block"
    );
    assert!(
        long_n >= short_n * 19 / 10,
        "{long_n} vs {short_n} departures"
    );
    // A v1 `plane_done` line grew with the log (about 96 B per
    // departure); a full block is the same size at any horizon.
    assert!(
        long <= short + short / 4,
        "largest frame {long} B at 40 µs vs {short} B at 20 µs"
    );
}

#[test]
#[ignore = "release probe, about 1.2 M departures: cargo test --release --test fleet_collector -- --ignored"]
fn a_reference_plane_at_100_us_crosses_the_wire() {
    // One plane of the whole router (16 × 64 fibers × 16 λ), 100 µs of
    // uniform IMIX at 0.8. As one `rip-fleet/v1` line its report was
    // about 114 MB, past the 64 MiB frame bound.
    let cfg = RouterConfig::reference();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let workload = SpsWorkload::uniform(cfg.ribbons, 0.8, 1);
    let plan = FaultPlan::default();
    let echo = serde_json::parse("{}").expect("echo parses");
    let job = FleetJob {
        router: &router,
        workload: &workload,
        plan: &plan,
        horizon: SimTime::from_ns(100_000),
        live: LiveOptions {
            period: TimeDelta::from_ps(2_000_000),
            sample_one_in: 256,
        },
        echo: echo.clone(),
    };
    let stream = push_worker_stream(&job, 0, &[0], Vec::new()).expect("pushes");
    let frames = frames_of(&stream);
    let largest = frames.iter().map(Vec::len).max().expect("frames");
    let blocks = frames.iter().filter(|f| is_block(f)).count();
    eprintln!(
        "reference plane 0 at 100 µs: {} stream bytes, {} frames, {blocks} departure blocks, largest frame {largest} B",
        stream.len(),
        frames.len()
    );
    assert!(largest < 4 << 20, "largest frame {largest} B");
    let mut collector = Collector::new(echo, cfg.switches);
    collector.ingest(&stream[..]).expect("stream ingests");
    assert_eq!(collector.committed_planes(), vec![0]);
}
