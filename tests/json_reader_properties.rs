//! Hostile input for the JSON reader: random truncations and byte
//! mutations of a real `plane_done` line, departures included, of a
//! real flight bundle and of every shipped `configs/*.json`. On each
//! input, decoding straight into the type (`serde_json::from_str`, the
//! `read_json` path) and decoding the parsed tree (`from_value`) either
//! both fail or give equal values, and neither panics; a truncated
//! bundle is a typed error. Nesting one level past the reader's limit
//! fails in the tree builder, in the skipper and in a derived decoder.

use std::sync::OnceLock;

use proptest::prelude::*;
use rip_bench::spec::SimSpec;
use rip_core::{FaultPlan, LiveOptions, PlaneResult, RouterConfig, SpsRouter, SpsWorkload};
use rip_integration_tests::shipped_configs;
use rip_photonics::SplitPattern;
use rip_telemetry::{
    write_record, FlightBundle, FlightRecorder, MetricsRegistry, Phase, PhaseAcc, ProfileHub,
    Record, Snapshot, TelemetrySink, WatchdogEvent, WatchdogKind,
};
use rip_units::{SimTime, TimeDelta};
use serde::de::{Reader, RECURSION_LIMIT};
use serde::{Deserialize, Serialize};

/// The inputs the mutations start from.
struct Seeds {
    /// One real `plane_done` line.
    plane_done: String,
    /// One real flight bundle file.
    bundle: String,
    /// Every shipped config.
    configs: Vec<String>,
}

/// The fleet wire ships a plane's departures as binary blocks after its
/// `plane_done` line, so the line is built here from a `run_planes`
/// result with its departures in place. The bundle comes from a
/// recorder holding epochs, a watchdog alarm, a profile record and a
/// config echo.
fn seeds() -> &'static Seeds {
    static SEEDS: OnceLock<Seeds> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let cfg = RouterConfig::small();
        let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
        let workload = SpsWorkload::uniform(cfg.ribbons, 0.7, 5);
        let live = LiveOptions {
            period: TimeDelta::from_ps(1_000_000),
            sample_one_in: 16,
        };
        let mut runs = router
            .run_planes(
                &workload,
                SimTime::from_ns(2_000),
                &FaultPlan::default(),
                Some(live),
                &[1],
            )
            .expect("valid plan");
        let (result, _) = runs.pop().expect("plane 1 ran");
        let mut plane_done = String::new();
        write_record(&mut plane_done, "plane_done", &result);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
        let configs: Vec<String> = shipped_configs()
            .into_iter()
            .map(|(name, _)| std::fs::read_to_string(dir.join(name)).expect("config readable"))
            .collect();
        let bundle = flight_bundle(&configs[0]);
        Seeds {
            plane_done,
            bundle,
            configs,
        }
    })
}

/// A bundle file dumped by a recorder that saw three epochs (two
/// retained), a watchdog alarm and a profile record, echoing `config`.
fn flight_bundle(config: &str) -> String {
    let mut rec = FlightRecorder::new("ripsim", "0.1.0", 2);
    rec.set_config_echo(serde_json::parse(config).expect("config parses"));
    let hub = ProfileHub::new();
    let mut acc = PhaseAcc::new();
    acc.add_ns_n(Phase::KernelPop, 1_234, 5);
    hub.record(acc.flush("engine", 0));
    rec.attach_profile_hub(hub);
    let mut reg = MetricsRegistry::new();
    let mut prev = Snapshot::empty();
    for epoch in 0..3 {
        reg.inc("switch.packets", 7 + epoch);
        reg.set_gauge("switch.depth", SimTime::from_ns(epoch), 0.25 * epoch as f64);
        reg.observe("switch.latency_ns", 412.5 + epoch as f64);
        let snap = reg.snapshot(SimTime::from_ns(1_000 * (epoch + 1)));
        let delta = snap.delta_since(&prev);
        rec.record(
            "sps",
            Record::Epoch {
                epoch,
                delta: &delta,
            },
        );
        prev = snap;
    }
    rec.record(
        "sps",
        Record::Watchdog(&WatchdogEvent {
            source: "sps".into(),
            epoch: 2,
            at: SimTime::from_ns(3_000),
            kind: WatchdogKind::DropRate { fraction: 0.75 },
        }),
    );
    let dir = std::env::temp_dir().join(format!("rip_json_reader_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = rec
        .dump(&dir, "watchdog")
        .expect("dump")
        .expect("first dump");
    let text = std::fs::read_to_string(path).expect("bundle readable");
    std::fs::remove_dir_all(&dir).ok();
    text
}

/// Decode `text` both ways; they must both fail or re-serialize to the
/// same bytes.
fn agree<T: Deserialize + Serialize>(text: &str) -> Result<(), TestCaseError> {
    let print = |v: T| serde_json::to_string(&v).expect("serializes");
    let direct = serde_json::from_str::<T>(text).map(print);
    let tree = serde_json::parse(text)
        .and_then(serde_json::from_value::<T>)
        .map(print);
    match (&direct, &tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", text),
        (Err(_), Err(_)) => {}
        _ => prop_assert!(
            false,
            "direct {:?} vs tree {:?} on {}",
            direct.as_ref().err(),
            tree.as_ref().err(),
            text
        ),
    }
    Ok(())
}

/// Reads one field of a `plane_done` line and skips the rest, so the
/// report goes through `Reader::skip_value`.
#[derive(serde::Serialize, serde::Deserialize)]
struct PlaneOnly {
    plane: usize,
}

/// Every decoder under test, on `text`.
fn all_agree(text: &str) -> Result<(), TestCaseError> {
    agree::<PlaneResult>(text)?;
    agree::<PlaneOnly>(text)?;
    agree::<SimSpec>(text)?;
    agree::<FlightBundle>(text)?;
    agree::<serde_json::Value>(text)
}

/// Every decoder, and the bundle reader, which must refuse `text` when
/// it is a strict prefix of a seed's JSON.
fn all_agree_and_bundle_reads(text: &str, prefix: bool) -> Result<(), TestCaseError> {
    all_agree(text)?;
    let read = FlightBundle::read(text);
    prop_assert!(!prefix || read.is_err(), "{}", text);
    Ok(())
}

/// Bytes that steer a mutation into the grammar's corners.
const ALPHABET: &[u8] = b"{}[]\":,\\-+.eE0123456789 \ntfnu\x00\xc3\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A truncation of the `plane_done` line, of the bundle and of one
    /// config.
    #[test]
    fn truncations_decode_alike(pick in any::<prop::sample::Index>(), cut in any::<prop::sample::Index>()) {
        let seeds = seeds();
        let configs = &seeds.configs;
        for text in [&seeds.plane_done, &seeds.bundle, &configs[pick.index(configs.len())]] {
            let cut = cut.index(text.len());
            let prefix = cut < text.trim_end().len();
            all_agree_and_bundle_reads(&String::from_utf8_lossy(&text.as_bytes()[..cut]), prefix)?;
        }
    }

    /// One to four bytes of the `plane_done` line, of the bundle and of
    /// one config replaced, from the alphabet or at random.
    #[test]
    fn byte_mutations_decode_alike(
        pick in any::<prop::sample::Index>(),
        edits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u8>()),
            1..5,
        ),
    ) {
        let seeds = seeds();
        let configs = &seeds.configs;
        for text in [&seeds.plane_done, &seeds.bundle, &configs[pick.index(configs.len())]] {
            let mut bytes = text.as_bytes().to_vec();
            for &(at, letter, raw) in &edits {
                let b = if raw % 4 == 0 { raw } else { ALPHABET[letter.index(ALPHABET.len())] };
                let at = at.index(bytes.len());
                bytes[at] = b;
            }
            all_agree_and_bundle_reads(&String::from_utf8_lossy(&bytes), false)?;
        }
    }
}

#[test]
fn the_seed_inputs_decode_alike_and_a_plane_done_line_decodes() {
    let seeds = seeds();
    let result: PlaneResult = serde_json::from_str(&seeds.plane_done).expect("plane_done decodes");
    assert_eq!(result.plane, 1);
    assert!(!result.report.departures.is_empty());
    for text in [&seeds.plane_done, &seeds.bundle]
        .into_iter()
        .chain(&seeds.configs)
    {
        all_agree(text).expect("seed inputs agree");
    }
}

#[test]
fn the_seed_bundle_decodes_and_re_encodes_byte_for_byte() {
    let text = &seeds().bundle;
    let bundle = FlightBundle::read(text).expect("bundle decodes");
    assert_eq!(
        (
            bundle.epochs_seen,
            bundle.epochs_retained,
            bundle.epochs.len()
        ),
        (3, 2, 2)
    );
    assert_eq!((bundle.watchdogs.len(), bundle.profiles.len()), (1, 1));
    assert!(bundle.config_echo.is_some());
    assert_eq!(&bundle.to_text(), text);
}

#[test]
fn nesting_one_past_the_limit_fails_in_every_reader() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let skip = |text: &str| {
        let mut r = Reader::new(text);
        r.skip_value().and_then(|()| r.end())
    };
    assert!(serde_json::parse(&nest(RECURSION_LIMIT)).is_ok());
    assert!(skip(&nest(RECURSION_LIMIT)).is_ok());
    assert!(serde_json::parse(&nest(RECURSION_LIMIT + 1)).is_err());
    assert!(skip(&nest(RECURSION_LIMIT + 1)).is_err());
    // The derived `PlaneResult` decoder skips an unknown key inside its
    // `report` object, two levels down: 126 more levels reach the limit
    // and 127 pass it.
    let line = &seeds().plane_done;
    let with = |depth: usize| {
        line.replacen(
            "\"report\":{",
            &format!("\"report\":{{\"zz\":{},", nest(depth)),
            1,
        )
    };
    let at_limit = with(RECURSION_LIMIT - 2);
    assert!(serde_json::from_str::<PlaneResult>(&at_limit).is_ok());
    let past = with(RECURSION_LIMIT - 1);
    let err = serde_json::from_str::<PlaneResult>(&past).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    assert!(serde_json::parse(&past).is_err());
}
