//! Hostile input for the JSON reader: random truncations and byte
//! mutations of a real `plane_done` line, departures included, and of
//! every shipped `configs/*.json`. On each input, decoding straight
//! into the type (`serde_json::from_str`, the `read_json` path) and
//! decoding the parsed tree (`from_value`) either both fail or give
//! equal values, and neither panics. Nesting one level past the
//! reader's limit fails in the tree builder, in the skipper and in a
//! derived decoder.

use std::sync::OnceLock;

use proptest::prelude::*;
use rip_bench::spec::SimSpec;
use rip_core::{FaultPlan, LiveOptions, PlaneResult, RouterConfig, SpsRouter, SpsWorkload};
use rip_integration_tests::shipped_configs;
use rip_photonics::SplitPattern;
use rip_units::{SimTime, TimeDelta};
use serde::de::{Reader, RECURSION_LIMIT};
use serde::{Deserialize, Serialize};

/// The inputs the mutations start from: one real `plane_done` line,
/// then every shipped config. The fleet wire ships a plane's
/// departures as binary blocks after its `plane_done` line, so the
/// line is built here from a `run_planes` result with its departures
/// in place: `{"record":"plane_done",` then the result's fields.
fn seeds() -> &'static (String, Vec<String>) {
    static SEEDS: OnceLock<(String, Vec<String>)> = OnceLock::new();
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
        let fields = serde_json::to_string(&result).expect("result serializes");
        let plane_done = format!("{{\"record\":\"plane_done\",{}", &fields[1..]);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
        let configs = shipped_configs()
            .into_iter()
            .map(|(name, _)| std::fs::read_to_string(dir.join(name)).expect("config readable"))
            .collect();
        (plane_done, configs)
    })
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
    agree::<serde_json::Value>(text)
}

/// Bytes that steer a mutation into the grammar's corners.
const ALPHABET: &[u8] = b"{}[]\":,\\-+.eE0123456789 \ntfnu\x00\xc3\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A truncation of the `plane_done` line and of one config.
    #[test]
    fn truncations_decode_alike(pick in any::<prop::sample::Index>(), cut in any::<prop::sample::Index>()) {
        let (line, configs) = seeds();
        for text in [line, &configs[pick.index(configs.len())]] {
            let cut = cut.index(text.len());
            all_agree(&String::from_utf8_lossy(&text.as_bytes()[..cut]))?;
        }
    }

    /// One to four bytes of the `plane_done` line and of one config
    /// replaced, from the alphabet or at random.
    #[test]
    fn byte_mutations_decode_alike(
        pick in any::<prop::sample::Index>(),
        edits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u8>()),
            1..5,
        ),
    ) {
        let (line, configs) = seeds();
        for text in [line, &configs[pick.index(configs.len())]] {
            let mut bytes = text.as_bytes().to_vec();
            for &(at, letter, raw) in &edits {
                let b = if raw % 4 == 0 { raw } else { ALPHABET[letter.index(ALPHABET.len())] };
                let at = at.index(bytes.len());
                bytes[at] = b;
            }
            all_agree(&String::from_utf8_lossy(&bytes))?;
        }
    }
}

#[test]
fn the_seed_inputs_decode_alike_and_a_plane_done_line_decodes() {
    let (line, configs) = seeds();
    let result: PlaneResult = serde_json::from_str(line).expect("plane_done decodes");
    assert_eq!(result.plane, 1);
    assert!(!result.report.departures.is_empty());
    for text in std::iter::once(line).chain(configs) {
        all_agree(text).expect("seed inputs agree");
    }
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
    let (line, _) = seeds();
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
