//! Deterministic telemetry for the router-in-a-package simulator.
//!
//! Every metric in this crate is stamped with [`SimTime`] (integer
//! picoseconds) — never wall-clock — so that two runs of the same
//! binary at the same seed produce byte-identical exports. The three
//! metric kinds are:
//!
//! * **counters** — monotonically increasing `u64` totals;
//! * **gauges** — a last-written `f64` value with the sim time it was
//!   written at;
//! * **log-bucketed histograms** — [`LogHistogram`], whose buckets are
//!   derived from the bit pattern of the sample (integer arithmetic
//!   only, no `log2`), making merges exactly associative and
//!   commutative.
//!
//! All registries key their metrics through `BTreeMap`, so iteration
//! and serde output order is the lexicographic name order regardless of
//! insertion order — a requirement for the golden-report snapshot tests
//! and the `BENCH_*.json` stable schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod fleet;
mod flight;
mod net;
mod profile;
mod sink;
mod trace;
mod watchdog;

use std::collections::BTreeMap;

use rip_units::SimTime;
use serde::{Deserialize, Serialize};

pub use epoch::{EpochClock, EpochDelta, Snapshot};
pub use fleet::{parse_plane_source, parse_sink_line, plane_source_name, LineError, ParsedLine};
pub use flight::{FlightEpoch, FlightRecorder};
pub use net::{
    FrameError, FrameListener, LengthFramedReader, LengthFramedWriter, MetricsEndpoint,
    MAX_FRAME_BYTES,
};
pub use profile::{
    prof_add, prof_lap, prof_now, prof_now_sampled, prof_renew, EngineProfiler, Phase, PhaseAcc,
    PhaseSample, PhaseScope, ProfileHub, ProfileRecord, SAMPLE_STRIDE,
};
pub use sink::{
    intern_stage, FanoutSink, JsonlSink, MemorySink, Record, SharedSink, SinkRecord, SpanEvent,
    TelemetrySink, SPAN_STAGES,
};
pub use trace::{
    ChromeTraceSink, TraceRecorder, TraceWindow, TraceWindowError, PID_DYNAMIC_BASE, PID_FRAMES,
    PID_HBM,
};
pub use watchdog::{Watchdog, WatchdogConfig, WatchdogEvent, WatchdogHandle, WatchdogKind};

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two octave
/// is split into `2^SUB_BITS` buckets, so the relative width of a
/// bucket is at most `2^-SUB_BITS` = 25 %.
const SUB_BITS: u32 = 2;
const SUBS_PER_OCTAVE: u32 = 1 << SUB_BITS;
/// Largest finite bucket index: biased exponent 2046, top sub-bucket.
const TOP_BUCKET: u32 = 1 + 2046 * SUBS_PER_OCTAVE + (SUBS_PER_OCTAVE - 1);

/// The bucket index holding a sample.
///
/// Bucket 0 collects every non-positive sample; positive finite
/// samples map to `1 + exponent·4 + top-2-mantissa-bits`, computed
/// from the IEEE-754 bit pattern so the mapping is pure integer
/// arithmetic (deterministic across platforms, unlike `log2`). NaN
/// never reaches bucketing: [`LogHistogram::record_n`] rejects NaN
/// samples before calling this (counting them in
/// [`LogHistogram::rejected`]); the defensive comparison below would
/// still route one to bucket 0 if it ever slipped through.
fn bucket_of(v: f64) -> u32 {
    // Not `v <= 0.0`: `partial_cmp` also catches NaN defensively.
    if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    if v.is_infinite() {
        return TOP_BUCKET;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as u32;
    let sub = ((bits >> (52 - SUB_BITS)) & u64::from(SUBS_PER_OCTAVE - 1)) as u32;
    1 + exp * SUBS_PER_OCTAVE + sub
}

/// Lower edge of a bucket (inclusive). Bucket 0's edge is 0.
fn bucket_lower_edge(idx: u32) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    let exp = u64::from((idx - 1) / SUBS_PER_OCTAVE);
    let sub = u64::from((idx - 1) % SUBS_PER_OCTAVE);
    f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)))
}

/// Upper edge of a bucket (exclusive). The topmost finite bucket's
/// upper edge is `+inf`.
fn bucket_upper_edge(idx: u32) -> f64 {
    if idx >= TOP_BUCKET {
        return f64::INFINITY;
    }
    bucket_lower_edge(idx + 1)
}

/// A mergeable log-bucketed histogram of non-negative samples.
///
/// Buckets split each power-of-two octave four ways (≤ 25 % relative
/// width); counts live in a `(bucket index, count)` list kept sorted by
/// index, so merging two histograms is bucket-wise integer addition —
/// exactly associative and commutative, unlike any scheme that
/// accumulates an `f64` sum. Quantile queries return the lower edge of
/// the bucket holding the nearest-rank sample, guaranteed within one
/// bucket of the exact sorted-sample answer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    count: u64,
    /// Smallest sample seen (`None` when empty).
    min: Option<f64>,
    /// Largest sample seen (`None` when empty).
    max: Option<f64>,
    /// `(bucket index, count)`, sorted by index, no zero counts.
    buckets: Vec<(u32, u64)>,
    /// NaN samples rejected by [`LogHistogram::record_n`]. They are
    /// counted (so data-quality problems are visible) but never enter
    /// `count`, the buckets, or min/max.
    #[serde(default)]
    rejected: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples.
    ///
    /// NaN samples are rejected: they do not enter `count`, the
    /// buckets, or min/max, but they are tallied in
    /// [`LogHistogram::rejected`] so the data-quality problem that
    /// produced them stays visible.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        if v.is_nan() {
            self.rejected += n;
            return;
        }
        self.count += n;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        let idx = bucket_of(v);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (idx, n)),
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// NaN samples rejected (never bucketed).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// True when no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest sample recorded.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample recorded.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merge another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.rejected += other.rejected;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }

    /// The `[lower, upper)` edges of the bucket holding the
    /// nearest-rank sample for quantile `q` (clamped to `[0, 1]`).
    ///
    /// The exact sorted-sample quantile is guaranteed to lie inside the
    /// returned interval, because bucketing is monotone: walking
    /// buckets in index order visits samples in (bucket-resolution)
    /// sorted order.
    pub fn quantile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return Some((bucket_lower_edge(idx), bucket_upper_edge(idx)));
            }
        }
        None
    }

    /// Nearest-rank quantile, at bucket resolution (the lower edge of
    /// the bucket holding the exact answer — within 25 % relative
    /// error by construction).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_bounds(q).map(|(lo, _)| lo)
    }

    /// The non-empty buckets as `(lower_edge, count)` pairs, in value
    /// order.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(idx, n)| (bucket_lower_edge(idx), n))
    }

    /// The histogram of samples recorded since `prev`, where `prev` is
    /// an earlier state of *this* histogram (cumulative counts only
    /// grow).
    ///
    /// Counts, rejects and buckets are subtracted; `min`/`max` keep the
    /// *newer cumulative* values. Cumulative min is non-increasing and
    /// max non-decreasing, so when two consecutive diffs are merged the
    /// min-of-min / max-of-max rule in [`LogHistogram::merge`] yields
    /// exactly the later diff's values — which keeps diff merging
    /// associative and makes replaying every diff reconstruct the
    /// cumulative histogram byte-identically.
    pub fn diff_since(&self, prev: &LogHistogram) -> LogHistogram {
        debug_assert!(self.count >= prev.count, "cumulative count went backwards");
        debug_assert!(self.rejected >= prev.rejected);
        let mut buckets = Vec::new();
        for &(idx, n) in &self.buckets {
            let before = prev
                .buckets
                .binary_search_by_key(&idx, |&(i, _)| i)
                .map_or(0, |pos| prev.buckets[pos].1);
            if n > before {
                buckets.push((idx, n - before));
            }
        }
        LogHistogram {
            count: self.count - prev.count,
            min: self.min,
            max: self.max,
            buckets,
            rejected: self.rejected - prev.rejected,
        }
    }
}

/// A last-written value with the sim time it was written at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    /// Sim time of the write.
    pub at: SimTime,
    /// The value written.
    pub value: f64,
}

/// A named-metric registry: counters, gauges and log-bucketed
/// histograms, all keyed through `BTreeMap` so serialization order is
/// the lexicographic name order (deterministic and insertion-order
/// independent).
///
/// Registries merge: counters add, histograms add bucket-wise, and a
/// gauge keeps the write with the latest sim time (ties broken toward
/// the larger value), so merging per-plane registries is associative,
/// commutative, and independent of how work was partitioned over
/// planes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) gauges: BTreeMap<String, Gauge>,
    pub(crate) histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Current value of a counter (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Write a gauge value at sim time `at`.
    pub fn set_gauge(&mut self, name: &str, at: SimTime, value: f64) {
        self.gauges.insert(name.to_string(), Gauge { at, value });
    }

    /// The named gauge, if ever written.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// Record one sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, in name order.
    pub fn gauges(&self) -> &BTreeMap<String, Gauge> {
        &self.gauges
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> &BTreeMap<String, LogHistogram> {
        &self.histograms
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters add, histograms
    /// merge bucket-wise, gauges keep the latest-`at` write (ties
    /// toward the larger value).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, &g) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|cur| {
                    if (g.at, g.value) > (cur.at, cur.value) {
                        *cur = g;
                    }
                })
                .or_insert(g);
        }
    }

    /// Freeze the current state into a [`Snapshot`] stamped `at`, for
    /// later [`Snapshot::delta_since`] epoch-delta extraction.
    pub fn snapshot(&self, at: SimTime) -> Snapshot {
        Snapshot::new(at, self.clone())
    }

    /// Replay an epoch delta into this registry: counters add,
    /// histograms merge bucket-wise, and each gauge carried by the
    /// delta overwrites the current value (the delta's gauge *is* the
    /// cumulative value as of that epoch, not an increment).
    ///
    /// Applying every epoch delta of a run, in order, onto an empty
    /// registry reconstructs the final registry byte-identically.
    pub fn apply_delta(&mut self, delta: &EpochDelta) {
        for (name, &v) in delta.counters() {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in delta.histograms() {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
        for (name, &g) in delta.gauges() {
            self.gauges.insert(name.clone(), g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_in_value() {
        let vals = [
            1e-300, 0.001, 0.5, 0.999, 1.0, 1.24, 1.25, 1.9, 2.0, 3.5, 4.0, 1e3, 1e9, 1e300,
        ];
        for w in vals.windows(2) {
            assert!(bucket_of(w[0]) <= bucket_of(w[1]), "{} vs {}", w[0], w[1]);
        }
        // Every value lies inside its own bucket's edges.
        for &v in &vals {
            let idx = bucket_of(v);
            assert!(
                bucket_lower_edge(idx) <= v && v < bucket_upper_edge(idx),
                "{v}"
            );
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for &v in &[1.0, 1.3, 7.0, 1000.0, 1e12] {
            let idx = bucket_of(v);
            let (lo, hi) = (bucket_lower_edge(idx), bucket_upper_edge(idx));
            assert!(hi / lo <= 1.0 + 1.0 / SUBS_PER_OCTAVE as f64 + 1e-12);
        }
    }

    #[test]
    fn zero_and_negative_go_to_bucket_zero() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(f64::NEG_INFINITY), 0);
        assert_eq!(bucket_of(f64::INFINITY), TOP_BUCKET);
    }

    #[test]
    fn histogram_quantile_brackets_exact() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| (i as f64) * 1.7).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let exact = samples[((q * 999.0_f64).round()) as usize];
            let (lo, hi) = h.quantile_bounds(q).unwrap();
            assert!(
                lo <= exact && exact < hi,
                "q={q}: {exact} not in [{lo},{hi})"
            );
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..100 {
            let v = (i as f64) * 3.3 + 0.1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // And the other order.
        let mut merged2 = b;
        merged2.merge(&a);
        assert_eq!(merged2, all);
    }

    #[test]
    fn nan_samples_are_rejected_and_counted() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.record(f64::NAN);
        h.record_n(f64::NAN, 3);
        assert_eq!(h.count(), 1, "NaN must not enter the sample count");
        assert_eq!(h.rejected(), 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1.0));
        assert_eq!(h.buckets().map(|(_, n)| n).sum::<u64>(), 1);
        // Rejection counts survive merges and serde round-trips.
        let mut other = LogHistogram::new();
        other.record(f64::NAN);
        h.merge(&other);
        assert_eq!(h.rejected(), 5);
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        // Pre-`rejected` serialized histograms still deserialize.
        let legacy: LogHistogram =
            serde_json::from_str(r#"{"count":0,"min":null,"max":null,"buckets":[]}"#).unwrap();
        assert_eq!(legacy.rejected(), 0);
    }

    #[test]
    fn registry_merge_adds_counters_and_keeps_latest_gauge() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("pkts", 3);
        b.inc("pkts", 4);
        a.set_gauge("depth", SimTime::from_ns(10), 1.0);
        b.set_gauge("depth", SimTime::from_ns(20), 2.0);
        a.merge(&b);
        assert_eq!(a.counter("pkts"), 7);
        assert_eq!(a.gauge("depth").unwrap().value, 2.0);
        assert_eq!(a.gauge("depth").unwrap().at, SimTime::from_ns(20));
    }

    #[test]
    fn serialization_is_name_ordered_regardless_of_insertion() {
        let mut a = MetricsRegistry::new();
        a.inc("zulu", 1);
        a.inc("alpha", 2);
        let mut b = MetricsRegistry::new();
        b.inc("alpha", 2);
        b.inc("zulu", 1);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let alpha = ja.find("alpha").unwrap();
        let zulu = ja.find("zulu").unwrap();
        assert!(alpha < zulu);
    }
}
