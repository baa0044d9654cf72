//! Measurement primitives shared by every experiment: counters, running
//! moments, exact-quantile histograms, time-weighted gauges and
//! throughput meters.

use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Counter {
    count: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.count += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.count += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.count
    }
}

/// Running mean and variance via Welford's algorithm, plus min/max.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl MeanVar {
    /// An empty accumulator.
    pub fn new() -> Self {
        MeanVar {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (None if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (None if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Coefficient of variation (std dev / mean); 0 for empty or zero-mean.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }
}

/// A histogram that stores every sample for exact quantiles.
///
/// Experiments in this workspace run at most a few million samples, so
/// storing them is cheap and buys exact tail percentiles (p99/p999 of
/// delay-lag distributions are claims under test — approximating them
/// with fixed buckets would weaken E4).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Append every sample of `other` (e.g. merging per-plane delay
    /// histograms in plane order).
    pub fn merge_from(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Exact quantile `q` in \[0,1\] (nearest-rank). None if empty.
    ///
    /// Non-mutating: selects the nearest-rank sample out of a scratch
    /// copy, so report code can query quantiles through `&self`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let idx = ((q * (self.samples.len() - 1) as f64).round()) as usize;
        let mut scratch = self.samples.clone();
        let (_, nth, _) = scratch.select_nth_unstable_by(idx, |a, b| {
            a.partial_cmp(b).expect("NaN sample in histogram")
        });
        Some(*nth)
    }

    /// Sample mean. None if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest sample. None if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.max(x))))
    }
}

/// Time-weighted average of a piecewise-constant gauge (e.g. queue
/// occupancy): each value is weighted by how long it was held.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    total_time_ps: f64,
    max: f64,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: value,
            weighted_sum: 0.0,
            total_time_ps: 0.0,
            max: value,
        }
    }

    /// Record that the gauge changed to `value` at `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous update.
    pub fn update(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_ps() as f64;
        self.weighted_sum += self.last_value * dt;
        self.total_time_ps += dt;
        self.last_time = now;
        self.last_value = value;
        self.max = self.max.max(value);
    }

    /// Close the interval at `now` and return the time-weighted average.
    pub fn average(&mut self, now: SimTime) -> f64 {
        self.update(now, self.last_value);
        if self.total_time_ps == 0.0 {
            self.last_value
        } else {
            self.weighted_sum / self.total_time_ps
        }
    }

    /// The maximum value ever held.
    pub fn peak(&self) -> f64 {
        self.max
    }

    /// The current value.
    pub fn current(&self) -> f64 {
        self.last_value
    }
}

/// Measures achieved throughput: total data moved over elapsed time.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ThroughputMeter {
    bits: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl ThroughputMeter {
    /// An empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `size` finished transferring at `now`.
    pub fn record(&mut self, now: SimTime, size: DataSize) {
        self.bits += size.bits();
        if self.first.is_none() {
            self.first = Some(now);
        }
        self.last = Some(now);
    }

    /// Total data recorded.
    pub fn total(&self) -> DataSize {
        DataSize::from_bits(self.bits)
    }

    /// Average rate between `start` and `end`.
    pub fn rate_over(&self, start: SimTime, end: SimTime) -> DataRate {
        let dt = end.since(start);
        if dt.is_zero() {
            return DataRate::ZERO;
        }
        let bps = self.bits as u128 * rip_units::PS_PER_S as u128 / dt.as_ps() as u128;
        DataRate::from_bps(u64::try_from(bps).expect("rate overflows u64 bps"))
    }

    /// Average rate between the first and last recorded completion.
    pub fn rate(&self) -> DataRate {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => self.rate_over(a, b),
            _ => DataRate::ZERO,
        }
    }

    /// Time of the last recorded completion.
    pub fn last_time(&self) -> Option<SimTime> {
        self.last
    }
}

/// Accumulates busy time of a resource for utilization measurements.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BusyTime {
    busy: TimeDelta,
}

impl BusyTime {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a busy interval.
    pub fn add(&mut self, dt: TimeDelta) {
        self.busy += dt;
    }

    /// Total busy time.
    pub fn total(&self) -> TimeDelta {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn meanvar_matches_closed_form() {
        let mut mv = MeanVar::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            mv.record(x);
        }
        assert_eq!(mv.count(), 8);
        assert!((mv.mean() - 5.0).abs() < 1e-12);
        assert!((mv.variance() - 4.0).abs() < 1e-12);
        assert!((mv.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(mv.min(), Some(2.0));
        assert_eq!(mv.max(), Some(9.0));
        assert!((mv.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn meanvar_empty_is_safe() {
        let mv = MeanVar::new();
        assert_eq!(mv.mean(), 0.0);
        assert_eq!(mv.variance(), 0.0);
        assert_eq!(mv.min(), None);
        assert_eq!(mv.max(), None);
    }

    #[test]
    fn histogram_quantiles_are_exact() {
        let mut h = Histogram::new();
        for i in (1..=100).rev() {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(h.quantile(0.5), Some(51.0)); // nearest-rank on 0..99
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.max(), Some(100.0));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::from_ns(10), 10.0); // 0 for 10ns
        tw.update(SimTime::from_ns(30), 0.0); // 10 for 20ns
        let avg = tw.average(SimTime::from_ns(40)); // 0 for 10ns
                                                    // (0*10 + 10*20 + 0*10) / 40 = 5
        assert!((avg - 5.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 10.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn throughput_meter_rates() {
        let mut m = ThroughputMeter::new();
        m.record(SimTime::from_ns(0), DataSize::from_bytes(0));
        m.record(SimTime::from_ns(1000), DataSize::from_bytes(1000));
        // 8000 bits over 1 us = 8 Gb/s.
        assert_eq!(m.rate(), DataRate::from_gbps(8));
        assert_eq!(m.total(), DataSize::from_bytes(1000));
        assert_eq!(
            m.rate_over(SimTime::ZERO, SimTime::from_ns(2000)),
            DataRate::from_gbps(4)
        );
    }

    #[test]
    fn throughput_meter_degenerate() {
        let m = ThroughputMeter::new();
        assert_eq!(m.rate(), DataRate::ZERO);
        let mut m2 = ThroughputMeter::new();
        m2.record(SimTime::from_ns(5), DataSize::from_bytes(100));
        assert_eq!(m2.rate(), DataRate::ZERO); // single instant
    }

    #[test]
    fn busy_time_utilization() {
        let mut b = BusyTime::new();
        b.add(TimeDelta::from_ns(30));
        b.add(TimeDelta::from_ns(20));
        assert_eq!(b.total(), TimeDelta::from_ns(50));
    }
}
