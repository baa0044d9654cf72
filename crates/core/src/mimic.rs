//! OQ-mimicking measurement (Design 6 / E4): "given the same input
//! sequence to the HBM switch and to an ideal switch, any packet departs
//! the HBM switch within a finite delay after its departure from the
//! ideal one" (§3.1, citing \[6\]).

use rip_baselines::IdealOqSwitch;
use rip_sim::stats::Histogram;
use rip_traffic::{Packet, PacketSource, ReplaySource};
use rip_units::{SimTime, TimeDelta};

use crate::config::RouterConfig;
use crate::hbm_switch::HbmSwitch;
use crate::resilience::FaultPlan;

/// Relative-delay (lag) statistics of the HBM switch vs the ideal OQ
/// shadow fed the identical arrival sequence.
#[derive(Debug, Clone)]
pub struct MimicReport {
    /// Packets compared (delivered by both switches).
    pub compared: u64,
    /// Largest lag: HBM-switch departure − ideal departure.
    pub max_lag: TimeDelta,
    /// Mean lag.
    pub mean_lag: TimeDelta,
    /// 99th-percentile lag.
    pub p99_lag: TimeDelta,
    /// Fraction of packets that departed *no later* than the ideal
    /// switch plus `bound` (reported by [`MimicReport::fraction_within`]).
    pub lags_ns: Histogram,
}

/// Runs the HBM switch and an ideal OQ shadow on the same trace and
/// compares per-packet departures.
pub struct MimicChecker {
    cfg: RouterConfig,
}

impl MimicChecker {
    /// A checker for the given configuration.
    pub fn new(cfg: RouterConfig) -> Self {
        MimicChecker { cfg }
    }

    /// Run both switches on `trace` and report the lag distribution.
    pub fn run(&self, trace: &[Packet], horizon: SimTime) -> MimicReport {
        self.run_source(ReplaySource::new(trace), horizon)
    }

    /// Streaming form of [`MimicChecker::run`]: both switches consume
    /// the same pull-based source. Each packet is offered to the ideal
    /// OQ shadow at the moment the streaming engine pulls it, so the
    /// shadow sees the identical arrival sequence without any
    /// materialized trace.
    pub fn run_source<S: PacketSource>(&self, source: S, horizon: SimTime) -> MimicReport {
        let mut shadow = IdealOqSwitch::new(self.cfg.ribbons, self.cfg.port_rate());
        let mut switch = HbmSwitch::new(self.cfg.clone()).expect("valid config");
        let mut tap = ShadowTap {
            inner: source,
            shadow: &mut shadow,
        };
        switch.run_source(&mut tap, horizon, &FaultPlan::default());
        let report = switch.into_report();
        let ideal = shadow.departure_map();

        let mut lags = Histogram::new();
        let mut max_lag = TimeDelta::ZERO;
        let mut total_ps: u128 = 0;
        let mut compared = 0u64;
        for d in &report.departures {
            let Some(&ideal_dep) = ideal.get(&d.packet) else {
                continue;
            };
            // Lag is one-sided: a real switch can only be late, but the
            // frame pipeline may also deliver *earlier* than the ideal
            // switch never does (it cannot — OQ is optimal), so clamp.
            let lag = d.time.saturating_since(ideal_dep);
            lags.record(lag.as_ns_f64());
            max_lag = max_lag.max(lag);
            total_ps += lag.as_ps() as u128;
            compared += 1;
        }
        let mean_lag = if compared == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta::from_ps((total_ps / compared as u128) as u64)
        };
        let p99 = lags
            .quantile(0.99)
            .map(|ns| TimeDelta::from_ps((ns * 1000.0) as u64))
            .unwrap_or(TimeDelta::ZERO);
        MimicReport {
            compared,
            max_lag,
            mean_lag,
            p99_lag: p99,
            lags_ns: lags,
        }
    }
}

/// Source wrapper that offers every pulled packet to the ideal OQ
/// shadow, so shadow and switch consume one identical stream.
struct ShadowTap<'a, S> {
    inner: S,
    shadow: &'a mut IdealOqSwitch,
}

impl<S: PacketSource> PacketSource for ShadowTap<'_, S> {
    fn next_packet(&mut self) -> Option<Packet> {
        let p = self.inner.next_packet()?;
        self.shadow.offer(&p);
        Some(p)
    }
}

impl MimicReport {
    /// Fraction of compared packets whose lag is within `bound`.
    pub fn fraction_within(&self, bound: TimeDelta) -> f64 {
        if self.compared == 0 {
            return 1.0;
        }
        // Binary search over quantiles is overkill; count directly.
        let bound_ns = bound.as_ns_f64();
        let within = (0..=100)
            .map(|q| q as f64 / 100.0)
            .filter(|&q| self.lags_ns.quantile(q).is_some_and(|v| v <= bound_ns))
            .count();
        within as f64 / 101.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_traffic::{
        ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, PacketSource,
        SizeDistribution, TrafficMatrix,
    };

    fn trace(load: f64, seed: u64, horizon: SimTime) -> Vec<Packet> {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let sources: Vec<_> = (0..cfg.ribbons)
            .map(|i| {
                let g = PacketGenerator::new(
                    i,
                    cfg.port_rate(),
                    load,
                    tm.row(i).to_vec(),
                    SizeDistribution::Imix,
                    ArrivalProcess::Poisson,
                    128,
                    seed,
                )
                .unwrap();
                BoundedSource::new(g, horizon)
            })
            .collect();
        MergedSource::new(sources).packets().collect()
    }

    #[test]
    fn lag_is_bounded_and_does_not_grow_with_trace_length() {
        let cfg = RouterConfig::small();
        let checker = MimicChecker::new(cfg);
        let short = checker.run(
            &trace(0.7, 3, SimTime::from_ns(30_000)),
            SimTime::from_ns(400_000),
        );
        let long = checker.run(
            &trace(0.7, 3, SimTime::from_ns(120_000)),
            SimTime::from_ns(800_000),
        );
        assert!(short.compared > 50);
        assert!(long.compared > 3 * short.compared / 2);
        // Finite-lag mimicking: the max lag of the longer run must not
        // blow up relative to the shorter one.
        let s = short.max_lag.as_ns_f64().max(1.0);
        let l = long.max_lag.as_ns_f64();
        assert!(
            l < 3.0 * s + 100_000.0,
            "lag grew with trace length: {l} ns vs {s} ns"
        );
    }

    #[test]
    fn speedup_reduces_lag() {
        let mut base = RouterConfig::small();
        // Give the HBM headroom so speedup validates.
        base.hbm_geometry.channels_per_stack = 16;
        let t = trace(0.8, 5, SimTime::from_ns(80_000));
        let horizon = SimTime::from_ns(600_000);

        let r1 = MimicChecker::new(base.clone()).run(&t, horizon);
        let mut fast = base.clone();
        fast.speedup = 2.0;
        let r2 = MimicChecker::new(fast).run(&t, horizon);
        assert!(r1.compared > 100 && r2.compared > 100);
        assert!(
            r2.mean_lag <= r1.mean_lag,
            "speedup 2.0 mean lag {} > speedup 1.0 {}",
            r2.mean_lag,
            r1.mean_lag
        );
    }

    #[test]
    fn fraction_within_is_monotone() {
        let cfg = RouterConfig::small();
        let r = MimicChecker::new(cfg).run(
            &trace(0.6, 9, SimTime::from_ns(40_000)),
            SimTime::from_ns(400_000),
        );
        let a = r.fraction_within(TimeDelta::from_ns(100));
        let b = r.fraction_within(r.max_lag + TimeDelta::from_ns(1));
        assert!(a <= b);
        assert!((b - 1.0).abs() < 1e-9);
    }
}
