//! Isolated replays of each layer on the workload's own inputs, timed
//! from outside through the layer's public API, and the reconciliation
//! of their per-operation costs against the profiler's phase shares.

use std::hint::black_box;
use std::time::Instant;

use rip_core::{Batch, BatchAssembler, Chunk, OutputPort};
use rip_hbm::{HbmGroup, PfiController};
use rip_sim::{EventQueue, VecPool};
use rip_telemetry::{parse_sink_line, JsonlSink, MemorySink, ParsedLine};
use rip_traffic::{Packet, PacketSource};
use rip_units::{SimTime, TimeDelta};

use crate::util::{median, ratio};
use crate::workload::{Counts, Workload};

/// Per-layer throughput from the isolated replays (0 = the layer is
/// not on this workload's path).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRates {
    pub traffic_pkts_per_s: f64,
    pub photonics_pkts_per_s: f64,
    pub kernel_ops_per_s: f64,
    pub batch_pkts_per_s: f64,
    pub hbm_frames_per_s: f64,
    pub hbm_cmds_per_s: f64,
    pub output_pkts_per_s: f64,
    pub telemetry_records_per_s: f64,
}

/// Run `pass` (returning work done and seconds taken) at least once and
/// until `budget` seconds are spent, at most `MAX_PASSES` times; the
/// median rate.
fn rate(budget: f64, mut pass: impl FnMut() -> (f64, f64)) -> f64 {
    const MAX_PASSES: usize = 50;
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.is_empty() || (rates.len() < MAX_PASSES && start.elapsed().as_secs_f64() < budget) {
        let (work, secs) = pass();
        rates.push(ratio(work, secs));
    }
    median(&rates)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Pull a source to exhaustion, counting packets.
fn drain_count(mut src: impl PacketSource) -> u64 {
    let mut n = 0u64;
    while let Some(p) = src.next_packet() {
        black_box(&p);
        n += 1;
    }
    n
}

/// Measure every layer on the workload's path within about `total`
/// seconds. `streams` are the per-switch arrival streams, `merged` the
/// fleet's merged telemetry stream (empty when silent).
pub fn measure(w: &Workload, streams: &[Vec<Packet>], merged: &[u8], total: f64) -> LayerRates {
    // Traffic, kernel, batch, output and HBM everywhere; photonics and
    // telemetry on the fleet path only.
    let budget = total / if w.is_fleet() { 7.0 } else { 5.0 };
    let mut r = LayerRates {
        traffic_pkts_per_s: rate(budget, || {
            let (n, secs) = if w.is_fleet() {
                timed(|| drain_count(w.fiber_source()))
            } else {
                timed(|| drain_count(w.switch_source()))
            };
            (n as f64, secs)
        }),
        ..LayerRates::default()
    };
    if w.is_fleet() {
        let router = w.router();
        let sw = w.sps_workload();
        r.photonics_pkts_per_s = rate(budget, || {
            let (n, secs) = timed(|| {
                (0..w.cfg.switches)
                    .map(|p| {
                        drain_count(router.plane_source(
                            &sw,
                            w.horizon,
                            &rip_core::FaultPlan::default(),
                            p,
                        ))
                    })
                    .sum::<u64>()
            });
            (n as f64, secs)
        });
    }
    r.kernel_ops_per_s = rate(budget, || kernel_pass(w, &streams[0]));
    r.batch_pkts_per_s = rate(budget, || batch_pass(w, streams));
    let batches: Vec<Vec<Batch>> = streams.iter().map(|s| assemble(w, s)).collect();
    r.output_pkts_per_s = rate(budget, || output_pass(w, &batches));
    drop(batches);
    let hbm = hbm_rates(w, budget);
    r.hbm_frames_per_s = hbm.0;
    r.hbm_cmds_per_s = hbm.1;
    if !merged.is_empty() {
        let mut mem = MemorySink::new();
        for line in merged.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let line = std::str::from_utf8(line).expect("telemetry is UTF-8");
            if let Ok(ParsedLine::Telemetry(rec)) = parse_sink_line(line) {
                mem.push_record(rec);
            }
        }
        let records = mem.records().len() as f64;
        r.telemetry_records_per_s = rate(budget, || {
            let mut buf = Vec::with_capacity(merged.len());
            let ((), secs) = timed(|| {
                let mut sink = JsonlSink::new(&mut buf);
                mem.replay_into(&mut sink);
            });
            black_box(&buf);
            (records, secs)
        });
    }
    r
}

/// The event queue's standing population in the switch: at most one
/// flush timer per VOQ, one drain per output and the read turn.
fn kernel_population(w: &Workload) -> usize {
    let n = w.cfg.ribbons;
    n * n + 2 * n + 1
}

/// Hold model at the switch's standing population: each op pops the
/// earliest event and schedules the next workload packet one mean
/// population-span later, so the queue neither grows nor drains.
fn kernel_pass(w: &Workload, packets: &[Packet]) -> (f64, f64) {
    let pop = kernel_population(w).min(packets.len());
    let span = w.horizon.as_ps() / packets.len().max(1) as u64 * pop as u64;
    let mut q: EventQueue<Packet> = EventQueue::new();
    for p in &packets[..pop] {
        q.schedule(p.arrival, *p);
    }
    let ops = packets.len();
    let ((), secs) = timed(|| {
        for i in 0..ops {
            let (now, p) = q.pop().expect("population is standing");
            black_box(&p);
            let next = packets[i % packets.len()];
            let jitter = next.arrival.as_ps() % span.max(1);
            q.schedule(now + TimeDelta::from_ps(span / 2 + jitter), next);
        }
    });
    black_box(q.len());
    (ops as f64, secs)
}

fn assemblers(w: &Workload) -> Vec<BatchAssembler> {
    let n = w.cfg.ribbons;
    (0..n)
        .map(|i| BatchAssembler::new(i, n, w.cfg.batch_size()))
        .collect()
}

/// Batch formation as the switch does it: chunk storage recycled
/// through a pool, padded flushes of every VOQ at the end.
fn batch_pass(w: &Workload, streams: &[Vec<Packet>]) -> (f64, f64) {
    let mut pkts = 0usize;
    let ((), secs) = timed(|| {
        for s in streams {
            let mut asm = assemblers(w);
            let mut pool: VecPool<Chunk> = VecPool::default();
            let mut out = Vec::new();
            for p in s {
                asm[p.input].push_into(p, &mut pool, &mut out);
                for b in out.drain(..) {
                    pool.put(black_box(b).chunks);
                }
            }
            for a in &mut asm {
                for o in 0..w.cfg.ribbons {
                    if let Some(b) = a.flush_with(o, &mut pool) {
                        pool.put(black_box(b).chunks);
                    }
                }
            }
            pkts += s.len();
        }
    });
    (pkts as f64, secs)
}

/// The batches one stream forms, in formation order (untimed input to
/// the output replay).
fn assemble(w: &Workload, s: &[Packet]) -> Vec<Batch> {
    let mut asm = assemblers(w);
    let mut pool: VecPool<Chunk> = VecPool::default();
    let mut out = Vec::new();
    for p in s {
        asm[p.input].push_into(p, &mut pool, &mut out);
    }
    for a in &mut asm {
        for o in 0..w.cfg.ribbons {
            out.extend(a.flush_with(o, &mut pool));
        }
    }
    out
}

fn output_pass(w: &Workload, batches: &[Vec<Batch>]) -> (f64, f64) {
    let mut departed = 0usize;
    let ((), secs) = timed(|| {
        for stream in batches {
            let mut ports: Vec<OutputPort> = (0..w.cfg.ribbons)
                .map(|o| OutputPort::new(o, w.cfg.port_rate(), w.cfg.alpha(), w.cfg.wavelengths))
                .collect();
            for b in stream {
                let (_, deps) = ports[b.output].drain_batch(b, SimTime::ZERO);
                departed += black_box(deps).len();
            }
        }
    });
    (departed as f64, secs)
}

/// Sustained PFI write/read on the workload's HBM group geometry:
/// frames per second and HBM commands per second. The frame count
/// doubles until one pass takes a measurable time.
fn hbm_rates(w: &Workload, budget: f64) -> (f64, f64) {
    let mut frames = 64u64;
    loop {
        let (f, c, secs) = hbm_pass(w, frames);
        if secs >= budget / 8.0 || frames >= 1 << 22 {
            let mut fr = vec![ratio(f, secs)];
            let mut cr = vec![ratio(c, secs)];
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < budget {
                let (f, c, secs) = hbm_pass(w, frames);
                fr.push(ratio(f, secs));
                cr.push(ratio(c, secs));
            }
            return (median(&fr), median(&cr));
        }
        frames *= 2;
    }
}

fn hbm_pass(w: &Workload, frames: u64) -> (f64, f64, f64) {
    let cfg = &w.cfg;
    let mut group = HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing);
    let mut pfi = PfiController::new(cfg.pfi(), &group).expect("valid PFI config");
    let (report, secs) = timed(|| pfi.run_sustained(&mut group, frames));
    let cmds: u64 = group
        .channels()
        .map(|c| {
            let s = c.stats();
            s.activates.get()
                + s.precharges.get()
                + s.reads.get()
                + s.writes.get()
                + s.refreshes.get()
        })
        .sum();
    (report.frames as f64, cmds as f64, secs)
}

/// One reconciliation row: a profiler phase against the layer costs
/// that should explain it.
pub struct Row {
    pub phase: &'static str,
    pub measured_s: f64,
    pub predicted_s: f64,
}

impl Row {
    /// `(measured − predicted) / measured`: the share of the phase the
    /// isolated layer costs do not explain (negative when they
    /// over-explain it). `None` when the phase measured no time.
    pub fn residual(&self) -> Option<f64> {
        (self.measured_s > 0.0).then(|| (self.measured_s - self.predicted_s) / self.measured_s)
    }
}

/// Per-run inputs to the reconciliation, per traced repetition.
pub struct RunFacts {
    /// Offered packets the engine pulled from its source(s).
    pub offered: u64,
    pub counts: Counts,
    /// Events the engines dispatched, estimated from the sampled
    /// dispatch-phase span counts.
    pub events: f64,
    /// Engine wall time outside every phase lap.
    pub unattributed_s: f64,
    /// Fleet ingest and merge seconds timed around the calls.
    pub ingest_s: f64,
    pub merge_s: f64,
}

/// Compare (isolated cost per op) × (the run's counts) with each phase's
/// profiled seconds, all per traced repetition.
pub fn reconcile(
    w: &Workload,
    rates: &LayerRates,
    facts: &RunFacts,
    phase_s: impl Fn(&str) -> f64,
) -> Vec<Row> {
    let per = |count: f64, rate: f64| ratio(count, rate);
    let c = &facts.counts;
    let mut rows = vec![
        Row {
            phase: "kernel_pop",
            measured_s: phase_s("kernel_pop"),
            predicted_s: per(facts.events, rates.kernel_ops_per_s),
        },
        Row {
            phase: "batch_assembly",
            measured_s: phase_s("batch_assembly"),
            predicted_s: per(facts.offered as f64, rates.batch_pkts_per_s),
        },
        Row {
            phase: "hbm_timing",
            measured_s: phase_s("hbm_timing"),
            predicted_s: per(
                (c.frames_written + c.frames_read) as f64,
                rates.hbm_frames_per_s,
            ),
        },
        Row {
            phase: "batch_drain",
            measured_s: phase_s("batch_drain"),
            predicted_s: per(c.pkts as f64, rates.output_pkts_per_s),
        },
        // The engine pulls its source while checking for exhaustion at
        // the top of its loop, before any lap starts: source cost lands
        // outside every phase.
        Row {
            phase: "unattributed (source)",
            measured_s: facts.unattributed_s,
            predicted_s: if w.is_fleet() {
                per(facts.offered as f64, rates.photonics_pkts_per_s)
            } else {
                per(facts.offered as f64, rates.traffic_pkts_per_s)
            },
        },
    ];
    if w.is_fleet() {
        rows.push(Row {
            phase: "telemetry_export",
            measured_s: phase_s("telemetry_export"),
            predicted_s: per(c.telemetry_records as f64, rates.telemetry_records_per_s),
        });
        rows.push(Row {
            phase: "frame_decode+staging",
            measured_s: phase_s("frame_decode") + phase_s("staging"),
            predicted_s: facts.ingest_s,
        });
        rows.push(Row {
            phase: "merge_replay",
            measured_s: phase_s("merge_replay"),
            predicted_s: facts.merge_s,
        });
    }
    rows
}

/// Print the reconciliation table, flagging residuals above `flag`.
pub fn print_reconciliation(rows: &[Row], flag: f64) {
    println!(
        "ledger: reconciliation per traced repetition: isolated cost per op x the run's count, \
         against the profiled phase"
    );
    println!(
        "  {:<26} {:>12} {:>12} {:>9}",
        "phase", "profiled_s", "predicted_s", "residual"
    );
    for r in rows {
        let residual = match r.residual() {
            Some(res) if res.abs() > flag => format!(
                "{:>8.1}%  FLAG: residual above {:.0}%",
                res * 100.0,
                flag * 100.0
            ),
            Some(res) => format!("{:>8.1}%", res * 100.0),
            // The sampled laps already exceed the wall they sit in.
            None => format!("{:>9}", "n/a"),
        };
        println!(
            "  {:<26} {:>12.6} {:>12.6} {residual}",
            r.phase, r.measured_s, r.predicted_s
        );
    }
}
