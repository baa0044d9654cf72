//! `rip-ledger`: the repository benchmark.
//!
//! ```text
//! rip-ledger --workload <paper_imix|small_64b|sps_fleet_hotspot|all>
//!            --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a fixed-size batch job repeated for `--seconds`;
//! every repetition is checked (packet conservation, identical report
//! digests, and on the first repetition per-flow departure order). With
//! `--trace 0` the last stdout line carries the end-to-end metrics
//! (medians over repetitions); with `--trace 1` it carries the per-layer
//! metrics: profiler phase shares from traced repetitions, isolated
//! layer replays and the run's deterministic counts. See README.md.

mod layers;
mod util;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Instant;

use rip_telemetry::SAMPLE_STRIDE;

use util::{median, ratio, ProfileTotals};
use workload::{Conservation, FleetTimes, Hubs, Kind, Output, Rep, Setup, Workload};

const USAGE: &str = "usage: rip-ledger --workload <paper_imix|small_64b|sps_fleet_hotspot|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Input sets per run: untraced repetitions cycle through this many
/// sources, each seeded from `--seed`, so a run's medians average over
/// inputs as well as over time. A seed's inputs vary its simulation cost
/// by several per cent (how much traffic takes the HBM path). A run ends
/// only on a full cycle, so every set weighs the same in the medians
/// whatever the host's speed.
const INPUT_SETS: usize = 4;

/// Fewest untraced repetitions a result is built from, whatever
/// `--seconds` says: every input set twice, so each digest repeats.
const MIN_REPS: usize = 2 * INPUT_SETS;

/// Standalone setups measured after every untraced repetition.
const SETUPS_PER_REP: usize = 5;

/// Profiler phases the engines sample 1-in-`SAMPLE_STRIDE`; their
/// totals are scaled back up. The other phases are timed exactly.
const SAMPLED_PHASES: [&str; 5] = [
    "kernel_pop",
    "batch_assembly",
    "hbm_timing",
    "batch_drain",
    "dispatch",
];

/// Phases reported as `phase.<name>.share`.
const REPORTED_PHASES: [&str; 9] = [
    "kernel_pop",
    "batch_assembly",
    "hbm_timing",
    "batch_drain",
    "dispatch",
    "telemetry_export",
    "frame_decode",
    "staging",
    "merge_replay",
];

/// Flag reconciliation residuals above this share of the phase.
const RESIDUAL_FLAG: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a workload run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks every repetition must pass; collects failures.
#[derive(Default)]
struct Checks {
    /// First digest seen per input set.
    digests: [Option<u64>; INPUT_SETS],
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn rep(&mut self, set: usize, rep: &Rep, label: &str) {
        let c: &Conservation = &rep.cons;
        self.attempted += c.offered;
        self.failed += c.lost;
        if c.lost > 0 {
            self.problems.push(format!(
                "{label}: {} of {} offered packets neither delivered nor dropped with a cause",
                c.lost, c.offered
            ));
        }
        match self.digests[set] {
            None => self.digests[set] = Some(rep.digest),
            Some(d) if d != rep.digest => self.problems.push(format!(
                "{label}: report digest {:016x} differs from input set {set}'s first {d:016x}",
                rep.digest
            )),
            Some(_) => {}
        }
    }

    fn flows(&mut self, w: &Workload, rep: &Rep) {
        if let Err(e) = workload::check_flows(w, &rep.output) {
            self.problems.push(format!("per-flow check: {e}"));
        }
    }

    fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

fn print_context(sets: &[Workload], args: &Args) {
    let w = &sets[0];
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "ledger: workload={} seed={} input_set_seeds={} horizon_us={} deadline_us={} \
         cores_available={} build_profile={} mode={}",
        w.kind.name(),
        args.seed,
        sets.iter()
            .map(|s| s.seed.to_string())
            .collect::<Vec<_>>()
            .join(","),
        w.horizon.as_ps() / 1_000_000,
        w.deadline().as_ps() / 1_000_000,
        cores,
        profile,
        if args.trace { "traced" } else { "untraced" },
    );
    println!(
        "ledger: the model is checked only against the rip-analysis closed forms; \
         there is no hardware reference, so no error figure is given"
    );
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("ledger: {title}");
    for m in metrics {
        println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// What the end-to-end metrics need from one repetition.
struct RepSummary {
    wall_s: f64,
    run_s: f64,
    report_s: f64,
    /// Part of the setup is inside `run_s` (the fleet worker calls build
    /// their planes).
    setup_in_run: bool,
    delivered: u64,
    delivered_bits: u64,
}

impl RepSummary {
    fn of(rep: &Rep) -> Self {
        RepSummary {
            wall_s: rep.wall_s,
            run_s: rep.run_s,
            report_s: rep.report_s,
            setup_in_run: rep.setup_s.is_none(),
            delivered: rep.cons.delivered,
            delivered_bits: rep.cons.delivered_bits,
        }
    }

    /// Simulated packets and Gbit per host second of simulation, given
    /// the median setup time `run_s` repeats.
    fn rates(&self, in_run_setup_s: f64) -> (f64, f64) {
        let sim_s = self.run_s
            - if self.setup_in_run {
                in_run_setup_s
            } else {
                0.0
            };
        (
            ratio(self.delivered as f64, sim_s),
            ratio(self.delivered_bits as f64 / 1e9, sim_s),
        )
    }
}

/// Untraced repetitions until `seconds` have passed (at least
/// [`MIN_REPS`], and whole cycles), cycling through the input sets, each
/// followed by standalone setups.
fn untraced(sets: &[Workload], args: &Args) -> Outcome {
    let start = Instant::now();
    let mut checks = Checks::default();
    let mut setups: Vec<Setup> = Vec::new();
    let mut reps: Vec<RepSummary> = Vec::new();
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_REPS
        || reps.len() % sets.len() != 0
        || start.elapsed().as_secs_f64() < args.seconds as f64
    {
        let set = reps.len() % sets.len();
        let w = &sets[set];
        let rep = workload::run(w, None);
        checks.rep(
            set,
            &rep,
            &format!("repetition {} (input set {set})", reps.len()),
        );
        if reps.is_empty() {
            // Read before the per-flow check allocates its own tables.
            peak_rss_mb = util::peak_rss_mb();
            checks.flows(w, &rep);
            print_hotspot(w, &rep.output);
        }
        reps.push(RepSummary::of(&rep));
        setups.extend(rep.setup_s.map(|s| Setup {
            total_s: s,
            in_run_s: 0.0,
        }));
        drop(rep);
        for _ in 0..SETUPS_PER_REP {
            setups.push(w.setup_only());
        }
    }
    let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
    let in_run_setup_s = median(&setups.iter().map(|s| s.in_run_s).collect::<Vec<_>>());
    let col = |f: fn(&RepSummary) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let (pkts, gbit): (Vec<f64>, Vec<f64>) = reps.iter().map(|r| r.rates(in_run_setup_s)).unzip();
    println!(
        "ledger: median host seconds per repetition: simulation {:.6}, report build+serialize {:.6}",
        col(|r| r.run_s),
        col(|r| r.report_s)
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "ledger: repetition {i}: wall_s {:.6} sim_pkts_per_s {:.1}",
            r.wall_s,
            r.rates(in_run_setup_s).0
        );
    }
    let metrics = vec![
        metric("sim_pkts_per_s", median(&pkts), "pkt/s"),
        metric("sim_gbit_per_s", median(&gbit), "Gbit/s"),
        metric("wall_s", col(|r| r.wall_s), "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    finish(&sets[0], &checks, reps.len(), setups.len(), metrics)
}

/// The fleet hotspot's effect on the HBM, from a repetition's report.
fn print_hotspot(w: &Workload, output: &Output) {
    let depths = workload::hot_queue_depths(w, output);
    if depths.is_empty() {
        return;
    }
    let planes: Vec<String> = depths
        .iter()
        .enumerate()
        .map(|(p, (hot, other))| format!("plane {p} {hot} vs {other}"))
        .collect();
    println!(
        "ledger: median HBM queue depth in frames, hot output 0 vs the deepest other output: {}",
        planes.join(", ")
    );
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn finish(
    w: &Workload,
    checks: &Checks,
    reps: usize,
    setups: usize,
    metrics: Vec<Metric>,
) -> Outcome {
    let digests: Vec<String> = checks
        .digests
        .iter()
        .flatten()
        .map(|d| format!("{d:016x}"))
        .collect();
    println!(
        "ledger: {reps} repetitions, {setups} setup samples, report digest per input set {}",
        digests.join(",")
    );
    println!(
        "ledger: lost_pkt_frac {} ({} of {} offered packets over all repetitions neither delivered \
         nor dropped with a cause by the deadline; in flight there counts as lost)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for p in &checks.problems {
        println!("ledger: CHECK FAILED: {p}");
    }
    if checks.ok() {
        println!(
            "ledger: checks passed: conservation, identical digests, per-flow order ({})",
            w.kind.name()
        );
    }
    Outcome {
        correct: checks.ok(),
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    }
}

/// Untraced and traced repetitions of the first input set alternate for
/// half the budget; the isolated layer replays use the rest.
fn traced(w: &Workload, args: &Args) -> Outcome {
    let start = Instant::now();
    let budget = args.seconds as f64;
    let mut checks = Checks::default();
    let hubs = Hubs::new();
    let mut untraced_reps: Vec<RepSummary> = Vec::new();
    let mut traced_reps: Vec<RepSummary> = Vec::new();
    let mut fleet: Vec<FleetTimes> = Vec::new();
    let mut traced_fleet: Vec<FleetTimes> = Vec::new();
    let mut first: Option<Rep> = None;
    while traced_reps.is_empty() || start.elapsed().as_secs_f64() < budget / 2.0 {
        let rep = workload::run(w, None);
        checks.rep(
            0,
            &rep,
            &format!("untraced repetition {}", untraced_reps.len()),
        );
        untraced_reps.push(RepSummary::of(&rep));
        fleet.extend(rep.fleet);
        if first.is_none() {
            first = Some(rep);
        }
        // The profiler must not perturb any output: the traced digest
        // joins the same equality check.
        let rep = workload::run(w, Some(&hubs));
        checks.rep(0, &rep, &format!("traced repetition {}", traced_reps.len()));
        traced_reps.push(RepSummary::of(&rep));
        traced_fleet.extend(rep.fleet);
    }
    let first = first.expect("at least one repetition ran");
    checks.flows(w, &first);
    print_hotspot(w, &first.output);
    let counts = first.counts;

    // Profiler totals over every traced repetition: the engines (or
    // fleet planes) and the collector's own records.
    let engine = ProfileTotals::parse(&hubs.engine_out.contents(), |_| true);
    let collect = ProfileTotals::parse(&hubs.collect_out.contents(), |s| s == "collect");
    let profiled_wall_s = (engine.wall_ns + collect.wall_ns) as f64 / 1e9;
    let scale = |name: &str| {
        if SAMPLED_PHASES.contains(&name) {
            SAMPLE_STRIDE as f64
        } else {
            1.0
        }
    };
    let engine_s = |name: &str| engine.ns(name) as f64 * scale(name) / 1e9;
    let phase_s = |name: &str| engine_s(name) + collect.ns(name) as f64 / 1e9;
    let shares: Vec<(&str, f64)> = REPORTED_PHASES
        .iter()
        .map(|&p| (p, ratio(phase_s(p), profiled_wall_s)))
        .collect();
    let explained: f64 = shares.iter().map(|s| s.1).sum();

    // Isolated layer replays on the workload's own inputs.
    let streams = w.switch_streams();
    let remaining = (budget - start.elapsed().as_secs_f64()).max(1.0);
    let rates = layers::measure(w, &streams, &first.merged, remaining);
    drop(streams);

    let reps = traced_reps.len() as f64;
    let per_rep = |x: f64| x / reps;
    let dispatched: u64 = SAMPLED_PHASES[1..].iter().map(|p| engine.count(p)).sum();
    let facts = layers::RunFacts {
        offered: first.cons.offered,
        counts,
        events: per_rep((dispatched * SAMPLE_STRIDE) as f64),
        // Engine wall time no phase lap covers.
        unattributed_s: per_rep(
            engine.wall_ns as f64 / 1e9 - REPORTED_PHASES.iter().map(|p| engine_s(p)).sum::<f64>(),
        ),
        ingest_s: per_rep(traced_fleet.iter().map(|f| f.ingest_s).sum()),
        merge_s: per_rep(traced_fleet.iter().map(|f| f.merge_s).sum()),
    };
    let rows = layers::reconcile(w, &rates, &facts, |p| per_rep(phase_s(p)));
    layers::print_reconciliation(&rows, RESIDUAL_FLAG);
    println!(
        "ledger: phase shares sum to {:.1}% of the profiled wall time ({:.6} s per traced repetition){}",
        explained * 100.0,
        per_rep(profiled_wall_s),
        if explained > 1.0 {
            "; above 100%: the sampled laps over-count (a finding, not corrected here)"
        } else {
            ""
        }
    );
    if let Some(f) = fleet.first() {
        println!(
            "ledger: plane_done reports are {} of {} worker stream bytes ({:.1}%)",
            f.plane_done_bytes,
            counts.fleet_stream_bytes,
            100.0 * ratio(f.plane_done_bytes as f64, counts.fleet_stream_bytes as f64)
        );
    }

    let col = |reps: &[RepSummary], f: fn(&RepSummary) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let fleet_col = |f: fn(&FleetTimes) -> f64| median(&fleet.iter().map(f).collect::<Vec<_>>());
    let stream_mb = counts.fleet_stream_bytes as f64 / 1e6;
    let mut metrics = vec![
        metric("traffic.pkts_per_s", rates.traffic_pkts_per_s, "pkt/s"),
        metric("photonics.pkts_per_s", rates.photonics_pkts_per_s, "pkt/s"),
        metric("kernel.ops_per_s", rates.kernel_ops_per_s, "op/s"),
        metric("batch.pkts_per_s", rates.batch_pkts_per_s, "pkt/s"),
        metric("hbm.frames_per_s", rates.hbm_frames_per_s, "frame/s"),
        metric("hbm.cmds_per_s", rates.hbm_cmds_per_s, "cmd/s"),
        metric("output.pkts_per_s", rates.output_pkts_per_s, "pkt/s"),
        metric("switch.report_s", col(&untraced_reps, |r| r.report_s), "s"),
        metric(
            "telemetry.records_per_s",
            rates.telemetry_records_per_s,
            "record/s",
        ),
        metric("fleet.worker_s", fleet_col(|f| f.worker_s), "s"),
        metric(
            "fleet.ingest_mb_per_s",
            ratio(stream_mb, fleet_col(|f| f.ingest_s)),
            "MB/s",
        ),
        metric(
            "fleet.merge_records_per_s",
            fleet_col(|f| ratio(f.merged_records as f64, f.merge_s)),
            "record/s",
        ),
    ];
    for (p, s) in &shares {
        metrics.push(metric(&format!("phase.{p}.share"), *s, "ratio"));
    }
    metrics.push(metric("phase.unexplained", 1.0 - explained, "ratio"));
    metrics.push(metric(
        "profile.overhead_frac",
        ratio(
            col(&traced_reps, |r| r.wall_s),
            col(&untraced_reps, |r| r.wall_s),
        ) - 1.0,
        "ratio",
    ));
    for (name, value) in [
        ("count.pkts", counts.pkts),
        ("count.hbm_cmds", counts.hbm_cmds),
        ("count.frames_written", counts.frames_written),
        ("count.frames_bypassed", counts.frames_bypassed),
        ("count.telemetry_records", counts.telemetry_records),
        ("count.fleet_stream_bytes", counts.fleet_stream_bytes),
    ] {
        metrics.push(metric(name, value as f64, "count"));
    }
    metrics.push(metric(
        "lost_pkt_frac",
        ratio(checks.failed as f64, checks.attempted as f64),
        "ratio",
    ));
    finish(
        w,
        &checks,
        untraced_reps.len() + traced_reps.len(),
        0,
        metrics,
    )
}

/// `--workload all`: every workload in its own process, so each one's
/// peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rip-ledger: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in workload::ALL {
        println!("=== {} ===", kind.name());
        let status = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("rip-ledger: {} exited with {s}", kind.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("rip-ledger: cannot run {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rip-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::from_name(&args.workload) else {
        eprintln!("rip-ledger: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let sets: Vec<Workload> = (0..INPUT_SETS)
        .map(|j| Workload::new(kind, rip_sim::rng::derive_seed(args.seed, j as u64)))
        .collect();
    print_context(&sets, &args);
    let outcome = if args.trace {
        traced(&sets[0], &args)
    } else {
        untraced(&sets, &args)
    };
    print_table(
        if args.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &outcome.metrics,
    );
    // A failed check is reported through `correct`/`failed` in the
    // result line, not the exit code.
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
