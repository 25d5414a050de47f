//! End-to-end and per-layer host-time benchmark for the ZnG simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zng-graph --seed 42 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload on one thread. Each repetition
//! synthesises the traces, builds a `Simulation`, runs it and renders the
//! `RunResult` JSON; one untimed warm-up repetition precedes the timed
//! ones, each beside a calibration kernel that scales its host times to
//! a reference host speed. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the separate traced mode and reports the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. See `README.md`
//! beside this file.

mod calibrate;
mod pipeline;
mod replay;
mod trace;
mod workloads;

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use zng_json::Value;
use zng_platforms::{PlatformKind, RunResult, Simulation};
use zng_types::Result;

use pipeline::{check, run_rep, warp_ops, Digest, Rep};
use trace::{Layer, Tracer};
use workloads::{params, Workload, TRACE_SETS};

/// The paper's ZnG over HybridGPU IPC speedup (ISCA 2020, Fig. 10).
const PAPER_ZNG_OVER_HYBRID: f64 = 7.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (42u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload `{value}`; choose one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("in (0, 120]"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Run accounting shared by both modes: every simulation run is
/// attempted, and fails on an `Err` or a failed output check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first repetition's digest, per platform and trace set.
    references: HashMap<(PlatformKind, usize), Digest>,
}

impl Tally {
    /// Records a finished repetition of trace set `set` on `platform`;
    /// returns it when it passed the output check.
    fn record(&mut self, platform: PlatformKind, set: usize, outcome: Result<Rep>) -> Option<Rep> {
        self.attempted += 1;
        let verdict = outcome.map_err(|e| e.to_string()).and_then(|rep| {
            let key = (platform, set);
            check(&rep, self.references.get(&key).copied())?;
            self.references.insert(key, rep.digest);
            Ok(rep)
        });
        match verdict {
            Ok(rep) => Some(rep),
            Err(why) => {
                self.failed += 1;
                eprintln!("run {} (trace set {set}) failed: {why}", self.attempted);
                None
            }
        }
    }

    /// Records a run whose result is only checked for an error.
    fn record_plain<T>(&mut self, outcome: Result<T>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| {
                self.failed += 1;
                eprintln!("run {} failed: {e}", self.attempted);
            })
            .ok()
    }

    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One checked repetition of trace set `set` on `platform`, tracing off.
fn plain_rep(
    tally: &mut Tally,
    w: &Workload,
    seed: u64,
    set: usize,
    platform: PlatformKind,
) -> Option<Rep> {
    let params = params(seed, set);
    let cfg = w.config(params.seed);
    let outcome = run_rep(platform, w.mix, &params, &cfg, &mut Tracer::disabled());
    tally.record(platform, set, outcome)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The highest whole percentile with at least ten samples beyond it on
/// the slow side, when that is above the median: the high side of
/// times, the low side of throughputs.
fn tail(values: &[f64], higher_is_better: bool) -> Option<(usize, f64)> {
    let n = values.len();
    let pct = 100 * n.checked_sub(10)? / n;
    if pct <= 50 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct * n / 100).min(n - 1);
    Some(if higher_is_better {
        (100 - pct, v[n - 1 - rank])
    } else {
        (pct, v[rank])
    })
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn describe(w: &Workload, args: &Args) {
    println!(
        "workload {}: platform {}, mix {}, {} warps x {} ops per app, {} pages per app, \
         {} trace sets from seed {}{}",
        w.name,
        w.platform,
        w.mix.join(","),
        workloads::WARPS_PER_APP,
        workloads::OPS_PER_WARP,
        workloads::FOOTPRINT_PAGES,
        TRACE_SETS,
        args.seed,
        if w.reliable {
            format!(
                ", redundancy+integrity+endurance+checkpoint on, scrub/refresh/checkpoint every {} \
                 and health every {} requests",
                workloads::MAINT_EVERY,
                workloads::HEALTH_EVERY
            )
        } else {
            String::new()
        }
    );
    println!(
        "caches start cold: the simulator has no warm-up phase, so every simulated metric \
         includes the cold-start misses"
    );
}

/// Mean of `f` over the first result of each trace set.
fn per_set_mean(results: &[Option<RunResult>], f: impl Fn(&RunResult) -> f64) -> f64 {
    let v: Vec<f64> = results.iter().flatten().map(f).collect();
    mean(&v)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, tally: &mut Tally) -> Option<Vec<Metric>> {
    let w = &args.workload;
    plain_rep(tally, w, args.seed, 0, w.platform);
    // The peak of one complete repetition. Read before the timed loop,
    // whose repetitions would add heap growth that depends on how many
    // of them fit in `--seconds`.
    let rss = peak_rss_mb();

    // Host times as measured, then scaled to the reference host by the
    // calibration kernel timed just before each repetition.
    let (mut raw_rps, mut raw_wall, mut raw_setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rps, mut wall, mut setup, mut kernel) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut firsts: Vec<Option<RunResult>> = vec![None; TRACE_SETS];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < TRACE_SETS || start.elapsed() < budget {
        let set = i % TRACE_SETS;
        let k = calibrate::kernel_s();
        if let Some(rep) = plain_rep(tally, w, args.seed, set, w.platform) {
            let t = rep.timings;
            let requests = rep.result.requests as f64;
            raw_rps.push(requests / t.run_s);
            raw_wall.push(t.wall_s());
            raw_setup.push(t.setup_s());
            rps.push(requests / calibrate::scale(t.run_s, k));
            wall.push(calibrate::scale(t.wall_s(), k));
            setup.push(calibrate::scale(t.setup_s(), k));
            kernel.push(k);
            firsts[set].get_or_insert(rep.result);
        }
        i += 1;
    }
    if rps.is_empty() || firsts.iter().any(Option::is_none) {
        return None;
    }

    println!(
        "end-to-end, {} timed repetitions after 1 untimed warm-up; host times scaled to a \
         calibration kernel time of {} s (measured median {:.6} s):",
        rps.len(),
        calibrate::REFERENCE_S,
        median(&kernel)
    );
    for (name, unit, values, raw, higher_is_better) in [
        ("requests_per_s", "1/s", &rps, &raw_rps, true),
        ("wall_s", "s", &wall, &raw_wall, false),
        ("setup_s", "s", &setup, &raw_setup, false),
    ] {
        let tail =
            tail(values, higher_is_better).map_or(String::new(), |(p, v)| format!(", p{p} {v:.6}"));
        println!(
            "  {name:<18} median {:.6} {unit}{tail} (n={}); unscaled median {:.6}",
            median(values),
            values.len(),
            median(raw)
        );
    }
    let ipc = per_set_mean(&firsts, |r| r.ipc);
    let metrics = vec![
        metric("requests_per_s", median(&rps), "1/s"),
        metric("wall_s", median(&wall), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", rss, "MB"),
        metric("sim_ipc", ipc, "ratio"),
        metric(
            "sim_read_lat_cyc",
            per_set_mean(&firsts, |r| r.avg_read_latency),
            "cycles",
        ),
        metric(
            "sim_write_lat_cyc",
            per_set_mean(&firsts, |r| r.avg_write_latency),
            "cycles",
        ),
    ];
    for m in &metrics[3..] {
        println!("  {:<18} {:.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  (simulated metrics: mean over the {TRACE_SETS} trace sets; deterministic per seed)"
    );

    if let Some(partner) = w.partner {
        let partner_ipc: Vec<f64> = (0..TRACE_SETS)
            .filter_map(|set| plain_rep(tally, w, args.seed, set, partner))
            .map(|rep| rep.result.ipc)
            .collect();
        if partner_ipc.len() == TRACE_SETS {
            let (zng, hybrid) = if w.platform == PlatformKind::Zng {
                (ipc, mean(&partner_ipc))
            } else {
                (mean(&partner_ipc), ipc)
            };
            println!(
                "model check: sim_ipc zng / hybridgpu = {:.3} (paper: {PAPER_ZNG_OVER_HYBRID}x), \
                 the model's only reference point; it is otherwise unvalidated against hardware",
                zng / hybrid
            );
        }
    }
    println!(
        "  {:<18} {:.6} ratio ({} of {} runs)",
        "failed_ratio",
        tally.failed_ratio(),
        tally.failed,
        tally.attempted
    );
    Some(metrics)
}

/// Per-layer values of one traced iteration.
struct Layers {
    /// Host times and ratios of host times.
    timed: Vec<Metric>,
    /// Deterministic counts and simulated ratios.
    counted: Vec<Metric>,
}

/// One traced iteration on trace set `set`.
fn traced_iteration(w: &Workload, seed: u64, set: usize, tally: &mut Tally) -> Option<Layers> {
    let params = params(seed, set);
    let cfg = w.config(params.seed);
    let mut t = Tracer::enabled();
    t.enter(Layer::Total);
    let rep = tally.record(
        w.platform,
        set,
        run_rep(w.platform, w.mix, &params, &cfg, &mut t),
    )?;
    let ideal = Simulation::new(PlatformKind::Ideal, &cfg)
        .and_then(|mut sim| t.span(Layer::SimIdealRun, || sim.run(&rep.mix)));
    tally.record_plain(ideal)?;
    let replay_start = Instant::now();
    t.enter(Layer::Replay);
    let stats = tally.record_plain(replay::replay(w.platform, &cfg, &rep.mix, &mut t))?;
    t.exit(Layer::Replay);
    let traced_replay_s = replay_start.elapsed().as_secs_f64();
    t.exit(Layer::Total);

    let untraced_start = Instant::now();
    tally.record_plain(replay::replay(
        w.platform,
        &cfg,
        &rep.mix,
        &mut Tracer::disabled(),
    ))?;
    let untraced_replay_s = untraced_start.elapsed().as_secs_f64();

    let s = |layer| t.self_s(layer);
    let unattributed = s(Layer::Total) + s(Layer::Replay) + s(Layer::Request);
    let timed = vec![
        metric("workloads.gen_s", s(Layer::WorkloadsGen), "s"),
        metric("platforms.new_s", s(Layer::PlatformsNew), "s"),
        metric("sim.run_s", s(Layer::SimRun), "s"),
        metric("sim.ideal_run_s", s(Layer::SimIdealRun), "s"),
        metric("report.json_s", s(Layer::ReportJson), "s"),
        metric("sim.queue_self_s", s(Layer::Queue), "s"),
        metric("gpu.coalesce_self_s", s(Layer::Coalesce), "s"),
        metric("gpu.tlb_self_s", s(Layer::Tlb), "s"),
        metric("gpu.l2_self_s", s(Layer::L2), "s"),
        metric("backend.read_self_s", s(Layer::BackendRead), "s"),
        metric("backend.write_self_s", s(Layer::BackendWrite), "s"),
        metric("maint.checkpoint_self_s", s(Layer::MaintCheckpoint), "s"),
        metric("maint.scrub_self_s", s(Layer::MaintScrub), "s"),
        metric("maint.refresh_self_s", s(Layer::MaintRefresh), "s"),
        metric("maint.health_self_s", s(Layer::MaintHealth), "s"),
        metric("trace.unattributed_s", unattributed, "s"),
        metric("trace.total_s", t.root_s(), "s"),
        metric(
            "backend.host_share",
            1.0 - s(Layer::SimIdealRun) / s(Layer::SimRun),
            "ratio",
        ),
        metric(
            "trace.overhead",
            traced_replay_s / untraced_replay_s - 1.0,
            "ratio",
        ),
    ];

    let r = &rep.result;
    let perf = r.perf.clone().unwrap_or_default();
    let gc_cycles: u64 = r.gc_events.iter().map(|(a, b)| b.raw() - a.raw()).sum();
    let checkpoint = r.checkpoint.unwrap_or_default();
    let counted = vec![
        metric("workloads.warp_ops", warp_ops(&rep.mix) as f64, "count"),
        metric("sim.events", perf.events as f64, "count"),
        metric("sim.blocked_events", perf.blocked_events as f64, "count"),
        metric(
            "sim.maintenance_events",
            perf.maintenance_events as f64,
            "count",
        ),
        metric(
            "sim.peak_queue_depth",
            perf.peak_queue_depth as f64,
            "count",
        ),
        metric("sim.requests", r.requests as f64, "count"),
        metric("gpu.l1_hit_rate", r.l1_hit_rate, "ratio"),
        metric("gpu.l2_hit_rate", r.l2_hit_rate, "ratio"),
        metric("gpu.tlb_hit_rate", r.tlb_hit_rate, "ratio"),
        metric("gpu.predictor_accuracy", r.predictor_accuracy, "ratio"),
        metric("gpu.redirected_writes", r.redirected_writes as f64, "count"),
        metric("backend.calls", stats.backend_calls as f64, "count"),
        metric("replay.requests", stats.requests as f64, "count"),
        metric("replay.l2_hit_rate", stats.l2_hit_rate(), "ratio"),
        metric("ftl.gcs", r.gcs as f64, "count"),
        metric("ftl.gc_cycles", gc_cycles as f64, "cycles"),
        metric(
            "ftl.register_migrations",
            r.register_migrations as f64,
            "count",
        ),
        metric("flash.reads_per_page", r.flash_reads_per_page, "per_page"),
        metric(
            "flash.programs_per_page",
            r.flash_programs_per_page,
            "per_page",
        ),
        metric("flash.array_gbps", r.flash_array_gbps, "GB/s"),
        metric("maint.checkpoints", checkpoint.checkpoints as f64, "count"),
        metric(
            "maint.checkpoint_overruns",
            checkpoint.overruns as f64,
            "count",
        ),
        metric(
            "maint.journal_records",
            checkpoint.journal_records as f64,
            "count",
        ),
        metric(
            "maint.scrub_rewrites",
            r.redundancy.as_ref().map_or(0, |x| x.scrub_rewrites) as f64,
            "count",
        ),
        metric(
            "maint.refreshes",
            r.endurance.as_ref().map_or(0, |x| x.refreshes) as f64,
            "count",
        ),
        metric("report.json_bytes", rep.json_bytes as f64, "bytes"),
        metric(
            "report.series_buckets",
            r.per_app_series.values().map(Vec::len).sum::<usize>() as f64,
            "count",
        ),
    ];
    Some(Layers { timed, counted })
}

/// Per-metric means over rows that each list the same metrics in the
/// same order.
fn column_means<'a>(rows: impl Iterator<Item = &'a Vec<Metric>>) -> Vec<Metric> {
    let rows: Vec<&Vec<Metric>> = rows.collect();
    rows[0]
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let v: Vec<f64> = rows.iter().map(|row| row[k].value).collect();
            metric(m.name, mean(&v), m.unit)
        })
        .collect()
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, tally: &mut Tally) -> Option<Vec<Metric>> {
    let w = &args.workload;
    plain_rep(tally, w, args.seed, 0, w.platform);

    let mut timed: Vec<Vec<Metric>> = Vec::new();
    let mut counted: Vec<Option<Vec<Metric>>> = (0..TRACE_SETS).map(|_| None).collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < TRACE_SETS || start.elapsed() < budget {
        let set = i % TRACE_SETS;
        if let Some(layers) = traced_iteration(w, args.seed, set, tally) {
            timed.push(layers.timed);
            counted[set].get_or_insert(layers.counted);
        }
        i += 1;
    }
    if timed.is_empty() || counted.iter().any(Option::is_none) {
        return None;
    }

    // Host times are means over the traced iterations, so the self times
    // and the unattributed remainder still sum to the traced total.
    let mut metrics = column_means(timed.iter());
    metrics.extend(column_means(counted.iter().flatten()));

    println!(
        "per-layer, {} traced iterations after 1 untimed warm-up (host times: mean per \
         iteration; counts: mean over the {TRACE_SETS} trace sets):",
        timed.len()
    );
    for m in &metrics {
        println!("  {:<26} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let attributed: f64 = metrics
        .iter()
        .filter(|m| m.unit == "s" && m.name != "trace.total_s")
        .map(|m| m.value)
        .sum();
    println!(
        "self times + unattributed = {:.6} s; traced total = {:.6} s",
        attributed,
        get("trace.total_s")
    );
    println!(
        "replay fidelity: L2 hit rate {:.4} (run: {:.4}); backend calls {:.0} of {:.0} requests \
         (run: {:.0} requests)",
        get("replay.l2_hit_rate"),
        get("gpu.l2_hit_rate"),
        get("backend.calls"),
        get("replay.requests"),
        get("sim.requests")
    );
    println!(
        "tracing overhead: the traced replay took {:.1}% longer than the untraced one",
        100.0 * get("trace.overhead")
    );
    Some(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: zng-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    describe(&args.workload, &args);
    let mut tally = Tally::default();
    let metrics = if args.traced {
        per_layer(&args, &mut tally)
    } else {
        end_to_end(&args, &mut tally)
    };
    let Some(metrics) = metrics else {
        eprintln!("error: no repetition passed its output check");
        return ExitCode::FAILURE;
    };
    let metrics: BTreeMap<&str, Value> = metrics
        .iter()
        .map(|m| {
            let entry = Value::object(vec![
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ]);
            (m.name, entry)
        })
        .collect();
    let line = Value::object(vec![
        ("correct", Value::from(tally.failed == 0)),
        ("attempted", Value::from(tally.attempted)),
        ("failed", Value::from(tally.failed)),
        (
            "metrics",
            Value::object(metrics.into_iter().collect::<Vec<_>>()),
        ),
    ]);
    println!("{}", line.to_string_compact());
    ExitCode::SUCCESS
}
