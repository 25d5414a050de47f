//! `zng-cli` — run ZnG simulations from the command line.
//!
//! ```text
//! zng-cli list                              # platforms and workloads
//! zng-cli run --platform zng --workloads betw,back
//! zng-cli run -p optane -w bfs1,gaus --warps 64 --ops 300 --json
//! zng-cli sweep --workloads betw,back       # every platform, one table
//! ```

use std::process::ExitCode;

use zng::{
    table2, CheckpointConfig, Cycle, DegradingDie, EnduranceConfig, Experiment, FaultConfig,
    FaultProfile, HealthConfig, IntegrityConfig, PlatformKind, QosConfig, RedundancyConfig,
    RunResult, Table, TraceParams,
};
use zng_json::Value;
use zng_types::ids::AppId;
use zng_workloads::{by_name, generate, TraceBundle};

/// Exit-code contract: usage errors (bad flags, missing arguments)
/// exit 2 and print the usage text; simulation errors (integrity
/// violations, device wear-out, watchdog stalls, I/O) exit 1 with the
/// error alone on stderr; success exits 0.
enum CliError {
    Usage(String),
    Sim(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Sim(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  zng-cli list
  zng-cli run    --platform <name> --workloads <a,b,..> [options]
  zng-cli sweep  --workloads <a,b,..> [options]
  zng-cli traces --workloads <name> --out <file.json> [options]

options:
  -p, --platform   hetero|hybridgpu|optane|zng-base|zng-rdopt|zng-wropt|zng|ideal
  -w, --workloads  comma-separated Table II names (co-run as one mix)
      --warps      warps per application        (default 128)
      --ops        memory ops per warp          (default 650)
      --footprint  footprint in 4 KiB pages     (default 2048)
      --seed       RNG seed                     (default 42)
      --faults     fault profile: none|nominal|end-of-life (default none)
      --crash-at   cut power after N completed requests, recover, resume
      --qos        enable the bounded overload-control preset
      --queue-depth    per-channel in-flight bound       (implies --qos)
      --retry-budget   backoff retries per rejected request (default 8)
      --gc-stall-budget  max cycles one GC may stall its victim
      --gc-credits     foreground stalls per GC before early release
      --fair-window    per-app fair-share window in requests
      --redundancy     enable RAIN parity + reconstruction-on-read
      --scrub-every    patrol-scrub step every N requests (implies --redundancy)
      --scrub-threshold  retry depth that triggers a scrub rewrite (default 2)
      --die-fail-at    kill one die after N requests (implies --redundancy)
      --die-fail       which die dies, as ch:die    (default 0:0)
      --link-fail      sever channel N's mesh link  (implies --redundancy)
      --integrity      verify per-page OOB checksums on every read
      --sdc-rate       silent-corruption probability per read at
                       end-of-life wear, 0..1     (implies --integrity)
      --sdc-at         silently corrupt the Nth page program/preload
                       (implies --integrity)
      --endurance      enable lifetime management: wear tracking,
                       graceful end-of-life capacity degradation
      --refresh-every  refresh-scheduler step every N requests
                       (implies --endurance)
      --disturb-threshold   array senses before a block is refreshed
                            (implies --endurance)
      --retention-threshold cycles of retention age before a refresh
                            (implies --endurance)
      --wear-spread    max/mean wear ratio that triggers static
                       levelling, >= 1 or 0=off (implies --endurance)
      --checkpoint     checkpoint the mapping tables in the background
                       so crash recovery takes the journal fast path
      --checkpoint-every  checkpoint cadence in completed requests
                          (default 512, implies --checkpoint)
      --journal-cap    max delta-journal records between checkpoints,
                       0=unbounded (implies --checkpoint)
      --health         predictive die-health monitoring: score the
                       per-die telemetry every N completed requests and
                       quarantine suspect dies
      --health-window  minimum per-die observations before a die is
                       scored (implies --health)
      --suspect-threshold  health score in (0,1] that flags a suspect
                           (implies --health)
      --evacuate       pre-emptively migrate live data off suspect dies
                       (implies --health)
      --degrading-die  inject one die degrading toward death, as
                       ch:die:onset:death (cycles)
      --watchdog       abort with exit 1 when no request completes
                       within N cycles
      --perf       report simulator throughput (wall time, events/sec,
                   peak queue depth, per-kind event counts)
      --json       emit the full RunResult as JSON";

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("platforms:");
            for p in PlatformKind::PAPER_PLATFORMS {
                println!("  {}", flag_name(p));
            }
            println!("  ideal");
            println!("\nworkloads (Table II):");
            for w in table2() {
                println!(
                    "  {:<6} {:?}, read ratio {:.2}, {} kernels",
                    w.name, w.suite, w.read_ratio, w.kernels
                );
            }
            Ok(())
        }
        Some("run") => {
            let opts = Opts::parse(&args[1..], "run", RUN_FLAGS).map_err(CliError::Usage)?;
            let platform = opts
                .platform
                .ok_or_else(|| CliError::Usage("run requires --platform".into()))?;
            let mut exp = Experiment::standard().with_params(opts.params);
            opts.apply(&mut exp);
            let r = exp
                .run(platform, &opts.workload_refs())
                .map_err(|e| CliError::Sim(e.to_string()))?;
            if opts.json {
                println!("{}", r.to_json_value().to_string_pretty());
            } else {
                print_result(&r);
            }
            Ok(())
        }
        Some("sweep") => {
            let opts = Opts::parse(&args[1..], "sweep", &sweep_flags()).map_err(CliError::Usage)?;
            let mut exp = Experiment::standard().with_params(opts.params);
            opts.apply(&mut exp);
            let mut t = Table::new(vec![
                "platform".into(),
                "IPC".into(),
                "L2 hit".into(),
                "flash GB/s".into(),
                "GCs".into(),
                "sim us".into(),
            ]);
            let mut platforms = PlatformKind::PAPER_PLATFORMS.to_vec();
            platforms.push(PlatformKind::Ideal);
            // One worker thread per platform: the runs are independent,
            // and results come back in listed order so the table is
            // identical to the sequential sweep.
            let results = exp
                .run_platforms(&platforms, &opts.workload_refs())
                .map_err(|e| CliError::Sim(e.to_string()))?;
            for (p, r) in platforms.iter().zip(&results) {
                t.row(vec![
                    p.to_string(),
                    format!("{:.4}", r.ipc),
                    format!("{:.2}", r.l2_hit_rate),
                    format!("{:.2}", r.flash_array_gbps),
                    r.gcs.to_string(),
                    format!("{:.0}", r.simulated_us()),
                ]);
            }
            t.print(&format!("sweep: {}", opts.workloads.join("-")));
            Ok(())
        }
        Some("traces") => {
            let mut out: Option<String> = None;
            let mut rest = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                if a == "--out" {
                    out = Some(
                        it.next()
                            .cloned()
                            .ok_or_else(|| CliError::Usage("--out requires a value".into()))?,
                    );
                } else {
                    rest.push(a.clone());
                }
            }
            let opts = Opts::parse(&rest, "traces", TRACES_FLAGS).map_err(CliError::Usage)?;
            let out = out.ok_or_else(|| CliError::Usage("traces requires --out <file>".into()))?;
            let name = opts
                .workloads
                .first()
                .ok_or_else(|| CliError::Usage("--workloads is required".into()))?;
            let spec = by_name(name).map_err(|e| CliError::Usage(e.to_string()))?;
            opts.params
                .validate()
                .map_err(|e| CliError::Sim(e.to_string()))?;
            let traces = generate(&spec, AppId(0), &opts.params);
            let bundle = TraceBundle::new(name, opts.params.seed, traces);
            bundle
                .save(std::path::Path::new(&out))
                .map_err(|e| CliError::Sim(e.to_string()))?;
            println!(
                "wrote {} warps ({} memory ops) of `{name}` to {out}",
                bundle.traces.len(),
                bundle.mem_ops()
            );
            Ok(())
        }
        _ => Err(CliError::Usage(
            "expected a subcommand: list | run | sweep | traces".into(),
        )),
    }
}

/// Flags each subcommand accepts (used for unknown-flag diagnostics).
const RUN_FLAGS: &[&str] = &[
    "-p",
    "--platform",
    "-w",
    "--workloads",
    "--warps",
    "--ops",
    "--footprint",
    "--seed",
    "--faults",
    "--crash-at",
    "--qos",
    "--queue-depth",
    "--retry-budget",
    "--gc-stall-budget",
    "--gc-credits",
    "--fair-window",
    "--redundancy",
    "--scrub-every",
    "--scrub-threshold",
    "--die-fail-at",
    "--die-fail",
    "--link-fail",
    "--integrity",
    "--sdc-rate",
    "--sdc-at",
    "--endurance",
    "--refresh-every",
    "--disturb-threshold",
    "--retention-threshold",
    "--wear-spread",
    "--checkpoint",
    "--checkpoint-every",
    "--journal-cap",
    "--health",
    "--health-window",
    "--suspect-threshold",
    "--evacuate",
    "--degrading-die",
    "--watchdog",
    "--perf",
    "--json",
];
/// `sweep` takes every `run` flag except the platform choice and
/// `--json`.
fn sweep_flags() -> Vec<&'static str> {
    let run_only = ["-p", "--platform", "--json"];
    RUN_FLAGS
        .iter()
        .copied()
        .filter(|f| !run_only.contains(f))
        .collect()
}
const TRACES_FLAGS: &[&str] = &[
    "-w",
    "--workloads",
    "--warps",
    "--ops",
    "--footprint",
    "--seed",
    "--out",
];

/// Queue depth installed by a bare `--qos` (no `--queue-depth`).
const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Checkpoint cadence installed by a bare `--checkpoint` (no
/// `--checkpoint-every`).
const DEFAULT_CHECKPOINT_EVERY: u64 = 512;

/// Monitor cadence installed by a health flag that implies `--health`.
const DEFAULT_HEALTH_EVERY: u64 = 256;

struct Opts {
    platform: Option<PlatformKind>,
    workloads: Vec<String>,
    params: TraceParams,
    faults: FaultProfile,
    degrading: Option<DegradingDie>,
    crash_at: Option<u64>,
    qos: Option<QosConfig>,
    redundancy: Option<RedundancyConfig>,
    integrity: Option<IntegrityConfig>,
    endurance: Option<EnduranceConfig>,
    checkpoint: Option<CheckpointConfig>,
    health: Option<HealthConfig>,
    watchdog: Option<u64>,
    perf: bool,
    json: bool,
}

impl Opts {
    fn parse(args: &[String], subcommand: &str, allowed: &[&str]) -> Result<Opts, String> {
        let mut opts = Opts {
            platform: None,
            workloads: Vec::new(),
            params: TraceParams {
                total_warps: 128,
                mem_ops_per_warp: 650,
                footprint_pages: 2048,
                seed: 42,
            },
            faults: FaultProfile::None,
            degrading: None,
            crash_at: None,
            qos: None,
            redundancy: None,
            integrity: None,
            endurance: None,
            checkpoint: None,
            health: None,
            watchdog: None,
            perf: false,
            json: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a.starts_with('-') && !allowed.contains(&a.as_str()) {
                return Err(format!(
                    "unknown flag `{a}` for `{subcommand}` — valid flags: {}",
                    allowed.join(", ")
                ));
            }
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match a.as_str() {
                "-p" | "--platform" => {
                    opts.platform = Some(parse_platform(&value("--platform")?)?);
                }
                "-w" | "--workloads" => {
                    opts.workloads = value("--workloads")?
                        .split(',')
                        .map(str::to_string)
                        .collect();
                }
                "--warps" => opts.params.total_warps = parse_num(&value("--warps")?)?,
                "--ops" => opts.params.mem_ops_per_warp = parse_num(&value("--ops")?)?,
                "--footprint" => opts.params.footprint_pages = parse_num(&value("--footprint")?)?,
                "--seed" => opts.params.seed = parse_num(&value("--seed")?)?,
                "--faults" => {
                    opts.faults =
                        FaultProfile::parse(&value("--faults")?).map_err(|e| e.to_string())?;
                }
                "--crash-at" => {
                    opts.crash_at = Some(parse_num(&value("--crash-at")?)?);
                }
                "--qos" => {
                    opts.qos_mut();
                }
                "--queue-depth" => {
                    let depth = parse_num(&value("--queue-depth")?)?;
                    opts.qos_mut().queue_depth = Some(depth);
                }
                "--retry-budget" => {
                    opts.qos_mut().retry_budget = parse_num(&value("--retry-budget")?)?;
                }
                "--gc-stall-budget" => {
                    let cycles = parse_num(&value("--gc-stall-budget")?)?;
                    opts.qos_mut().gc_stall_budget = Some(Cycle(cycles));
                }
                "--gc-credits" => {
                    opts.qos_mut().gc_credit_writes = parse_num(&value("--gc-credits")?)?;
                }
                "--fair-window" => {
                    opts.qos_mut().fair_window = parse_num(&value("--fair-window")?)?;
                }
                "--redundancy" => {
                    opts.redundancy_mut();
                }
                "--scrub-every" => {
                    opts.redundancy_mut().scrub_every_ops = parse_num(&value("--scrub-every")?)?;
                }
                "--scrub-threshold" => {
                    opts.redundancy_mut().scrub_threshold =
                        parse_num(&value("--scrub-threshold")?)?;
                }
                "--die-fail-at" => {
                    opts.redundancy_mut().die_fail_at = Some(parse_num(&value("--die-fail-at")?)?);
                }
                "--die-fail" => {
                    let spec = value("--die-fail")?;
                    let (ch, die) = spec
                        .split_once(':')
                        .ok_or_else(|| format!("--die-fail wants ch:die, got `{spec}`"))?;
                    opts.redundancy_mut().die_fail = (parse_num(ch)?, parse_num(die)?);
                }
                "--link-fail" => {
                    opts.redundancy_mut().link_fail = Some(parse_num(&value("--link-fail")?)?);
                }
                "--integrity" => {
                    opts.integrity_mut();
                }
                "--sdc-rate" => {
                    opts.integrity_mut().sdc_rate = parse_float(&value("--sdc-rate")?)?;
                }
                "--sdc-at" => {
                    opts.integrity_mut().sdc_at = Some(parse_num(&value("--sdc-at")?)?);
                }
                "--endurance" => {
                    opts.endurance_mut();
                }
                "--refresh-every" => {
                    opts.endurance_mut().refresh_every_ops = parse_num(&value("--refresh-every")?)?;
                }
                "--disturb-threshold" => {
                    opts.endurance_mut().disturb_threshold =
                        parse_num(&value("--disturb-threshold")?)?;
                }
                "--retention-threshold" => {
                    opts.endurance_mut().retention_threshold =
                        parse_num(&value("--retention-threshold")?)?;
                }
                "--wear-spread" => {
                    opts.endurance_mut().wear_spread = parse_float(&value("--wear-spread")?)?;
                }
                "--checkpoint" => {
                    opts.checkpoint_mut();
                }
                "--checkpoint-every" => {
                    opts.checkpoint_mut().every_ops = parse_num(&value("--checkpoint-every")?)?;
                }
                "--journal-cap" => {
                    opts.checkpoint_mut().journal_cap = parse_num(&value("--journal-cap")?)?;
                }
                "--health" => {
                    opts.health_mut().every_ops = parse_num(&value("--health")?)?;
                }
                "--health-window" => {
                    opts.health_mut().window = parse_num(&value("--health-window")?)?;
                }
                "--suspect-threshold" => {
                    opts.health_mut().suspect_threshold =
                        parse_float(&value("--suspect-threshold")?)?;
                }
                "--evacuate" => {
                    opts.health_mut().evacuate = true;
                }
                "--degrading-die" => {
                    let spec = value("--degrading-die")?;
                    let parts: Vec<&str> = spec.split(':').collect();
                    let [ch, die, onset, death] = parts.as_slice() else {
                        return Err(format!(
                            "--degrading-die wants ch:die:onset:death, got `{spec}`"
                        ));
                    };
                    opts.degrading = Some(DegradingDie {
                        channel: parse_num(ch)?,
                        die: parse_num(die)?,
                        onset: parse_num(onset)?,
                        death: parse_num(death)?,
                    });
                }
                "--watchdog" => {
                    opts.watchdog = Some(parse_num(&value("--watchdog")?)?);
                }
                "--perf" => opts.perf = true,
                "--json" => opts.json = true,
                other => {
                    return Err(format!(
                        "unknown argument `{other}` for `{subcommand}` — valid flags: {}",
                        allowed.join(", ")
                    ))
                }
            }
        }
        if opts.workloads.is_empty() {
            return Err("--workloads is required".into());
        }
        // Unknown workload names are usage errors, caught before any
        // simulation work starts.
        for w in &opts.workloads {
            by_name(w).map_err(|e| e.to_string())?;
        }
        Ok(opts)
    }

    /// The QoS policy being built up by flags, starting from the bounded
    /// preset the first time any QoS flag appears.
    fn qos_mut(&mut self) -> &mut QosConfig {
        self.qos
            .get_or_insert_with(|| QosConfig::bounded(DEFAULT_QUEUE_DEPTH))
    }

    /// The redundancy policy being built up by flags, enabled the first
    /// time any redundancy flag appears.
    fn redundancy_mut(&mut self) -> &mut RedundancyConfig {
        self.redundancy
            .get_or_insert_with(|| RedundancyConfig::rain(0))
    }

    /// The integrity policy being built up by flags, enabled (verified
    /// reads, no injection) the first time any integrity flag appears.
    fn integrity_mut(&mut self) -> &mut IntegrityConfig {
        self.integrity.get_or_insert_with(|| IntegrityConfig {
            enabled: true,
            ..IntegrityConfig::off()
        })
    }

    /// The endurance policy being built up by flags, enabled with the
    /// scheduler's default thresholds (no cadence) the first time any
    /// endurance flag appears.
    fn endurance_mut(&mut self) -> &mut EnduranceConfig {
        self.endurance.get_or_insert_with(|| EnduranceConfig::on(0))
    }

    /// The checkpoint policy being built up by flags, enabled with the
    /// default cadence the first time any checkpoint flag appears.
    fn checkpoint_mut(&mut self) -> &mut CheckpointConfig {
        self.checkpoint
            .get_or_insert_with(|| CheckpointConfig::on(DEFAULT_CHECKPOINT_EVERY))
    }

    /// The health policy being built up by flags, enabled with the
    /// default cadence the first time any health flag appears.
    fn health_mut(&mut self) -> &mut HealthConfig {
        self.health
            .get_or_insert_with(|| HealthConfig::on(DEFAULT_HEALTH_EVERY))
    }

    /// Installs the parsed policies into the experiment's configuration.
    fn apply(&self, exp: &mut Experiment) {
        exp.config_mut().fault = self.fault_config();
        exp.config_mut().crash_at = self.crash_at;
        if let Some(q) = self.qos {
            exp.config_mut().qos = q;
        }
        if let Some(rd) = self.redundancy {
            exp.config_mut().redundancy = rd;
        }
        if let Some(mut i) = self.integrity {
            // The SDC streams share the run's RNG seed.
            i.seed = self.params.seed;
            exp.config_mut().integrity = i;
        }
        if let Some(e) = self.endurance {
            exp.config_mut().endurance = e;
        }
        if let Some(c) = self.checkpoint {
            exp.config_mut().checkpoint = c;
        }
        if let Some(h) = self.health {
            exp.config_mut().health = h;
        }
        exp.config_mut().watchdog = self.watchdog;
        exp.config_mut().perf = self.perf;
    }

    fn workload_refs(&self) -> Vec<&str> {
        self.workloads.iter().map(String::as_str).collect()
    }

    /// The fault configuration implied by `--faults`, `--seed` and
    /// `--degrading-die`.
    fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            profile: self.faults,
            seed: self.params.seed,
            degrading: self.degrading,
        }
    }
}

/// Parses an integer flag value, rejecting values that do not fit the
/// target type instead of truncating them.
fn parse_num<T: TryFrom<u64>>(s: &str) -> Result<T, String> {
    let n: u64 = s.parse().map_err(|_| format!("`{s}` is not a number"))?;
    T::try_from(n).map_err(|_| format!("`{s}` is out of range"))
}

fn parse_float(s: &str) -> Result<f64, String> {
    s.parse().map_err(|_| format!("`{s}` is not a number"))
}

fn parse_platform(s: &str) -> Result<PlatformKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "hetero" => PlatformKind::Hetero,
        "hybridgpu" | "hybrid" => PlatformKind::HybridGpu,
        "optane" => PlatformKind::Optane,
        "zng-base" | "base" => PlatformKind::ZngBase,
        "zng-rdopt" | "rdopt" => PlatformKind::ZngRdopt,
        "zng-wropt" | "wropt" => PlatformKind::ZngWropt,
        "zng" => PlatformKind::Zng,
        "ideal" => PlatformKind::Ideal,
        other => return Err(format!("unknown platform `{other}`")),
    })
}

fn flag_name(p: PlatformKind) -> &'static str {
    match p {
        PlatformKind::Hetero => "hetero",
        PlatformKind::HybridGpu => "hybridgpu",
        PlatformKind::Optane => "optane",
        PlatformKind::ZngBase => "zng-base",
        PlatformKind::ZngRdopt => "zng-rdopt",
        PlatformKind::ZngWropt => "zng-wropt",
        PlatformKind::Zng => "zng",
        PlatformKind::Ideal => "ideal",
    }
}

/// Longest array the run table prints inline; longer ones (time series,
/// GC event lists) are summarised and left to `--json`.
const MAX_INLINE_ARRAY: usize = 80;

/// Prints the run's JSON document as a two-column table: one row per
/// key, in JSON order.
fn print_result(r: &RunResult) {
    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    add_rows(&mut t, "", &r.to_json_value());
    t.print("run result");
}

/// Adds the rows for `v` labelled `label`: an object contributes one row
/// per member, labelled `label.member` (recursively); anything else is
/// one row holding its JSON text.
fn add_rows(t: &mut Table, label: &str, v: &Value) {
    let text = match v {
        Value::Object(members) => {
            for (key, member) in members {
                let child = if label.is_empty() {
                    key.clone()
                } else {
                    format!("{label}.{key}")
                };
                add_rows(t, &child, member);
            }
            return;
        }
        Value::Array(items) if v.to_string_compact().len() > MAX_INLINE_ARRAY => {
            format!("{} items, see --json", items.len())
        }
        _ => v.to_string_compact(),
    };
    t.row(vec![label.into(), text]);
}
