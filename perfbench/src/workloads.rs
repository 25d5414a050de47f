//! The benchmark's four workloads: a platform, a mix and a configuration
//! each, at one fixed trace volume.

use zng_platforms::{
    CheckpointConfig, EnduranceConfig, HealthConfig, IntegrityConfig, PlatformKind,
    RedundancyConfig, SimConfig,
};
use zng_sim::rng::derive_seed;
use zng_workloads::TraceParams;

/// Warps per application.
pub const WARPS_PER_APP: usize = 64;
/// Memory operations per warp.
pub const OPS_PER_WARP: usize = 2600;
/// Footprint per application in 4 KB pages: 16 MB, so every two-app
/// mix (32 MB) overflows the 24 MB STT-MRAM L2.
pub const FOOTPRINT_PAGES: usize = 4096;
/// Independent trace sets drawn from one `--seed`. The simulated metrics
/// are their mean, which keeps them steady from seed to seed.
pub const TRACE_SETS: usize = 8;
/// Maintenance cadence of `zng-reliable`, in completed requests.
pub const MAINT_EVERY: u64 = 512;
/// Health-monitor cadence of `zng-reliable`, in completed requests.
pub const HEALTH_EVERY: u64 = 256;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The simulated platform.
    pub platform: PlatformKind,
    /// The co-running applications (Table II names).
    pub mix: &'static [&'static str],
    /// Every reliability subsystem on, with maintenance every
    /// [`MAINT_EVERY`] requests.
    pub reliable: bool,
    /// The platform whose `sim_ipc` this workload is compared with for
    /// the paper's ZnG/HybridGPU ratio, if any.
    pub partner: Option<PlatformKind>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "zng-graph",
        platform: PlatformKind::Zng,
        mix: &["betw", "back"],
        reliable: false,
        partner: Some(PlatformKind::HybridGpu),
    },
    Workload {
        name: "hybrid-ssd",
        platform: PlatformKind::HybridGpu,
        mix: &["betw", "back"],
        reliable: false,
        partner: Some(PlatformKind::Zng),
    },
    Workload {
        name: "zng-base-gc",
        platform: PlatformKind::ZngBase,
        mix: &["back", "FDT", "gram"],
        reliable: false,
        partner: None,
    },
    Workload {
        name: "zng-reliable",
        platform: PlatformKind::Zng,
        mix: &["betw", "back"],
        reliable: true,
        partner: None,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// The trace parameters of trace set `set` drawn from `seed`.
pub fn params(seed: u64, set: usize) -> TraceParams {
    TraceParams {
        total_warps: WARPS_PER_APP,
        mem_ops_per_warp: OPS_PER_WARP,
        footprint_pages: FOOTPRINT_PAGES,
        seed: derive_seed(seed, set as u64),
    }
}

impl Workload {
    /// The simulation configuration for a trace set seeded with
    /// `trace_seed`. Event-loop telemetry (`perf`) is always on; its
    /// wall-clock keys are the only part of the output that may differ
    /// between repetitions.
    pub fn config(&self, trace_seed: u64) -> SimConfig {
        let mut cfg = SimConfig::scaled();
        cfg.perf = true;
        if self.reliable {
            cfg.redundancy = RedundancyConfig::rain(MAINT_EVERY);
            cfg.integrity = IntegrityConfig {
                enabled: true,
                seed: trace_seed,
                ..IntegrityConfig::off()
            };
            cfg.endurance = EnduranceConfig::on(MAINT_EVERY);
            cfg.checkpoint = CheckpointConfig::on(MAINT_EVERY);
            cfg.health = HealthConfig::on(HEALTH_EVERY);
        }
        cfg
    }
}
