//! The per-request replay behind the per-layer host-time split.
//!
//! `Simulation::run` is one opaque call, so the traced mode replays the
//! workload's own coalesced request stream through the layers' public
//! APIs, with a span around every call:
//!
//! 1. `AccessPattern::sectors_into` once per warp memory op;
//! 2. `Mmu::translate` per request;
//! 3. `L2Cache::access` then, after a miss, `L2Cache::fill_line` for a
//!    read; `L2Cache::invalidate` for a write, which is write-through as
//!    in the runner;
//! 4. `Backend::read` on a read miss, `Backend::write` for every write.
//!
//! Warps are scheduled on a `zng_sim::EventQueue` and the maintenance
//! steps run at the workload's cadences. The replay leaves out the L1s,
//! MSHRs, interconnect, prefetcher, write redirection and GC/maintenance
//! blocking, so its L2 hit rate and backend-call count differ from the
//! real run's; both are reported side by side.

use zng_gpu::{GpuConfig, L2Cache, L2Technology, Mmu, Warp, WarpOp};
use zng_platforms::{Backend, PlatformKind, SimConfig};
use zng_sim::{EventQueue, PatrolTicker};
use zng_types::{ids::WarpId, AccessKind, Cycle, Result};
use zng_workloads::MultiApp;

use crate::trace::{Layer, Tracer};

/// Counts from one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// 128 B requests replayed.
    pub requests: u64,
    /// Reads that looked the L2 up.
    pub l2_reads: u64,
    /// Of those, hits.
    pub l2_hits: u64,
    /// `Backend::read` plus `Backend::write` calls.
    pub backend_calls: u64,
}

impl ReplayStats {
    /// The replay's L2 read hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2_hits as f64 / self.l2_reads.max(1) as f64
    }
}

/// One maintenance subsystem: its cadence and the backend step it runs.
struct Maint {
    layer: Layer,
    ticker: PatrolTicker,
}

/// Replays `mix` on a fresh `platform` built from `cfg`.
///
/// # Errors
///
/// Propagates backend and maintenance errors.
pub fn replay(
    platform: PlatformKind,
    cfg: &SimConfig,
    mix: &MultiApp,
    t: &mut Tracer,
) -> Result<ReplayStats> {
    // The same L2 the runner builds: rdopt platforms get the 4x
    // STT-MRAM, read-only.
    let mut gpu: GpuConfig = cfg.gpu;
    if platform.has_rdopt() {
        gpu.l2_tech = L2Technology::SttMram;
        gpu.l2_sets_per_bank *= L2Technology::SttMram.capacity_factor();
    }
    let mut l2 = L2Cache::new(&gpu);
    l2.set_read_only(platform.has_rdopt());
    let mut mmu = Mmu::new(gpu.tlb_entries, gpu.walker_threads, Cycle(200));
    let mut backend = Backend::new(platform, cfg, gpu.freq)?;
    let cadence = |on: bool, every: u64| PatrolTicker::every_ops(if on { every } else { 0 });
    let mut maint = [
        Maint {
            layer: Layer::MaintScrub,
            ticker: cadence(cfg.redundancy.enabled, cfg.redundancy.scrub_every_ops),
        },
        Maint {
            layer: Layer::MaintRefresh,
            ticker: cadence(cfg.endurance.enabled, cfg.endurance.refresh_every_ops),
        },
        Maint {
            layer: Layer::MaintCheckpoint,
            ticker: cadence(cfg.checkpoint.enabled, cfg.checkpoint.every_ops),
        },
        Maint {
            layer: Layer::MaintHealth,
            ticker: cadence(cfg.health.enabled, cfg.health.every_ops),
        },
    ];

    let mut warps: Vec<Warp> = Vec::new();
    for (_, app, traces) in &mix.apps {
        for trace in traces {
            warps.push(Warp::new(WarpId(warps.len() as u32), *app, trace.clone()));
        }
    }
    let mut queue: EventQueue<usize> = EventQueue::with_capacity(warps.len() + 1);
    for i in 0..warps.len() {
        t.span(Layer::Queue, || queue.schedule(Cycle::ZERO, i));
    }

    let mut stats = ReplayStats::default();
    let mut batch: Vec<usize> = Vec::with_capacity(warps.len());
    let mut sectors: Vec<u64> = Vec::with_capacity(32);
    let mut op_id = 0u64;
    let mut polled_at = 0u64;
    while let Some(now) = queue.peek_time() {
        batch.clear();
        t.span(Layer::Queue, || queue.pop_at(now, &mut batch));
        for &idx in &batch {
            // A cadence boundary can only be crossed after requests
            // completed, so polling again at an unchanged count (as the
            // runner does on every event) would never fire.
            if stats.requests != polled_at {
                polled_at = stats.requests;
                for m in &mut maint {
                    t.enter(m.layer);
                    if m.ticker.poll(stats.requests) {
                        match m.layer {
                            Layer::MaintScrub => backend.scrub_step(now)?,
                            Layer::MaintRefresh => backend.refresh_step(now)?,
                            Layer::MaintCheckpoint => backend.checkpoint_step(now),
                            _ => backend.health_step(now)?,
                        };
                    }
                    t.exit(m.layer);
                }
            }
            let warp = &mut warps[idx];
            let Some(op) = warp.current_op() else {
                continue;
            };
            let ready = match op {
                WarpOp::Compute(n) => now + Cycle(n as u64),
                WarpOp::Mem {
                    base,
                    kind,
                    pattern,
                    ..
                } => {
                    op_id += 1;
                    t.enter_with_id(Layer::Coalesce, op_id);
                    sectors.clear();
                    pattern.sectors_into(base.raw(), &mut sectors);
                    t.exit(Layer::Coalesce);
                    let mut done = now;
                    for &sector in &sectors {
                        stats.requests += 1;
                        t.enter_with_id(Layer::Request, stats.requests);
                        let vpn = sector >> 12;
                        let at = t.span(Layer::Tlb, || mmu.translate(now, vpn))?;
                        let finished = match kind {
                            AccessKind::Read => {
                                stats.l2_reads += 1;
                                let acc = t.span(Layer::L2, || l2.access(at, sector, false));
                                if acc.hit {
                                    stats.l2_hits += 1;
                                    acc.done
                                } else {
                                    stats.backend_calls += 1;
                                    let data = t.span(Layer::BackendRead, || {
                                        backend.read(acc.done, sector, vpn, 128)
                                    })?;
                                    t.span(Layer::L2, || {
                                        l2.fill_line(data, sector, false, warp.app())
                                    })
                                    .1
                                }
                            }
                            AccessKind::Write => {
                                t.span(Layer::L2, || l2.invalidate(sector));
                                stats.backend_calls += 1;
                                t.span(Layer::BackendWrite, || backend.write(at, sector, vpn))?
                                    .done
                            }
                        };
                        done = done.max(finished);
                        t.exit(Layer::Request);
                    }
                    done
                }
            };
            warp.retire_op();
            t.span(Layer::Queue, || queue.schedule(ready, idx));
        }
    }
    Ok(stats)
}
