//! The maintenance core both FTLs share.
//!
//! ZnG keeps the SSD firmware's flash services — mapping upkeep, garbage
//! collection, wear levelling, repair — and moves them into the GPU's MMU
//! and helper thread (paper §IV-A). The ZnG FTL and the page-map baseline
//! therefore differ only in mapping policy over the same services, and
//! this module holds those services once:
//!
//! * [`FtlServices`] — the state every FTL carries: the block allocator,
//!   RAIN redundancy, end-to-end integrity, endurance, checkpointing and
//!   health, plus the retirement and re-drive counters.
//! * [`Mapping`] — what an FTL implements: a few mapping primitives
//!   (locate a page, rewrite one page, refresh one block, one levelling
//!   step, evacuate one victim, fence and rebuild a dead die, rebuild the
//!   tables from a recovery scan). Every maintenance policy — scrub,
//!   refresh, health, checkpointing, crash recovery — is a provided
//!   method written once over them.

use std::collections::{BTreeMap, BTreeSet};

use zng_flash::{BlockKind, FlashDevice};
use zng_types::{BlockAddr, Cycle, Error, FlashAddr, Result};

use crate::allocator::BlockAllocator;
use crate::checkpoint::{self, CheckpointConfig, CheckpointCounters, CheckpointState};
use crate::health::{HealthCounters, HealthPolicy, HealthState, QUARANTINE_EXTRA_READ_ATTEMPTS};
use crate::integrity::IntegrityCounters;
use crate::rain::{Claim, RainConfig, RainState};
use crate::recovery::{self, RecoveryReport, Scan};
use crate::refresh::{EnduranceCounters, EnduranceState, RefreshPolicy, RefreshReason};
use crate::GC_READ_ATTEMPTS;

/// The flash services shared by every FTL. Each opt-in subsystem is
/// `None` (or off) by default, which preserves baseline behaviour
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct FtlServices {
    pub(crate) allocator: BlockAllocator,
    /// RAIN redundancy and self-healing.
    pub(crate) rain: Option<RainState>,
    /// End-to-end payload verification on host-facing reads.
    pub(crate) integrity: bool,
    pub(crate) icounters: IntegrityCounters,
    /// Refresh scheduler, static wear leveler and graceful end-of-life
    /// degradation (off keeps the hard [`Error::DeviceWornOut`] cliff).
    pub(crate) endurance: Option<EnduranceState>,
    /// Mapping checkpoints plus the delta journal.
    pub(crate) checkpoint: Option<CheckpointState>,
    /// Stale checkpoint blocks a recovery deferred; the next checkpoint
    /// write erases them off the restore critical path.
    pub(crate) stale_ckpt: Vec<u64>,
    /// Predictive health monitor (suspect-die quarantine and pre-emptive
    /// evacuation).
    pub(crate) health: Option<HealthState>,
    /// Blocks permanently retired after failed programs/erases.
    pub(crate) blocks_retired: u64,
    /// Writes re-driven into a new slot after a program failure.
    pub(crate) write_redrives: u64,
}

impl FtlServices {
    pub(crate) fn new(allocator: BlockAllocator) -> FtlServices {
        FtlServices {
            allocator,
            rain: None,
            integrity: false,
            icounters: IntegrityCounters::default(),
            endurance: None,
            checkpoint: None,
            stale_ckpt: Vec::new(),
            health: None,
            blocks_retired: 0,
            write_redrives: 0,
        }
    }

    /// The one allocation chokepoint: draws a block for `kind`, skipping
    /// dead-die blocks (retired), quarantined-die blocks (parked, so
    /// rehabilitation can hand them back) and RAIN's parity members.
    /// `most_worn` picks the tired end of the recycled pool instead of
    /// the coldest block — the static leveler's destination.
    pub(crate) fn allocate(
        &mut self,
        device: &mut FlashDevice,
        kind: BlockKind,
        most_worn: bool,
    ) -> Result<BlockAddr> {
        let idx = loop {
            let idx = if most_worn {
                self.allocator.allocate_most_worn()?
            } else {
                self.allocator.allocate()?
            };
            if let Some(h) = self.health.as_mut() {
                let addr = device.geometry().block_for_index(idx)?;
                if device.die_is_dead(addr.channel, addr.die) {
                    self.allocator.retire(idx);
                    continue;
                }
                let key = (addr.channel.index() as u16, addr.die.index() as u16);
                if h.is_quarantined(key) {
                    h.park(idx, key);
                    continue;
                }
            }
            match self.rain.as_mut() {
                Some(rain) => match rain.classify(device, idx)? {
                    Claim::Keep => break idx,
                    // Parity programs land here later, so the fast-path
                    // rescan must cover the claimed member.
                    Claim::Parity => self.note_touched(idx),
                    Claim::Fenced => self.allocator.retire(idx),
                },
                None => break idx,
            }
        };
        self.note_touched(idx);
        let addr = device.geometry().block_for_index(idx)?;
        device.block_mut(addr)?.set_kind(kind);
        Ok(addr)
    }

    /// Extra read-retry attempts granted when `block`'s die is
    /// quarantined by the health monitor; zero otherwise.
    pub(crate) fn quarantine_extra(&self, block: BlockAddr) -> u32 {
        let key = (block.channel.index() as u16, block.die.index() as u16);
        match self.health.as_ref() {
            Some(h) if h.is_quarantined(key) => QUARANTINE_EXTRA_READ_ATTEMPTS,
            _ => 0,
        }
    }

    /// A maintenance read with a bounded retry budget against transient
    /// ECC-uncorrectable senses ([`GC_READ_ATTEMPTS`], deeper on a
    /// quarantined die). With redundancy on, a read that exhausts the
    /// ladder reconstructs from its stripe instead of failing.
    pub(crate) fn retried_read(
        &mut self,
        device: &mut FlashDevice,
        now: Cycle,
        addr: FlashAddr,
        key: u64,
        bytes: usize,
    ) -> Result<Cycle> {
        let budget = GC_READ_ATTEMPTS + self.quarantine_extra(addr.block);
        let mut attempt = 0;
        loop {
            match device.read(now, addr, key, bytes) {
                Err(Error::UncorrectableRead { .. }) if attempt + 1 < budget => attempt += 1,
                Err(e @ Error::UncorrectableRead { .. }) => {
                    return match self.rain.as_mut() {
                        Some(r) => r.reconstruct(now, device, addr, bytes),
                        None => Err(e),
                    };
                }
                r => return r,
            }
        }
    }

    /// Verifies a served payload against its OOB checksum. `Ok(None)`
    /// when it verifies (or integrity is off). A mismatch costs one
    /// charged re-read — the corruption is in the array, so it fails
    /// again, but the controller cannot know that without trying — then
    /// reconstructs from the stripe (`Ok(Some(t))`), or fails with
    /// [`Error::IntegrityViolation`] without redundancy.
    pub(crate) fn verify(
        &mut self,
        done: Cycle,
        device: &mut FlashDevice,
        addr: FlashAddr,
        key: u64,
        bytes: usize,
    ) -> Result<Option<Cycle>> {
        if !self.integrity || !device.page_is_corrupt(addr) {
            return Ok(None);
        }
        self.icounters.detected += 1;
        let t = device.read(done, addr, key, bytes).unwrap_or(done);
        self.icounters.rereads += 1;
        let Some(rain) = self.rain.as_mut() else {
            return Err(Error::IntegrityViolation {
                block: addr.block.block as u64,
                page: addr.page,
            });
        };
        let t = rain.reconstruct(t, device, addr, bytes)?;
        self.icounters.reconstructed += 1;
        Ok(Some(t))
    }

    /// Journals a block whose media changed outside its own OOB appends.
    pub(crate) fn note_touched(&mut self, idx: u64) {
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.note_touched(idx);
        }
    }

    /// Journals a logical remap.
    pub(crate) fn note_remap(&mut self, key: u64) {
        if let Some(ck) = self.checkpoint.as_mut() {
            ck.note_remap(key);
        }
    }

    /// Feeds a verified program into `block`'s stripe parity.
    pub(crate) fn note_program(
        &mut self,
        done: Cycle,
        device: &mut FlashDevice,
        block: BlockAddr,
    ) -> Result<()> {
        match self.rain.as_mut() {
            Some(rain) => rain.note_program(done, device, block),
            None => Ok(()),
        }
    }

    /// Returns a just-erased block to the pool — retired for good if the
    /// erase failed, recycled with its wear count otherwise — and
    /// journals it.
    pub(crate) fn recycle(&mut self, device: &FlashDevice, addr: BlockAddr) {
        let idx = device.geometry().index_for_block(addr);
        match device.block(addr) {
            Some(b) if b.is_failed() => {
                self.allocator.retire(idx);
                self.blocks_retired += 1;
            }
            b => {
                let wear = b.map(|blk| blk.erase_count()).unwrap_or(0);
                self.allocator.release(idx, wear);
            }
        }
        self.note_touched(idx);
    }

    /// Permanently retires block `idx` (charged as a retirement) and
    /// journals it.
    pub(crate) fn retire(&mut self, idx: u64) {
        self.allocator.retire(idx);
        self.blocks_retired += 1;
        self.note_touched(idx);
    }

    /// Flushes pending journal records at the end of a mutating entry
    /// point, so every critical (touched-block) record is on media before
    /// the operation acknowledges. A no-op without checkpointing or with
    /// nothing flush-worthy pending.
    pub(crate) fn ckpt_sync(&mut self, now: Cycle, device: &mut FlashDevice) {
        let Some(mut ck) = self.checkpoint.take() else {
            return;
        };
        if ck.flush_ready() {
            checkpoint::flush_journal(&mut ck, self, device, now);
        } else {
            ck.tick(now);
        }
        self.checkpoint = Some(ck);
    }
}

/// What a verified read does with a page it had to reconstruct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Heal {
    /// No rewrite: the caller supersedes the page anyway (a
    /// read-modify-write fetch).
    Skip,
    /// Rewrite the page clean in the background: the read completes when
    /// reconstruction does, while the program keeps the die busy.
    Background,
    /// Rewrite the page clean and complete the read when the program
    /// does.
    Inline,
}

/// Verifies a host-facing payload (see [`FtlServices::verify`]) and, on
/// a reconstructed mismatch, heals it through the mapping's rewrite path
/// as `heal` directs. The corrupt physical page is counted as
/// quarantined either way.
pub(crate) fn verify_read<M: Mapping + ?Sized>(
    ftl: &mut M,
    done: Cycle,
    device: &mut FlashDevice,
    addr: FlashAddr,
    key: u64,
    bytes: usize,
    heal: Heal,
) -> Result<Cycle> {
    let Some(mut t) = ftl.services_mut().verify(done, device, addr, key, bytes)? else {
        return Ok(done);
    };
    match heal {
        Heal::Skip => {}
        Heal::Background => {
            ftl.rewrite_page(t, device, key, addr)?;
        }
        Heal::Inline => t = ftl.rewrite_page(t, device, key, addr)?,
    }
    ftl.services_mut().icounters.quarantined += 1;
    Ok(t)
}

/// A mapping policy over the shared [`FtlServices`].
///
/// Implementors supply the per-mapping primitives; the subsystem
/// setters, counters, maintenance steps and crash recovery are provided
/// once for every FTL. Maintenance steps run between demand requests and
/// return when the foreground may resume: their media work always
/// completes, but with a pacing budget the foreground stall is capped at
/// the deadline and the overrun is counted.
pub trait Mapping {
    /// The shared flash services.
    fn services(&self) -> &FtlServices;

    /// The shared flash services, mutably.
    fn services_mut(&mut self) -> &mut FtlServices;

    /// Where logical page `key` currently resolves on flash, if mapped
    /// (a pure lookup: no CAM search is charged, nothing is allocated).
    fn locate(&self, key: u64) -> Option<FlashAddr>;

    /// Logical pages the mapping currently backs: the advertised
    /// capacity after an end-of-life step.
    fn mapped_pages(&self) -> u64;

    /// Garbage collections performed.
    fn gcs(&self) -> u64;

    /// Rewrites page `key`, currently at `src`, to a fresh location from
    /// reconstructed clean data, superseding `src`. Returns when the
    /// program completes.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors.
    fn rewrite_page(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        key: u64,
        src: FlashAddr,
    ) -> Result<Cycle>;

    /// Rewrites the aged block at `addr` to fresh cells (verified reads,
    /// re-program, remap, erase) and charges the refresh for `reason`.
    /// `Ok(None)` skips the step outright; `Ok(Some(done))` is paced and
    /// journalled by [`Mapping::refresh_step`].
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn refresh_block(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
        addr: BlockAddr,
        reason: RefreshReason,
    ) -> Result<Option<Cycle>>;

    /// One static-levelling migration: cold data moves into the most-worn
    /// spare so its low-wear cells rejoin the hot pool.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors.
    fn level_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle>;

    /// Migrates one victim's live data off a quarantined die onto
    /// healthy spares: `None` once nothing live remains on any
    /// quarantined die, else the completion time and pages moved, or the
    /// error that stopped the migration.
    fn evacuate_one(
        &mut self,
        now: Cycle,
        device: &mut FlashDevice,
    ) -> Option<Result<(Cycle, u64)>>;

    /// Fences a freshly failed die so demand traffic stops landing on it;
    /// returns when the emergency relocations complete. A no-op without
    /// redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors, and
    /// [`Error::UncorrectableRead`] when a stripe has lost a second
    /// member.
    fn fence_dead_die(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle>;

    /// Re-creates every page stranded on a dead die onto healthy spares
    /// from its surviving stripe members. Returns the completion time and
    /// the pages rebuilt; a no-op without redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors, and
    /// [`Error::UncorrectableRead`] when a stripe has lost a second
    /// member.
    fn rebuild_dead_die(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<(Cycle, u64)>;

    /// Rebuilds the volatile mapping tables from a recovery scan and its
    /// newest-copy `winners` (`lpn -> (stamp, location)`). Returns the
    /// device indices of the blocks the rebuilt tables reference; every
    /// other scanned block is reclaimed.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn rebuild_mapping(
        &mut self,
        device: &mut FlashDevice,
        scan: &Scan,
        winners: &BTreeMap<u64, (u64, FlashAddr)>,
    ) -> Result<BTreeSet<u64>>;

    /// Installs (or clears) the predictive health policy: per-die
    /// scoring, suspect quarantine, pre-emptive evacuation and
    /// rehabilitation activate together.
    fn set_health(&mut self, policy: Option<HealthPolicy>) {
        self.services_mut().health = policy.map(HealthState::new);
    }

    /// Event counters of the health subsystem, when enabled.
    fn health_counters(&self) -> Option<HealthCounters> {
        self.services().health.as_ref().map(|h| h.counters)
    }

    /// The currently quarantined dies, sorted; empty when health is off.
    fn quarantined_dies(&self) -> Vec<(u16, u16)> {
        let health = self.services().health.as_ref();
        health.map(HealthState::quarantined).unwrap_or_default()
    }

    /// Installs (or clears) the endurance policy: the refresh scheduler,
    /// the static wear leveler and graceful end-of-life capacity
    /// degradation activate together. `None` keeps the hard
    /// [`Error::DeviceWornOut`] cliff.
    fn set_endurance(&mut self, policy: Option<RefreshPolicy>) {
        self.services_mut().endurance = policy.map(EnduranceState::new);
    }

    /// Event counters of the endurance subsystem, when enabled.
    fn endurance_counters(&self) -> Option<EnduranceCounters> {
        self.services().endurance.as_ref().map(|s| s.counters)
    }

    /// Installs (or clears) RAIN redundancy: superblocks reserve one
    /// rotating parity member, uncorrectable reads reconstruct from
    /// surviving stripe members, and the patrol scrub and die-failure
    /// machinery activate. Enable before the first write: stripes only
    /// protect pages programmed while redundancy is on.
    fn set_redundancy(&mut self, device: &FlashDevice, config: Option<RainConfig>) {
        self.services_mut().rain = config.map(|c| RainState::new(device, c));
    }

    /// The redundancy state, if installed.
    fn redundancy(&self) -> Option<&RainState> {
        self.services().rain.as_ref()
    }

    /// Enables (or disables) end-to-end payload verification: every
    /// host-facing read checks the page's OOB checksum and escalates on a
    /// mismatch (re-read, then stripe reconstruction, then fail loudly).
    fn set_integrity(&mut self, enabled: bool) {
        self.services_mut().integrity = enabled;
    }

    /// Whether end-to-end payload verification is enabled.
    fn integrity_enabled(&self) -> bool {
        self.services().integrity
    }

    /// Event counters of the integrity layer.
    fn integrity_counters(&self) -> IntegrityCounters {
        self.services().icounters
    }

    /// Installs (or clears) mapping checkpoints plus the delta journal.
    /// `None` (or a disabled config) allocates no checkpoint blocks, and
    /// recovery always runs the full OOB scan.
    fn set_checkpointing(&mut self, config: Option<CheckpointConfig>) {
        self.services_mut().checkpoint = config.filter(|c| c.enabled()).map(CheckpointState::new);
    }

    /// Event counters of the checkpoint subsystem, when enabled.
    fn checkpoint_counters(&self) -> Option<CheckpointCounters> {
        self.services().checkpoint.as_ref().map(|ck| ck.counters)
    }

    /// Blocks permanently retired after failed programs/erases.
    fn blocks_retired(&self) -> u64 {
        self.services().blocks_retired
    }

    /// Writes re-driven into a new slot after a program failure.
    fn write_redrives(&self) -> u64 {
        self.services().write_redrives
    }

    /// Free blocks (fresh + recycled) in the allocator's pool.
    fn free_blocks(&self) -> u64 {
        self.services().allocator.free()
    }

    /// Converts an end-of-life allocator failure into the graceful
    /// [`Error::CapacityDegraded`] step when endurance management is on;
    /// passes every other error — and the baseline's hard cliff — through
    /// untouched.
    fn degrade_worn(&mut self, e: Error) -> Error {
        let mapped = self.mapped_pages();
        match self.services_mut().endurance.as_mut() {
            Some(st) => st.degrade(e, mapped),
            None => e,
        }
    }

    /// One background checkpoint write: flush the journal tail, serialise
    /// the mapping image into checkpoint blocks, commit, and erase the
    /// superseded epoch. Media failures abort the write (the previous
    /// epoch stays in force) rather than surfacing — the checkpoint is an
    /// accelerator, never a correctness dependency. A no-op without
    /// checkpointing.
    fn checkpoint_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Cycle {
        let svc = self.services_mut();
        let Some(mut ck) = svc.checkpoint.take() else {
            return now;
        };
        let done = checkpoint::write_checkpoint(&mut ck, svc, device, now);
        let overruns = &mut ck.counters.overruns;
        let resumed = ck
            .config
            .pacing
            .map_or(done, |p| p.cap(now, done, overruns));
        svc.checkpoint = Some(ck);
        resumed
    }

    /// One patrol-scrub step: sense the next live page and rewrite it
    /// when its retry depth reached the scrub threshold, the sense needed
    /// the stripe outright, or (with integrity on) its checksum failed —
    /// a corrupt page is rewritten from a clean stripe reconstruction,
    /// never from the sensed payload. A no-op without redundancy.
    ///
    /// # Errors
    ///
    /// Propagates allocation and flash-protocol errors.
    fn scrub_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let svc = self.services_mut();
        let Some((addr, key)) = svc.rain.as_mut().and_then(|r| r.scrub_scan(device)) else {
            return Ok(now);
        };
        let page_bytes = device.geometry().page_bytes;
        let retries_before = device.stats().read_retries();
        let unc_before = device.stats().uncorrectable_reads();
        let mut t = svc.retried_read(device, now, addr, key, page_bytes)?;
        let depth = device.stats().read_retries() - retries_before;
        let strained = device.stats().uncorrectable_reads() > unc_before;
        let corrupt = svc.integrity && device.page_is_corrupt(addr);
        let rain = svc.rain.as_mut().expect("checked above");
        let config = rain.config();
        rain.scrub_scanned += 1;
        if (depth >= config.scrub_threshold as u64 || strained || corrupt)
            && self.locate(key) == Some(addr)
        {
            let svc = self.services_mut();
            if corrupt {
                svc.icounters.detected += 1;
                let rain = svc.rain.as_mut().expect("checked above");
                t = rain.reconstruct(t, device, addr, page_bytes)?;
                svc.icounters.reconstructed += 1;
                svc.icounters.quarantined += 1;
            }
            t = self.rewrite_page(t, device, key, addr)?;
            self.services_mut()
                .rain
                .as_mut()
                .expect("checked above")
                .scrub_rewrites += 1;
        }
        let svc = self.services_mut();
        let overruns = &mut svc.rain.as_mut().expect("checked above").scrub_overruns;
        let capped = config.pacing.map_or(t, |p| p.cap(now, t, overruns));
        svc.ckpt_sync(t, device);
        Ok(capped)
    }

    /// One endurance step: walk the refresh cursor and rewrite the first
    /// block whose disturb count or retention age crossed its threshold;
    /// with no refresh candidate, run one static-levelling migration when
    /// the device wear spread exceeds the configured ratio. A no-op
    /// without an endurance policy.
    ///
    /// At end of life a step that cannot allocate a destination block is
    /// skipped, not surfaced — the data is no safer anywhere else, and
    /// capacity degradation is the write path's to report.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn refresh_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let Some(st) = self.services_mut().endurance.as_mut() else {
            return Ok(now);
        };
        let done = if let Some((addr, reason)) = st.scan_candidate(device, now) {
            match self.refresh_block(now, device, addr, reason)? {
                Some(done) => done,
                None => return Ok(now),
            }
        } else if st.wants_levelling(device) {
            match self.level_step(now, device) {
                Ok(done) => done,
                Err(Error::DeviceWornOut { .. }) => now,
                Err(e) => return Err(e),
            }
        } else {
            return Ok(now);
        };
        let svc = self.services_mut();
        let paced = svc
            .endurance
            .as_mut()
            .expect("checked above")
            .pace(now, done);
        svc.ckpt_sync(done, device);
        Ok(paced)
    }

    /// One predictive-health step: advance the degrading-die clock, fence
    /// and rebuild any die that died since the last tick (once per
    /// death), score the per-die telemetry (flagging new suspects into
    /// quarantine and rehabilitating false positives, whose parked blocks
    /// rejoin the pool), and — when evacuation is on — migrate one
    /// victim's live data off a suspect die. A step that finds no healthy
    /// spare is skipped, not surfaced; a later step retries. A no-op
    /// without a health policy.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors.
    fn health_step(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<Cycle> {
        let Some(h) = self.services_mut().health.as_mut() else {
            return Ok(now);
        };
        // A quiet device never reaches its own lazy death check: advance
        // the degrading-die clock here so the monitor sees the death.
        device.degrade_tick(now);
        h.counters.ticks += 1;
        let newly_dead = device
            .dead_dies()
            .iter()
            .filter(|&&key| h.note_dead(key))
            .count();
        let mut t = now;
        for _ in 0..newly_dead {
            t = self.fence_dead_die(t, device)?;
            t = self.rebuild_dead_die(t, device)?.0;
        }

        // Score the telemetry; rehabilitated dies get their parked
        // blocks back (with their real wear, for levelling).
        let svc = self.services_mut();
        let h = svc.health.as_mut().expect("checked above");
        let rehabbed = h.observe(&device.stats().die_health_sorted(), device.dead_dies());
        for key in rehabbed {
            for idx in h.unpark(key) {
                let wear = device
                    .geometry()
                    .block_for_index(idx)
                    .ok()
                    .and_then(|a| device.block(a))
                    .map(|b| b.erase_count())
                    .unwrap_or(0);
                svc.allocator.release(idx, wear);
            }
        }

        if h.policy.evacuate {
            match self.evacuate_one(t, device) {
                Some(Ok((done, pages))) => {
                    let h = self.services_mut().health.as_mut().expect("checked above");
                    h.note_evacuated(pages);
                    t = done;
                }
                Some(Err(Error::DeviceWornOut { .. } | Error::OutOfSpace)) => {}
                Some(Err(e)) => return Err(e),
                None => {
                    // Nothing live remains on any quarantined die: its
                    // eventual death can no longer cost a single read.
                    let h = self.services_mut().health.as_mut().expect("checked above");
                    for key in h.quarantined() {
                        h.mark_evacuated(key);
                    }
                }
            }
        }
        let svc = self.services_mut();
        let paced = svc.health.as_mut().expect("checked above").pace(now, t);
        svc.ckpt_sync(t, device);
        Ok(paced)
    }

    /// Rebuilds every volatile mapping structure after a power loss.
    ///
    /// Call after [`FlashDevice::power_loss`]. With a verified checkpoint
    /// the fast path loads it, replays the journal tail and re-scans only
    /// the blocks touched since; otherwise every touched block's OOB area
    /// is scanned. Both paths feed the identical rebuild: duplicate
    /// logical pages resolve by program stamp (newest intact copy wins),
    /// torn pages are discarded, unreferenced blocks are erased back into
    /// the free pool, and the allocator is re-derived. Deterministic and
    /// idempotent.
    ///
    /// # Errors
    ///
    /// Propagates flash-protocol errors from the dead-block reclaim.
    fn recover(&mut self, now: Cycle, device: &mut FlashDevice) -> Result<RecoveryReport> {
        let ck = self.services().checkpoint.as_ref();
        let planned = ck.and_then(|ck| ck.plan_fast_scan(device));
        let fast_path = planned.is_some();
        let fallback = ck.is_some() && !fast_path;
        let (scan, journal_replayed, blocks_rescanned, cycles_saved) = match planned {
            Some(f) => {
                #[cfg(debug_assertions)]
                debug_assert_eq!(
                    f.scan.blocks,
                    recovery::scan_device(device).blocks,
                    "fast-path image must equal a full scan of the same media"
                );
                (
                    f.scan,
                    f.journal_replayed,
                    f.blocks_rescanned,
                    f.cycles_saved,
                )
            }
            None => (recovery::scan_device(device), 0, 0, Cycle::ZERO),
        };
        let winners = recovery::resolve_winners(&scan.blocks);
        let candidates: u64 = scan.blocks.iter().map(|b| b.entries.len() as u64).sum();
        let referenced = self.rebuild_mapping(device, &scan, &winners)?;
        let geo = *device.geometry();
        let installed = winners
            .values()
            .filter(|&&(_, a)| referenced.contains(&geo.index_for_block(a.block)))
            .count() as u64;
        let dead = scan.blocks.iter().filter(|b| !referenced.contains(&b.idx));
        let svc = self.services_mut();
        let pool = recovery::rebuild_free_pool(
            device,
            &scan.blocks,
            dead,
            referenced.len() as u64,
            now + scan.base_cycles,
            svc.allocator.policy(),
            svc.allocator.retired(),
        )?;
        // Only retirements discovered by this recovery count as new; the
        // rest were already charged when they happened.
        svc.blocks_retired += pool.retired_delta;
        svc.allocator = pool.allocator;
        svc.stale_ckpt = pool.deferred;
        if let Some(rain) = svc.rain.as_mut() {
            // Open-stripe parity lived in SRAM (lost with power) and
            // flushed parity blocks were reclaimed by the scan just now:
            // stripes restart empty.
            rain.reset_after_recovery();
        }
        if let Some(st) = svc.endurance.as_mut() {
            st.reset_after_recovery();
        }
        if let Some(h) = svc.health.as_mut() {
            h.reset_after_recovery();
        }
        svc.icounters.quarantined += scan.corrupt;
        if let Some(ck) = svc.checkpoint.as_mut() {
            ck.reset_after_recovery();
        }
        Ok(RecoveryReport {
            pages_scanned: scan.pages_scanned,
            torn_discarded: scan.torn,
            stale_dropped: candidates - installed,
            blocks_erased: pool.blocks_erased,
            corrupt_quarantined: scan.corrupt,
            scan_cycles: pool.done - now,
            fast_path,
            fallback,
            journal_replayed,
            blocks_rescanned,
            cycles_saved,
        })
    }
}
