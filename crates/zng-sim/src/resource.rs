//! Occupancy-based contention models.
//!
//! Shared hardware is modelled as a small pool of servers. A request
//! *reserves* a server for its service time; the reservation's end is the
//! request's departure time. Back-to-back reservations serialize, which is
//! exactly the queueing behaviour that makes, e.g., HybridGPU's single
//! request dispatcher or a 1 B ONFI bus a bottleneck.

use zng_types::Cycle;

use crate::stats::Histogram;

/// The outcome of a bounded admission attempt ([`Resource::try_acquire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was admitted; it departs (service completes) at the
    /// given cycle.
    Admitted(Cycle),
    /// The queue was full; nothing was reserved.
    Rejected {
        /// Earliest cycle at which a slot is guaranteed free, assuming no
        /// competing arrivals in between. Always strictly after `now`.
        retry_at: Cycle,
    },
}

impl Admission {
    /// The departure time, or `None` if rejected.
    pub fn departure(self) -> Option<Cycle> {
        match self {
            Admission::Admitted(done) => Some(done),
            Admission::Rejected { .. } => None,
        }
    }

    /// Whether the request was admitted.
    pub fn is_admitted(self) -> bool {
        matches!(self, Admission::Admitted(_))
    }
}

/// A pool of identical servers with reservation semantics.
///
/// # Examples
///
/// A single-ported resource serializes:
///
/// ```
/// use zng_sim::Resource;
/// use zng_types::Cycle;
///
/// let mut r = Resource::new(1);
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// // Arrives at t=0 but the server is busy until 10.
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
/// ```
///
/// A dual-ported resource overlaps two requests:
///
/// ```
/// use zng_sim::Resource;
/// use zng_types::Cycle;
///
/// let mut r = Resource::new(2);
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
/// assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    /// Next-free time per server.
    servers: Vec<Cycle>,
    /// Total busy time accumulated across servers (for utilization).
    busy: Cycle,
    /// Number of completed reservations.
    served: u64,
    /// Maximum *waiting* requests (in-system beyond the server count)
    /// tolerated by [`Resource::try_acquire`]; `None` = unbounded.
    queue_depth: Option<usize>,
    /// Departure times of requests admitted through `try_acquire` that
    /// may still be in the system. Pruned lazily against `now`.
    pending: Vec<Cycle>,
    /// Admissions refused because the queue was full.
    rejected: u64,
    /// Wait time (admission to service start) of admitted requests.
    wait_hist: Histogram,
    /// In-system population observed at each admission (including the
    /// request being admitted).
    occupancy_hist: Histogram,
}

impl Resource {
    /// Creates a resource with `ports` parallel servers and an unbounded
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: usize) -> Resource {
        assert!(ports > 0, "a resource needs at least one server");
        Resource {
            servers: vec![Cycle::ZERO; ports],
            busy: Cycle::ZERO,
            served: 0,
            queue_depth: None,
            pending: Vec::new(),
            rejected: 0,
            wait_hist: Histogram::new(),
            occupancy_hist: Histogram::new(),
        }
    }

    /// Creates a resource whose [`Resource::try_acquire`] admits at most
    /// `depth` waiting requests beyond the `ports` in service.
    pub fn bounded(ports: usize, depth: usize) -> Resource {
        let mut r = Resource::new(ports);
        r.queue_depth = Some(depth);
        r
    }

    /// Changes the admission bound (`None` = unbounded). Takes effect on
    /// the next [`Resource::try_acquire`]; in-flight reservations keep
    /// their departure times.
    pub fn set_queue_depth(&mut self, depth: Option<usize>) {
        self.queue_depth = depth;
    }

    /// The configured admission bound, if any.
    pub fn queue_depth(&self) -> Option<usize> {
        self.queue_depth
    }

    /// Reserves the earliest-free server starting no earlier than `now` for
    /// `service` cycles and returns the completion time.
    pub fn acquire(&mut self, now: Cycle, service: Cycle) -> Cycle {
        let slot = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .expect("resource has at least one server");
        let start = now.max(self.servers[slot]);
        let end = start + service;
        self.servers[slot] = end;
        self.busy += service;
        self.served += 1;
        end
    }

    /// Bounded admission: like [`Resource::acquire`], but refuses the
    /// reservation when more than the configured queue depth of admitted
    /// requests are still waiting for a server at `now`.
    ///
    /// On admission the wait time (service start minus `now`) and the
    /// in-system population are recorded in the histograms. A rejection
    /// reserves nothing and reports the earliest cycle at which a queue
    /// slot frees; retrying then is guaranteed to be admitted if no other
    /// request arrives in between. With no depth configured this never
    /// rejects (it is `acquire` plus bookkeeping).
    pub fn try_acquire(&mut self, now: Cycle, service: Cycle) -> Admission {
        self.pending.retain(|&done| done > now);
        if let Some(depth) = self.queue_depth {
            if self.pending.len() >= self.servers.len() + depth {
                self.rejected += 1;
                let soonest = self
                    .pending
                    .iter()
                    .copied()
                    .min()
                    .expect("a saturated queue has pending departures");
                return Admission::Rejected {
                    retry_at: soonest.max(now + Cycle(1)),
                };
            }
        }
        let done = self.acquire(now, service);
        let start = done.saturating_since(service);
        self.wait_hist.record(start.saturating_since(now).raw());
        self.pending.push(done);
        self.occupancy_hist.record(self.pending.len() as u64);
        Admission::Admitted(done)
    }

    /// Requests admitted via [`Resource::try_acquire`] still in the system
    /// at `now` (waiting or in service).
    pub fn in_system(&self, now: Cycle) -> usize {
        self.pending.iter().filter(|&&done| done > now).count()
    }

    /// Admissions refused by [`Resource::try_acquire`] so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Wait times (cycles between arrival and service start) of admitted
    /// requests.
    pub fn wait_histogram(&self) -> &Histogram {
        &self.wait_hist
    }

    /// In-system population sampled at each admission.
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy_hist
    }

    /// The earliest time any server becomes free.
    pub fn earliest_free(&self) -> Cycle {
        self.servers
            .iter()
            .copied()
            .min()
            .expect("resource has at least one server")
    }

    /// Number of servers in the pool.
    pub fn ports(&self) -> usize {
        self.servers.len()
    }

    /// Completed reservations so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of capacity used up to `now` (0.0–1.0).
    ///
    /// Returns 0.0 before any time has elapsed.
    pub fn utilization(&self, now: Cycle) -> f64 {
        if now == Cycle::ZERO {
            return 0.0;
        }
        let cap = now.raw() as f64 * self.servers.len() as f64;
        (self.busy.raw() as f64 / cap).min(1.0)
    }

    /// Forgets all reservations, admissions and statistics (used between
    /// simulation phases). The configured queue depth is kept.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            *s = Cycle::ZERO;
        }
        self.busy = Cycle::ZERO;
        self.served = 0;
        self.pending.clear();
        self.rejected = 0;
        self.wait_hist = Histogram::new();
        self.occupancy_hist = Histogram::new();
    }
}

/// A bandwidth-limited, fixed-latency transfer pipe (a bus, a NoC link,
/// a PCIe lane set, a flash channel).
///
/// Occupancy is `bytes / bytes_per_cycle`; the propagation `latency` is
/// pipelined (it delays the data but does not occupy the pipe).
///
/// # Examples
///
/// ```
/// use zng_sim::Link;
/// use zng_types::Cycle;
///
/// // An 8 B/cycle mesh link with 4-cycle hop latency.
/// let mut l = Link::new(8.0, Cycle(4));
/// // A 4 KB page occupies the link for 512 cycles, arriving at 516.
/// assert_eq!(l.transfer(Cycle(0), 4096), Cycle(516));
/// // The next page queues behind the first occupancy.
/// assert_eq!(l.transfer(Cycle(0), 4096), Cycle(1028));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    pipe: Resource,
    bytes_per_cycle: f64,
    latency: Cycle,
    bytes_moved: u64,
}

impl Link {
    /// Creates a link moving `bytes_per_cycle` with per-transfer `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not positive.
    pub fn new(bytes_per_cycle: f64, latency: Cycle) -> Link {
        assert!(
            bytes_per_cycle > 0.0,
            "link bandwidth must be positive, got {bytes_per_cycle}"
        );
        Link {
            pipe: Resource::new(1),
            bytes_per_cycle,
            latency,
            bytes_moved: 0,
        }
    }

    /// Reserves the pipe for `bytes` starting no earlier than `now`;
    /// returns the time the last byte arrives.
    pub fn transfer(&mut self, now: Cycle, bytes: usize) -> Cycle {
        let occupancy = Cycle((bytes as f64 / self.bytes_per_cycle).ceil() as u64);
        self.bytes_moved += bytes as u64;
        self.pipe.acquire(now, occupancy) + self.latency
    }

    /// Bounded injection: like [`Link::transfer`], but rejects when the
    /// configured number of transfers is already queued on the pipe.
    /// Rejections move no bytes. With no depth configured this never
    /// rejects.
    pub fn try_transfer(&mut self, now: Cycle, bytes: usize) -> Admission {
        let occupancy = Cycle((bytes as f64 / self.bytes_per_cycle).ceil() as u64);
        match self.pipe.try_acquire(now, occupancy) {
            Admission::Admitted(done) => {
                self.bytes_moved += bytes as u64;
                Admission::Admitted(done + self.latency)
            }
            rejected => rejected,
        }
    }

    /// Bounds the number of transfers queued on the pipe (`None` =
    /// unbounded; only [`Link::try_transfer`] enforces the bound).
    pub fn set_queue_depth(&mut self, depth: Option<usize>) {
        self.pipe.set_queue_depth(depth);
    }

    /// Injections refused by [`Link::try_transfer`] so far.
    pub fn rejected(&self) -> u64 {
        self.pipe.rejected()
    }

    /// Wait times of admitted transfers (queueing delay before the pipe).
    pub fn wait_histogram(&self) -> &Histogram {
        self.pipe.wait_histogram()
    }

    /// In-flight transfer population sampled at each admission.
    pub fn occupancy_histogram(&self) -> &Histogram {
        self.pipe.occupancy_histogram()
    }

    /// Total bytes pushed through this link.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// The link's configured bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// The link's propagation latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Fraction of link capacity used up to `now`.
    pub fn utilization(&self, now: Cycle) -> f64 {
        self.pipe.utilization(now)
    }

    /// Forgets all reservations and counters.
    pub fn reset(&mut self) {
        self.pipe.reset();
        self.bytes_moved = 0;
    }
}

/// A finite admission queue tracking in-flight requests by departure time.
///
/// Unlike [`Resource`], an `AdmissionQueue` does not model service — the
/// caller computes completion times through whatever pipeline it guards
/// (a flash channel controller, an SSD dispatcher) and reports them back
/// via [`AdmissionQueue::note_inflight`]. The queue only decides whether a
/// new request may enter, bounding the in-flight population.
///
/// With no depth configured (the default), [`AdmissionQueue::try_admit`]
/// always succeeds and performs no tracking, so unbounded mode costs
/// nothing and perturbs nothing.
#[derive(Debug, Default, Clone)]
pub struct AdmissionQueue {
    depth: Option<usize>,
    inflight: Vec<Cycle>,
    rejected: u64,
    occupancy_hist: Histogram,
}

impl AdmissionQueue {
    /// Creates an unbounded (no-op) queue.
    pub fn new() -> AdmissionQueue {
        AdmissionQueue::default()
    }

    /// Sets the in-flight bound (`None` = unbounded). Clearing the bound
    /// also drops tracked in-flight entries.
    pub fn set_depth(&mut self, depth: Option<usize>) {
        self.depth = depth;
        if depth.is_none() {
            self.inflight.clear();
        }
    }

    /// The configured bound, if any.
    pub fn depth(&self) -> Option<usize> {
        self.depth
    }

    /// Asks to admit one request at `now`. On `Err(retry_at)` the queue is
    /// full; retrying at `retry_at` is guaranteed to succeed if no other
    /// request is admitted in between.
    pub fn try_admit(&mut self, now: Cycle) -> Result<(), Cycle> {
        let Some(depth) = self.depth else {
            return Ok(());
        };
        self.inflight.retain(|&done| done > now);
        if self.inflight.len() >= depth {
            self.rejected += 1;
            let soonest = self
                .inflight
                .iter()
                .copied()
                .min()
                .expect("a full queue has in-flight entries");
            return Err(soonest.max(now + Cycle(1)));
        }
        self.occupancy_hist.record(self.inflight.len() as u64 + 1);
        Ok(())
    }

    /// Reports the completion time of the request most recently admitted.
    /// No-op in unbounded mode.
    pub fn note_inflight(&mut self, done: Cycle) {
        if self.depth.is_some() {
            self.inflight.push(done);
        }
    }

    /// Requests currently tracked as in flight at `now`.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.inflight.iter().filter(|&&done| done > now).count()
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// In-flight population sampled at each admission (including the
    /// admitted request).
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy_hist
    }

    /// Largest in-flight population ever admitted to.
    pub fn max_occupancy(&self) -> u64 {
        self.occupancy_hist.max()
    }

    /// Forgets in-flight entries and statistics; keeps the bound.
    pub fn reset(&mut self) {
        self.inflight.clear();
        self.rejected = 0;
        self.occupancy_hist = Histogram::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let mut r = Resource::new(1);
        let a = r.acquire(Cycle(0), Cycle(5));
        let b = r.acquire(Cycle(2), Cycle(5));
        assert_eq!(a, Cycle(5));
        assert_eq!(b, Cycle(10)); // queued behind a
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn idle_gap_is_not_reserved() {
        let mut r = Resource::new(1);
        r.acquire(Cycle(0), Cycle(5));
        // Arrives after the first job finished: starts immediately.
        assert_eq!(r.acquire(Cycle(100), Cycle(5)), Cycle(105));
    }

    #[test]
    fn multi_port_overlaps() {
        let mut r = Resource::new(3);
        for _ in 0..3 {
            assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(10));
        }
        assert_eq!(r.acquire(Cycle(0), Cycle(10)), Cycle(20));
        assert_eq!(r.earliest_free(), Cycle(10));
    }

    #[test]
    fn utilization_bounds() {
        let mut r = Resource::new(2);
        assert_eq!(r.utilization(Cycle::ZERO), 0.0);
        r.acquire(Cycle(0), Cycle(10));
        // 10 busy cycles over 2 servers * 10 cycles = 0.5.
        assert!((r.utilization(Cycle(10)) - 0.5).abs() < 1e-12);
        r.acquire(Cycle(0), Cycle(10));
        assert!((r.utilization(Cycle(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new(1);
        r.acquire(Cycle(0), Cycle(50));
        r.reset();
        assert_eq!(r.earliest_free(), Cycle::ZERO);
        assert_eq!(r.served(), 0);
        assert_eq!(r.acquire(Cycle(0), Cycle(1)), Cycle(1));
    }

    #[test]
    fn link_bandwidth_math() {
        // 1 B/cycle ONFI-like bus: a 4 KB page takes 4096 cycles.
        let mut bus = Link::new(1.0, Cycle::ZERO);
        assert_eq!(bus.transfer(Cycle(0), 4096), Cycle(4096));
        assert_eq!(bus.bytes_moved(), 4096);
        // An 8 B/cycle link is 8x faster.
        let mut mesh = Link::new(8.0, Cycle::ZERO);
        assert_eq!(mesh.transfer(Cycle(0), 4096), Cycle(512));
    }

    #[test]
    fn link_latency_is_pipelined() {
        let mut l = Link::new(128.0, Cycle(10));
        let first = l.transfer(Cycle(0), 128); // occupancy 1, arrive 11
        let second = l.transfer(Cycle(0), 128); // starts at 1, arrive 12
        assert_eq!(first, Cycle(11));
        assert_eq!(second, Cycle(12));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_ports_rejected() {
        let _ = Resource::new(0);
    }

    #[test]
    fn utilization_is_zero_after_reset() {
        let mut r = Resource::new(2);
        r.acquire(Cycle(0), Cycle(100));
        assert!(r.utilization(Cycle(100)) > 0.0);
        r.reset();
        assert_eq!(r.utilization(Cycle(100)), 0.0, "busy time forgotten");
        assert_eq!(r.utilization(Cycle::ZERO), 0.0, "and t=0 stays defined");
    }

    #[test]
    fn zero_service_time_reservations() {
        let mut r = Resource::new(1);
        // A zero-cycle reservation departs when it starts and holds nothing.
        assert_eq!(r.acquire(Cycle(5), Cycle::ZERO), Cycle(5));
        assert_eq!(r.acquire(Cycle(5), Cycle(10)), Cycle(15));
        assert_eq!(r.served(), 2);
        assert_eq!(r.utilization(Cycle(15)), 10.0 / 15.0);
        // Bounded mode: zero-service requests never occupy the queue.
        let mut b = Resource::bounded(1, 0);
        for _ in 0..3 {
            assert_eq!(
                b.try_acquire(Cycle(5), Cycle::ZERO),
                Admission::Admitted(Cycle(5))
            );
        }
        assert_eq!(b.rejected(), 0);
    }

    #[test]
    fn bounded_resource_rejects_beyond_depth() {
        // 1 server + depth 2: the third concurrent request is refused.
        let mut r = Resource::bounded(1, 2);
        assert_eq!(
            r.try_acquire(Cycle(0), Cycle(10)),
            Admission::Admitted(Cycle(10))
        );
        assert_eq!(
            r.try_acquire(Cycle(0), Cycle(10)),
            Admission::Admitted(Cycle(20))
        );
        assert_eq!(
            r.try_acquire(Cycle(0), Cycle(10)),
            Admission::Admitted(Cycle(30))
        );
        let rej = r.try_acquire(Cycle(0), Cycle(10));
        assert_eq!(
            rej,
            Admission::Rejected {
                retry_at: Cycle(10)
            }
        );
        assert!(!rej.is_admitted());
        assert_eq!(rej.departure(), None);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.in_system(Cycle(0)), 3);
        // Retrying at the hinted time succeeds.
        assert!(r.try_acquire(Cycle(10), Cycle(10)).is_admitted());
        assert_eq!(r.occupancy_histogram().max(), 3, "in-system <= ports+depth");
    }

    #[test]
    fn bounded_resource_retry_at_is_strictly_future() {
        let mut r = Resource::bounded(1, 0);
        // Zero-service admission departs at now; it is pruned, so the
        // queue is empty again and admission succeeds. Force saturation
        // with a real service time instead.
        r.try_acquire(Cycle(0), Cycle(1));
        match r.try_acquire(Cycle(0), Cycle(1)) {
            Admission::Rejected { retry_at } => assert!(retry_at > Cycle(0)),
            a => panic!("expected rejection, got {a:?}"),
        }
    }

    #[test]
    fn unbounded_try_acquire_matches_acquire() {
        let mut a = Resource::new(2);
        let mut b = Resource::new(2);
        for (now, svc) in [(0u64, 7u64), (3, 5), (4, 9), (20, 1)] {
            let x = a.acquire(Cycle(now), Cycle(svc));
            let y = b.try_acquire(Cycle(now), Cycle(svc));
            assert_eq!(y, Admission::Admitted(x));
        }
        assert_eq!(b.rejected(), 0);
        assert_eq!(b.wait_histogram().count(), 4);
    }

    #[test]
    fn wait_histogram_records_queueing_delay() {
        let mut r = Resource::bounded(1, 8);
        r.try_acquire(Cycle(0), Cycle(10)); // starts at 0: wait 0
        r.try_acquire(Cycle(0), Cycle(10)); // starts at 10: wait 10
        r.try_acquire(Cycle(0), Cycle(10)); // starts at 20: wait 20
        let h = r.wait_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 20);
        assert_eq!(h.sum(), 30);
    }

    #[test]
    fn reset_clears_bounded_state_but_keeps_depth() {
        let mut r = Resource::bounded(1, 0);
        r.try_acquire(Cycle(0), Cycle(100));
        r.try_acquire(Cycle(0), Cycle(100));
        assert_eq!(r.rejected(), 1);
        r.reset();
        assert_eq!(r.rejected(), 0);
        assert_eq!(r.in_system(Cycle(0)), 0);
        assert_eq!(r.queue_depth(), Some(0));
        assert!(r.try_acquire(Cycle(0), Cycle(1)).is_admitted());
    }

    #[test]
    fn link_try_transfer_bounds_injection() {
        let mut l = Link::new(8.0, Cycle(4));
        l.set_queue_depth(Some(0)); // only the transfer in service
        let first = l.try_transfer(Cycle(0), 4096);
        assert_eq!(first, Admission::Admitted(Cycle(516)));
        let second = l.try_transfer(Cycle(0), 4096);
        // Pipe busy until 512 (latency is pipelined, not queued).
        assert_eq!(
            second,
            Admission::Rejected {
                retry_at: Cycle(512)
            }
        );
        assert_eq!(l.rejected(), 1);
        assert_eq!(l.bytes_moved(), 4096, "rejected transfer moved no bytes");
        assert!(l.try_transfer(Cycle(512), 4096).is_admitted());
        assert!(l.occupancy_histogram().max() <= 1);
    }

    #[test]
    fn admission_queue_unbounded_is_a_noop() {
        let mut q = AdmissionQueue::new();
        for _ in 0..100 {
            assert_eq!(q.try_admit(Cycle(0)), Ok(()));
            q.note_inflight(Cycle(1_000_000));
        }
        assert_eq!(q.in_flight(Cycle(0)), 0, "no tracking without a bound");
        assert_eq!(q.max_occupancy(), 0);
        assert_eq!(q.rejected(), 0);
    }

    #[test]
    fn admission_queue_enforces_depth() {
        let mut q = AdmissionQueue::new();
        q.set_depth(Some(2));
        assert_eq!(q.try_admit(Cycle(0)), Ok(()));
        q.note_inflight(Cycle(50));
        assert_eq!(q.try_admit(Cycle(0)), Ok(()));
        q.note_inflight(Cycle(80));
        assert_eq!(q.try_admit(Cycle(0)), Err(Cycle(50)));
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.in_flight(Cycle(0)), 2);
        // At the hinted time the earliest departure has left.
        assert_eq!(q.try_admit(Cycle(50)), Ok(()));
        assert_eq!(q.max_occupancy(), 2);
        q.reset();
        assert_eq!(q.depth(), Some(2));
        assert_eq!(q.rejected(), 0);
        assert_eq!(q.max_occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, Cycle::ZERO);
    }
}
