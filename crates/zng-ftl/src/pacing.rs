//! GC pacing: bounding how long a log-block merge may stall foreground
//! traffic.
//!
//! A full log-block merge can take hundreds of microseconds; without
//! pacing the victim application is blocked for the whole merge (ZnG's
//! baseline behaviour, paper §V-A / Fig. 17). Under overload control the
//! FTL instead publishes a *blocking deadline* alongside every merge: the
//! victim is stalled no longer than the configured budget, and the runner
//! additionally enforces a *credit* — the number of foreground events one
//! merge may stall — so end-of-life fault profiles (whose merges re-drive
//! and restart) degrade gracefully instead of collapsing. Merges that
//! outlive their deadline are counted as deadline misses; the media work
//! itself always completes (plane reservations are unaffected), only the
//! foreground stall is capped.

use zng_types::Cycle;

/// Pacing policy for log-block merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPacing {
    /// Longest foreground stall one merge may impose. A merge finishing
    /// later than `started + stall_budget` is a deadline miss and blocks
    /// only up to the deadline.
    pub stall_budget: Cycle,
    /// How many foreground events one merge may stall before the runner
    /// releases the victim app early (0 = never stall).
    pub credit_writes: u64,
}

impl GcPacing {
    /// The blocking deadline for a merge that started at `started`.
    pub fn deadline(&self, started: Cycle) -> Cycle {
        started + self.stall_budget
    }

    /// Caps a step that started at `started` and finished its media work
    /// at `done` to the blocking deadline, counting an overrun in
    /// `overruns` when the work ran past it. Finishing exactly at the
    /// deadline is not an overrun.
    pub fn cap(&self, started: Cycle, done: Cycle, overruns: &mut u64) -> Cycle {
        let deadline = self.deadline(started);
        if done > deadline {
            *overruns += 1;
            return deadline;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_start_plus_budget() {
        let p = GcPacing {
            stall_budget: Cycle(10_000),
            credit_writes: 4,
        };
        assert_eq!(p.deadline(Cycle(500)), Cycle(10_500));
    }

    #[test]
    fn cap_counts_only_work_past_the_deadline() {
        let p = GcPacing {
            stall_budget: Cycle(1_000),
            credit_writes: 4,
        };
        let mut overruns = 0;
        assert_eq!(p.cap(Cycle(100), Cycle(600), &mut overruns), Cycle(600));
        assert_eq!(overruns, 0, "below the deadline");
        assert_eq!(p.cap(Cycle(100), Cycle(1_100), &mut overruns), Cycle(1_100));
        assert_eq!(overruns, 0, "exactly at the deadline is not an overrun");
        assert_eq!(p.cap(Cycle(100), Cycle(1_101), &mut overruns), Cycle(1_100));
        assert_eq!(overruns, 1, "one cycle past the deadline");
    }
}
