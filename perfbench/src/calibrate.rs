//! A fixed calibration kernel that scales host times to a reference host
//! speed.
//!
//! On a shared host the simulator's speed follows its neighbours' use of
//! the caches and memory: `Simulation::run` on one trace set takes from
//! ~0.16 s to ~0.29 s on `zng-graph`, in spells of tens of seconds. A
//! median over one run cannot remove that. The kernel below is timed next
//! to every timed repetition. It does random inserts into and lookups in
//! a std `HashMap` of ~80 k entries (a few MB), the access pattern of the
//! simulator's hot maps, so its time moves with the host as the
//! simulator's does. Its code is std's and this file's, so a change to
//! the simulator does not change it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, in seconds. A host time `t`
/// measured beside a kernel time `k` is reported as `t * REFERENCE_S / k`.
pub const REFERENCE_S: f64 = 0.010;

/// Keys inserted, then looked up.
const OPS: usize = 100_000;
/// Keys are drawn from `0..KEY_RANGE`, so about 80 k are distinct.
const KEY_RANGE: u64 = 200_000;

/// Runs the kernel once and returns its host time in seconds.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % KEY_RANGE
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for _ in 0..OPS {
        *map.entry(next()).or_insert(0) += 1;
    }
    let mut found = 0u64;
    for _ in 0..OPS {
        found += map.get(&next()).copied().unwrap_or(0);
    }
    black_box(found);
    start.elapsed().as_secs_f64()
}

/// Scales host seconds `t`, measured beside a kernel time of `kernel_s`
/// seconds, to the reference host.
pub fn scale(t: f64, kernel_s: f64) -> f64 {
    t * REFERENCE_S / kernel_s
}
