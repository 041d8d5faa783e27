//! A fixed reference kernel that measures how fast the host runs right
//! now, independent of any code in the repository.
//!
//! On a shared host the speed of the machine itself drifts: on the 2-core
//! VM the bounds were set on, the same pass ran 36% faster in one
//! 30-minute stretch than in the one before, and a pure-CPU loop sped up
//! by as much. The fastest-stage times remove other tenants' bursts but
//! not such drift. Host times are therefore reported scaled to the
//! reference kernel's [`NOMINAL_MS`]: `measured × NOMINAL_MS / kernel`,
//! with both the pass and the kernel taken at their fastest in the same
//! run. The kernel uses only the standard library, so no change to the
//! repository can speed it up and cancel its own gain.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the kernel inserts into an ordered map, then sorts.
const KEYS: u64 = 40_000;
/// Lookups into the map, about half of them hits.
const LOOKUPS: usize = 120_000;

/// About the kernel's fastest time, run after a pass, on the 2-core VM
/// the bounds were set on. Only the ratio to it matters; it fixes the
/// scale the host times are reported in.
pub const NOMINAL_MS: f64 = 12.5;

/// The kernel's work: ordered-map inserts and lookups over xorshift keys
/// and an unstable sort, the branchy, cache-resident mix the simulator's
/// event core and hash maps have. Returns a checksum so the work is kept.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..KEYS).map(|_| next() % (2 * KEYS)).collect();
    let map: BTreeMap<u64, usize> = keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let hits = (0..LOOKUPS)
        .filter(|_| map.contains_key(&(next() % (2 * KEYS))))
        .count() as u64;
    keys.sort_unstable();
    hits ^ keys[keys.len() / 2]
}

/// Host wall time of one run of the kernel, in ms.
pub fn run_ms() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        assert_eq!(kernel(), kernel());
        assert!(run_ms() > 0.0);
    }
}
