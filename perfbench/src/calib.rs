//! Host-speed normalisation.
//!
//! On a shared host, other tenants' load changes how fast the cores run by
//! 20% and more over tens of seconds. The benchmark is not descheduled; its
//! code just runs slower, and a small fixed reference kernel slows nearly
//! alike. Timed right before and after each measured pass, the kernel
//! tracks the host's speed. Every host-time metric is reported at the nominal
//! speed, where the kernel takes [`NOMINAL_MS`]: a time measured while the
//! kernel took `k` ms is scaled by `NOMINAL_MS / k`. The raw figures are
//! printed beside the normalised ones.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time at nominal host speed, ms.
pub const NOMINAL_MS: f64 = 5.0;

/// Elements the reference kernel shuffles, sorts and counts.
const KERNEL_LEN: u64 = 50_000;

/// Runs the reference kernel — a mix of multiply-add, sorting and hash-map
/// updates, like the program's own hot paths — and returns its time, ms.
/// Taken on the measuring thread right before and after a pass; the host's
/// load moves both cores alike, so one thread's reading also serves the
/// fleet's two workers.
pub fn reference_ms() -> f64 {
    let started = Instant::now();
    let mut v: Vec<u64> = (0..KERNEL_LEN).collect();
    let mut counts = std::collections::HashMap::new();
    for round in 0..4u64 {
        for x in v.iter_mut() {
            *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(round);
        }
        v.sort_unstable();
        for x in v.iter().step_by(16) {
            *counts.entry(*x & 0xfff).or_insert(0u64) += 1;
        }
    }
    black_box((&v, &counts));
    started.elapsed().as_secs_f64() * 1e3
}

/// The factor that maps a time measured while the kernel took
/// `reference_ms` to nominal host speed.
pub fn scale(reference_ms: f64) -> f64 {
    NOMINAL_MS / reference_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_time_and_scale_inverts_it() {
        assert!(reference_ms() > 0.0);
        assert_eq!(scale(NOMINAL_MS), 1.0);
        assert_eq!(scale(2.0 * NOMINAL_MS), 0.5, "a slow host's times shrink");
    }
}
