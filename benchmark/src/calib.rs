//! The calibration kernel: a fixed piece of work, independent of the
//! simulator, that tells how fast the host is right now.
//!
//! Sizing showed the sandbox's speed shifting by 10–30 % for minutes at a
//! time, in both directions, for reasons outside the process: whole runs
//! came out slow or fast together, so no statistic over the repetitions of
//! one run could steady them. The shifts are common to all code on the
//! host, though: running this kernel between slices of the simulation and
//! dividing one time by the other cut the run-to-run spread of the
//! 15-second medians from 2.2–5.9 % to 1.4–2.3 % and their range from
//! 10–16 % to 5–6 % (693 alternations per rig, `ipv4_rig`, `modem_rig`,
//! `video_rig`).
//!
//! The host-time end-to-end metrics are therefore reported *at reference
//! host speed*: measured seconds × [`KERNEL_REF_SECS`] ÷ the seconds the
//! kernel took beside them. The raw seconds are printed next to them.

use crate::stats::timed;
use std::hint::black_box;

/// What one kernel run takes on the 2-core 2.1 GHz Xeon sandbox this
/// benchmark was sized on, when the host is calm. Only a scale: it makes a
/// normalised second read like a second there.
pub const KERNEL_REF_SECS: f64 = 0.060;

/// Table entries: 2 MiB of `u32`, past the L1 and around the L2, so the
/// kernel feels cache contention as the simulator does.
const TABLE_LEN: usize = 1 << 19;

/// Steps per kernel run.
const STEPS: u32 = 6_000_000;

/// The kernel's working memory.
#[derive(Debug)]
pub struct Kernel {
    table: Vec<u32>,
}

impl Kernel {
    /// Allocates and fills the table.
    pub fn new() -> Self {
        let table = (0..TABLE_LEN as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        Kernel { table }
    }

    /// Runs the fixed work once and returns the host seconds it took:
    /// xorshift-addressed loads, a data-dependent branch and stores, the
    /// mix of a pointer-chasing simulator loop.
    pub fn run(&mut self) -> f64 {
        let table = &mut self.table[..];
        let ((), secs) = timed(|| {
            let mut x = 12_345u32;
            let mut acc = 0u64;
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let i = x as usize & (TABLE_LEN - 1);
                let v = table[i];
                acc = acc.wrapping_add(u64::from(v));
                if v & 1 == 0 {
                    table[i] = v.wrapping_add(x);
                } else {
                    acc ^= u64::from(x);
                }
            }
            black_box(acc);
        });
        secs
    }
}

/// `secs` of simulator time scaled to reference host speed, given the
/// `kernel_secs` that `kernel_runs` runs of the kernel took beside it.
pub fn at_reference_speed(secs: f64, kernel_secs: f64, kernel_runs: usize) -> f64 {
    secs * (KERNEL_REF_SECS * kernel_runs as f64) / kernel_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_is_the_identity_at_reference_speed_and_scales_with_the_host() {
        assert_eq!(at_reference_speed(2.0, 3.0 * KERNEL_REF_SECS, 3), 2.0);
        // A host twice as slow takes twice as long for both; the scaled
        // time does not move.
        let slow = at_reference_speed(4.0, 6.0 * KERNEL_REF_SECS, 3);
        assert!((slow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_its_work_every_time() {
        let mut k = Kernel::new();
        let (a, b) = (k.run(), k.run());
        assert!(a > 0.0 && b > 0.0);
    }
}
