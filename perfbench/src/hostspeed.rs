//! How fast the host runs during a run, measured with a reference
//! kernel that belongs to the benchmark and shares no code with the
//! program.
//!
//! The host's other tenants slow a run down by up to half, in stretches
//! that last longer than a run, so even each cell's fastest pass moves
//! from run to run. CPU time equals wall time throughout, so the cause
//! is contention for the physical core, not preemption. A dependent,
//! branchy walk over a 16 KB table is timed after every cell. Its first
//! quartile over the run, the walk's counterpart of a cell's fastest
//! pass, against its time on a quiet host says how much slower than
//! quiet the core ran; the run's host seconds are rescaled by that
//! ratio to the power [`SENSITIVITY`].

use std::hint::black_box;
use std::time::Instant;

use crate::stats::quartiles;

/// Steps of the walk per sample.
const STEPS: u32 = 50_000;

/// Words in the walk's table: 16 KB of `u32`, resident in L1.
const WORDS: usize = 1 << 12;

/// First-quartile seconds of a sample on a quiet host (Intel Xeon,
/// Sapphire Rapids, 2 vCPUs). It only sets the scale of the rescaled
/// seconds.
const NOMINAL_S: f64 = 0.46e-3;

/// How much more the simulator slows down than the walk under the same
/// contention, as an exponent: host time grows as the walk's time to
/// this power. Fitted over sets of 6–10 runs, the exponent ranged from
/// 0.8 to 2.1 wherever the two correlated; 1.5 gave the lowest mean and
/// near-lowest worst spread across the sets (README.md, "Noise").
pub const SENSITIVITY: f64 = 1.5;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference walk and its samples over one run.
pub struct HostSpeed {
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut s = WORDS as u64;
        HostSpeed {
            table: (0..WORDS).map(|_| splitmix(&mut s) as u32).collect(),
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// `steps` dependent loads, each choosing the next index and one of
    /// three branches from the word loaded.
    #[inline(never)]
    fn walk(&self, steps: u32) -> u64 {
        let mask = self.table.len() - 1;
        let mut idx = 0usize;
        let mut acc = 0u64;
        for i in 0..steps {
            let v = black_box(self.table[idx]);
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else if v & 6 == 2 {
                acc ^= u64::from(v) << 3;
            } else {
                acc = acc.rotate_left(5).wrapping_add(u64::from(i));
            }
            idx = (v as usize ^ i as usize ^ (acc as usize >> 7)) & mask;
        }
        acc
    }

    /// Times one walk of [`STEPS`] steps.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(self.walk(black_box(STEPS)));
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// First quartile of the samples' seconds so far.
    ///
    /// # Panics
    ///
    /// Panics before the first [`HostSpeed::sample`].
    pub fn first_quartile(&self) -> f64 {
        quartiles(&self.samples).0
    }

    /// The factor by which contention stretched the run's host times:
    /// see [`slowdown`].
    pub fn slowdown(&self) -> f64 {
        slowdown(self.first_quartile())
    }
}

/// `(walk_s / NOMINAL_S) ^ SENSITIVITY`: 1 on the quiet host, and
/// `1.2 ^ 1.5 ≈ 1.31` when the walk runs 20% slower than there.
pub fn slowdown(walk_s: f64) -> f64 {
    (walk_s / NOMINAL_S).powf(SENSITIVITY)
}
