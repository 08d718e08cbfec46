//! A fixed kernel that measures how fast the host is right now.
//!
//! The sandbox this benchmark runs in shares its cores and memory system with
//! other tenants. Its speed on memory-touching code moves by 20–35% for
//! minutes at a time (measured: the same repetition takes 0.62 s in one
//! quarter of an hour and 0.85 s in the next), which is more than any bound a
//! regression check could use. Arithmetic that stays in registers does not
//! move at all, so this is contention, not clock frequency.
//!
//! The kernel below touches memory the way the workloads do — one streaming
//! pass over a buffer larger than a core's private caches and one chain of
//! dependent loads scattered over a larger one — on buffers it
//! owns and never reallocates, so its time depends on the host and on nothing
//! the program under test does to the heap. A run samples it before every
//! repetition; dividing the run's host times by `median sample ÷ reference`
//! removes the part of the drift the kernel sees. What is left is reported
//! in the README. Time the hypervisor takes the CPU away for is handled
//! separately (`host::Interval::wall_less_steal_s`): it comes in bursts that
//! a 40 ms sample's median never sees and a second-long repetition always
//! integrates.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on the reference sandbox (2 vCPUs of a 2.1 GHz
/// Sapphire Rapids Xeon) in its fast state. It only fixes the scale: a run
/// that measures exactly this reports its raw times.
pub const REFERENCE_S: f64 = 0.040;

/// 8 MiB of `f64`: larger than a core's L2.
const STREAM_LEN: usize = 1 << 20;
const STREAM_PASSES: usize = 20;
/// 16 MiB of `u32` indices forming one cycle: misses every private cache.
const CHASE_LEN: usize = 1 << 22;
const CHASE_STEPS: usize = 150_000;

/// MiB the calibrator keeps resident for as long as it lives. Every sample
/// touches all of it, so a process's peak RSS is its own peak plus this.
pub const RESIDENT_MIB: f64 = ((STREAM_LEN * 8 + CHASE_LEN * 4) >> 20) as f64;

/// Samples taken in a row before a repetition. A sample is hit by contention
/// bursts as often as a repetition is; three of them bring the error of the
/// run's median sample below that of its median repetition.
const SAMPLES_IN_A_ROW: usize = 3;

pub struct Calibrator {
    stream: Vec<f64>,
    chase: Vec<u32>,
    at: u32,
}

impl Calibrator {
    pub fn new() -> Self {
        // Sattolo's algorithm: a uniformly random single cycle, so the chain
        // of loads below visits the whole buffer before repeating.
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..CHASE_LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (state >> 33) as usize % i);
        }
        Self { stream: (0..STREAM_LEN).map(|i| i as f64).collect(), chase: next, at: 0 }
    }

    /// Runs the kernel [`SAMPLES_IN_A_ROW`] times; wall-clock seconds of each.
    pub fn samples(&mut self) -> [f64; SAMPLES_IN_A_ROW] {
        std::array::from_fn(|_| self.sample())
    }

    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0;
        for pass in 0..STREAM_PASSES {
            for x in &mut self.stream {
                *x = *x * 0.999_999_9 + pass as f64;
                acc += *x;
            }
        }
        for _ in 0..CHASE_STEPS {
            self.at = self.chase[self.at as usize];
        }
        black_box((acc, self.at));
        start.elapsed().as_secs_f64()
    }
}

/// How much slower than the reference the host ran, from the kernel samples
/// of one run: above 1 on a contended host. Host times divided by it are
/// comparable between runs.
pub fn slowdown(samples: &[f64]) -> f64 {
    let median = crate::stats::median(samples);
    if median > 0.0 {
        median / REFERENCE_S
    } else {
        1.0
    }
}
