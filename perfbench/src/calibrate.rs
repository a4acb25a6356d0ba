//! Machine-speed calibration.
//!
//! On a shared host the same simulator run takes anywhere from 1x to 1.6x
//! its quiet-machine time, and the slow phases last tens of seconds, so
//! medians over one run's repetitions do not cancel them. The slowdown
//! comes from the memory system (a register-only loop slows by a few
//! percent while a cache-missing loop slows as much as the simulator), so
//! the benchmark times a fixed cache-missing loop between runs and scales
//! each run's host times by `REFERENCE_S / loop time`: host seconds at a
//! fixed reference speed. The loop is this file's own code, so a change to
//! the simulator never moves it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the machine the benchmark was defined on (a 2-vCPU
/// "Intel Xeon Processor" VM) in a quiet phase. Only ratios to it matter.
pub const REFERENCE_S: f64 = 0.25;

/// Entries in the pointer chain: 32 MB of `u32`, well past the last-level
/// cache.
const CHAIN_LEN: usize = 1 << 23;
/// Entries in the hash map: about 32 MB of buckets.
const MAP_LEN: u64 = 1 << 20;

/// Fixed-seed xorshift step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration loop's data, built once per process.
pub struct Calibration {
    /// A single random cycle through all indices: every step is a
    /// dependent, cache-missing load.
    chain: Vec<u32>,
    /// Random lookups and updates, like the trackers' per-task maps.
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Calibration {
    /// Builds the loop's data (about 70 MB).
    pub fn new() -> Self {
        let mut x = 0x2009_u64;
        let mut order: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        for i in (1..CHAIN_LEN).rev() {
            order.swap(i, (next(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut chain = vec![0u32; CHAIN_LEN];
        for (k, &from) in order.iter().enumerate() {
            chain[from as usize] = order[(k + 1) % CHAIN_LEN];
        }
        let map = (0..MAP_LEN).map(|k| (k, k)).collect();
        Calibration { chain, map }
    }

    /// Seconds one pass of the fixed loop takes now.
    pub fn measure(&mut self) -> f64 {
        let started = Instant::now();
        let mut x = 0x1cb_u64;
        let mut at = 0u32;
        for _ in 0..600_000 {
            at = self.chain[at as usize];
        }
        for _ in 0..600_000 {
            *self.map.entry(next(&mut x) % MAP_LEN).or_insert(0) += 1;
        }
        let mut heap = std::collections::BinaryHeap::with_capacity(1 << 15);
        for _ in 0..1_000_000 {
            heap.push(next(&mut x) >> 16);
            if heap.len() >= 1 << 15 {
                heap.pop();
            }
        }
        black_box((at, heap.len()));
        started.elapsed().as_secs_f64()
    }
}
