//! The host's speed, for the in-process workloads.
//!
//! Other tenants of a shared host slow memory-bound work by up to about
//! 1.7x, in phases that last longer than a run (they contend for caches
//! and memory bandwidth, so CPU time grows as much as wall time). Taking
//! the fastest repetition cannot remove a phase that covers the whole run.
//! `in-doubt` and `explore` are single-threaded, allocation-heavy and
//! deterministic, so each of their timed stretches is bracketed by this
//! fixed reference work, and their end-to-end times are reported at the
//! reference speed: `wall time x REFERENCE_MS / reference time`. The
//! reference shares no code with the program, so a change to the program
//! moves the result as much as it moves the wall time; a slow phase of the
//! host moves both the stretch and the reference and cancels out.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The reference work's time in a quiet phase of a 2-vCPU Xeon VM. Times
/// reported at the reference speed are scaled to it.
pub const REFERENCE_MS: f64 = 7.5;

/// Runs the reference work once and returns its wall time in ms: ordered
/// and hashed map churn with small heap values over a working set of a
/// few MiB, the kind of work the simulation and the model checker do.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut x: u64 = 1;
    for i in 0..40_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ordered.insert(x % 20_000, vec![i as u8; 48]);
        hashed.insert(x % 10_000, i);
        if i % 3 == 0 {
            ordered.remove(&((x >> 7) % 20_000));
        }
    }
    black_box((ordered.len(), hashed.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

/// `secs` of work done between two reference runs that took `before_ms`
/// and `after_ms`, scaled to the reference speed.
pub fn at_reference(secs: f64, before_ms: f64, after_ms: f64) -> f64 {
    secs * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}
