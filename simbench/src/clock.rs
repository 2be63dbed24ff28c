//! The benchmark's only wall-clock reads.
//!
//! The workspace's clippy configuration forbids `Instant` so simulator
//! code stays on virtual time; timing the simulator from outside is
//! the one place that needs the host clock, so the exemption is scoped
//! to this module.
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench harness timing"
)]

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
// livesec-lint: allow(wall-clock, reason = "bench harness timing")
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Self {
        // livesec-lint: allow(wall-clock, reason = "bench harness timing")
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`].
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
