//! End-to-end and per-layer benchmark of the LiveSec campus simulator.
//!
//! The binary runs one workload per process: untraced repetitions for
//! the end-to-end metrics, or untraced and traced repetitions for the
//! per-layer metrics, where [`shim`] attributes host time to each node
//! type from outside the program.

pub mod clock;
pub mod layers;
pub mod measure;
pub mod shim;
pub mod udp;
pub mod workload;
