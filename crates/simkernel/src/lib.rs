//! Deterministic simulation time and randomness.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//! * [`SimRng`] — a seeded, reproducible random number generator.
//!
//! A simulation is single-threaded: reproducing a scheduling paper
//! requires bit-for-bit reproducible runs, so all parallelism in this
//! workspace lives *across* hosts and experiment runs (see the
//! `cluster` and `experiments` crates), never inside one.
//!
//! # Example
//!
//! ```
//! use simkernel::{SimDuration, SimRng, SimTime};
//!
//! // Exact integer time: three 30 ms accounting periods end at 90 ms.
//! let period = SimDuration::from_millis(30);
//! let mut now = SimTime::ZERO;
//! for _ in 0..3 {
//!     now += period;
//! }
//! assert_eq!(now, SimTime::from_millis(90));
//! assert_eq!(now.as_micros(), 90_000);
//!
//! // The same seed replays the same stream.
//! let mut a = SimRng::seed_from(7);
//! let mut b = SimRng::seed_from(7);
//! assert_eq!(a.below(1_000), b.below(1_000));
//! ```

#![deny(missing_docs)]

mod rng;
mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
