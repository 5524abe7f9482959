//! The paper's contribution: **DVFS-aware CPU credit enforcement**.
//!
//! This crate is a faithful, pure-Rust transcription of Section 4 of
//! *"DVFS Aware CPU Credit Enforcement in a Virtualized System"*
//! (Hagimont et al., Middleware 2013):
//!
//! * [`equations`] — Equations 1–4 (frequency/performance and
//!   credit/performance proportionality, absolute load, credit
//!   compensation),
//! * [`Credit`] — a typed CPU credit (percentage of the processor *at
//!   maximum frequency*, the paper's SLA unit),
//! * [`FreqPlanner`] — Listings 1.1 (`computeNewFreq`) and 1.2
//!   (`updateDvfsAndCredits`) as pure, testable functions, plus the
//!   saturation bump PAS applies on every simulated host,
//! * [`MovingAverage`] — the 3-sample global-load smoothing of the
//!   paper's footnote 5,
//! * [`PasDomain`] — one DVFS domain's per-tick PAS decision (smooth
//!   the load, pick the P-state, compute each VM's Equation 4 cap),
//!   the one implementation every simulated host runs,
//! * [`CfCalibrator`] — the Section 5.2 measurement procedure that
//!   recovers `cf_i` from observed loads and execution times,
//! * [`controller`] — the three implementation placements of
//!   Section 4.1 (user-level credit-only, user-level credit + DVFS,
//!   and in-scheduler), written against a [`PasBackend`] trait so the
//!   same logic drives the simulator and the cgroup shim.
//!
//! The `hypervisor` crate's hosts run [`PasDomain`] next to their
//! Credit runqueues; the cgroup-v2 enforcement backend lives in
//! `enforcer`.
//!
//! # Quickstart
//!
//! ```
//! use cpumodel::machines;
//! use pas_core::{Credit, PasDomain};
//!
//! let table = machines::optiplex_755().pstate_table();
//! let mut pas = PasDomain::new(table.clone());
//!
//! // Host: V20 + V70, but V70 idle, so the absolute load is ~20%.
//! // Three accounting ticks fill the smoothing window.
//! let mut pstate = table.max_idx();
//! for _ in 0..3 {
//!     pstate = pas.retarget(20.0, 20.0, pstate);
//! }
//!
//! // PAS picks the lowest frequency that absorbs 20% absolute load
//! // (1600 MHz on the Optiplex ladder) ...
//! assert_eq!(pstate, table.min_idx());
//! // ... and compensates V20's cap to ~33% (the paper's Figure 9).
//! let cap = pas.cap(Credit::percent(20.0), pstate).unwrap();
//! assert!((cap * 100.0 - 33.0).abs() < 1.0);
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod calibration;
pub mod controller;
pub mod equations;
mod planner;
mod smoothing;

pub use admission::{AdmissionError, AdmissionPolicy};
pub use calibration::{CfCalibrator, CfEstimate};
pub use controller::{BackendError, ControllerPlacement, PasBackend, PasController};
pub use equations::Credit;
pub use planner::{FreqPlanner, PasDomain};
pub use smoothing::MovingAverage;
