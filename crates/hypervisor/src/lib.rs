//! A virtualized-host simulator with Xen-like VM schedulers.
//!
//! This crate is the substrate substitution for the paper's testbed
//! (Xen 4.1.2 on a DELL Optiplex 755): a deterministic simulation of
//! one physical host running several VMs under a hypervisor scheduler,
//! with DVFS driven either by a governor (`governors` crate) or by PAS
//! ([`pas_core::PasDomain`]).
//!
//! * [`vm`] — VM identity, configuration (credit, weight, priority,
//!   SEDF triplet) and runtime state,
//! * [`work`] — the [`WorkSource`] trait the `workloads` crate
//!   implements (pi-app, web-app),
//! * [`guest`] — a guest-level round-robin process scheduler, so that
//!   the two-level scheduling structure the paper describes (hypervisor
//!   schedules VMs, the guest OS schedules processes) actually exists,
//! * [`sched`] — the Xen schedulers the paper evaluates: **Credit**
//!   (fix credit via caps), **Credit2** and **SEDF** (variable credit
//!   via extra-time),
//! * [`host`] — the host simulation loop tying CPU, scheduler,
//!   governor, VMs and telemetry together; its **PAS** (the
//!   contribution) is Credit whose caps and frequency a
//!   [`pas_core::PasDomain`] rewrites on every accounting tick,
//! * [`platforms`] — the Table 2 platform archetypes (Hyper-V, VMware
//!   ESXi, Xen, KVM, VirtualBox),
//! * [`multicore`] — the paper's closing perspective as a running
//!   system: multi-core hosts with per-socket / per-core DVFS domains
//!   and per-domain PAS,
//! * [`smt`] — the hyper-threading perspective: logical CPUs sharing a
//!   core, with naive vs contention-aware PAS credit compensation,
//! * [`stats`] — load accounting and periodic snapshots.
//!
//! All three host models run one slice loop, kept in the private
//! `slice` module: a host is one runqueue (a scheduler and the VMs it
//! owns), a multi-core host one per core and an SMT host one per
//! hardware thread. They run one PAS decision too: a
//! [`pas_core::PasDomain`] per DVFS domain, whose caps they write into
//! their Credit runqueues.
//!
//! # Example: the paper's host in a few lines
//!
//! ```
//! use hypervisor::host::{HostConfig, SchedulerKind};
//! use hypervisor::vm::VmConfig;
//! use hypervisor::work::ConstantDemand;
//! use pas_core::Credit;
//! use simkernel::SimDuration;
//!
//! let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
//! // V20 wants 30% of the host's fmax capacity but is capped at 20%.
//! let fmax_mcps = host.fmax_mcps();
//! host.add_vm(
//!     VmConfig::new("v20", Credit::percent(20.0)),
//!     Box::new(ConstantDemand::new(0.30 * fmax_mcps)),
//! );
//! host.run_for(SimDuration::from_secs(30));
//! let load = host.stats().vm_busy_fraction(hypervisor::vm::VmId(0));
//! assert!((load - 0.20).abs() < 0.02, "cap enforced: {load}");
//! ```

#![deny(missing_docs)]

pub mod guest;
pub mod host;
pub mod multicore;
pub mod platforms;
pub mod sched;
mod slice;
pub mod smt;
pub mod stats;
pub mod vm;
pub mod work;

pub use host::{Host, HostConfig, HostPerf, SchedulerKind};
pub use vm::{VmConfig, VmId};
pub use work::WorkSource;
