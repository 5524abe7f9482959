//! **pas-repro** — a full reproduction of *"DVFS Aware CPU Credit
//! Enforcement in a Virtualized System"* (Hagimont, Mayap Kamga,
//! Broto, Tchana, De Palma — ACM/IFIP/USENIX Middleware 2013).
//!
//! This façade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`simkernel`] | deterministic simulation time and seeded RNG |
//! | [`cpumodel`] | P-states, `cf` factors, power/energy, machine presets |
//! | [`governors`] | cpufreq + ondemand / conservative / performance / powersave / userspace / the paper's stabilised governor |
//! | [`pas_core`] | the paper's contribution: Equations 1–4, Listings 1.1/1.2, controllers, calibration |
//! | [`hypervisor`] | the virtualized host: VMs, guest scheduler, Credit / SEDF / PAS |
//! | [`workloads`] | pi-app, web-app (httperf-like), three-phase profiles |
//! | [`metrics`] | time series, summaries, CSV/JSON export, ASCII charts |
//! | [`trace`] | deterministic simulation event log: bounded ring tracer, JSONL schema `pas-repro-trace/v1`, trace-summary analyzer |
//! | [`enforcer`] | simulator + cgroup-v2 enforcement backends |
//! | [`cluster`] | the fleet layer: placement, live migration, concurrent multi-host simulation |
//! | [`campaign`] | declarative campaigns: JSON scenario specs, parameter sweeps, multi-seed statistics |
//! | [`experiments`] | one module per paper table/figure + extensions; the `repro` binary |
//! | [`server`] | campaign-as-a-service: std-only HTTP/1.1 daemon + composable middleware chain (`repro serve`) |
//! | `pas-bench` | criterion bench targets: figures/tables at quick fidelity + hot-path micros (not re-exported; run via `cargo bench`) |
//!
//! Third-party crates (`serde`, `serde_json`, `rand`, `proptest`,
//! `criterion`) are vendored as API-subset shims under `shims/` so the
//! workspace builds without network access; see each shim's crate docs
//! for the (intentional) differences from upstream.
//!
//! # Verifying the workspace
//!
//! The tier-1 check builds and tests every crate:
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```
//!
//! # Quickstart
//!
//! ```
//! use pas_repro::hypervisor::{HostConfig, SchedulerKind, VmConfig};
//! use pas_repro::hypervisor::work::ConstantDemand;
//! use pas_repro::pas_core::Credit;
//! use pas_repro::simkernel::SimDuration;
//!
//! // The paper's headline scenario: V20 overloaded, V70 lazy, PAS on.
//! let mut host = HostConfig::optiplex_defaults(SchedulerKind::Pas).build();
//! let demand = host.fmax_mcps(); // thrashing demand
//! host.add_vm(VmConfig::new("v20", Credit::percent(20.0)),
//!             Box::new(ConstantDemand::new(demand)));
//! host.add_vm(VmConfig::new("v70", Credit::percent(70.0)),
//!             Box::new(pas_repro::hypervisor::work::Idle));
//! host.run_for(SimDuration::from_secs(60));
//!
//! // Frequency lowered, V20's absolute capacity preserved at 20%.
//! assert_eq!(host.cpu().pstate(), host.cpu().pstates().min_idx());
//! let abs = host.stats().vm_absolute_fraction(pas_repro::hypervisor::VmId(0));
//! assert!((abs - 0.20).abs() < 0.02);
//! ```

#![deny(missing_docs)]

pub use campaign;
pub use cluster;
pub use cpumodel;
pub use enforcer;
pub use experiments;
pub use governors;
pub use hypervisor;
pub use metrics;
pub use pas_core;
pub use server;
pub use simkernel;
pub use trace;
pub use workloads;
