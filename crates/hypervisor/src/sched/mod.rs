//! Hypervisor VM schedulers.
//!
//! Three schedulers, mirroring the paper's Section 3.1/4:
//!
//! * [`CreditScheduler`] — Xen's default Credit scheduler used as a
//!   **fix credit** scheduler: every VM's credit is enforced as a cap
//!   on the wall-clock CPU-time fraction it may consume per accounting
//!   period (Xen's `cap` parameter). A zero credit means *no cap*.
//! * [`Credit2Scheduler`] — the Credit2 beta the paper mentions and
//!   sets aside: weighted fair with **no caps**, i.e. another
//!   variable-credit scheduler.
//! * [`SedfScheduler`] — Xen's Simple Earliest Deadline First used as
//!   a **variable credit** scheduler: each VM gets a guaranteed
//!   `(slice, period)` reservation, and VMs with the extra-time flag
//!   may consume CPU time nobody reserved.
//! * [`PasScheduler`] — the paper's contribution: the Credit scheduler
//!   extended to recompute the processor frequency and every VM's cap
//!   on each accounting tick (Listings 1.1/1.2 via
//!   [`pas_core::FreqPlanner`]).

pub mod credit;
pub mod credit2;
pub mod pas;
pub mod sedf;

pub use credit::CreditScheduler;
pub use credit2::Credit2Scheduler;
pub use pas::PasScheduler;
pub use sedf::SedfScheduler;

use cpumodel::Cpu;
use simkernel::{SimDuration, SimTime};

use crate::vm::{VmConfig, VmId};

/// Context handed to a scheduler at each accounting boundary.
pub struct SchedCtx<'a> {
    /// The boundary instant.
    pub now: SimTime,
    /// The processor — PAS changes its P-state from here.
    pub cpu: &'a mut Cpu,
    /// Global processor load over the elapsed accounting period, in
    /// percent of capacity at the frequency/ies that held during it.
    pub measured_load_pct: f64,
    /// The same load expressed as *absolute load* (percent of capacity
    /// at maximum frequency, Section 4's `Absolute_load`). The host
    /// integrates `busy · ratio · cf` per slice, so this is exact even
    /// when the frequency changed inside the period.
    pub measured_absolute_pct: f64,
}

/// A scheduler-internal event drained by the host's tracer through
/// [`Scheduler::take_sched_events`]: a VM's effective cap was
/// rewritten at an accounting boundary (PAS credit compensation,
/// Equation 4). Recording is opt-in and must never change scheduling
/// decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedEvent {
    /// The VM whose cap changed.
    pub vm: VmId,
    /// The new cap in percent of wall time; `None` = uncapped.
    pub cap_pct: Option<f64>,
}

/// A hypervisor VM scheduler.
///
/// The host drives it with this protocol, per scheduling step:
///
/// 1. [`pick_next`](Scheduler::pick_next) over the currently runnable
///    VMs;
/// 2. the host computes the actual slice as the minimum of its own
///    horizon (quantum, period boundaries, backlog drain time) and
///    [`max_slice`](Scheduler::max_slice);
/// 3. [`charge`](Scheduler::charge) with the busy time actually
///    consumed;
/// 4. at every accounting boundary,
///    [`on_accounting`](Scheduler::on_accounting).
///
/// Schedulers are `Send` so a whole host can be simulated on a worker
/// thread (the `cluster` crate runs fleets of hosts concurrently).
pub trait Scheduler: Send {
    /// Scheduler name ("credit", "sedf", "pas").
    fn name(&self) -> &'static str;

    /// The accounting period (Xen Credit: 30 ms).
    fn accounting_period(&self) -> SimDuration;

    /// Registers a VM. Called by the host in `VmId` order.
    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig);

    /// Runs the accounting-boundary bookkeeping (credit refill, cap
    /// reset; for PAS also DVFS and credit recomputation).
    fn on_accounting(&mut self, ctx: &mut SchedCtx<'_>);

    /// Chooses the next VM to run among `runnable` (ascending id
    /// order), or `None` to idle. Must only return members of
    /// `runnable` that are *eligible* (e.g. not over their cap).
    fn pick_next(&mut self, now: SimTime, runnable: &[VmId]) -> Option<VmId>;

    /// Upper bound on how long `vm` may run contiguously from `now`
    /// before the scheduler needs to reconsider (cap or slice
    /// exhaustion).
    fn max_slice(&self, vm: VmId, now: SimTime) -> SimDuration;

    /// Charges `vm` for `busy` time actually consumed.
    fn charge(&mut self, vm: VmId, busy: SimDuration);

    /// The wall-clock-time fraction `vm` is currently allowed per
    /// period (`None` = uncapped). For PAS this is the *compensated*
    /// cap, which is what the paper's Figure 9 plots as "credit".
    fn effective_cap(&self, vm: VmId) -> Option<f64>;

    /// Externally overrides a VM's cap (used by the user-level
    /// controllers of Section 4.1). Returns `false` when this
    /// scheduler does not support runtime cap changes (SEDF) or
    /// manages caps itself (PAS).
    fn set_cap_external(&mut self, vm: VmId, cap: Option<f64>) -> bool {
        let _ = (vm, cap);
        false
    }

    /// Turns recording of scheduler-internal events on or off. The
    /// host enables it when a tracer is installed. Off by default;
    /// the default implementation records nothing either way.
    fn set_event_recording(&mut self, on: bool) {
        let _ = on;
    }

    /// Drains the [`SchedEvent`]s accumulated since the last call.
    /// Empty unless recording is enabled *and* the scheduler overrides
    /// this (only PAS rewrites caps today).
    fn take_sched_events(&mut self) -> Vec<SchedEvent> {
        Vec::new()
    }
}
