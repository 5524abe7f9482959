//! Hypervisor VM schedulers.
//!
//! Three schedulers, mirroring the paper's Section 3.1:
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
//!
//! PAS, the paper's contribution, is not a scheduler of its own here:
//! every host model runs Credit runqueues and, on each accounting
//! tick, rewrites their caps and the processor frequency from a
//! [`pas_core::PasDomain`] (Listings 1.1/1.2).

pub mod credit;
pub mod credit2;
pub mod sedf;

pub use credit::CreditScheduler;
pub use credit2::Credit2Scheduler;
pub use sedf::SedfScheduler;

use simkernel::{SimDuration, SimTime};

use crate::vm::{VmConfig, VmId};

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
    /// Scheduler name ("credit", "credit2", "sedf").
    fn name(&self) -> &'static str;

    /// The accounting period (Xen Credit: 30 ms).
    fn accounting_period(&self) -> SimDuration;

    /// Registers a VM. Ids are dense: the host registers `VmId(0)`,
    /// `VmId(1)`, … in that order.
    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig);

    /// Runs the accounting-boundary bookkeeping at instant `now`
    /// (credit refill, cap reset).
    fn on_accounting(&mut self, now: SimTime);

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
    /// period (`None` = uncapped). Under PAS this is the *compensated*
    /// cap, which is what the paper's Figure 9 plots as "credit".
    fn effective_cap(&self, vm: VmId) -> Option<f64>;

    /// Overrides a VM's cap at run time: PAS rewrites every cap on
    /// each accounting tick, and the user-level controllers of
    /// Section 4.1 go through here too. Returns `false` when this
    /// scheduler does not support runtime cap changes (SEDF, Credit2).
    fn set_cap_external(&mut self, vm: VmId, cap: Option<f64>) -> bool {
        let _ = (vm, cap);
        false
    }

    /// `true` if a busy period on this scheduler's runqueue may run as
    /// one closed-form step: while no VM's charged time reaches its
    /// [`max_slice`](Scheduler::max_slice), the scheduler picks some
    /// runnable VM at every step, so the core never idles with work
    /// queued and each VM's work and busy time over a complete busy
    /// period do not depend on the order it picks in. Only
    /// [`CreditScheduler`], whose caps are its only limit, says yes.
    fn runs_busy_periods(&self) -> bool {
        false
    }
}
