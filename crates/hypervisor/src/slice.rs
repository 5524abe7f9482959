//! The one slice loop every host model runs.
//!
//! A [`RunQueue`] is a scheduler and the VMs it runs, which it owns.
//! Their ids are local to it: dense from 0 in the order they were
//! added. [`Host`](crate::Host) is one runqueue with any scheduler.
//! [`MultiHost`](crate::multicore::MultiHost) has one Credit runqueue
//! per core and [`SmtHost`](crate::smt::SmtHost) one per hardware
//! thread; both map each public [`VmId`] to its runqueue and local id.
//!
//! [`step_core`] advances the runqueues of one physical core by one
//! slice. They share its frequency and, with SMT, its execution
//! resources: when `busy` of them run, each delivers
//! `mcps · per_thread_factor(busy)` mega-cycles per second. Each busy
//! runqueue bounds the slice by [`slice_len`]: the scheduler quantum,
//! its pick's remaining cap allowance, its pick's backlog drain time
//! at the delivered rate, and the time to the next boundary
//! (accounting tick, sample, run end). The slice is the shortest
//! bound, so SMT contention starts and stops exactly when a sibling
//! does. A sub-microsecond bound rounds up to the 1 µs clock
//! resolution.

use cpumodel::{Cpu, SmtSpec};
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, Scheduler};
use crate::vm::{Vm, VmConfig, VmId};
use crate::work::WorkSource;

/// The Xen Credit scheduler quantum: the longest a picked VM runs
/// before the scheduler picks again.
const QUANTUM: SimDuration = SimDuration::from_millis(10);

/// The length of a slice that runs one picked VM from now: the
/// shortest of `horizon` (the time to the next boundary), [`QUANTUM`],
/// the VM's remaining cap `allowance` and `drain_secs`, the time its
/// backlog takes to drain at its delivered rate (infinite at rate
/// zero). Never zero while `horizon` is not.
#[inline]
fn slice_len(horizon: SimDuration, allowance: SimDuration, drain_secs: f64) -> SimDuration {
    let drain = if drain_secs.is_finite() {
        SimDuration::from_secs_f64(drain_secs.min(horizon.as_secs_f64()))
    } else {
        horizon
    };
    let s = horizon.min(QUANTUM).min(allowance).min(drain);
    if s.is_zero() {
        // Sub-microsecond residue (cap or backlog): round up to the
        // clock resolution so time always advances.
        SimDuration::from_micros(1).min(horizon)
    } else {
        s
    }
}

/// A scheduler and the VMs it runs.
pub(crate) struct RunQueue<S: Scheduler + ?Sized = CreditScheduler> {
    /// The VMs, indexed by their local [`VmId`].
    pub(crate) vms: Vec<Vm>,
    /// What the last [`step_core`] ran here, or `None` if it idled.
    pub(crate) ran: Option<Ran>,
    pub(crate) sched: Box<S>,
}

/// One runqueue's share of a slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ran {
    /// The local id of the VM that ran.
    pub(crate) vm: VmId,
    /// Mega-cycles it executed.
    pub(crate) done: f64,
    /// Seconds of the slice it was busy.
    pub(crate) busy_secs: f64,
}

impl<S: Scheduler + ?Sized> RunQueue<S> {
    /// An empty runqueue under `sched`.
    pub(crate) fn new(sched: Box<S>) -> Self {
        RunQueue {
            vms: Vec::new(),
            ran: None,
            sched,
        }
    }

    /// Adds a VM running `work` and returns its local id.
    pub(crate) fn add_vm(&mut self, config: VmConfig, work: Box<dyn WorkSource>) -> VmId {
        let id = VmId(self.vms.len());
        self.sched.on_vm_added(id, &config);
        self.vms.push(Vm::new(id, config, work));
        id
    }
}

/// Advances the runqueues of one physical core by one slice from
/// `now`, ending no later than `boundary` (which must lie after
/// `now`), and returns the slice's end.
///
/// 1. **Pick.** Each runqueue picks among its VMs runnable at `now`,
///    before any demand arrives for the slice.
/// 2. **Length.** The slice is the shortest [`slice_len`] over the
///    picks at their delivered rate (the whole horizon when none
///    picks).
/// 3. **Refill.** Every VM's backlog grows by its demand for the
///    slice.
/// 4. **Execute and charge.** Each pick executes and is charged its
///    busy time.
/// 5. **Account.** The core integrates energy at the busiest
///    runqueue's busy fraction.
///
/// Each runqueue's [`RunQueue::ran`] holds its outcome. On return,
/// `runnable` still holds the last runqueue's VMs runnable at `now`:
/// [`Host`](crate::Host), which steps a single runqueue, reads it to
/// tell a preemption from a switch to idle.
#[inline]
pub(crate) fn step_core<S: Scheduler + ?Sized>(
    rqs: &mut [RunQueue<S>],
    cpu: &mut Cpu,
    smt: SmtSpec,
    now: SimTime,
    boundary: SimTime,
    runnable: &mut Vec<VmId>,
) -> SimTime {
    let mut busy = 0;
    for rq in rqs.iter_mut() {
        runnable.clear();
        runnable.extend(rq.vms.iter().filter(|vm| vm.is_runnable()).map(|vm| vm.id));
        rq.ran = rq.sched.pick_next(now, runnable).map(|vm| Ran {
            vm,
            done: 0.0,
            busy_secs: 0.0,
        });
        busy += usize::from(rq.ran.is_some());
    }
    let rate = cpu.pstates().state(cpu.pstate()).effective_mcps() * smt.per_thread_factor(busy);
    let horizon = boundary - now;
    let mut slice = horizon;
    for rq in rqs.iter() {
        if let Some(ran) = rq.ran {
            let allowance = rq.sched.max_slice(ran.vm, now);
            let drain_secs = rq.vms[ran.vm.0].backlog_seconds_at(rate);
            slice = slice.min(slice_len(horizon, allowance, drain_secs));
        }
    }
    debug_assert!(!slice.is_zero());

    let end = now + slice;
    let secs = slice.as_secs_f64();
    let capacity = rate * secs;
    let mut core_busy: f64 = 0.0;
    for rq in rqs.iter_mut() {
        // Demand arrives continuously during the slice.
        for vm in &mut rq.vms {
            vm.refill(end, slice);
        }
        if let Some(ran) = rq.ran.as_mut() {
            ran.done = rq.vms[ran.vm.0].execute(capacity, end);
            let busy_frac = if capacity > 0.0 {
                (ran.done / capacity).min(1.0)
            } else {
                0.0
            };
            ran.busy_secs = secs * busy_frac;
            rq.sched
                .charge(ran.vm, SimDuration::from_secs_f64(ran.busy_secs));
            core_busy = core_busy.max(busy_frac);
        }
    }
    cpu.account(core_busy, slice);
    end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_the_shortest_bound_and_never_zero() {
        let (ms, us) = (SimDuration::from_millis, SimDuration::from_micros);
        let h = ms(100);
        assert_eq!(slice_len(h, ms(30), f64::INFINITY), QUANTUM);
        assert_eq!(slice_len(h, ms(6), f64::INFINITY), ms(6));
        assert_eq!(slice_len(ms(4), ms(6), f64::INFINITY), ms(4));
        assert_eq!(slice_len(h, ms(30), 0.002_500_4), us(2_500));
        // A sub-microsecond allowance or backlog still advances time.
        assert_eq!(slice_len(h, SimDuration::ZERO, 1.0), us(1));
        assert_eq!(slice_len(h, QUANTUM, 1e-9), us(1));
    }
}
