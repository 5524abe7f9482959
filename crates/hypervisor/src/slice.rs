//! The slice rule every host model shares, and the joint step of the
//! runqueues on one physical core.
//!
//! [`slice_len`] is the single-core host's rule: a picked VM runs for
//! the shortest of the scheduler quantum, its remaining cap
//! allowance, its backlog's drain time at the rate it is delivered,
//! and the time to the next boundary (accounting tick, sample, run
//! end). A sub-microsecond result rounds up to the 1 µs clock
//! resolution. [`Host`](crate::Host) calls it once per slice;
//! [`step_core`] calls it once per busy runqueue and runs the
//! shortest.
//!
//! A [`RunQueue`] is one core's Credit scheduler with the VMs pinned
//! to it ([`MultiHost`](crate::multicore::MultiHost)), or one hardware
//! thread's ([`SmtHost`](crate::smt::SmtHost)). The runqueues of one
//! physical core share its frequency and, with SMT, its execution
//! resources: when `busy` of them run, each delivers
//! `mcps · per_thread_factor(busy)` mega-cycles per second. A joint
//! step ends at the first busy runqueue's bound, so contention starts
//! and stops exactly when a sibling does.

use cpumodel::{Cpu, SmtSpec};
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, Scheduler};
use crate::vm::{Vm, VmConfig, VmId};

/// The Xen Credit scheduler quantum: the longest a picked VM runs
/// before the scheduler picks again.
const QUANTUM: SimDuration = SimDuration::from_millis(10);

/// The length of a slice that runs one picked VM from now: the
/// shortest of `horizon` (the time to the next boundary), [`QUANTUM`],
/// the VM's remaining cap `allowance` and `drain_secs`, the time its
/// backlog takes to drain at its delivered rate (infinite at rate
/// zero). Never zero while `horizon` is not.
#[inline]
pub(crate) fn slice_len(
    horizon: SimDuration,
    allowance: SimDuration,
    drain_secs: f64,
) -> SimDuration {
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

/// One core's or one hardware thread's Credit scheduler and the VMs
/// pinned to it.
pub(crate) struct RunQueue {
    pub(crate) sched: CreditScheduler,
    /// The pinned VMs, in ascending id order.
    pub(crate) vms: Vec<VmId>,
    /// What the last [`step_core`] ran here, or `None` if it idled.
    pub(crate) ran: Option<Ran>,
}

/// One runqueue's share of a joint step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ran {
    /// The VM that ran.
    pub(crate) vm: VmId,
    /// Mega-cycles it executed.
    pub(crate) done: f64,
    /// Seconds of the slice it was busy.
    pub(crate) busy_secs: f64,
}

impl RunQueue {
    /// An empty runqueue whose Credit scheduler refills every
    /// `acct_period`.
    pub(crate) fn new(acct_period: SimDuration) -> Self {
        RunQueue {
            sched: CreditScheduler::with_period(acct_period),
            vms: Vec::new(),
            ran: None,
        }
    }

    /// Pins VM `id` here.
    pub(crate) fn add_vm(&mut self, id: VmId, config: &VmConfig) {
        self.sched.on_vm_added(id, config);
        self.vms.push(id);
    }
}

/// Advances the runqueues of one physical core by one joint slice
/// from `now`, ending no later than `boundary` (which must lie after
/// `now`), and returns the slice's end.
///
/// As in [`Host`](crate::Host), each runqueue picks among its VMs
/// runnable at `now`, before any demand arrives for the slice. The
/// slice is the shortest [`slice_len`] over the picks at their
/// delivered rate (the whole horizon when none picks). Every pinned
/// VM is then refilled for the slice, each pick executes and is
/// charged its busy time, and the core accounts the busiest
/// runqueue's fraction. Each runqueue's [`RunQueue::ran`] holds its
/// outcome.
pub(crate) fn step_core(
    rqs: &mut [RunQueue],
    vms: &mut [Vm],
    cpu: &mut Cpu,
    smt: SmtSpec,
    now: SimTime,
    boundary: SimTime,
    runnable: &mut Vec<VmId>,
) -> SimTime {
    let mut busy = 0;
    for rq in rqs.iter_mut() {
        runnable.clear();
        runnable.extend(rq.vms.iter().copied().filter(|id| vms[id.0].is_runnable()));
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
            let drain_secs = vms[ran.vm.0].backlog_seconds_at(rate);
            slice = slice.min(slice_len(horizon, allowance, drain_secs));
        }
    }

    let end = now + slice;
    let secs = slice.as_secs_f64();
    let capacity = rate * secs;
    let mut core_busy: f64 = 0.0;
    for rq in rqs.iter_mut() {
        // Demand arrives continuously during the slice.
        for id in &rq.vms {
            vms[id.0].refill(end, slice);
        }
        if let Some(ran) = rq.ran.as_mut() {
            ran.done = vms[ran.vm.0].execute(capacity, end);
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
