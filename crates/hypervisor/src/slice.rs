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
//!
//! [`busy_period`] runs a whole boundary window of one runqueue with
//! SMT off as one closed-form step where the slice loop would drain
//! its backlog in a cascade of ever-shorter slices. [`Host`](crate::Host)
//! tries it once at the start of each window and runs [`step_core`]
//! where it does not apply.

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
    /// The scheduler's [`Scheduler::runs_busy_periods`], read once
    /// here so that [`busy_period`] declines with one branch.
    busy_periods: bool,
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
            busy_periods: sched.runs_busy_periods(),
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

/// Runs one runqueue with SMT off from `now` to `boundary` as one
/// busy period and the idle gap after it, and returns the busy
/// period's end; or returns `None`, changing nothing, where the rule
/// does not hold. `on_run` sees each VM that executed work, in
/// local-id order, just after it did.
///
/// **Rule.** The scheduler [runs busy
/// periods](Scheduler::runs_busy_periods). Every VM declares a demand
/// rate r ([`Vm::declared_rate`]) that holds up to `boundary`. The
/// summed rate R is below the capacity C of the current P-state. The
/// busy period T = B / (C − R), B the summed backlog, rounded up to
/// the µs, ends by `boundary`. No VM's busy time (b + r·T) / C
/// exceeds its remaining [`Scheduler::max_slice`].
///
/// **Step.** Every VM refills for T, executes its whole backlog and
/// is charged its busy time once, then refills for the idle gap up to
/// `boundary`. The core accounts the whole window in one
/// [`Cpu::account`] call, at busy fraction Σ done / (C · window).
///
/// This is the fluid limit of the drain cascade [`step_core`] runs on
/// the same window, not its bits. Over a complete busy period, each
/// VM's work and busy time and the core's energy (linear in the busy
/// fraction) do not depend on pick order. The cascade differs only by
/// each VM's residue below [`MIN_RUNNABLE_MCYCLES`](crate::vm::MIN_RUNNABLE_MCYCLES),
/// which it leaves queued, and by the µs rounding of each of its
/// charges.
pub(crate) fn busy_period<S: Scheduler + ?Sized>(
    rq: &mut RunQueue<S>,
    cpu: &mut Cpu,
    now: SimTime,
    boundary: SimTime,
    mut on_run: impl FnMut(&Vm, Ran),
) -> Option<SimTime> {
    if !rq.busy_periods {
        return None;
    }
    let (mut rate_sum, mut backlog) = (0.0, 0.0);
    for vm in &rq.vms {
        let (rate, until) = vm.declared_rate(now)?;
        if until < boundary {
            return None;
        }
        rate_sum += rate;
        backlog += vm.backlog_mcycles;
    }
    let capacity = cpu.pstates().state(cpu.pstate()).effective_mcps();
    if rate_sum >= capacity {
        return None;
    }
    let window = boundary - now;
    let busy = SimDuration::from_micros((backlog / (capacity - rate_sum) * 1e6).ceil() as u64);
    if busy > window {
        return None;
    }
    let period_secs = busy.as_secs_f64();
    for vm in &rq.vms {
        let (rate, _) = vm.declared_rate(now)?;
        let work = vm.backlog_mcycles + rate * period_secs;
        if work > 0.0 && work > capacity * rq.sched.max_slice(vm.id, now).as_secs_f64() {
            return None;
        }
    }

    let end = now + busy;
    let mut done_sum = 0.0;
    for vm in &mut rq.vms {
        vm.refill(end, busy);
        let done = vm.execute(vm.backlog_mcycles, end);
        if done > 0.0 {
            let busy_secs = done / capacity;
            rq.sched
                .charge(vm.id, SimDuration::from_secs_f64(busy_secs));
            on_run(
                vm,
                Ran {
                    vm: vm.id,
                    done,
                    busy_secs,
                },
            );
            done_sum += done;
        }
        vm.refill(boundary, window - busy);
    }
    cpu.account(
        (done_sum / (capacity * window.as_secs_f64())).min(1.0),
        window,
    );
    Some(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::MIN_RUNNABLE_MCYCLES;
    use crate::work::ConstantDemand;
    use cpumodel::PStateIdx;
    use pas_core::{Credit, PasDomain};
    use proptest::prelude::*;

    /// A Credit runqueue at P-state `pstate`, just after an accounting
    /// tick, with caps as PAS writes them there. Each VM is
    /// `(demand, booked, queued_ms)`: a constant demand and a booked
    /// credit, both fractions of the capacity at fmax, and a backlog of
    /// `queued_ms` of its own demand.
    fn steady_core(pstate: usize, vms: &[(f64, f64, f64)]) -> (RunQueue, Cpu) {
        let mut cpu = cpumodel::machines::optiplex_755().build_cpu();
        cpu.set_pstate(PStateIdx(pstate)).expect("on the ladder");
        let pas = PasDomain::new(cpu.pstates().clone());
        let fmax = cpu.pstates().max().effective_mcps();
        let mut rq = RunQueue::new(Box::new(CreditScheduler::new()));
        for (i, &(demand, booked, queued_ms)) in vms.iter().enumerate() {
            let credit = Credit::percent(booked * 100.0);
            let rate = demand * fmax;
            let id = rq.add_vm(
                VmConfig::new(format!("vm{i}"), credit),
                Box::new(ConstantDemand::new(rate)),
            );
            rq.vms[id.0].backlog_mcycles = rate * queued_ms / 1e3;
            rq.sched.set_cap(id, pas.cap(credit, cpu.pstate()));
        }
        rq.sched.on_accounting(SimTime::ZERO);
        (rq, cpu)
    }

    /// Whether [`busy_period`] declines a window of `rq` and leaves
    /// every backlog and the energy meter as they were.
    fn declines<S: Scheduler + ?Sized>(rq: &mut RunQueue<S>, cpu: &mut Cpu) -> bool {
        let backlogs = |rq: &RunQueue<S>| -> Vec<u64> {
            rq.vms
                .iter()
                .map(|vm| vm.backlog_mcycles.to_bits())
                .collect()
        };
        let before = backlogs(rq);
        let boundary = SimTime::from_millis(30);
        let end = busy_period(rq, cpu, SimTime::ZERO, boundary, |_, _| {
            panic!("nothing runs")
        });
        end.is_none() && backlogs(rq) == before && cpu.energy().joules() == 0.0
    }

    /// Where its rule fails, [`busy_period`] declines before it
    /// changes anything, and the slice loop runs the window.
    #[test]
    fn busy_period_declines_where_its_rule_fails() {
        for (vms, why) in [
            (vec![(0.3, 0.1, 10.0)], "a cap would bind"),
            (
                vec![(0.5, 0.95, 30.0), (0.3, 0.9, 30.0)],
                "it would cross the boundary",
            ),
            (
                vec![(0.7, 0.95, 0.0), (0.5, 0.9, 0.0)],
                "the core is saturated",
            ),
        ] {
            let (mut rq, mut cpu) = steady_core(4, &vms);
            assert!(declines(&mut rq, &mut cpu), "{why}");
        }
        let (mut batch, mut cpu) = steady_core(4, &[(0.01, 0.5, 1.0)]);
        batch.add_vm(
            VmConfig::new("batch", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(100.0)),
        );
        assert!(declines(&mut batch, &mut cpu), "a VM declares no rate");
        let mut sedf = RunQueue::new(Box::new(crate::sched::SedfScheduler::new(true)));
        sedf.add_vm(
            VmConfig::new("light", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(10.0)),
        );
        assert!(declines(&mut sedf, &mut cpu), "SEDF keeps the slice loop");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The oracle: [`busy_period`] against the drain cascade
        /// [`step_core`] runs on the same 30 ms window of a steady
        /// Credit runqueue. Where the rule holds, each VM's work differs
        /// by at most its residue below `MIN_RUNNABLE_MCYCLES` plus its
        /// demand over the time the core takes to serve every residue
        /// (n · `MIN_RUNNABLE_MCYCLES` / (C − R)) and 2 µs of rounding.
        /// The power model is linear in the busy fraction, so the
        /// window's energy differs by at most the dynamic energy of
        /// that much work.
        #[test]
        fn busy_period_is_the_fluid_limit_of_the_cascade(
            pstate in 0usize..5,
            vms in proptest::collection::vec(
                (0.0f64..0.3, 0.01f64..0.95, 0.0f64..30.0),
                1..6,
            ),
        ) {
            let boundary = SimTime::from_millis(30);
            let (mut closed, mut closed_cpu) = steady_core(pstate, &vms);
            let (mut cascade, mut cascade_cpu) = steady_core(pstate, &vms);
            let end = busy_period(&mut closed, &mut closed_cpu, SimTime::ZERO, boundary, |_, _| {});
            prop_assume!(end.is_some());
            let mut now = SimTime::ZERO;
            let mut runnable = Vec::new();
            while now < boundary {
                now = step_core(
                    std::slice::from_mut(&mut cascade),
                    &mut cascade_cpu,
                    SmtSpec::off(),
                    now,
                    boundary,
                    &mut runnable,
                );
            }
            let capacity = closed_cpu.pstates().state(closed_cpu.pstate()).effective_mcps();
            let rate_sum: f64 = vms.iter().map(|v| v.0).sum::<f64>()
                * closed_cpu.pstates().max().effective_mcps();
            let catch_up = vms.len() as f64 * MIN_RUNNABLE_MCYCLES / (capacity - rate_sum) + 2e-6;
            let mut work_bound = 0.0;
            for (a, b) in closed.vms.iter().zip(&cascade.vms) {
                let rate = a.declared_rate(SimTime::ZERO).expect("steady").0;
                let bound = MIN_RUNNABLE_MCYCLES + rate * catch_up;
                let diff = (a.total_done_mcycles - b.total_done_mcycles).abs();
                prop_assert!(diff <= bound, "{}: work differs by {diff}, bound {bound}", a.config.name);
                work_bound += bound;
            }
            let machine = cpumodel::machines::optiplex_755();
            let table = closed_cpu.pstates();
            let state = table.state(closed_cpu.pstate());
            let dynamic_w = machine.power.power_scaled(state, table.max(), 1.0)
                - machine.power.power_scaled(state, table.max(), 0.0);
            let energy_diff = (closed_cpu.energy().joules() - cascade_cpu.energy().joules()).abs();
            let energy_bound = dynamic_w * work_bound / capacity;
            prop_assert!(energy_diff <= energy_bound, "energy differs by {energy_diff} J, bound {energy_bound} J");
        }
    }

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
