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
//! [`busy_period`] plans a whole boundary window of one runqueue with
//! SMT off as one closed-form busy period, capped VMs included, where
//! the slice loop would drain its backlog in a cascade of
//! ever-shorter slices, and [`run_busy_period`] runs it in one step.
//! [`Host`](crate::Host) plans once at the start of each window and
//! runs [`step_core`] where no plan exists.

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

/// The busy period of one runqueue with SMT off from `now`, if the
/// whole window up to `boundary` can run as that busy period and the
/// idle gap after it; `None` where the rule does not hold. Pure:
/// [`run_busy_period`] applies it.
///
/// **Rule.** The scheduler [runs busy
/// periods](Scheduler::runs_busy_periods), and every VM declares a
/// demand rate r ([`Vm::declared_rate`]) that holds up to `boundary`.
/// At the capacity C of the current P-state, VM i may do at most
/// aᵢ = C × its remaining [`Scheduler::max_slice`]. The busy period is
/// the first T at which the core has served everything it could:
/// C·T = Σ min(bᵢ + rᵢ·T, aᵢ), b the backlogs. The plan declines where
/// the uncapped VMs' rates reach C, or where T, rounded up to the µs,
/// would end after `boundary`.
///
/// **Solve.** The right-hand side is concave in T, so Newton's method
/// from above falls onto the root. It starts at T = B / (C − R), B the
/// summed backlog and R the summed rate, rounded up to the µs and
/// clamped to the window, or at the window when R ≥ C. Each pass caps
/// every VM whose bᵢ + rᵢ·T exceeds aᵢ and sets T = (Σ uncapped b +
/// Σ capped a) / (C − Σ uncapped r), rounded up to the µs, until T
/// stops falling. The capped set only shrinks, so that takes at most
/// n + 1 passes, and where no cap binds the first pass returns the
/// start.
pub(crate) fn busy_period<S: Scheduler + ?Sized>(
    rq: &RunQueue<S>,
    cpu: &Cpu,
    now: SimTime,
    boundary: SimTime,
) -> Option<SimDuration> {
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
    let window = boundary - now;
    let mut busy = if rate_sum < capacity {
        micros_up(backlog / (capacity - rate_sum)).min(window)
    } else {
        window
    };
    loop {
        let secs = busy.as_secs_f64();
        let (mut free_rate, mut work) = (0.0, 0.0);
        for vm in &rq.vms {
            let (rate, _) = vm.declared_rate(now)?;
            match binding_allowance(&*rq.sched, vm, rate, secs, capacity, now) {
                Some(allowance) => work += allowance,
                None => {
                    work += vm.backlog_mcycles;
                    free_rate += rate;
                }
            }
        }
        if free_rate >= capacity {
            return None;
        }
        let next = micros_up(work / (capacity - free_rate));
        if next >= busy {
            return (next <= window).then_some(next);
        }
        busy = next;
    }
}

/// `secs`, rounded up to the µs.
#[inline]
fn micros_up(secs: f64) -> SimDuration {
    SimDuration::from_micros((secs * 1e6).ceil() as u64)
}

/// What VM `vm`, at demand `rate`, may do in a busy period of `secs`
/// from `now` on a core of `capacity`, where that binds: `capacity`
/// times its remaining [`Scheduler::max_slice`], if its backlog plus
/// its demand exceeds it; `None` if it can serve all of it.
#[inline]
fn binding_allowance<S: Scheduler + ?Sized>(
    sched: &S,
    vm: &Vm,
    rate: f64,
    secs: f64,
    capacity: f64,
    now: SimTime,
) -> Option<f64> {
    let allowance = capacity * sched.max_slice(vm.id, now).as_secs_f64();
    (vm.backlog_mcycles + rate * secs > allowance).then_some(allowance)
}

/// Runs the busy period [`busy_period`] planned, `busy` from `now`,
/// and the idle gap after it up to `boundary`, and returns the busy
/// period's end. `on_run` sees each VM that executed work, in
/// local-id order, just after it did.
///
/// Every VM refills for `busy`. A VM whose allowance binds at `busy`
/// executes exactly that allowance and keeps the rest queued; every
/// other VM executes its whole backlog. Each is charged its busy time
/// once, then refills for the idle gap. The core accounts the whole
/// window in one [`Cpu::account`] call, at busy fraction
/// Σ done / (C · window).
///
/// This is the fluid limit of the drain cascade [`step_core`] runs on
/// the same window, not its bits. Over a complete busy period the
/// cascade serves a capped VM until its allowance is spent and drains
/// every other, so each VM's work and busy time and the core's energy
/// (linear in the busy fraction) do not depend on pick order. The
/// cascade differs only by each VM's residue below
/// [`MIN_RUNNABLE_MCYCLES`](crate::vm::MIN_RUNNABLE_MCYCLES), which it
/// leaves queued, and by the µs rounding of each of its charges.
pub(crate) fn run_busy_period<S: Scheduler + ?Sized>(
    rq: &mut RunQueue<S>,
    cpu: &mut Cpu,
    now: SimTime,
    boundary: SimTime,
    busy: SimDuration,
    mut on_run: impl FnMut(&Vm, Ran),
) -> SimTime {
    let capacity = cpu.pstates().state(cpu.pstate()).effective_mcps();
    let window = boundary - now;
    let end = now + busy;
    let secs = busy.as_secs_f64();
    let mut done_sum = 0.0;
    for vm in &mut rq.vms {
        let (rate, _) = vm.declared_rate(now).expect("the plan read every rate");
        let allowance = binding_allowance(&*rq.sched, vm, rate, secs, capacity, now);
        vm.refill(end, busy);
        let done = vm.execute(allowance.unwrap_or(vm.backlog_mcycles), end);
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
    end
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

    /// Whether [`busy_period`] plans no busy period for a 30 ms window
    /// of `rq`.
    fn declines<S: Scheduler + ?Sized>(rq: &RunQueue<S>, cpu: &Cpu) -> bool {
        busy_period(rq, cpu, SimTime::ZERO, SimTime::from_millis(30)).is_none()
    }

    /// Where its rule fails, [`busy_period`] plans nothing, and the
    /// slice loop runs the window.
    #[test]
    fn busy_period_declines_where_its_rule_fails() {
        for (vms, why) in [
            (
                vec![(0.6, 0.55, 30.0), (0.6, 0.55, 30.0)],
                "capped, it still crosses the boundary",
            ),
            (
                vec![(0.45, 0.95, 30.0), (0.3, 0.9, 30.0)],
                "it would cross the boundary",
            ),
            (
                vec![(0.7, 0.95, 0.0), (0.5, 0.9, 0.0)],
                "the uncapped VMs saturate the core",
            ),
        ] {
            let (rq, cpu) = steady_core(4, &vms);
            assert!(declines(&rq, &cpu), "{why}");
        }
        let (capped, cpu) = steady_core(4, &[(0.3, 0.1, 10.0)]);
        assert!(
            !declines(&capped, &cpu),
            "a binding cap alone plans the step"
        );
        let (mut batch, cpu) = steady_core(4, &[(0.01, 0.5, 1.0)]);
        batch.add_vm(
            VmConfig::new("batch", Credit::percent(50.0)),
            Box::new(crate::work::test_batch(100.0)),
        );
        assert!(declines(&batch, &cpu), "a VM declares no rate");
        let mut sedf = RunQueue::new(Box::new(crate::sched::SedfScheduler::new(true)));
        sedf.add_vm(
            VmConfig::new("light", Credit::percent(50.0)),
            Box::new(ConstantDemand::new(10.0)),
        );
        assert!(declines(&sedf, &cpu), "SEDF keeps the slice loop");
    }

    /// One case of the oracle below: the busy period of a 30 ms window
    /// of `steady_core(pstate, vms)` against the drain cascade
    /// [`step_core`] runs on a twin. Returns `None` where
    /// [`busy_period`] plans nothing, else whether an allowance capped
    /// a VM.
    fn check_fluid_limit(pstate: usize, vms: &[(f64, f64, f64)]) -> Option<bool> {
        let boundary = SimTime::from_millis(30);
        let (mut closed, mut closed_cpu) = steady_core(pstate, vms);
        let (mut cascade, mut cascade_cpu) = steady_core(pstate, vms);
        let busy = busy_period(&closed, &closed_cpu, SimTime::ZERO, boundary)?;
        let capacity = closed_cpu
            .pstates()
            .state(closed_cpu.pstate())
            .effective_mcps();
        let allowances: Vec<Option<f64>> = closed
            .vms
            .iter()
            .map(|vm| {
                let rate = vm.declared_rate(SimTime::ZERO).expect("steady").0;
                let secs = busy.as_secs_f64();
                binding_allowance(&*closed.sched, vm, rate, secs, capacity, SimTime::ZERO)
            })
            .collect();
        run_busy_period(
            &mut closed,
            &mut closed_cpu,
            SimTime::ZERO,
            boundary,
            busy,
            |_, _| {},
        );

        let mut now = SimTime::ZERO;
        let mut runnable = Vec::new();
        let mut charged = vec![0u32; vms.len()];
        while now < boundary {
            now = step_core(
                std::slice::from_mut(&mut cascade),
                &mut cascade_cpu,
                SmtSpec::off(),
                now,
                boundary,
                &mut runnable,
            );
            if let Some(ran) = cascade.ran.filter(|ran| ran.done > 0.0) {
                charged[ran.vm.0] += 1;
            }
        }

        // The uncapped VMs catch up with the residues at the rate the
        // capped ones leave them.
        let free_rate: f64 = closed
            .vms
            .iter()
            .zip(&allowances)
            .filter(|(_, a)| a.is_none())
            .map(|(vm, _)| vm.declared_rate(SimTime::ZERO).expect("steady").0)
            .sum();
        let catch_up = vms.len() as f64 * MIN_RUNNABLE_MCYCLES / (capacity - free_rate) + 2e-6;
        let mut work_bound = 0.0;
        for (i, (a, b)) in closed.vms.iter().zip(&cascade.vms).enumerate() {
            let bound = match allowances[i] {
                Some(allowance) => {
                    assert_eq!(a.total_done_mcycles, allowance, "{}: capped", a.config.name);
                    MIN_RUNNABLE_MCYCLES + capacity * 0.5e-6 * f64::from(charged[i])
                }
                None => {
                    let rate = a.declared_rate(SimTime::ZERO).expect("steady").0;
                    MIN_RUNNABLE_MCYCLES + rate * catch_up
                }
            };
            let diff = (a.total_done_mcycles - b.total_done_mcycles).abs();
            assert!(
                diff <= bound,
                "{}: work differs by {diff}, bound {bound} ({pstate}, {vms:?})",
                a.config.name
            );
            work_bound += bound;
        }
        let machine = cpumodel::machines::optiplex_755();
        let table = closed_cpu.pstates();
        let state = table.state(closed_cpu.pstate());
        let dynamic_w = machine.power.power_scaled(state, table.max(), 1.0)
            - machine.power.power_scaled(state, table.max(), 0.0);
        let energy_diff = (closed_cpu.energy().joules() - cascade_cpu.energy().joules()).abs();
        let energy_bound = dynamic_w * work_bound / capacity;
        assert!(
            energy_diff <= energy_bound,
            "energy differs by {energy_diff} J, bound {energy_bound} J ({pstate}, {vms:?})"
        );
        Some(allowances.iter().any(Option::is_some))
    }

    /// The oracle: [`busy_period`] against the drain cascade
    /// [`step_core`] runs on the same 30 ms window of 1024 random steady
    /// Credit runqueues, with caps as PAS writes them and demand up to
    /// the whole capacity at fmax, so that caps bind and thrashers run.
    /// Where a plan exists, each uncapped VM's work differs by at most
    /// its residue below `MIN_RUNNABLE_MCYCLES` plus its demand over
    /// the time the core takes to serve every residue
    /// (n · `MIN_RUNNABLE_MCYCLES` / (C − uncapped R)) and 2 µs of
    /// rounding. Each capped VM does exactly its allowance in one step;
    /// in the cascade it may stop short by its residue, and each charge
    /// rounds its busy time to the µs. The power model is linear in the
    /// busy fraction, so the window's energy differs by at most the
    /// dynamic energy of that much work. A third of the cases that
    /// take the step must hold a capped VM (269 of 374 do).
    #[test]
    fn busy_period_is_the_fluid_limit_of_the_cascade() {
        let cases = (
            0usize..5,
            proptest::collection::vec((0.0f64..1.0, 0.01f64..0.95, 0.0f64..30.0), 1..6),
        );
        let mut rng = TestRng::deterministic(0x5eed_b05e);
        let (mut planned, mut with_cap) = (0, 0);
        for _ in 0..1024 {
            let (pstate, vms) = cases.sample(&mut rng);
            if let Some(capped) = check_fluid_limit(pstate, &vms) {
                planned += 1;
                with_cap += usize::from(capped);
            }
        }
        assert!(planned >= 256, "{planned} of 1024 cases took the step");
        assert!(
            with_cap * 3 >= planned,
            "{with_cap} of {planned} planned cases hold a capped VM"
        );
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
