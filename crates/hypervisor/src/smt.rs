//! A hyper-threaded virtualized host — the paper's other §7
//! perspective ("hyper-threading"), as a running simulation.
//!
//! Model:
//!
//! * one physical core exposes [`SmtSpec::threads`] logical CPUs that
//!   share its execution resources and its frequency;
//! * each logical CPU runs its own Credit scheduler with pinned
//!   single-vCPU VMs (Xen with SMT presents logical CPUs exactly like
//!   this);
//! * within a quantum, a busy logical CPU delivers
//!   `f · cf · per_thread_factor(busy siblings)` mega-cycles/sec — the
//!   SMT contention penalty of [`cpumodel::smt`];
//! * PAS plans the shared frequency from the core's *aggregate*
//!   delivered absolute load and compensates credits per Equation 4 —
//!   either **naively** (frequency only, the paper's Listing 1.2
//!   verbatim) or **SMT-aware** (additionally dividing by the observed
//!   per-thread [contention factor](SmtSpec::contention_factor)).
//!
//! The experiment built on this host (`experiments::smt`) shows the
//! gap the paper predicts: the verbatim PAS under-delivers booked
//! capacity as soon as siblings contend, and the contention-extended
//! Equation 4 closes it.

use cpumodel::smt::SmtSpec;
use cpumodel::{Cpu, MachineSpec};
use pas_core::{Credit, FreqPlanner, MovingAverage};
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, SchedCtx, Scheduler};
use crate::vm::{Vm, VmConfig, VmId};
use crate::work::WorkSource;

/// A logical CPU (hardware thread) on the SMT host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

/// How PAS accounts for sibling contention when rewriting credits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtAwareness {
    /// Listing 1.2 verbatim: compensate for frequency only. Under
    /// contention a VM's delivered capacity silently falls below its
    /// booking — the SMT analogue of the paper's Scenario 1.
    Naive,
    /// Extended Equation 4: also divide by the observed contention
    /// factor of the VM's thread, restoring the booked capacity
    /// (up to the wall-clock limit of the thread).
    Aware,
}

struct ThreadState {
    sched: CreditScheduler,
    vms: Vec<VmId>,
    /// Busy seconds in the current accounting window.
    window_busy: f64,
    /// Of those, seconds during which every sibling was also busy.
    window_contended: f64,
    /// Delivered mega-cycles in the window.
    window_mcycles: f64,
    /// Smoothed contended-fraction of busy time.
    overlap: MovingAverage,
}

/// The hyper-threaded single-core host.
pub struct SmtHost {
    smt: SmtSpec,
    cpu: Cpu,
    threads: Vec<ThreadState>,
    vms: Vec<Vm>,
    placement: Vec<ThreadId>,
    initial_credits: Vec<Credit>,
    vm_mcycles: Vec<f64>,
    awareness: SmtAwareness,
    planner: FreqPlanner,
    smoother: MovingAverage,
    now: SimTime,
    quantum: SimDuration,
    acct_period: SimDuration,
    next_acct: SimTime,
    window_start: SimTime,
    // Reusable per-step buffers, as in `Host`: `advance` runs every
    // 1 ms step.
    runnable_scratch: Vec<VmId>,
    picks_scratch: Vec<Option<(VmId, SimDuration)>>,
}

impl SmtHost {
    /// Builds an SMT host from a machine preset, an SMT model and the
    /// PAS awareness mode.
    #[must_use]
    pub fn new(machine: &MachineSpec, smt: SmtSpec, awareness: SmtAwareness) -> Self {
        let acct_period = SimDuration::from_millis(100);
        SmtHost {
            smt,
            cpu: machine.build_cpu(),
            threads: (0..smt.threads())
                .map(|_| ThreadState {
                    sched: CreditScheduler::with_period(acct_period),
                    vms: Vec::new(),
                    window_busy: 0.0,
                    window_contended: 0.0,
                    window_mcycles: 0.0,
                    overlap: MovingAverage::paper_default(),
                })
                .collect(),
            vms: Vec::new(),
            placement: Vec::new(),
            initial_credits: Vec::new(),
            vm_mcycles: Vec::new(),
            awareness,
            planner: FreqPlanner::new(machine.pstate_table()),
            smoother: MovingAverage::paper_default(),
            now: SimTime::ZERO,
            quantum: SimDuration::from_millis(1),
            acct_period,
            next_acct: SimTime::ZERO + acct_period,
            window_start: SimTime::ZERO,
            runnable_scratch: Vec::new(),
            picks_scratch: Vec::new(),
        }
    }

    /// Adds a VM pinned to logical CPU `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range for the SMT spec.
    pub fn add_vm(
        &mut self,
        config: VmConfig,
        work: Box<dyn WorkSource>,
        thread: ThreadId,
    ) -> VmId {
        assert!(thread.0 < self.threads.len(), "{thread} out of range");
        let id = VmId(self.vms.len());
        self.threads[thread.0].sched.on_vm_added(id, &config);
        self.threads[thread.0].vms.push(id);
        self.initial_credits.push(config.credit);
        self.vm_mcycles.push(0.0);
        self.placement.push(thread);
        self.vms.push(Vm::new(id, config, work));
        id
    }

    /// The SMT model in force.
    #[must_use]
    pub fn smt(&self) -> SmtSpec {
        self.smt
    }

    /// The current instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shared physical core.
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Capacity of one non-contended thread at maximum frequency,
    /// mega-cycles/sec.
    #[must_use]
    pub fn fmax_mcps(&self) -> f64 {
        self.cpu.pstates().max().effective_mcps()
    }

    /// Total core energy so far, joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.cpu.energy().joules()
    }

    /// A VM's delivered capacity over the whole run as a fraction of
    /// one non-contended thread at maximum frequency — the quantity a
    /// customer books.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown.
    #[must_use]
    pub fn vm_absolute_fraction(&self, vm: VmId) -> f64 {
        let span = self.now.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.vm_mcycles[vm.0] / (self.fmax_mcps() * span)
        }
    }

    /// The thread a VM is pinned to.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown.
    #[must_use]
    pub fn thread_of(&self, vm: VmId) -> ThreadId {
        self.placement[vm.0]
    }

    /// The current cap of a VM on its thread's scheduler, as a
    /// fraction, or `None` when uncapped.
    #[must_use]
    pub fn effective_cap(&self, vm: VmId) -> Option<f64> {
        self.threads[self.placement[vm.0].0].sched.effective_cap(vm)
    }

    /// Runs the host for `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            if self.now >= self.next_acct {
                self.accounting_tick();
                self.next_acct += self.acct_period;
            }
            let step = self
                .quantum
                .min(end - self.now)
                .min(self.next_acct - self.now);
            self.advance(step);
        }
    }

    fn advance(&mut self, dt: SimDuration) {
        let slice_end = self.now + dt;
        for vm in &mut self.vms {
            vm.refill(slice_end, dt);
        }
        // First pass: each thread picks, so contention for this
        // quantum is known before any work is executed.
        let mut picks = std::mem::take(&mut self.picks_scratch);
        let mut runnable = std::mem::take(&mut self.runnable_scratch);
        picks.clear();
        for t in &mut self.threads {
            runnable.clear();
            runnable.extend(
                t.vms
                    .iter()
                    .copied()
                    .filter(|id| self.vms[id.0].is_runnable()),
            );
            let pick = t.sched.pick_next(self.now, &runnable);
            picks.push(pick.map(|vm| (vm, t.sched.max_slice(vm, self.now).min(dt))));
        }
        self.runnable_scratch = runnable;
        let busy_threads = picks.iter().filter(|p| p.is_some()).count();
        let factor = self.smt.per_thread_factor(busy_threads);
        let contended = busy_threads >= self.threads.len() && self.threads.len() > 1;

        let mcps = self.cpu.pstates().state(self.cpu.pstate()).effective_mcps();
        let mut core_busy_secs: f64 = 0.0;
        for (idx, &pick) in picks.iter().enumerate() {
            let Some((vm, allowed)) = pick else { continue };
            let capacity = mcps * factor * allowed.as_secs_f64();
            let done = self.vms[vm.0].execute(capacity, slice_end);
            let busy_frac = if capacity > 0.0 {
                (done / capacity).min(1.0)
            } else {
                0.0
            };
            let busy_secs = allowed.as_secs_f64() * busy_frac;
            let t = &mut self.threads[idx];
            t.sched.charge(vm, SimDuration::from_secs_f64(busy_secs));
            t.window_busy += busy_secs;
            if contended {
                t.window_contended += busy_secs;
            }
            t.window_mcycles += done;
            self.vm_mcycles[vm.0] += done;
            core_busy_secs = core_busy_secs.max(busy_secs);
        }
        self.picks_scratch = picks;
        self.cpu
            .account(core_busy_secs / dt.as_secs_f64().max(1e-12), dt);
        self.now = slice_end;
    }

    fn accounting_tick(&mut self) {
        let window = self.now.duration_since(self.window_start).as_secs_f64();
        if window > 0.0 {
            // Aggregate absolute load of the core: delivered work
            // relative to one non-contended thread at fmax. The SMT
            // factor is already inside the delivered mega-cycles.
            let total_mcycles: f64 = self.threads.iter().map(|t| t.window_mcycles).sum();
            let absolute_pct = 100.0 * total_mcycles / (self.fmax_mcps() * window);
            let smoothed = self.smoother.push(absolute_pct);
            let mut target = self.planner.compute_new_freq(smoothed);

            // Saturation rescue, as in `PasScheduler`: a pegged thread
            // measures a load bounded by the current capacity, so
            // climb one state while any thread is saturated.
            let busiest = self
                .threads
                .iter()
                .map(|t| t.window_busy / window)
                .fold(0.0_f64, f64::max);
            let current = self.cpu.pstate();
            if busiest >= 0.99 && target <= current {
                let table = self.planner.table();
                target = cpumodel::PStateIdx((current.0 + 1).min(table.max_idx().0));
            }

            // Per-thread smoothed contention, then credit rewrite.
            for t_idx in 0..self.threads.len() {
                let overlap_sample = {
                    let t = &self.threads[t_idx];
                    if t.window_busy > 0.0 {
                        t.window_contended / t.window_busy
                    } else {
                        0.0
                    }
                };
                let overlap = self.threads[t_idx].overlap.push(overlap_sample);
                let contention = match self.awareness {
                    SmtAwareness::Naive => 1.0,
                    SmtAwareness::Aware => self.smt.contention_factor(overlap),
                };
                let vm_ids = self.threads[t_idx].vms.clone();
                for vm in vm_ids {
                    let freq_comp = self.planner.compensate(self.initial_credits[vm.0], target);
                    let cap = if freq_comp.is_uncapped() {
                        None
                    } else {
                        Some((freq_comp.as_fraction() / contention).min(1.0))
                    };
                    self.threads[t_idx].sched.set_cap(vm, cap);
                }
            }
            self.cpu
                .set_pstate(target)
                .expect("planner uses the cpu's own ladder");
        }
        for t in &mut self.threads {
            let mut ctx = SchedCtx {
                now: self.now,
                cpu: &mut self.cpu,
                measured_load_pct: 0.0,
                measured_absolute_pct: 0.0,
            };
            t.sched.on_accounting(&mut ctx);
            t.window_busy = 0.0;
            t.window_contended = 0.0;
            t.window_mcycles = 0.0;
        }
        self.window_start = self.now;
    }
}

impl std::fmt::Debug for SmtHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtHost")
            .field("smt", &self.smt)
            .field("awareness", &self.awareness)
            .field("vms", &self.vms.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{ConstantDemand, Idle};
    use cpumodel::machines;

    fn host(awareness: SmtAwareness) -> SmtHost {
        SmtHost::new(
            &machines::optiplex_755(),
            SmtSpec::intel_typical(),
            awareness,
        )
    }

    fn add_thrasher(h: &mut SmtHost, name: &str, pct: f64, thread: usize) -> VmId {
        let demand = h.fmax_mcps(); // more than any cap allows
        h.add_vm(
            VmConfig::new(name, Credit::percent(pct)),
            Box::new(ConstantDemand::new(demand)),
            ThreadId(thread),
        )
    }

    #[test]
    fn solo_vm_gets_booking_regardless_of_awareness() {
        for awareness in [SmtAwareness::Naive, SmtAwareness::Aware] {
            let mut h = host(awareness);
            let v = add_thrasher(&mut h, "v40", 40.0, 0);
            h.add_vm(
                VmConfig::new("idle", Credit::percent(40.0)),
                Box::new(Idle),
                ThreadId(1),
            );
            h.run_for(SimDuration::from_secs(60));
            let abs = h.vm_absolute_fraction(v);
            assert!((abs - 0.40).abs() < 0.02, "{awareness:?}: {abs}");
        }
    }

    #[test]
    fn naive_pas_underdelivers_under_contention() {
        let mut h = host(SmtAwareness::Naive);
        let a = add_thrasher(&mut h, "a", 40.0, 0);
        let b = add_thrasher(&mut h, "b", 40.0, 1);
        h.run_for(SimDuration::from_secs(60));
        // Both threads busy 40% of the time, overlapping: delivered
        // capacity is cut by ~the per-thread factor (0.625).
        for (vm, name) in [(a, "a"), (b, "b")] {
            let abs = h.vm_absolute_fraction(vm);
            assert!(abs < 0.35, "{name} should miss its 40% booking, got {abs}");
            assert!(abs > 0.20, "{name} still runs, got {abs}");
        }
    }

    #[test]
    fn aware_pas_restores_booking_under_contention() {
        let mut h = host(SmtAwareness::Aware);
        let a = add_thrasher(&mut h, "a", 40.0, 0);
        let b = add_thrasher(&mut h, "b", 40.0, 1);
        h.run_for(SimDuration::from_secs(120));
        for (vm, name) in [(a, "a"), (b, "b")] {
            let abs = h.vm_absolute_fraction(vm);
            assert!(
                (abs - 0.40).abs() < 0.04,
                "{name} should be compensated back to 40%, got {abs}"
            );
        }
    }

    #[test]
    fn aware_beats_naive_on_delivered_capacity() {
        let run = |awareness| {
            let mut h = host(awareness);
            let a = add_thrasher(&mut h, "a", 40.0, 0);
            add_thrasher(&mut h, "b", 40.0, 1);
            h.run_for(SimDuration::from_secs(60));
            h.vm_absolute_fraction(a)
        };
        assert!(run(SmtAwareness::Aware) > run(SmtAwareness::Naive) + 0.03);
    }

    #[test]
    fn infeasible_bookings_clamp_at_wall_clock() {
        // Two 80% bookings on sibling threads cannot both be honoured
        // (a fully contended thread tops out at 62.5% absolute); the
        // aware host must clamp caps at 100% and survive.
        let mut h = host(SmtAwareness::Aware);
        let a = add_thrasher(&mut h, "a", 80.0, 0);
        let b = add_thrasher(&mut h, "b", 80.0, 1);
        h.run_for(SimDuration::from_secs(60));
        for vm in [a, b] {
            let cap = h.effective_cap(vm);
            if let Some(c) = cap {
                assert!(c <= 1.0 + 1e-9, "cap {c} exceeds wall clock");
            }
            let abs = h.vm_absolute_fraction(vm);
            assert!(
                abs <= 0.65,
                "cannot exceed the contended thread limit, got {abs}"
            );
            assert!(abs > 0.50, "should still get most of the thread, got {abs}");
        }
    }

    #[test]
    fn aggregate_throughput_bounded_by_smt_speedup() {
        let mut h = host(SmtAwareness::Aware);
        let a = add_thrasher(&mut h, "a", 100.0, 0);
        let b = add_thrasher(&mut h, "b", 100.0, 1);
        h.run_for(SimDuration::from_secs(60));
        let total = h.vm_absolute_fraction(a) + h.vm_absolute_fraction(b);
        assert!(
            total <= 1.25 + 0.01,
            "aggregate {total} exceeds the 1.25x envelope"
        );
        assert!(
            total > 1.10,
            "both siblings busy should beat one thread, got {total}"
        );
    }

    #[test]
    fn idle_host_descends_to_floor_frequency() {
        let mut h = host(SmtAwareness::Aware);
        h.add_vm(
            VmConfig::new("idle", Credit::percent(50.0)),
            Box::new(Idle),
            ThreadId(0),
        );
        h.run_for(SimDuration::from_secs(10));
        assert_eq!(h.cpu().pstate(), h.cpu().pstates().min_idx());
    }

    #[test]
    fn saturated_host_climbs_to_max_frequency() {
        let mut h = host(SmtAwareness::Aware);
        add_thrasher(&mut h, "a", 100.0, 0);
        add_thrasher(&mut h, "b", 100.0, 1);
        h.run_for(SimDuration::from_secs(30));
        assert_eq!(h.cpu().pstate(), h.cpu().pstates().max_idx());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pinning_to_missing_thread_panics() {
        let mut h = host(SmtAwareness::Naive);
        h.add_vm(
            VmConfig::new("x", Credit::percent(10.0)),
            Box::new(Idle),
            ThreadId(2),
        );
    }
}
