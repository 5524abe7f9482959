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
//! * a busy logical CPU delivers
//!   `f · cf · per_thread_factor(busy threads)` mega-cycles/sec — the
//!   SMT contention penalty of [`cpumodel::smt`];
//! * PAS (one [`PasDomain`] for the core) plans the shared frequency
//!   from the core's *aggregate* delivered absolute load and
//!   compensates credits per Equation 4 — either **naively**
//!   (frequency only, the paper's Listing 1.2 verbatim) or
//!   **SMT-aware** (additionally dividing by the observed per-thread
//!   [contention factor](SmtSpec::contention_factor)).
//!
//! Each logical CPU is one runqueue (a Credit scheduler and the VMs
//! pinned to it, which it owns), and the core advances all of them by
//! one joint step of the slice loop the single-core host runs: every
//! busy thread bounds the step by the 10 ms quantum, its VM's
//! remaining cap allowance and its backlog's drain time at the
//! contended rate, and the step runs the shortest bound, ending at
//! the next 100 ms accounting tick or run end at the latest.
//! Contention therefore starts and stops exactly when a sibling does.
//! A VM's public [`VmId`] maps to its thread and its id on that
//! thread's runqueue.
//!
//! The experiment built on this host (`experiments::smt`) shows the
//! gap the paper predicts: the verbatim PAS under-delivers booked
//! capacity as soon as siblings contend, and the contention-extended
//! Equation 4 closes it.

use cpumodel::smt::SmtSpec;
use cpumodel::{Cpu, MachineSpec};
use pas_core::{MovingAverage, PasDomain};
use simkernel::{SimDuration, SimTime};

use crate::sched::{CreditScheduler, Scheduler};
use crate::slice::{step_core, RunQueue};
use crate::vm::{VmConfig, VmId};
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
    /// Busy seconds in the current accounting window.
    window_busy: f64,
    /// Of those, seconds during which every sibling was also busy.
    window_contended: f64,
    /// Delivered mega-cycles in the window.
    window_mcycles: f64,
    /// Smoothed contended-fraction of busy time.
    overlap: MovingAverage,
    /// Delivered mega-cycles over the whole run, by local VM id.
    vm_mcycles: Vec<f64>,
}

/// The hyper-threaded single-core host.
pub struct SmtHost {
    smt: SmtSpec,
    cpu: Cpu,
    /// One runqueue per logical CPU, indexed by [`ThreadId`].
    rqs: Vec<RunQueue>,
    threads: Vec<ThreadState>,
    /// Each VM's thread and its id on that thread's runqueue, by
    /// public id.
    placement: Vec<(ThreadId, VmId)>,
    awareness: SmtAwareness,
    pas: PasDomain,
    now: SimTime,
    acct_period: SimDuration,
    next_acct: SimTime,
    window_start: SimTime,
    // Reusable runnable-scan buffer, as in `Host`.
    runnable_scratch: Vec<VmId>,
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
            rqs: (0..smt.threads())
                .map(|_| RunQueue::new(Box::new(CreditScheduler::with_period(acct_period))))
                .collect(),
            threads: (0..smt.threads())
                .map(|_| ThreadState {
                    window_busy: 0.0,
                    window_contended: 0.0,
                    window_mcycles: 0.0,
                    overlap: MovingAverage::paper_default(),
                    vm_mcycles: Vec::new(),
                })
                .collect(),
            placement: Vec::new(),
            awareness,
            pas: PasDomain::new(machine.pstate_table()),
            now: SimTime::ZERO,
            acct_period,
            next_acct: SimTime::ZERO + acct_period,
            window_start: SimTime::ZERO,
            runnable_scratch: Vec::new(),
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
        assert!(thread.0 < self.rqs.len(), "{thread} out of range");
        let id = VmId(self.placement.len());
        self.placement
            .push((thread, self.rqs[thread.0].add_vm(config, work)));
        self.threads[thread.0].vm_mcycles.push(0.0);
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
            let (thread, local) = self.placement[vm.0];
            self.threads[thread.0].vm_mcycles[local.0] / (self.fmax_mcps() * span)
        }
    }

    /// The thread a VM is pinned to.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is unknown.
    #[must_use]
    pub fn thread_of(&self, vm: VmId) -> ThreadId {
        self.placement[vm.0].0
    }

    /// The current cap of a VM on its thread's scheduler, as a
    /// fraction, or `None` when uncapped.
    #[must_use]
    pub fn effective_cap(&self, vm: VmId) -> Option<f64> {
        let (thread, local) = self.placement[vm.0];
        self.rqs[thread.0].sched.effective_cap(local)
    }

    /// Runs the host for `duration`.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            if self.now >= self.next_acct {
                self.accounting_tick();
                self.next_acct += self.acct_period;
            }
            let boundary = end.min(self.next_acct);
            while self.now < boundary {
                let step_end = step_core(
                    &mut self.rqs,
                    &mut self.cpu,
                    self.smt,
                    self.now,
                    boundary,
                    &mut self.runnable_scratch,
                );
                let busy = self.rqs.iter().filter(|rq| rq.ran.is_some()).count();
                let contended = busy == self.rqs.len() && busy > 1;
                for (t, rq) in self.threads.iter_mut().zip(&self.rqs) {
                    let Some(ran) = rq.ran else { continue };
                    t.window_busy += ran.busy_secs;
                    if contended {
                        t.window_contended += ran.busy_secs;
                    }
                    t.window_mcycles += ran.done;
                    t.vm_mcycles[ran.vm.0] += ran.done;
                }
                self.now = step_end;
            }
        }
    }

    fn accounting_tick(&mut self) {
        let window = self.now.duration_since(self.window_start).as_secs_f64();
        if window > 0.0 {
            // Aggregate absolute load of the core: delivered work
            // relative to one non-contended thread at fmax. The SMT
            // factor is already inside the delivered mega-cycles.
            let total_mcycles: f64 = self.threads.iter().map(|t| t.window_mcycles).sum();
            let absolute_pct = 100.0 * total_mcycles / (self.fmax_mcps() * window);
            // A pegged thread measures a load bounded by the current
            // capacity, so the busiest thread's load drives the
            // saturation bump.
            let busiest_pct = self
                .threads
                .iter()
                .map(|t| 100.0 * t.window_busy / window)
                .fold(0.0_f64, f64::max);
            let target = self
                .pas
                .retarget(absolute_pct, busiest_pct, self.cpu.pstate());

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
                let rq = &mut self.rqs[t_idx];
                for vm in &rq.vms {
                    // `set_cap` clamps the quotient at the wall clock.
                    let cap = self.pas.cap(vm.config.credit, target);
                    rq.sched.set_cap(vm.id, cap.map(|c| c / contention));
                }
            }
            self.cpu
                .set_pstate(target)
                .expect("planner uses the cpu's own ladder");
        }
        for (t, rq) in self.threads.iter_mut().zip(&mut self.rqs) {
            rq.sched.on_accounting(self.now);
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
            .field("vms", &self.placement.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{test_batch, ConstantDemand, Idle};
    use cpumodel::machines;
    use pas_core::Credit;

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
    fn contention_ends_at_the_sibling_drain_instant() {
        // Thread 0 thrashes uncapped and saturates the core, which
        // climbs to fmax well before 1 s.
        let mut h = host(SmtAwareness::Naive);
        let fmax = h.fmax_mcps();
        let a = h.add_vm(
            VmConfig::new("a", Credit::ZERO),
            Box::new(ConstantDemand::new(fmax)),
            ThreadId(0),
        );
        h.run_for(SimDuration::from_secs(1));
        // Thread 1's uncapped batch, released at the 1 s tick, drains
        // 3.4567 ms into the third quantum of the window at the
        // contended rate.
        let contended = h.smt().per_thread_factor(2);
        let drain_s = 0.023_456_7;
        let b = h.add_vm(
            VmConfig::new("b", Credit::ZERO),
            Box::new(test_batch(fmax * contended * drain_s)),
            ThreadId(1),
        );
        let now = h.now();
        let ((ta, la), (tb, lb)) = (h.placement[a.0], h.placement[b.0]);
        h.rqs[tb.0].vms[lb.0].refill(now, SimDuration::ZERO);
        let before = h.threads[ta.0].vm_mcycles[la.0];
        let window_s = 0.1;
        h.run_for(SimDuration::from_secs_f64(window_s));
        assert_eq!(h.cpu().pstate(), h.cpu().pstates().max_idx());
        assert!(h.rqs[tb.0].vms[lb.0].is_complete(), "the batch drained");
        // Contended until the drain instant, the full rate after it.
        let got = h.threads[ta.0].vm_mcycles[la.0] - before;
        let want = fmax * (contended * drain_s + (window_s - drain_s));
        assert!(
            (got - want).abs() <= fmax * 1e-6,
            "thread 0 ran {got} mega-cycles, closed form {want}"
        );
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
