//! The PAS (Power-Aware Scheduler) — the paper's contribution.
//!
//! PAS is "an extension of the Xen Credit scheduler" (Section 4): all
//! dispatching and cap enforcement is delegated to the embedded
//! [`CreditScheduler`]; on every accounting tick PAS additionally
//!
//! 1. smooths the measured global load over 3 samples (footnote 5),
//! 2. computes the *absolute load* (Section 4's definition),
//! 3. runs `computeNewFreq` (Listing 1.1) to pick the lowest adequate
//!    frequency, climbing one state instead while the processor is
//!    saturated ([`FreqPlanner::target_pstate`]),
//! 4. rewrites every VM's cap with the Equation 4 compensated credit
//!    (`updateDvfsAndCredits`, Listing 1.2), and
//! 5. applies the frequency.
//!
//! This is the paper's third (in-hypervisor) implementation choice,
//! the one whose results Section 5 reports.

use cpumodel::Cpu;
use pas_core::{Credit, FreqPlanner, MovingAverage};
use simkernel::{SimDuration, SimTime};

use crate::sched::credit::CreditScheduler;
use crate::sched::{SchedCtx, SchedEvent, Scheduler};
use crate::vm::{VmConfig, VmId};

/// The DVFS-aware credit scheduler.
///
/// # Example
///
/// ```
/// use cpumodel::machines;
/// use hypervisor::sched::{PasScheduler, Scheduler};
/// use hypervisor::vm::{VmConfig, VmId};
/// use pas_core::Credit;
///
/// let cpu = machines::optiplex_755().build_cpu();
/// let mut pas = PasScheduler::new(&cpu);
/// pas.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
/// // Before any tick, the plain 20% cap applies.
/// assert_eq!(pas.effective_cap(VmId(0)), Some(0.20));
/// ```
pub struct PasScheduler {
    inner: CreditScheduler,
    planner: FreqPlanner,
    smoother: MovingAverage,
    /// The booked credits, indexed by `VmId.0`.
    initial: Vec<Credit>,
    // Event recording (tracing): off by default, and kept strictly
    // observational — the cap computation below never reads it.
    record_events: bool,
    // The last cap recorded per VM, by id, for the VMs recorded so
    // far (a prefix, since ticks walk the ids in order).
    last_caps: Vec<Option<f64>>,
    pending_events: Vec<SchedEvent>,
}

impl PasScheduler {
    /// Creates a PAS scheduler for the given processor (the planner
    /// needs its DVFS ladder), with the paper's 3-sample smoothing and
    /// Xen's 30 ms accounting period.
    #[must_use]
    pub fn new(cpu: &Cpu) -> Self {
        PasScheduler {
            inner: CreditScheduler::new(),
            planner: FreqPlanner::new(cpu.pstates().clone()),
            smoother: MovingAverage::paper_default(),
            initial: Vec::new(),
            record_events: false,
            last_caps: Vec::new(),
            pending_events: Vec::new(),
        }
    }

    /// Overrides the planner headroom (ablation hook; the paper's
    /// Listing 1.1 uses none).
    #[must_use]
    pub fn with_headroom(mut self, headroom_pct: f64) -> Self {
        self.planner = FreqPlanner::new(self.planner.table().clone()).with_headroom(headroom_pct);
        self
    }

    /// Overrides the smoothing window (ablation hook).
    #[must_use]
    pub fn with_smoothing_window(mut self, window: usize) -> Self {
        self.smoother = MovingAverage::new(window);
        self
    }
}

impl Scheduler for PasScheduler {
    fn name(&self) -> &'static str {
        "pas"
    }

    fn accounting_period(&self) -> SimDuration {
        self.inner.accounting_period()
    }

    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig) {
        self.inner.on_vm_added(id, cfg);
        self.initial.push(cfg.credit);
    }

    fn on_accounting(&mut self, ctx: &mut SchedCtx<'_>) {
        self.inner.on_accounting(ctx);

        // Listing 1.2, with the absolute load measured exactly by the
        // host (integrated per slice) and smoothed per footnote 5, and
        // the saturation bump for a pegged processor.
        let absolute = self.smoother.push(ctx.measured_absolute_pct);
        let target = self
            .planner
            .target_pstate(absolute, ctx.measured_load_pct, ctx.cpu.pstate());

        for (i, &init) in self.initial.iter().enumerate() {
            let id = VmId(i);
            let cap = self.planner.compensate(init, target).as_cap();
            self.inner.set_cap(id, cap);
            if self.record_events {
                let changed = match self.last_caps.get_mut(i) {
                    Some(last) => std::mem::replace(last, cap) != cap,
                    None => {
                        self.last_caps.push(cap);
                        true
                    }
                };
                if changed {
                    self.pending_events.push(SchedEvent {
                        vm: id,
                        cap_pct: cap.map(|c| c * 100.0),
                    });
                }
            }
        }
        ctx.cpu
            .set_pstate(target)
            .expect("planner uses the cpu's own ladder");
    }

    fn pick_next(&mut self, now: SimTime, runnable: &[VmId]) -> Option<VmId> {
        self.inner.pick_next(now, runnable)
    }

    fn max_slice(&self, vm: VmId, now: SimTime) -> SimDuration {
        self.inner.max_slice(vm, now)
    }

    fn charge(&mut self, vm: VmId, busy: SimDuration) {
        self.inner.charge(vm, busy)
    }

    fn effective_cap(&self, vm: VmId) -> Option<f64> {
        self.inner.effective_cap(vm)
    }

    fn set_event_recording(&mut self, on: bool) {
        self.record_events = on;
        // Start from a clean slate either way: enabling mid-run emits
        // every VM's current cap on the next tick (a self-describing
        // trace), disabling drops anything not yet drained.
        self.last_caps.clear();
        self.pending_events.clear();
    }

    fn take_sched_events(&mut self) -> Vec<SchedEvent> {
        std::mem::take(&mut self.pending_events)
    }
}

impl std::fmt::Debug for PasScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PasScheduler")
            .field("vms", &self.initial.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpumodel::machines;

    fn setup() -> (PasScheduler, Cpu) {
        let cpu = machines::optiplex_755().build_cpu();
        let mut pas = PasScheduler::new(&cpu);
        pas.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
        pas.on_vm_added(VmId(1), &VmConfig::new("v70", Credit::percent(70.0)));
        (pas, cpu)
    }

    fn tick(pas: &mut PasScheduler, cpu: &mut Cpu, absolute: f64) {
        let mut ctx = SchedCtx {
            now: SimTime::from_millis(30),
            cpu,
            measured_load_pct: absolute, // irrelevant for PAS
            measured_absolute_pct: absolute,
        };
        pas.on_accounting(&mut ctx);
    }

    #[test]
    fn underload_lowers_freq_and_raises_caps() {
        let (mut pas, mut cpu) = setup();
        // Three ticks at 20% absolute load (V20 active, V70 lazy).
        for _ in 0..3 {
            tick(&mut pas, &mut cpu, 20.0);
        }
        assert_eq!(cpu.pstate(), cpu.pstates().min_idx(), "scaled to 1600 MHz");
        let cap = pas.effective_cap(VmId(0)).unwrap();
        // Paper Figure 9: V20 is granted ~33% at 1600 MHz.
        assert!((cap * 100.0 - 33.0).abs() < 1.5, "cap {}%", cap * 100.0);
        let cap70 = pas.effective_cap(VmId(1)).unwrap();
        assert!(
            cap70 > 0.70,
            "V70's limit also raised (meaningless while lazy)"
        );
    }

    #[test]
    fn high_load_restores_initial_credits() {
        let (mut pas, mut cpu) = setup();
        for _ in 0..3 {
            tick(&mut pas, &mut cpu, 20.0);
        }
        // V70 wakes up: absolute load jumps to 90%.
        for _ in 0..5 {
            tick(&mut pas, &mut cpu, 90.0);
        }
        assert_eq!(cpu.pstate(), cpu.pstates().max_idx());
        let cap = pas.effective_cap(VmId(0)).unwrap();
        assert!((cap - 0.20).abs() < 1e-6, "back to the booked 20%");
    }

    #[test]
    fn compensated_capacity_is_invariant() {
        // The PAS invariant: cap · ratio · cf == booked credit at every
        // stabilized operating point.
        let (mut pas, mut cpu) = setup();
        for target in [10.0, 35.0, 55.0, 75.0, 95.0] {
            for _ in 0..5 {
                tick(&mut pas, &mut cpu, target);
            }
            let table = cpu.pstates();
            let ratio = table.ratio(cpu.pstate());
            let cf = table.cf(cpu.pstate());
            let cap = pas.effective_cap(VmId(0)).unwrap();
            let granted_absolute = cap * 100.0 * ratio * cf;
            assert!(
                (granted_absolute - 20.0).abs() < 0.5,
                "at absolute load {target}: granted {granted_absolute}% != 20%"
            );
        }
    }

    #[test]
    fn cap_never_exceeds_wall_clock() {
        let (mut pas, mut cpu) = setup();
        for _ in 0..5 {
            tick(&mut pas, &mut cpu, 5.0);
        }
        // V70's compensated credit is 70/0.6 ≈ 117% → clamped to 100%.
        let cap70 = pas.effective_cap(VmId(1)).unwrap();
        assert!(cap70 <= 1.0);
    }

    #[test]
    fn dispatch_delegates_to_credit() {
        let (mut pas, _cpu) = setup();
        let p = pas.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]);
        assert!(p.is_some());
        let slice = pas.max_slice(p.unwrap(), SimTime::ZERO);
        assert!(!slice.is_zero());
        pas.charge(p.unwrap(), slice);
    }

    #[test]
    fn event_recording_emits_only_cap_changes() {
        let (mut pas, mut cpu) = setup();
        // Off by default: ticks accumulate nothing.
        tick(&mut pas, &mut cpu, 20.0);
        assert!(pas.take_sched_events().is_empty());

        pas.set_event_recording(true);
        tick(&mut pas, &mut cpu, 20.0);
        let first = pas.take_sched_events();
        // First recorded tick emits every VM's current cap.
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].vm, VmId(0));
        assert!(first[0].cap_pct.is_some());

        // A stable operating point emits nothing further...
        let before = cpu.pstate();
        tick(&mut pas, &mut cpu, 20.0);
        if cpu.pstate() == before {
            assert!(pas.take_sched_events().is_empty());
        }
        // ...and a load change that moves the frequency re-emits caps.
        for _ in 0..5 {
            tick(&mut pas, &mut cpu, 90.0);
        }
        assert!(!pas.take_sched_events().is_empty());
    }

    #[test]
    fn event_recording_never_changes_decisions() {
        let run = |record: bool| {
            let (mut pas, mut cpu) = setup();
            pas.set_event_recording(record);
            for target in [20.0, 20.0, 55.0, 90.0, 35.0, 10.0] {
                tick(&mut pas, &mut cpu, target);
            }
            (
                cpu.pstate(),
                pas.effective_cap(VmId(0)),
                pas.effective_cap(VmId(1)),
            )
        };
        assert_eq!(run(true), run(false));
    }
}
