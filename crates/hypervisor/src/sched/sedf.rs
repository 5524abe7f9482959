//! The Xen SEDF scheduler (variable-credit configuration).
//!
//! Each VM is configured with the paper's `(s, p, b)` triplet: it is
//! guaranteed `s` units of CPU time in every period of length `p`,
//! scheduled EDF on the period deadlines; when no VM has guaranteed
//! time left, VMs with `b = true` share the leftover ("extra time")
//! round-robin. With `b = true` SEDF behaves as a **work-conserving /
//! variable credit** scheduler — the configuration of the paper's
//! Figures 6–8.

use simkernel::{SimDuration, SimTime};

use crate::sched::Scheduler;
use crate::vm::{Priority, SedfParams, VmConfig, VmId};

#[derive(Debug, Clone)]
struct VmSedf {
    params: SedfParams,
    priority: Priority,
    /// End of the current period (the EDF deadline).
    deadline: SimTime,
    /// Guaranteed time left in the current period.
    remaining: SimDuration,
    /// How `pick_next` last picked this VM; `None` before its first
    /// pick.
    mode: Option<PickMode>,
}

/// Which path the last `pick_next` used for a VM; determines whether
/// `charge` burns guaranteed or extra time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PickMode {
    Guaranteed,
    Extra,
}

/// The SEDF scheduler.
///
/// # Example
///
/// ```
/// use hypervisor::sched::{SedfScheduler, Scheduler};
/// use hypervisor::vm::{VmConfig, VmId};
/// use pas_core::Credit;
/// use simkernel::SimTime;
///
/// let mut s = SedfScheduler::new(true);
/// s.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
/// // Guaranteed 20% of each period:
/// assert_eq!(s.effective_cap(VmId(0)), None, "extra-time: work conserving");
/// assert_eq!(s.pick_next(SimTime::ZERO, &[VmId(0)]), Some(VmId(0)));
/// ```
#[derive(Debug)]
pub struct SedfScheduler {
    period: SimDuration,
    extra_default: bool,
    // Indexed by `VmId.0`, which the host hands out densely.
    vms: Vec<VmSedf>,
    rr_cursor: usize,
}

impl SedfScheduler {
    /// An SEDF scheduler with a 100 ms default period; `extra_default`
    /// sets the `b` flag for VMs whose config has no explicit triplet
    /// (`true` = variable credit, the paper's configuration).
    #[must_use]
    pub fn new(extra_default: bool) -> Self {
        Self::with_period(SimDuration::from_millis(100), extra_default)
    }

    /// Overrides the default period used to derive triplets from
    /// credits.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_period(period: SimDuration, extra_default: bool) -> Self {
        assert!(!period.is_zero(), "SEDF period must be non-zero");
        SedfScheduler {
            period,
            extra_default,
            vms: Vec::new(),
            rr_cursor: 0,
        }
    }

    #[inline]
    fn entry(&self, id: VmId) -> &VmSedf {
        &self.vms[id.0]
    }

    fn refresh(&mut self, now: SimTime) {
        for vm in &mut self.vms {
            while now >= vm.deadline {
                vm.deadline += vm.params.period;
                vm.remaining = vm.params.slice;
            }
        }
    }
}

impl Scheduler for SedfScheduler {
    fn name(&self) -> &'static str {
        "sedf"
    }

    fn accounting_period(&self) -> SimDuration {
        self.period
    }

    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig) {
        let params = cfg.sedf.unwrap_or_else(|| {
            SedfParams::from_credit(cfg.credit, self.period, self.extra_default)
        });
        assert_eq!(id.0, self.vms.len(), "VM ids must be dense");
        self.vms.push(VmSedf {
            params,
            priority: cfg.priority,
            deadline: SimTime::ZERO + params.period,
            remaining: params.slice,
            mode: None,
        });
    }

    fn on_accounting(&mut self, now: SimTime) {
        // SEDF needs no periodic bookkeeping beyond deadline refresh,
        // which happens lazily in pick_next; refresh here too so that
        // long idle gaps cannot leave deadlines stale.
        self.refresh(now);
    }

    fn pick_next(&mut self, now: SimTime, runnable: &[VmId]) -> Option<VmId> {
        self.refresh(now);
        // Dom0 runs first if it has guaranteed time (matching its
        // highest-priority configuration in the paper).
        if let Some(&dom0) = runnable.iter().find(|&&id| {
            let vm = self.entry(id);
            vm.priority == Priority::Dom0 && !vm.remaining.is_zero()
        }) {
            self.vms[dom0.0].mode = Some(PickMode::Guaranteed);
            return Some(dom0);
        }
        // EDF over VMs with guaranteed time left.
        let guaranteed = runnable
            .iter()
            .copied()
            .filter(|&id| !self.entry(id).remaining.is_zero())
            .min_by_key(|&id| (self.entry(id).deadline, id.0));
        if let Some(pick) = guaranteed {
            self.vms[pick.0].mode = Some(PickMode::Guaranteed);
            return Some(pick);
        }
        // Extra time: round-robin over runnable extra-eligible VMs.
        // Count-then-select keeps the scan allocation-free.
        let n_extra = runnable
            .iter()
            .filter(|&&id| self.entry(id).params.extra)
            .count();
        if n_extra == 0 {
            return None;
        }
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let pick = runnable
            .iter()
            .copied()
            .filter(|&id| self.entry(id).params.extra)
            .nth(self.rr_cursor % n_extra)
            .expect("extra candidate counted above");
        self.vms[pick.0].mode = Some(PickMode::Extra);
        Some(pick)
    }

    fn max_slice(&self, vm: VmId, now: SimTime) -> SimDuration {
        let entry = self.entry(vm);
        let to_deadline = entry.deadline.duration_since(now);
        match entry.mode {
            Some(PickMode::Guaranteed) => entry.remaining.min(to_deadline),
            // Extra time runs in small grains so guaranteed VMs can
            // preempt at the next decision point.
            _ => SimDuration::from_millis(10).min(to_deadline.max(SimDuration::from_millis(1))),
        }
    }

    fn charge(&mut self, vm: VmId, busy: SimDuration) {
        let entry = &mut self.vms[vm.0];
        if entry.mode == Some(PickMode::Guaranteed) {
            entry.remaining = entry.remaining.saturating_sub(busy);
        }
    }

    fn effective_cap(&self, vm: VmId) -> Option<f64> {
        let entry = self.entry(vm);
        if entry.params.extra {
            None // work conserving: no hard ceiling
        } else {
            Some(entry.params.slice.as_secs_f64() / entry.params.period.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::Credit;

    fn setup(extra: bool) -> SedfScheduler {
        let mut s = SedfScheduler::new(extra);
        s.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
        s.on_vm_added(VmId(1), &VmConfig::new("v70", Credit::percent(70.0)));
        s
    }

    #[test]
    fn guaranteed_time_respects_credit() {
        let s = setup(true);
        // After a fresh period, v20 may run 20 ms of the 100 ms period.
        assert_eq!(s.entry(VmId(0)).params.slice, SimDuration::from_millis(20));
        assert_eq!(s.entry(VmId(1)).params.slice, SimDuration::from_millis(70));
    }

    #[test]
    fn edf_picks_earliest_deadline() {
        let mut s = SedfScheduler::new(true);
        s.on_vm_added(
            VmId(0),
            &VmConfig::new("slow", Credit::percent(10.0)).with_sedf(SedfParams {
                slice: SimDuration::from_millis(20),
                period: SimDuration::from_millis(200),
                extra: true,
            }),
        );
        s.on_vm_added(
            VmId(1),
            &VmConfig::new("fast", Credit::percent(10.0)).with_sedf(SedfParams {
                slice: SimDuration::from_millis(5),
                period: SimDuration::from_millis(50),
                extra: true,
            }),
        );
        // fast's deadline (50 ms) precedes slow's (200 ms).
        assert_eq!(
            s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]),
            Some(VmId(1))
        );
    }

    #[test]
    fn extra_time_distributed_when_guarantees_exhausted() {
        let mut s = setup(true);
        // Exhaust both guarantees.
        s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]);
        s.charge(VmId(0), SimDuration::from_millis(20));
        s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]);
        s.charge(VmId(1), SimDuration::from_millis(70));
        // Both dry: extra time still hands out CPU (work conserving).
        let p = s.pick_next(SimTime::from_millis(90), &[VmId(0), VmId(1)]);
        assert!(p.is_some(), "work conserving");
    }

    #[test]
    fn no_extra_time_when_flag_false() {
        let mut s = setup(false);
        s.pick_next(SimTime::ZERO, &[VmId(0)]);
        s.charge(VmId(0), SimDuration::from_millis(20));
        assert_eq!(
            s.pick_next(SimTime::from_millis(50), &[VmId(0)]),
            None,
            "fix-credit SEDF idles once the slice is gone"
        );
        let cap = s.effective_cap(VmId(0)).expect("capped");
        assert!((cap - 0.2).abs() < 1e-9, "cap {cap}");
    }

    #[test]
    fn deadlines_roll_over() {
        let mut s = setup(true);
        s.pick_next(SimTime::ZERO, &[VmId(0)]);
        s.charge(VmId(0), SimDuration::from_millis(20)); // guarantee gone
                                                         // Next period: guarantee refreshed.
        let p = s.pick_next(SimTime::from_millis(100), &[VmId(0)]);
        assert_eq!(p, Some(VmId(0)));
        assert_eq!(
            s.max_slice(VmId(0), SimTime::from_millis(100)),
            SimDuration::from_millis(20)
        );
    }

    #[test]
    fn long_idle_gap_refreshes_many_periods() {
        let mut s = setup(true);
        let p = s.pick_next(SimTime::from_secs(10), &[VmId(0)]);
        assert_eq!(p, Some(VmId(0)));
        assert!(!s.entry(VmId(0)).remaining.is_zero());
        assert!(s.entry(VmId(0)).deadline > SimTime::from_secs(10));
    }

    #[test]
    fn extra_mode_uses_small_grains() {
        let mut s = setup(true);
        s.pick_next(SimTime::ZERO, &[VmId(0)]);
        s.charge(VmId(0), SimDuration::from_millis(20));
        // Re-pick in extra mode.
        let p = s.pick_next(SimTime::from_millis(95), &[VmId(0)]).unwrap();
        assert_eq!(p, VmId(0));
        let slice = s.max_slice(p, SimTime::from_millis(95));
        assert!(slice <= SimDuration::from_millis(10));
    }

    #[test]
    fn effective_cap_none_for_work_conserving() {
        let s = setup(true);
        assert_eq!(s.effective_cap(VmId(0)), None);
        assert_eq!(s.effective_cap(VmId(1)), None);
    }
}
