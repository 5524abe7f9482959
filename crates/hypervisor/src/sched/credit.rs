//! The Xen Credit scheduler (fix-credit configuration).
//!
//! Faithful to `xen/common/sched_credit.c` at the granularity the
//! paper exercises:
//!
//! * a 30 ms accounting period; credits are refilled proportionally to
//!   weight and burned by runtime, giving UNDER/OVER priorities;
//! * an optional **cap**: the hard ceiling on the wall-clock CPU-time
//!   fraction a VM may use per period, *independent of the processor
//!   frequency* — which is precisely the incompatibility of the
//!   paper's Scenario 1;
//! * a zero credit means no cap (the VM consumes idle slices like a
//!   variable-credit scheduler but with no guarantee — Section 3.1's
//!   special case);
//! * Dom0 runs at the highest priority.

use simkernel::{SimDuration, SimTime};

use crate::sched::Scheduler;
use crate::vm::{Priority, VmConfig, VmId};

#[derive(Debug, Clone)]
struct VmCredit {
    weight: u32,
    priority: Priority,
    /// `None` = uncapped.
    cap: Option<Cap>,
    /// Wall time consumed in the current period.
    used: SimDuration,
    /// Fairness credit in microseconds (refilled by weight, burned by
    /// runtime): positive = UNDER, negative = OVER.
    credit_us: i64,
    /// The credit each accounting tick refills, in microseconds: the
    /// period's share by weight. Set for every VM by `on_vm_added`,
    /// the only writer of any weight.
    share_us: i64,
}

/// A cap and the wall time it allows per accounting period.
#[derive(Debug, Clone, Copy)]
struct Cap {
    /// Fraction of wall time per period.
    fraction: f64,
    /// `period.mul_f64(fraction)`. Stored by [`Cap::new`], which every
    /// cap write goes through (`on_vm_added`, `set_cap`), so the
    /// eligibility test each pick runs per candidate reads it instead
    /// of recomputing it; the period never changes after construction.
    allowance: SimDuration,
}

impl Cap {
    fn new(period: SimDuration, fraction: f64) -> Self {
        Cap {
            fraction,
            allowance: period.mul_f64(fraction),
        }
    }
}

/// The Xen Credit scheduler.
///
/// # Example
///
/// ```
/// use hypervisor::sched::{CreditScheduler, Scheduler};
/// use hypervisor::vm::{VmConfig, VmId};
/// use pas_core::Credit;
/// use simkernel::SimTime;
///
/// let mut s = CreditScheduler::new();
/// s.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
/// let picked = s.pick_next(SimTime::ZERO, &[VmId(0)]);
/// assert_eq!(picked, Some(VmId(0)));
/// // A 20% cap on a 30 ms period allows 6 ms of runtime.
/// assert_eq!(s.max_slice(VmId(0), SimTime::ZERO).as_millis(), 6);
/// ```
#[derive(Debug)]
pub struct CreditScheduler {
    period: SimDuration,
    // Per-VM state indexed by `VmId.0`: every host hands its
    // schedulers dense ids (a multi-core or SMT runqueue numbers its
    // own VMs), and `pick_next` runs once per slice, so a flat `Vec`
    // beats hashing on the hot path.
    vms: Vec<VmCredit>,
    rr_cursor: usize,
}

impl Default for CreditScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl CreditScheduler {
    /// A Credit scheduler with Xen's 30 ms accounting period.
    #[must_use]
    pub fn new() -> Self {
        Self::with_period(SimDuration::from_millis(30))
    }

    /// A Credit scheduler with a custom accounting period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn with_period(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "accounting period must be non-zero");
        CreditScheduler {
            period,
            vms: Vec::new(),
            rr_cursor: 0,
        }
    }

    /// Overrides a VM's cap at run time — the knob PAS turns.
    /// `None` removes the cap. Fractions above `1.0` are clamped (a
    /// single core cannot give more than 100% of wall time; the paper
    /// notes the computed credit sum may exceed 100% and that the
    /// excess is meaningless for lazy VMs).
    ///
    /// # Panics
    ///
    /// Panics if the VM is unknown or the fraction is negative/NaN.
    pub fn set_cap(&mut self, vm: VmId, cap: Option<f64>) {
        let entry = self.vms.get_mut(vm.0).expect("set_cap on unknown VM");
        entry.cap = cap.map(|c| {
            assert!(c.is_finite() && c >= 0.0, "invalid cap {c}");
            Cap::new(self.period, c.min(1.0))
        });
    }

    /// The accounting period.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    #[inline]
    fn entry(&self, id: VmId) -> &VmCredit {
        &self.vms[id.0]
    }

    fn eligible(&self, id: VmId) -> bool {
        let vm = self.entry(id);
        vm.cap.is_none_or(|cap| vm.used < cap.allowance)
    }
}

impl Scheduler for CreditScheduler {
    fn name(&self) -> &'static str {
        "credit"
    }

    fn accounting_period(&self) -> SimDuration {
        self.period
    }

    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig) {
        assert_eq!(id.0, self.vms.len(), "VM ids must be dense");
        self.vms.push(VmCredit {
            weight: cfg.weight,
            priority: cfg.priority,
            cap: cfg.credit.as_cap().map(|c| Cap::new(self.period, c)),
            used: SimDuration::ZERO,
            credit_us: 0,
            share_us: 0,
        });
        // A new weight changes every VM's share of the period.
        let total_weight: u64 = self.vms.iter().map(|v| u64::from(v.weight)).sum();
        let period_us = self.period.as_micros() as i64;
        for vm in &mut self.vms {
            vm.share_us = period_us * i64::from(vm.weight) / total_weight.max(1) as i64;
        }
    }

    fn on_accounting(&mut self, _now: SimTime) {
        let period_us = self.period.as_micros() as i64;
        for vm in &mut self.vms {
            vm.used = SimDuration::ZERO;
            // Refill and clamp, as Xen does, so an idle VM cannot hoard
            // unbounded credit.
            vm.credit_us = (vm.credit_us + vm.share_us).clamp(-period_us, period_us);
        }
    }

    fn pick_next(&mut self, _now: SimTime, runnable: &[VmId]) -> Option<VmId> {
        // Dom0 first, then UNDER before OVER; round-robin within a
        // class via a rotating cursor for deterministic fairness.
        // Two passes over `runnable` keep this allocation-free: the
        // first classifies every eligible candidate (returning the
        // first Dom0 outright, as before), the second re-walks the
        // winning class to the rotated pick.
        let mut n_under = 0usize;
        let mut n_over = 0usize;
        for &id in runnable {
            if !self.eligible(id) {
                continue;
            }
            let vm = self.entry(id);
            if vm.priority == Priority::Dom0 {
                return Some(id);
            }
            if vm.credit_us > 0 {
                n_under += 1; // UNDER
            } else {
                n_over += 1; // OVER
            }
        }
        let (best_is_under, n_best) = if n_under > 0 {
            (true, n_under)
        } else if n_over > 0 {
            (false, n_over)
        } else {
            return None;
        };
        // Rotate through the class so equal-priority VMs interleave.
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let k = self.rr_cursor % n_best;
        let mut seen = 0usize;
        for &id in runnable {
            if !self.eligible(id) || (self.entry(id).credit_us > 0) != best_is_under {
                continue;
            }
            if seen == k {
                return Some(id);
            }
            seen += 1;
        }
        unreachable!("pick_next: candidate counted in the first pass vanished")
    }

    fn max_slice(&self, vm: VmId, _now: SimTime) -> SimDuration {
        let entry = self.entry(vm);
        match entry.cap {
            None => self.period,
            Some(cap) => cap.allowance.saturating_sub(entry.used),
        }
    }

    fn charge(&mut self, vm: VmId, busy: SimDuration) {
        let entry = &mut self.vms[vm.0];
        entry.used += busy;
        entry.credit_us -= busy.as_micros() as i64;
    }

    fn effective_cap(&self, vm: VmId) -> Option<f64> {
        self.entry(vm).cap.map(|cap| cap.fraction)
    }

    fn set_cap_external(&mut self, vm: VmId, cap: Option<f64>) -> bool {
        if vm.0 < self.vms.len() {
            self.set_cap(vm, cap);
            true
        } else {
            false
        }
    }

    fn runs_busy_periods(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::Credit;

    fn setup() -> CreditScheduler {
        let mut s = CreditScheduler::new();
        s.on_vm_added(VmId(0), &VmConfig::new("v20", Credit::percent(20.0)));
        s.on_vm_added(VmId(1), &VmConfig::new("v70", Credit::percent(70.0)));
        s
    }

    #[test]
    fn cap_limits_slice() {
        let s = setup();
        assert_eq!(
            s.max_slice(VmId(0), SimTime::ZERO),
            SimDuration::from_millis(6)
        );
        assert_eq!(
            s.max_slice(VmId(1), SimTime::ZERO),
            SimDuration::from_millis(21)
        );
    }

    #[test]
    fn exhausted_cap_makes_vm_ineligible() {
        let mut s = setup();
        s.charge(VmId(0), SimDuration::from_millis(6));
        let picked = s.pick_next(SimTime::ZERO, &[VmId(0)]);
        assert_eq!(picked, None, "v20 used its 6 ms");
        // v70 still eligible.
        assert_eq!(
            s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]),
            Some(VmId(1))
        );
    }

    #[test]
    fn accounting_resets_usage() {
        let mut s = setup();
        s.charge(VmId(0), SimDuration::from_millis(6));
        s.on_accounting(SimTime::from_millis(30));
        assert_eq!(
            s.max_slice(VmId(0), SimTime::ZERO),
            SimDuration::from_millis(6)
        );
        assert!(s.pick_next(SimTime::ZERO, &[VmId(0)]).is_some());
    }

    #[test]
    fn uncapped_vm_unlimited() {
        let mut s = CreditScheduler::new();
        s.on_vm_added(VmId(0), &VmConfig::new("free", Credit::ZERO));
        assert_eq!(s.effective_cap(VmId(0)), None);
        s.charge(VmId(0), SimDuration::from_millis(29));
        assert!(s.pick_next(SimTime::ZERO, &[VmId(0)]).is_some());
        assert_eq!(s.max_slice(VmId(0), SimTime::ZERO), s.period());
    }

    #[test]
    fn dom0_preempts() {
        let mut s = setup();
        s.on_vm_added(VmId(2), &VmConfig::dom0());
        let picked = s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1), VmId(2)]);
        assert_eq!(picked, Some(VmId(2)));
    }

    #[test]
    fn under_beats_over() {
        let mut s = setup();
        // The refill gives both positive credit; burn v70 into OVER.
        s.on_accounting(SimTime::ZERO);
        s.charge(VmId(1), SimDuration::from_millis(25));
        // Reset usage so caps don't interfere, keep credit burned.
        for vm in &mut s.vms {
            vm.used = SimDuration::ZERO;
        }
        for _ in 0..4 {
            assert_eq!(
                s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]),
                Some(VmId(0)),
                "UNDER vm always beats OVER vm"
            );
        }
    }

    #[test]
    fn round_robin_interleaves_equals() {
        let mut s = CreditScheduler::new();
        s.on_vm_added(VmId(0), &VmConfig::new("a", Credit::percent(50.0)));
        s.on_vm_added(VmId(1), &VmConfig::new("b", Credit::percent(50.0)));
        let mut seen = [0u32; 2];
        for _ in 0..10 {
            let p = s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]).unwrap();
            seen[p.0] += 1;
        }
        assert_eq!(seen, [5, 5], "perfect interleave for identical VMs");
    }

    #[test]
    fn set_cap_clamps_above_one() {
        let mut s = setup();
        s.set_cap(VmId(0), Some(1.25));
        assert_eq!(s.effective_cap(VmId(0)), Some(1.0));
        s.set_cap(VmId(0), None);
        assert_eq!(s.effective_cap(VmId(0)), None);
    }

    /// The allowance `set_cap` stores is the one computed from the cap
    /// on the spot: `max_slice` and the eligibility `pick_next` applies
    /// match `period.mul_f64(cap)` on both sides of the boundary.
    #[test]
    fn stored_allowance_matches_uncached_computation() {
        for period_ms in [30, 100] {
            let mut s = CreditScheduler::with_period(SimDuration::from_millis(period_ms));
            s.on_vm_added(VmId(0), &VmConfig::new("v", Credit::percent(20.0)));
            let used = SimDuration::from_micros(4_321);
            s.charge(VmId(0), used);
            for cap in [
                0.0,
                1e-7,
                0.0432,
                0.04321,
                0.144,
                0.1441,
                1.0 / 3.0,
                0.999_999,
                1.0,
                1.25,
            ] {
                s.set_cap(VmId(0), Some(cap));
                let allowance = s.period().mul_f64(cap.min(1.0));
                assert_eq!(
                    s.max_slice(VmId(0), SimTime::ZERO),
                    allowance.saturating_sub(used),
                    "cap {cap}, period {period_ms} ms"
                );
                assert_eq!(
                    s.pick_next(SimTime::ZERO, &[VmId(0)]).is_some(),
                    used < allowance,
                    "cap {cap}, period {period_ms} ms"
                );
            }
            s.set_cap(VmId(0), None);
            assert_eq!(s.max_slice(VmId(0), SimTime::ZERO), s.period());
            assert_eq!(s.pick_next(SimTime::ZERO, &[VmId(0)]), Some(VmId(0)));
        }
    }

    #[test]
    fn credit_clamped_at_period() {
        let mut s = setup();
        for i in 0..100 {
            s.on_accounting(SimTime::from_millis(30 * (i + 1)));
        }
        let period_us = s.period().as_micros() as i64;
        for vm in &s.vms {
            assert!(vm.credit_us <= period_us, "idle credit cannot hoard");
        }
    }

    #[test]
    #[should_panic(expected = "set_cap on unknown VM")]
    fn set_cap_unknown_vm_panics() {
        let mut s = CreditScheduler::new();
        s.set_cap(VmId(9), Some(0.5));
    }
}
