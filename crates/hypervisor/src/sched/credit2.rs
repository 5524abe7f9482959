//! The Xen Credit2 scheduler (the "updated version of Credit …
//! currently available in a beta version" the paper mentions in
//! Section 3.1 and sets aside).
//!
//! We include it as an additional baseline because its behaviour class
//! matters for the paper's taxonomy: Credit2 (as of Xen 4.1) has
//! weights but **no caps**, so it is a *variable-credit* scheduler —
//! it exhibits the Scenario 2 pathology (prevents frequency scaling
//! under thrashing), not Scenario 1.
//!
//! Faithful at the policy level: each vCPU burns credit at a rate
//! inversely proportional to its weight; the runnable vCPU with the
//! most credit runs next; when the leader's credit is exhausted,
//! everyone's credit is reset. That yields long-run CPU shares
//! proportional to weights, work-conservingly.

use simkernel::{SimDuration, SimTime};

use crate::sched::Scheduler;
use crate::vm::{Priority, VmConfig, VmId};

const CREDIT_INIT_US: i64 = 10_000; // Xen's CSCHED2_CREDIT_INIT scale

#[derive(Debug, Clone)]
struct VmCredit2 {
    weight: u32,
    priority: Priority,
    credit_us: i64,
}

/// The Credit2 scheduler: weighted fair, work conserving, no caps.
///
/// # Example
///
/// ```
/// use hypervisor::sched::{Credit2Scheduler, Scheduler};
/// use hypervisor::vm::{VmConfig, VmId};
/// use pas_core::Credit;
/// use simkernel::SimTime;
///
/// let mut s = Credit2Scheduler::new();
/// s.on_vm_added(VmId(0), &VmConfig::new("a", Credit::percent(20.0)));
/// assert_eq!(s.effective_cap(VmId(0)), None, "no caps: variable credit");
/// assert_eq!(s.pick_next(SimTime::ZERO, &[VmId(0)]), Some(VmId(0)));
/// ```
#[derive(Debug, Default)]
pub struct Credit2Scheduler {
    // Indexed by `VmId.0`, which the host hands out densely.
    vms: Vec<VmCredit2>,
    max_weight: u32,
}

impl Credit2Scheduler {
    /// An empty Credit2 scheduler.
    #[must_use]
    pub fn new() -> Self {
        Credit2Scheduler::default()
    }

    #[inline]
    fn entry(&self, id: VmId) -> &VmCredit2 {
        &self.vms[id.0]
    }

    fn reset_credits(&mut self) {
        for vm in &mut self.vms {
            vm.credit_us = (vm.credit_us + CREDIT_INIT_US).min(CREDIT_INIT_US);
        }
    }
}

impl Scheduler for Credit2Scheduler {
    fn name(&self) -> &'static str {
        "credit2"
    }

    fn accounting_period(&self) -> SimDuration {
        SimDuration::from_millis(30)
    }

    fn on_vm_added(&mut self, id: VmId, cfg: &VmConfig) {
        assert_eq!(id.0, self.vms.len(), "VM ids must be dense");
        self.max_weight = self.max_weight.max(cfg.weight);
        self.vms.push(VmCredit2 {
            weight: cfg.weight,
            priority: cfg.priority,
            credit_us: CREDIT_INIT_US,
        });
    }

    fn on_accounting(&mut self, _now: SimTime) {
        // Credit2 resets on exhaustion (in pick_next), not on a period;
        // nothing to do here.
    }

    fn pick_next(&mut self, _now: SimTime, runnable: &[VmId]) -> Option<VmId> {
        if runnable.is_empty() {
            return None;
        }
        if let Some(&dom0) = runnable
            .iter()
            .find(|&&id| self.entry(id).priority == Priority::Dom0)
        {
            return Some(dom0);
        }
        let best = runnable
            .iter()
            .copied()
            .max_by_key(|&id| (self.entry(id).credit_us, std::cmp::Reverse(id.0)))?;
        if self.entry(best).credit_us <= 0 {
            self.reset_credits();
        }
        Some(best)
    }

    fn max_slice(&self, _vm: VmId, _now: SimTime) -> SimDuration {
        // Credit2 rate-limits context switches to ~1 ms minimum and
        // otherwise preempts on credit comparison; a 10 ms grain under
        // the host quantum is the behaviour the paper's timescale sees.
        SimDuration::from_millis(10)
    }

    fn charge(&mut self, vm: VmId, busy: SimDuration) {
        let max_weight = i64::from(self.max_weight.max(1));
        let entry = &mut self.vms[vm.0];
        // Burn inversely to weight: heavier VMs drain slower, so they
        // hold the "most credit" slot proportionally longer.
        let scaled = busy.as_micros() as i64 * max_weight / i64::from(entry.weight.max(1));
        entry.credit_us -= scaled;
    }

    fn effective_cap(&self, _vm: VmId) -> Option<f64> {
        None // no caps in Credit2 (the property that matters here)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::Credit;

    fn sched(weights: &[u32]) -> (Credit2Scheduler, Vec<VmId>) {
        let mut s = Credit2Scheduler::new();
        let ids: Vec<VmId> = (0..weights.len()).map(VmId).collect();
        for (i, &w) in weights.iter().enumerate() {
            s.on_vm_added(
                ids[i],
                &VmConfig::new(format!("vm{i}"), Credit::percent(f64::from(w))).with_weight(w),
            );
        }
        (s, ids)
    }

    /// Simulates `rounds` dispatch cycles of 1 ms each and returns the
    /// per-VM busy time.
    fn share_after(s: &mut Credit2Scheduler, ids: &[VmId], rounds: usize) -> Vec<f64> {
        let mut busy = vec![0.0; ids.len()];
        for _ in 0..rounds {
            let pick = s.pick_next(SimTime::ZERO, ids).expect("runnable");
            s.charge(pick, SimDuration::from_millis(1));
            busy[pick.0] += 1.0;
        }
        let total: f64 = busy.iter().sum();
        busy.iter().map(|b| b / total).collect()
    }

    #[test]
    fn equal_weights_share_equally() {
        let (mut s, ids) = sched(&[50, 50]);
        let shares = share_after(&mut s, &ids, 2000);
        assert!((shares[0] - 0.5).abs() < 0.05, "shares {shares:?}");
    }

    #[test]
    fn shares_proportional_to_weights() {
        let (mut s, ids) = sched(&[20, 70]);
        let shares = share_after(&mut s, &ids, 9000);
        assert!((shares[0] - 2.0 / 9.0).abs() < 0.05, "shares {shares:?}");
        assert!((shares[1] - 7.0 / 9.0).abs() < 0.05, "shares {shares:?}");
    }

    #[test]
    fn work_conserving_single_runnable() {
        let (mut s, ids) = sched(&[20, 70]);
        // Only vm0 runnable: it gets everything, regardless of weight.
        for _ in 0..100 {
            assert_eq!(s.pick_next(SimTime::ZERO, &ids[..1]), Some(ids[0]));
            s.charge(ids[0], SimDuration::from_millis(1));
        }
        assert_eq!(s.effective_cap(ids[0]), None);
    }

    #[test]
    fn dom0_has_absolute_priority() {
        let mut s = Credit2Scheduler::new();
        s.on_vm_added(VmId(0), &VmConfig::new("v", Credit::percent(90.0)));
        s.on_vm_added(VmId(1), &VmConfig::dom0());
        assert_eq!(
            s.pick_next(SimTime::ZERO, &[VmId(0), VmId(1)]),
            Some(VmId(1))
        );
    }

    #[test]
    fn credits_reset_instead_of_deadlocking() {
        let (mut s, ids) = sched(&[10]);
        for _ in 0..10_000 {
            let pick = s.pick_next(SimTime::ZERO, &ids);
            assert!(pick.is_some(), "always schedulable");
            s.charge(pick.unwrap(), SimDuration::from_millis(1));
        }
    }
}
