//! Listings 1.1 and 1.2 of the paper, as a pure planner.
//!
//! `computeNewFreq` iterates the frequency ladder from the lowest
//! state upward and returns the first whose capacity
//! (`ratio_i · 100 · cf_i`) exceeds the absolute load;
//! `updateDvfsAndCredits` then rescales every VM's credit by
//! `1 / (ratio · cf)` (Equation 4) and applies the new frequency.
//!
//! The planner is deliberately side-effect free: the in-scheduler PAS
//! implementation (`hypervisor::sched::pas`), the user-level
//! controllers ([`crate::controller`]) and the cgroup shim all call
//! the same two functions and differ only in how they *apply* the
//! returned [`CreditPlan`]. PAS on the single-core, multi-core and
//! SMT hosts of the `hypervisor` crate takes its frequency from one
//! method, [`FreqPlanner::target_pstate`].

use cpumodel::{PStateIdx, PStateTable};

use crate::equations::{capacity_percent, compensated_credit, Credit};

/// The measured load, in percent of wall time, at which
/// [`FreqPlanner::target_pstate`] treats the processor as saturated.
const SATURATED_LOAD_PCT: f64 = 99.0;

/// The outcome of one `updateDvfsAndCredits` pass: the frequency to
/// apply and the per-VM compensated credits (same order as the input).
#[derive(Debug, Clone, PartialEq)]
pub struct CreditPlan {
    /// P-state to switch the processor to.
    pub pstate: PStateIdx,
    /// Compensated credit for every VM, in input order.
    pub credits: Vec<Credit>,
}

/// The PAS frequency/credit planner (Listings 1.1 + 1.2).
///
/// # Example
///
/// ```
/// use cpumodel::machines;
/// use pas_core::{Credit, FreqPlanner};
///
/// let table = machines::optiplex_755().pstate_table();
/// let planner = FreqPlanner::new(table.clone());
/// // 90% absolute load fits only at the top frequency:
/// assert_eq!(planner.compute_new_freq(90.0), table.max_idx());
/// // 10% fits at the bottom one:
/// assert_eq!(planner.compute_new_freq(10.0), table.min_idx());
/// ```
#[derive(Debug, Clone)]
pub struct FreqPlanner {
    table: PStateTable,
    headroom_pct: f64,
}

impl FreqPlanner {
    /// Creates a planner over a DVFS ladder with no capacity headroom
    /// (the paper's Listing 1.1 uses a strict `>` test and no margin).
    #[must_use]
    pub fn new(table: PStateTable) -> Self {
        FreqPlanner {
            table,
            headroom_pct: 0.0,
        }
    }

    /// Adds a safety margin: a state is only eligible if its capacity
    /// exceeds the absolute load by at least `headroom_pct` points.
    /// Useful to damp oscillation when the measured load is noisy.
    ///
    /// # Panics
    ///
    /// Panics if `headroom_pct` is negative or not finite.
    #[must_use]
    pub fn with_headroom(mut self, headroom_pct: f64) -> Self {
        assert!(
            headroom_pct.is_finite() && headroom_pct >= 0.0,
            "invalid headroom {headroom_pct}"
        );
        self.headroom_pct = headroom_pct;
        self
    }

    /// The DVFS ladder this planner works over.
    #[must_use]
    pub fn table(&self) -> &PStateTable {
        &self.table
    }

    /// **Listing 1.1** — the lowest P-state whose computing capacity
    /// can absorb `absolute_load` (percent of the fmax capacity), or
    /// the maximum state if none can.
    ///
    /// # Panics
    ///
    /// Panics if `absolute_load` is negative or not finite.
    #[must_use]
    pub fn compute_new_freq(&self, absolute_load: f64) -> PStateIdx {
        assert!(
            absolute_load.is_finite() && absolute_load >= 0.0,
            "invalid absolute load {absolute_load}"
        );
        for idx in self.table.indices() {
            let cap = capacity_percent(self.table.ratio(idx), self.table.cf(idx));
            if cap > absolute_load + self.headroom_pct {
                return idx;
            }
        }
        self.table.max_idx()
    }

    /// Listing 1.1 plus the **saturation bump**: the P-state to apply
    /// after an accounting window whose smoothed absolute load was
    /// `absolute_load` (percent of the fmax capacity) and whose
    /// measured load was `load_pct` (percent of wall time) at P-state
    /// `current`.
    ///
    /// A pegged processor measures an absolute load bounded by the
    /// current state's capacity, so Listing 1.1 alone would keep a
    /// saturated CPU at a low frequency forever. While the load is at
    /// least 99 %, climb one state per window instead of staying put
    /// or descending, as the stock ondemand governor's jump rule does.
    ///
    /// # Panics
    ///
    /// Panics if `absolute_load` is negative or not finite.
    #[must_use]
    pub fn target_pstate(
        &self,
        absolute_load: f64,
        load_pct: f64,
        current: PStateIdx,
    ) -> PStateIdx {
        let target = self.compute_new_freq(absolute_load);
        if load_pct >= SATURATED_LOAD_PCT && target <= current {
            PStateIdx((current.0 + 1).min(self.table.max_idx().0))
        } else {
            target
        }
    }

    /// Equation 4 for a single VM at P-state `pstate`.
    ///
    /// # Panics
    ///
    /// Panics if `pstate` is out of range for this ladder.
    #[must_use]
    pub fn compensate(&self, c_init: Credit, pstate: PStateIdx) -> Credit {
        compensated_credit(c_init, self.table.ratio(pstate), self.table.cf(pstate))
    }

    /// **Listing 1.2** — picks the new frequency for `absolute_load`
    /// and compensates every VM's *initial* credit for it.
    ///
    /// Note the paper's remark: at low frequency the credit sum may
    /// exceed 100%; that is intentional (lazy VMs will not use their
    /// raised limit, and if they do the load rises and the next tick
    /// raises the frequency again).
    ///
    /// # Panics
    ///
    /// Panics if `absolute_load` is negative or not finite.
    #[must_use]
    pub fn plan(&self, initial_credits: &[Credit], absolute_load: f64) -> CreditPlan {
        let pstate = self.compute_new_freq(absolute_load);
        let credits = initial_credits
            .iter()
            .map(|&c| self.compensate(c, pstate))
            .collect();
        CreditPlan { pstate, credits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpumodel::{machines, CfModel, Frequency};

    fn ladder() -> PStateTable {
        machines::optiplex_755().pstate_table()
    }

    #[test]
    fn low_load_picks_min_freq() {
        let p = FreqPlanner::new(ladder());
        assert_eq!(p.compute_new_freq(0.0), PStateIdx(0));
        assert_eq!(p.compute_new_freq(30.0), PStateIdx(0));
    }

    #[test]
    fn high_load_picks_max_freq() {
        let p = FreqPlanner::new(ladder());
        let t = ladder();
        assert_eq!(p.compute_new_freq(99.0), t.max_idx());
        assert_eq!(
            p.compute_new_freq(150.0),
            t.max_idx(),
            "overload clamps to fmax"
        );
    }

    #[test]
    fn intermediate_loads_walk_the_ladder() {
        let p = FreqPlanner::new(ladder());
        // Optiplex capacities (cf≈1): 60%, 70%, 80%, 90%, 100%.
        let mut last = PStateIdx(0);
        for load in [55.0, 65.0, 75.0, 85.0, 95.0] {
            let idx = p.compute_new_freq(load);
            assert!(idx >= last, "monotone in load");
            last = idx;
        }
        assert_eq!(last, ladder().max_idx());
    }

    #[test]
    fn planner_is_monotone_in_load() {
        let p = FreqPlanner::new(ladder());
        let mut prev = PStateIdx(0);
        for load in (0..=120).map(f64::from) {
            let idx = p.compute_new_freq(load);
            assert!(idx >= prev);
            prev = idx;
        }
    }

    #[test]
    fn headroom_raises_choice() {
        let base = FreqPlanner::new(ladder());
        let careful = FreqPlanner::new(ladder()).with_headroom(10.0);
        // 55% load: base stays at 1600 MHz (60% capacity), headroom
        // version needs 65% capacity and picks 1867.
        assert_eq!(base.compute_new_freq(55.0), PStateIdx(0));
        assert_eq!(careful.compute_new_freq(55.0), PStateIdx(1));
    }

    #[test]
    fn plan_compensates_all_vms() {
        let p = FreqPlanner::new(ladder());
        let plan = p.plan(&[Credit::percent(20.0), Credit::percent(70.0)], 20.0);
        assert_eq!(plan.pstate, PStateIdx(0));
        let ratio = 1600.0 / 2667.0;
        let cf = ladder().cf(PStateIdx(0));
        assert!((plan.credits[0].as_percent() - 20.0 / (ratio * cf)).abs() < 1e-9);
        assert!((plan.credits[1].as_percent() - 70.0 / (ratio * cf)).abs() < 1e-9);
        // Paper Figure 9: V20 gets ~33% at 1600 MHz.
        assert!((plan.credits[0].as_percent() - 33.0).abs() < 1.0);
    }

    #[test]
    fn plan_at_fmax_is_identity() {
        let p = FreqPlanner::new(ladder());
        let init = [Credit::percent(20.0), Credit::percent(70.0)];
        let plan = p.plan(&init, 95.0);
        assert_eq!(plan.pstate, ladder().max_idx());
        for (got, want) in plan.credits.iter().zip(init) {
            assert!((got.as_percent() - want.as_percent()).abs() < 1e-9);
        }
    }

    #[test]
    fn uncapped_vm_stays_uncapped() {
        let p = FreqPlanner::new(ladder());
        let plan = p.plan(&[Credit::ZERO], 10.0);
        assert!(plan.credits[0].is_uncapped());
    }

    #[test]
    fn cf_below_one_requires_higher_freq() {
        // A machine with a strong beta penalty has less capacity at
        // low frequency than the ratio suggests.
        let t = PStateTable::from_frequencies(
            [1000, 2000].map(Frequency::mhz),
            &CfModel::microarch(0.0, 0.3),
        )
        .unwrap();
        let p = FreqPlanner::new(t.clone());
        // Capacity at min state = 50 * cf < 50 → a 45% load may not fit.
        let cap_min = capacity_percent(t.ratio(PStateIdx(0)), t.cf(PStateIdx(0)));
        assert!(cap_min < 45.0);
        assert_eq!(p.compute_new_freq(45.0), t.max_idx());
    }
}
