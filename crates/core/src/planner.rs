//! Listings 1.1 and 1.2 of the paper: the planner and the controller
//! every simulated host runs.
//!
//! `computeNewFreq` iterates the frequency ladder from the lowest
//! state upward and returns the first whose capacity
//! (`ratio_i · 100 · cf_i`) exceeds the absolute load;
//! `updateDvfsAndCredits` then rescales every VM's credit by
//! `1 / (ratio · cf)` (Equation 4) and applies the new frequency.
//!
//! [`FreqPlanner`] is side-effect free: the user-level controllers
//! ([`crate::controller`]) call it directly. [`PasDomain`] adds the
//! load smoother of one DVFS domain and is the whole per-tick PAS
//! decision of the `hypervisor` crate's single-core, multi-core and
//! SMT hosts: each host refills its Credit runqueues, asks its domain
//! for a P-state and a cap per VM, and applies them itself.

use cpumodel::{PStateIdx, PStateTable};

use crate::equations::{capacity_percent, compensated_credit, Credit};
use crate::smoothing::MovingAverage;

/// The measured load, in percent of wall time, at which
/// [`FreqPlanner::target_pstate`] treats the processor as saturated.
const SATURATED_LOAD_PCT: f64 = 99.0;

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
    // Each state's `capacity_percent`, in ladder order: a pure
    // function of the ladder, which never changes after `new`.
    capacities: Vec<f64>,
    headroom_pct: f64,
}

impl FreqPlanner {
    /// Creates a planner over a DVFS ladder with no capacity headroom
    /// (the paper's Listing 1.1 uses a strict `>` test and no margin).
    #[must_use]
    pub fn new(table: PStateTable) -> Self {
        let capacities = table
            .indices()
            .map(|idx| capacity_percent(table.ratio(idx), table.cf(idx)))
            .collect();
        FreqPlanner {
            table,
            capacities,
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
        for (idx, &cap) in self.table.indices().zip(&self.capacities) {
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
}

/// The PAS controller of one DVFS domain: its [`FreqPlanner`] and the
/// [`MovingAverage`] that smooths its absolute load (footnote 5).
///
/// On every accounting tick a host calls [`retarget`](Self::retarget)
/// once for the domain, then [`cap`](Self::cap) for each VM in it, and
/// writes the caps and the P-state itself. The crate-level
/// quickstart runs one through three ticks.
#[derive(Debug, Clone)]
pub struct PasDomain {
    planner: FreqPlanner,
    smoother: MovingAverage,
}

impl PasDomain {
    /// The paper's controller over a DVFS ladder: 3-sample smoothing
    /// and no headroom.
    #[must_use]
    pub fn new(table: PStateTable) -> Self {
        PasDomain {
            planner: FreqPlanner::new(table),
            smoother: MovingAverage::paper_default(),
        }
    }

    /// Overrides the smoothing window (ablation hook).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn with_smoothing_window(mut self, window: usize) -> Self {
        self.smoother = MovingAverage::new(window);
        self
    }

    /// Overrides the planner headroom (ablation hook; see
    /// [`FreqPlanner::with_headroom`]).
    ///
    /// # Panics
    ///
    /// Panics if `headroom_pct` is negative or not finite.
    #[must_use]
    pub fn with_headroom(mut self, headroom_pct: f64) -> Self {
        self.planner = self.planner.with_headroom(headroom_pct);
        self
    }

    /// Listing 1.2's frequency half: smooths the window's absolute
    /// load (percent of the fmax capacity) and returns
    /// [`FreqPlanner::target_pstate`] for it, given the window's
    /// measured load `load_pct` (percent of wall time) at P-state
    /// `current`.
    ///
    /// # Panics
    ///
    /// Panics if the smoothed load is negative or not finite.
    pub fn retarget(&mut self, absolute_pct: f64, load_pct: f64, current: PStateIdx) -> PStateIdx {
        let smoothed = self.smoother.push(absolute_pct);
        self.planner.target_pstate(smoothed, load_pct, current)
    }

    /// Listing 1.2's credit half: the Equation 4 cap, as a fraction of
    /// wall time (`None` = uncapped), that gives a VM `booked` at
    /// P-state `target`. Above 1 when the booking exceeds the state's
    /// capacity; the scheduler clamps it.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for the ladder.
    #[must_use]
    pub fn cap(&self, booked: Credit, target: PStateIdx) -> Option<f64> {
        self.planner.compensate(booked, target).as_cap()
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

    /// One unsmoothed PAS decision at `load`: the P-state Listing 1.1
    /// picks and each booking's Equation 4 cap there.
    fn plan(bookings: &[Credit], load: f64) -> (PStateIdx, Vec<Option<f64>>) {
        let mut pas = PasDomain::new(ladder()).with_smoothing_window(1);
        let target = pas.retarget(load, load, ladder().max_idx());
        (
            target,
            bookings.iter().map(|&c| pas.cap(c, target)).collect(),
        )
    }

    #[test]
    fn plan_compensates_all_vms() {
        let (pstate, caps) = plan(&[Credit::percent(20.0), Credit::percent(70.0)], 20.0);
        assert_eq!(pstate, PStateIdx(0));
        let ratio = 1600.0 / 2667.0;
        let cf = ladder().cf(PStateIdx(0));
        assert!((caps[0].unwrap() - 0.20 / (ratio * cf)).abs() < 1e-9);
        assert!((caps[1].unwrap() - 0.70 / (ratio * cf)).abs() < 1e-9);
        // Paper Figure 9: V20 gets ~33% at 1600 MHz.
        assert!((caps[0].unwrap() - 0.33).abs() < 0.01);
    }

    #[test]
    fn plan_at_fmax_is_identity() {
        let (pstate, caps) = plan(&[Credit::percent(20.0), Credit::percent(70.0)], 95.0);
        assert_eq!(pstate, ladder().max_idx());
        for (got, want) in caps.into_iter().zip([0.20, 0.70]) {
            assert!((got.unwrap() - want).abs() < 1e-9);
        }
    }

    #[test]
    fn uncapped_vm_stays_uncapped() {
        assert_eq!(plan(&[Credit::ZERO], 10.0).1, [None]);
    }

    /// `retarget` at a steady absolute load, `ticks` times, threading
    /// the P-state as a host does.
    fn settle(
        pas: &mut PasDomain,
        mut pstate: PStateIdx,
        absolute: f64,
        ticks: usize,
    ) -> PStateIdx {
        for _ in 0..ticks {
            pstate = pas.retarget(absolute, absolute, pstate);
        }
        pstate
    }

    #[test]
    fn underload_lowers_freq_and_raises_caps() {
        let mut pas = PasDomain::new(ladder());
        // Three ticks at 20% absolute load (V20 active, V70 lazy).
        let pstate = settle(&mut pas, ladder().max_idx(), 20.0, 3);
        assert_eq!(pstate, ladder().min_idx(), "scaled to 1600 MHz");
        // Paper Figure 9: V20 is granted ~33% at 1600 MHz.
        let cap = pas.cap(Credit::percent(20.0), pstate).unwrap();
        assert!((cap * 100.0 - 33.0).abs() < 1.5, "cap {}%", cap * 100.0);
        let cap70 = pas.cap(Credit::percent(70.0), pstate).unwrap();
        assert!(
            cap70 > 0.70,
            "V70's limit also raised (meaningless while lazy)"
        );
    }

    #[test]
    fn high_load_restores_initial_credits() {
        let mut pas = PasDomain::new(ladder());
        let low = settle(&mut pas, ladder().max_idx(), 20.0, 3);
        // V70 wakes up: absolute load jumps to 90%.
        let pstate = settle(&mut pas, low, 90.0, 5);
        assert_eq!(pstate, ladder().max_idx());
        let cap = pas.cap(Credit::percent(20.0), pstate).unwrap();
        assert!((cap - 0.20).abs() < 1e-6, "back to the booked 20%");
    }

    #[test]
    fn compensated_capacity_is_invariant() {
        // The PAS invariant: cap · ratio · cf == booked credit at every
        // stabilized operating point.
        let table = ladder();
        let mut pas = PasDomain::new(table.clone());
        let mut pstate = table.max_idx();
        for target in [10.0, 35.0, 55.0, 75.0, 95.0] {
            pstate = settle(&mut pas, pstate, target, 5);
            let cap = pas.cap(Credit::percent(20.0), pstate).unwrap();
            let granted_absolute = cap * 100.0 * table.ratio(pstate) * table.cf(pstate);
            assert!(
                (granted_absolute - 20.0).abs() < 0.5,
                "at absolute load {target}: granted {granted_absolute}% != 20%"
            );
        }
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
