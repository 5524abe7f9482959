//! Property tests on the paper's equations (pas-core): the algebra of
//! Section 4.2 must hold for arbitrary operating points, not just the
//! Optiplex ladder.

use cpumodel::PStateIdx;
use pas_core::equations::{
    absolute_load, capacity_percent, compensated_credit, load_at_ratio, time_at_ratio,
    time_with_credit,
};
use pas_core::{Credit, FreqPlanner, MovingAverage};
use proptest::prelude::*;

fn ratios() -> impl Strategy<Value = f64> {
    0.1f64..=1.0
}

fn cfs() -> impl Strategy<Value = f64> {
    0.75f64..=1.05
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Equation 1 round-trip: projecting a load to fmax and back is
    /// the identity.
    #[test]
    fn eq1_round_trips(load in 0.0f64..=100.0, r in ratios(), cf in cfs()) {
        let abs = absolute_load(load, r, cf);
        let back = load_at_ratio(abs, r, cf);
        prop_assert!((back - load).abs() < 1e-9 * load.max(1.0), "{back} vs {load}");
    }

    /// Equation 2: execution time scales by exactly 1/(ratio·cf), so
    /// time at fmax is recovered by multiplying back.
    #[test]
    fn eq2_scales_time(t_max in 0.001f64..1e4, r in ratios(), cf in cfs()) {
        let t_i = time_at_ratio(t_max, r, cf);
        prop_assert!(t_i >= t_max * 0.9, "slower frequency must not speed the job up much");
        prop_assert!((t_i * r * cf - t_max).abs() < 1e-9 * t_max, "Eq.2 algebra");
    }

    /// Equation 3: doubling the credit halves the time; the general
    /// form is exact inverse proportionality.
    #[test]
    fn eq3_credit_time_inverse(t in 0.001f64..1e4, c0 in 1.0f64..=100.0, c1 in 1.0f64..=100.0) {
        let t1 = time_with_credit(t, Credit::percent(c0), Credit::percent(c1));
        prop_assert!((t1 * c1 - t * c0).abs() < 1e-6 * (t * c0), "T·C invariant");
    }

    /// Equation 4 composed with the capacity it buys is the identity:
    /// the compensated credit delivers exactly the booked absolute
    /// capacity (when no clamping applies).
    #[test]
    fn eq4_preserves_absolute_capacity(c in 1.0f64..=60.0, r in ratios(), cf in cfs()) {
        let booked = Credit::percent(c);
        let comp = compensated_credit(booked, r, cf);
        prop_assume!(comp.as_percent() <= 100.0); // no wall-clock clamp
        let delivered = comp.as_percent() * r * cf;
        prop_assert!((delivered - c).abs() < 1e-9 * c, "{delivered} vs booked {c}");
    }

    /// Equation 4 is antitone in frequency: lower ratios yield larger
    /// compensated credits.
    #[test]
    fn eq4_antitone_in_ratio(c in 1.0f64..=60.0, cf in cfs()) {
        let booked = Credit::percent(c);
        let mut prev = 0.0;
        for step in (2..=10).rev() {
            let r = step as f64 / 10.0;
            let comp = compensated_credit(booked, r, cf).as_percent();
            prop_assert!(comp >= prev - 1e-12, "credit must grow as frequency falls");
            prev = comp;
        }
    }

    /// `capacity_percent` is exactly the break-even load for Listing
    /// 1.1: any absolute load strictly below it fits, anything above
    /// does not.
    #[test]
    fn capacity_is_the_planning_threshold(r in ratios(), cf in cfs()) {
        let cap = capacity_percent(r, cf);
        prop_assert!((cap - 100.0 * r * cf).abs() < 1e-9);
    }

    /// The moving average lies within the sample range, converges to a
    /// constant input, and a window of 1 is the identity.
    #[test]
    fn moving_average_behaviour(samples in proptest::collection::vec(0.0f64..=100.0, 1..50)) {
        let mut ma = MovingAverage::new(3);
        let mut last = 0.0;
        for &s in &samples {
            last = ma.push(s);
        }
        let lo = samples.iter().rev().take(3).cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().rev().take(3).cloned().fold(0.0f64, f64::max);
        prop_assert!(last >= lo - 1e-12 && last <= hi + 1e-12, "{last} outside [{lo},{hi}]");

        let mut id = MovingAverage::new(1);
        for &s in &samples {
            prop_assert_eq!(id.push(s), s, "window 1 is the identity");
        }

        let mut conv = MovingAverage::new(5);
        let mut out = 0.0;
        for _ in 0..10 {
            out = conv.push(42.0);
        }
        prop_assert!((out - 42.0).abs() < 1e-12);
    }

    /// The planner always returns a ladder state, the chosen state
    /// absorbs the load whenever any state can, and the choice is
    /// monotone in the load.
    #[test]
    fn planner_is_sound_and_monotone(loads in proptest::collection::vec(0.0f64..=120.0, 1..20)) {
        let table = cpumodel::machines::optiplex_755().pstate_table();
        let planner = FreqPlanner::new(table.clone());
        let mut sorted = loads.clone();
        sorted.sort_by(f64::total_cmp);
        let picks: Vec<_> = sorted.iter().map(|&l| planner.compute_new_freq(l)).collect();
        prop_assert!(picks.windows(2).all(|w| w[0] <= w[1]), "monotone in load");
        for (&l, &p) in sorted.iter().zip(&picks) {
            prop_assert!(p <= table.max_idx());
            let cap = capacity_percent(table.ratio(p), table.cf(p));
            if p < table.max_idx() {
                prop_assert!(cap > l, "chosen state must absorb the load");
            }
        }
    }
}

/// Listing 1.1 plus the saturation bump as the single-core PAS
/// scheduler wrote it before the rule moved into
/// [`FreqPlanner::target_pstate`]: the reference the planner method is
/// pinned against.
fn single_core_target(
    planner: &FreqPlanner,
    absolute: f64,
    load_pct: f64,
    current: PStateIdx,
) -> PStateIdx {
    let mut target = planner.compute_new_freq(absolute);
    if load_pct >= 99.0 && target <= current {
        let table = planner.table();
        target = PStateIdx((current.0 + 1).min(table.max_idx().0));
    }
    target
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FreqPlanner::target_pstate` picks the P-state the single-core
    /// PAS rule picked, for any load (exactly at the 99 % saturation
    /// threshold too), from every P-state, with a few headrooms.
    #[test]
    fn target_pstate_matches_the_single_core_rule(
        absolute in 0.0f64..=120.0,
        load in 0.0f64..=100.0,
        at_threshold in any::<bool>(),
        headroom in (0usize..4).prop_map(|i| [0.0, 2.5, 10.0, 25.0][i]),
    ) {
        let table = cpumodel::machines::optiplex_755().pstate_table();
        let planner = FreqPlanner::new(table.clone()).with_headroom(headroom);
        let load = if at_threshold { 99.0 } else { load };
        for current in table.indices() {
            prop_assert_eq!(
                planner.target_pstate(absolute, load, current),
                single_core_target(&planner, absolute, load, current)
            );
        }
    }
}
