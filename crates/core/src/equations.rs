//! Equations 1–4 of the paper (Section 4.2), as pure functions.
//!
//! Notation (paper ↔ code):
//!
//! * `ratio_i = F_i / F_max` — `ratio`
//! * `cf_i` — `cf` (see [`cpumodel::CfModel`])
//! * loads are percentages of the processor (0–100)
//! * credits are percentages of the processor **at maximum frequency**
//!   (the SLA unit a customer buys), wrapped in [`Credit`]

use std::fmt;
use std::ops::{Add, Div, Mul};

use serde::{Deserialize, Serialize};

/// A CPU credit: a percentage of the processor's computing capacity
/// *at maximum frequency* (the paper's SLA unit).
///
/// Credits may legitimately exceed 100% after PAS compensation at a
/// low frequency — the paper notes "the sum of the VM credits may be
/// more than 100%". Negative credits are rejected.
///
/// # Example
///
/// ```
/// use pas_core::Credit;
/// let c = Credit::percent(20.0);
/// assert_eq!(c.as_percent(), 20.0);
/// assert!((c.as_fraction() - 0.2).abs() < 1e-12);
/// assert_eq!(format!("{c}"), "20.0%");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Credit(f64);

impl Credit {
    /// A zero credit (Xen semantics: *no cap*, i.e. a variable-credit
    /// VM; see the paper's Section 3.1 discussion of null credits).
    pub const ZERO: Credit = Credit(0.0);

    /// Creates a credit from a percentage.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is negative or not finite.
    #[must_use]
    pub fn percent(pct: f64) -> Self {
        assert!(pct.is_finite() && pct >= 0.0, "invalid credit {pct}%");
        Credit(pct)
    }

    /// Creates a credit from a fraction (`0.2` → 20%).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is negative or not finite.
    #[must_use]
    pub fn fraction(frac: f64) -> Self {
        Credit::percent(frac * 100.0)
    }

    /// This credit as a percentage.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0
    }

    /// This credit as a fraction of the processor.
    #[must_use]
    pub fn as_fraction(self) -> f64 {
        self.0 / 100.0
    }

    /// `true` for the zero credit (Xen's "no cap" marker).
    #[must_use]
    pub fn is_uncapped(self) -> bool {
        self.0 == 0.0
    }

    /// This credit as a scheduler cap: `None` when uncapped, otherwise
    /// the fraction of the processor.
    ///
    /// ```
    /// use pas_core::Credit;
    /// assert_eq!(Credit::ZERO.as_cap(), None);
    /// assert_eq!(Credit::percent(25.0).as_cap(), Some(0.25));
    /// ```
    #[must_use]
    pub fn as_cap(self) -> Option<f64> {
        (!self.is_uncapped()).then(|| self.as_fraction())
    }

    /// Clamps to at most `pct` percent (e.g. 100% of one core).
    #[must_use]
    pub fn clamped_to(self, pct: f64) -> Credit {
        Credit(self.0.min(pct))
    }
}

impl fmt::Display for Credit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0)
    }
}

impl Add for Credit {
    type Output = Credit;
    fn add(self, other: Credit) -> Credit {
        Credit(self.0 + other.0)
    }
}

impl Mul<f64> for Credit {
    type Output = Credit;
    fn mul(self, k: f64) -> Credit {
        Credit::percent(self.0 * k)
    }
}

impl Div<f64> for Credit {
    type Output = Credit;
    fn div(self, k: f64) -> Credit {
        Credit::percent(self.0 / k)
    }
}

fn check_ratio_cf(ratio: f64, cf: f64) {
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "frequency ratio {ratio} out of (0,1]"
    );
    assert!(cf > 0.0 && cf.is_finite(), "cf {cf} must be positive");
}

/// **Equation 1 (forward)** — the load a demand would impose at
/// maximum frequency, given the load `load_i` it imposes at ratio
/// `ratio` with factor `cf`:
/// `L_max = L_i · ratio · cf`.
///
/// This is exactly the paper's *absolute load* when `load_i` is the
/// measured global load at the current frequency.
///
/// # Panics
///
/// Panics if `ratio` is outside `(0, 1]` or `cf` is not positive.
#[must_use]
pub fn absolute_load(load_i: f64, ratio: f64, cf: f64) -> f64 {
    check_ratio_cf(ratio, cf);
    load_i * ratio * cf
}

/// **Equation 1 (inverse)** — the load observed at ratio `ratio` for a
/// demand whose load at maximum frequency is `load_max`:
/// `L_i = L_max / (ratio · cf)`.
///
/// # Panics
///
/// Panics if `ratio` is outside `(0, 1]` or `cf` is not positive.
#[must_use]
pub fn load_at_ratio(load_max: f64, ratio: f64, cf: f64) -> f64 {
    check_ratio_cf(ratio, cf);
    load_max / (ratio * cf)
}

/// **Equation 2** — execution time at ratio `ratio` of a job that
/// takes `t_max` at maximum frequency (same credit in both runs):
/// `T_i = T_max / (ratio · cf)`.
///
/// # Panics
///
/// Panics if `ratio` is outside `(0, 1]` or `cf` is not positive.
#[must_use]
pub fn time_at_ratio(t_max: f64, ratio: f64, cf: f64) -> f64 {
    check_ratio_cf(ratio, cf);
    t_max / (ratio * cf)
}

/// **Equation 3** — execution time after a credit change (same
/// frequency in both runs): `T_j = T_init · C_init / C_j`.
///
/// # Panics
///
/// Panics if either credit is zero (zero credit means *uncapped* in
/// Xen and has no proportionality semantics).
#[must_use]
pub fn time_with_credit(t_init: f64, c_init: Credit, c_j: Credit) -> f64 {
    assert!(
        !c_init.is_uncapped() && !c_j.is_uncapped(),
        "equation 3 needs non-zero credits"
    );
    t_init * c_init.as_percent() / c_j.as_percent()
}

/// **Equation 4** — the compensated credit that preserves a VM's
/// computing capacity when the processor runs at ratio `ratio`:
/// `C_j = C_init / (ratio · cf)`.
///
/// Zero (uncapped) credits are returned unchanged — there is nothing
/// to compensate.
///
/// # Panics
///
/// Panics if `ratio` is outside `(0, 1]` or `cf` is not positive.
#[must_use]
pub fn compensated_credit(c_init: Credit, ratio: f64, cf: f64) -> Credit {
    check_ratio_cf(ratio, cf);
    if c_init.is_uncapped() {
        return c_init;
    }
    Credit::percent(c_init.as_percent() / (ratio * cf))
}

/// The computing capacity of the processor at ratio `ratio`, as a
/// percentage of its capacity at maximum frequency:
/// `100 · ratio · cf` — the left side of the Listing 1.1 test.
///
/// # Panics
///
/// Panics if `ratio` is outside `(0, 1]` or `cf` is not positive.
#[must_use]
pub fn capacity_percent(ratio: f64, cf: f64) -> f64 {
    check_ratio_cf(ratio, cf);
    100.0 * ratio * cf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example_eq1() {
        // Paper: Fmax 3000, Fi 1500 → ratio 0.5; 10% load at Fmax is
        // 20% at Fi (cf = 1).
        let li = load_at_ratio(10.0, 0.5, 1.0);
        assert!((li - 20.0).abs() < 1e-12);
        assert!((absolute_load(li, 0.5, 1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example_eq4() {
        // Paper: 20% credit, frequency halved → 40% credit.
        let c = compensated_credit(Credit::percent(20.0), 0.5, 1.0);
        assert!((c.as_percent() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn fig1_compensation_values() {
        // Figure 1: 2133/2667 = 0.7999; credits 10..100 map to
        // 13, 25, 38, 50, 63, 75, 88, 100, 113, 125 (rounded).
        let ratio = 2133.0 / 2667.0;
        let expected = [
            13.0, 25.0, 38.0, 50.0, 63.0, 75.0, 88.0, 100.0, 113.0, 125.0,
        ];
        for (i, want) in expected.iter().enumerate() {
            let init = Credit::percent((i as f64 + 1.0) * 10.0);
            let got = compensated_credit(init, ratio, 1.0).as_percent().round();
            assert!((got - want).abs() < 1.0, "credit {init}: {got} vs {want}");
        }
    }

    #[test]
    fn eq2_eq3_consistency() {
        // Compensating per eq4 must cancel the eq2 slowdown via eq3.
        let (ratio, cf) = (0.6, 0.95);
        let t_max = 500.0;
        let c_init = Credit::percent(30.0);
        let t_slow = time_at_ratio(t_max, ratio, cf);
        let c_new = compensated_credit(c_init, ratio, cf);
        let t_comp = time_with_credit(t_slow, c_init, c_new);
        assert!((t_comp - t_max).abs() < 1e-9, "compensation restores T_max");
    }

    #[test]
    fn cf_affects_compensation() {
        // cf < 1 (E5-2620-like) needs *more* credit than 1/ratio.
        let with_cf = compensated_credit(Credit::percent(20.0), 0.6, 0.8);
        let without = compensated_credit(Credit::percent(20.0), 0.6, 1.0);
        assert!(with_cf > without);
    }

    #[test]
    fn uncapped_credit_is_preserved() {
        let c = compensated_credit(Credit::ZERO, 0.5, 1.0);
        assert!(c.is_uncapped());
    }

    #[test]
    fn capacity_percent_at_fmax_is_100() {
        assert!((capacity_percent(1.0, 1.0) - 100.0).abs() < 1e-12);
        assert!(capacity_percent(0.5, 0.9) < 50.0);
    }

    #[test]
    fn credit_arithmetic() {
        let c = Credit::percent(20.0) + Credit::percent(30.0);
        assert_eq!(c, Credit::percent(50.0));
        assert_eq!(Credit::percent(20.0) * 2.0, Credit::percent(40.0));
        assert_eq!(Credit::percent(20.0) / 2.0, Credit::percent(10.0));
        assert_eq!(
            Credit::percent(120.0).clamped_to(100.0),
            Credit::percent(100.0)
        );
        assert_eq!(Credit::fraction(0.25), Credit::percent(25.0));
    }

    #[test]
    #[should_panic(expected = "invalid credit")]
    fn negative_credit_rejected() {
        let _ = Credit::percent(-1.0);
    }

    #[test]
    #[should_panic(expected = "out of (0,1]")]
    fn ratio_above_one_rejected() {
        let _ = absolute_load(10.0, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "needs non-zero credits")]
    fn eq3_rejects_uncapped() {
        let _ = time_with_credit(100.0, Credit::ZERO, Credit::percent(10.0));
    }
}
