//! Power and energy accounting.
//!
//! The paper motivates PAS with energy savings but never plots them;
//! we add the standard CMOS model so the workspace can run the energy
//! ablation the paper leaves implicit:
//!
//! ```text
//! P(f, V, u) = P_static + u · C_eff · f · V²
//! ```
//!
//! where `u` is the busy fraction. `P_static` covers leakage plus the
//! platform floor; `C_eff` is an effective switched capacitance fitted
//! so that the preset machines land at plausible desktop/server TDPs.

use serde::{Deserialize, Serialize};

use crate::pstate::{PState, PStateIdx, PStateTable};

/// The CMOS-style power model described in the module docs.
///
/// # Example
///
/// ```
/// use cpumodel::PowerModel;
/// let m = PowerModel::new(40.0, 65.0);
/// // Idle floor is the static power.
/// let table = cpumodel::machines::optiplex_755().pstate_table();
/// let idle = m.power_w(table.max(), 0.0);
/// assert!((idle - 40.0).abs() < 1e-9);
/// // Fully busy at fmax hits the dynamic budget on top.
/// let busy = m.power_w(table.max(), 1.0);
/// assert!((busy - 105.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static (frequency-independent) power in watts.
    pub p_static_w: f64,
    /// Dynamic power at maximum frequency, maximum voltage, 100% busy,
    /// in watts. The effective capacitance is derived from it lazily.
    pub p_dynamic_max_w: f64,
}

impl PowerModel {
    /// Creates a model from its static floor and its full-tilt dynamic
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative or not finite.
    #[must_use]
    pub fn new(p_static_w: f64, p_dynamic_max_w: f64) -> Self {
        assert!(
            p_static_w.is_finite() && p_static_w >= 0.0,
            "bad static power"
        );
        assert!(
            p_dynamic_max_w.is_finite() && p_dynamic_max_w >= 0.0,
            "bad dynamic power"
        );
        PowerModel {
            p_static_w,
            p_dynamic_max_w,
        }
    }

    /// Instantaneous power in watts at P-state `state` with busy
    /// fraction `busy` — but note the `f·V²` scaling needs to know the
    /// *maximum* state; use [`power_scaled`](Self::power_scaled) when
    /// you have the table. This convenience assumes `state` *is* the
    /// reference (used by doctests and simple cases).
    #[must_use]
    pub fn power_w(&self, state: &PState, busy: f64) -> f64 {
        self.power_scaled(state, state, busy)
    }

    /// Instantaneous power in watts, with `fmax_state` as the reference
    /// operating point for the dynamic budget.
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    #[inline]
    #[must_use]
    pub fn power_scaled(&self, state: &PState, fmax_state: &PState, busy: f64) -> f64 {
        let (f_ratio, v_ratio) = dynamic_factors(state, fmax_state);
        self.power_at(f_ratio, v_ratio, busy)
    }

    /// The power formula itself, at a state whose `F / F_max` and
    /// `V / V_max` are `f_ratio` and `v_ratio` (see
    /// [`dynamic_factors`]).
    ///
    /// # Panics
    ///
    /// Panics if `busy` is outside `[0, 1]`.
    #[inline]
    pub(crate) fn power_at(&self, f_ratio: f64, v_ratio: f64, busy: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&busy),
            "busy fraction {busy} out of [0,1]"
        );
        self.p_static_w + busy * self.p_dynamic_max_w * f_ratio * v_ratio * v_ratio
    }
}

/// `(F / F_max, V / V_max)` of `state` against the reference
/// `fmax_state`: the factors that scale the dynamic budget.
#[inline]
pub(crate) fn dynamic_factors(state: &PState, fmax_state: &PState) -> (f64, f64) {
    (
        state.frequency.as_mhz() as f64 / fmax_state.frequency.as_mhz() as f64,
        state.voltage / fmax_state.voltage,
    )
}

impl Default for PowerModel {
    /// A nominal 40 W-static / 65 W-dynamic desktop processor.
    fn default() -> Self {
        PowerModel::new(40.0, 65.0)
    }
}

/// Integrates energy over a run.
///
/// The host simulator calls [`advance`](Self::advance) once per
/// scheduling quantum with the P-state and busy fraction that held over
/// the elapsed span.
#[derive(Debug, Clone, Default)]
pub struct EnergyMeter {
    joules: f64,
    busy_seconds: f64,
    total_seconds: f64,
}

impl EnergyMeter {
    /// A meter at zero.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Accounts `dt_secs` seconds spent at `state` with the given busy
    /// fraction.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is negative or `busy` outside `[0, 1]`.
    #[inline]
    pub fn advance(
        &mut self,
        model: &PowerModel,
        table: &PStateTable,
        state: PStateIdx,
        busy: f64,
        dt_secs: f64,
    ) {
        let (f_ratio, v_ratio) = dynamic_factors(table.state(state), table.max());
        self.advance_at(model, f_ratio, v_ratio, busy, dt_secs);
    }

    /// [`advance`](Self::advance) at a state given by its
    /// [`dynamic_factors`], which [`Cpu`](crate::Cpu) keeps for its
    /// current state.
    ///
    /// # Panics
    ///
    /// Panics if `dt_secs` is negative or `busy` outside `[0, 1]`.
    #[inline]
    pub(crate) fn advance_at(
        &mut self,
        model: &PowerModel,
        f_ratio: f64,
        v_ratio: f64,
        busy: f64,
        dt_secs: f64,
    ) {
        assert!(dt_secs >= 0.0, "negative time span");
        let p = model.power_at(f_ratio, v_ratio, busy);
        self.joules += p * dt_secs;
        self.busy_seconds += busy * dt_secs;
        self.total_seconds += dt_secs;
    }

    /// Total energy consumed so far, in joules.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Mean power over the run, in watts (zero for an empty run).
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        if self.total_seconds == 0.0 {
            0.0
        } else {
            self.joules / self.total_seconds
        }
    }

    /// Aggregate busy fraction over the run (zero for an empty run).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.total_seconds == 0.0 {
            0.0
        } else {
            self.busy_seconds / self.total_seconds
        }
    }

    /// Wall-clock seconds accounted.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.total_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::CfModel;
    use crate::freq::Frequency;

    fn table() -> PStateTable {
        PStateTable::from_frequencies([1600, 2667].map(Frequency::mhz), &CfModel::Ideal).unwrap()
    }

    #[test]
    fn idle_power_is_static_only() {
        let m = PowerModel::new(30.0, 70.0);
        let t = table();
        assert!((m.power_scaled(t.min(), t.max(), 0.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn lower_frequency_draws_less_dynamic_power() {
        let m = PowerModel::default();
        let t = table();
        let hi = m.power_scaled(t.max(), t.max(), 1.0);
        let lo = m.power_scaled(t.min(), t.max(), 1.0);
        assert!(lo < hi);
        // f·V² scaling: strictly better than linear-in-f savings.
        let linear = m.p_static_w + m.p_dynamic_max_w * (1600.0 / 2667.0);
        assert!(lo < linear);
    }

    #[test]
    fn meter_integrates() {
        let m = PowerModel::new(10.0, 0.0);
        let t = table();
        let mut e = EnergyMeter::new();
        e.advance(&m, &t, t.max_idx(), 0.5, 100.0);
        assert!((e.joules() - 1000.0).abs() < 1e-9);
        assert!((e.mean_power_w() - 10.0).abs() < 1e-9);
        assert!((e.utilization() - 0.5).abs() < 1e-12);
        assert!((e.seconds() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let e = EnergyMeter::new();
        assert_eq!(e.joules(), 0.0);
        assert_eq!(e.mean_power_w(), 0.0);
        assert_eq!(e.utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn busy_fraction_validated() {
        let m = PowerModel::default();
        let t = table();
        let _ = m.power_scaled(t.min(), t.max(), 1.5);
    }
}
