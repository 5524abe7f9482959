//! The DVFS ladder: P-states and their table.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cf::CfModel;
use crate::freq::Frequency;

/// Index of a P-state within a [`PStateTable`], `0` being the *lowest*
/// frequency. This matches the paper's iteration order in Listing 1.1
/// (`for i = 1..fmax`, lowest first).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PStateIdx(pub usize);

impl fmt::Display for PStateIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// One operating point: frequency, supply voltage and the `cf` factor
/// at that frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PState {
    /// Core frequency.
    pub frequency: Frequency,
    /// Supply voltage in volts (used by the power model).
    pub voltage: f64,
    /// The paper's `cf_i` at this frequency (Equation 1).
    pub cf: f64,
}

impl PState {
    /// Effective computing capacity at this state, in mega-cycles per
    /// second *of maximum-frequency-equivalent work*: `F_i · cf_i`.
    #[inline]
    #[must_use]
    pub fn effective_mcps(&self) -> f64 {
        self.frequency.as_mhz() as f64 * self.cf
    }
}

/// Errors constructing a [`PStateTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PStateTableError {
    /// The table must contain at least one state.
    Empty,
    /// Frequencies must be strictly ascending.
    NotAscending {
        /// Index at which monotonicity broke.
        index: usize,
    },
}

impl fmt::Display for PStateTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PStateTableError::Empty => write!(f, "p-state table is empty"),
            PStateTableError::NotAscending { index } => {
                write!(
                    f,
                    "p-state frequencies not strictly ascending at index {index}"
                )
            }
        }
    }
}

impl std::error::Error for PStateTableError {}

/// The ordered set of P-states a processor supports, lowest frequency
/// first.
///
/// # Example
///
/// ```
/// use cpumodel::{CfModel, Frequency, PStateTable};
///
/// let table = PStateTable::from_frequencies(
///     [1600, 2133, 2667].map(Frequency::mhz),
///     &CfModel::Ideal,
/// )?;
/// assert_eq!(table.len(), 3);
/// assert_eq!(table.max().frequency, Frequency::mhz(2667));
/// assert!((table.ratio(table.min_idx()) - 1600.0 / 2667.0).abs() < 1e-12);
/// # Ok::<(), cpumodel::PStateTableError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Builds a table from explicit states.
    ///
    /// # Errors
    ///
    /// Returns [`PStateTableError::Empty`] for an empty list and
    /// [`PStateTableError::NotAscending`] if frequencies are not
    /// strictly increasing.
    pub fn new(states: Vec<PState>) -> Result<Self, PStateTableError> {
        if states.is_empty() {
            return Err(PStateTableError::Empty);
        }
        for (i, pair) in states.windows(2).enumerate() {
            if pair[1].frequency <= pair[0].frequency {
                return Err(PStateTableError::NotAscending { index: i + 1 });
            }
        }
        Ok(PStateTable { states })
    }

    /// Builds a table from bare frequencies, deriving `cf` from the
    /// given model and voltages on a linear 0.85 V – 1.25 V ramp (a
    /// typical desktop VID range; only the power model consumes them).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn from_frequencies(
        freqs: impl IntoIterator<Item = Frequency>,
        cf_model: &CfModel,
    ) -> Result<Self, PStateTableError> {
        let freqs: Vec<Frequency> = freqs.into_iter().collect();
        if freqs.is_empty() {
            return Err(PStateTableError::Empty);
        }
        let fmax = *freqs.last().expect("non-empty");
        let fmin = freqs[0];
        let states = freqs
            .iter()
            .map(|&f| {
                let ratio = f.ratio_to(fmax);
                let vrange = (fmax.as_mhz() - fmin.as_mhz()).max(1) as f64;
                let vfrac = (f.as_mhz() - fmin.as_mhz()) as f64 / vrange;
                PState {
                    frequency: f,
                    voltage: 0.85 + 0.40 * vfrac,
                    cf: cf_model.cf_at_ratio(ratio),
                }
            })
            .collect();
        PStateTable::new(states)
    }

    /// Number of P-states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false`: construction rejects empty tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The state at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`get`](Self::get) for a
    /// checked lookup.
    #[inline]
    #[must_use]
    pub fn state(&self, idx: PStateIdx) -> &PState {
        &self.states[idx.0]
    }

    /// Checked lookup.
    #[must_use]
    pub fn get(&self, idx: PStateIdx) -> Option<&PState> {
        self.states.get(idx.0)
    }

    /// The lowest-frequency state.
    #[must_use]
    pub fn min(&self) -> &PState {
        &self.states[0]
    }

    /// The highest-frequency state.
    #[inline]
    #[must_use]
    pub fn max(&self) -> &PState {
        self.states.last().expect("non-empty by construction")
    }

    /// Index of the lowest-frequency state.
    #[must_use]
    pub fn min_idx(&self) -> PStateIdx {
        PStateIdx(0)
    }

    /// Index of the highest-frequency state.
    #[must_use]
    pub fn max_idx(&self) -> PStateIdx {
        PStateIdx(self.states.len() - 1)
    }

    /// The maximum frequency (`F_max`).
    #[inline]
    #[must_use]
    pub fn fmax(&self) -> Frequency {
        self.max().frequency
    }

    /// The frequency ratio `F_idx / F_max` of Equation 1.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn ratio(&self, idx: PStateIdx) -> f64 {
        self.state(idx).frequency.ratio_to(self.fmax())
    }

    /// The `cf` factor at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn cf(&self, idx: PStateIdx) -> f64 {
        self.state(idx).cf
    }

    /// Iterates over state indices, lowest frequency first.
    pub fn indices(&self) -> impl Iterator<Item = PStateIdx> + '_ {
        (0..self.states.len()).map(PStateIdx)
    }

    /// Iterates over frequencies, lowest first.
    pub fn frequencies(&self) -> impl Iterator<Item = Frequency> + '_ {
        self.states.iter().map(|s| s.frequency)
    }

    /// Iterates over the states themselves.
    pub fn iter(&self) -> std::slice::Iter<'_, PState> {
        self.states.iter()
    }

    /// The index of the state with exactly frequency `f`, if present.
    #[must_use]
    pub fn index_of(&self, f: Frequency) -> Option<PStateIdx> {
        self.states
            .iter()
            .position(|s| s.frequency == f)
            .map(PStateIdx)
    }

    /// The lowest state whose frequency is `>= f`, or the maximum state
    /// if none is (mirrors Linux cpufreq's `CPUFREQ_RELATION_L`).
    #[must_use]
    pub fn lowest_at_least(&self, f: Frequency) -> PStateIdx {
        for (i, s) in self.states.iter().enumerate() {
            if s.frequency >= f {
                return PStateIdx(i);
            }
        }
        self.max_idx()
    }
}

impl<'a> IntoIterator for &'a PStateTable {
    type Item = &'a PState;
    type IntoIter = std::slice::Iter<'a, PState>;
    fn into_iter(self) -> Self::IntoIter {
        self.states.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> PStateTable {
        PStateTable::from_frequencies(
            [1600, 1867, 2133, 2400, 2667].map(Frequency::mhz),
            &CfModel::Ideal,
        )
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let t = ladder();
        assert_eq!(t.len(), 5);
        assert_eq!(t.min().frequency, Frequency::mhz(1600));
        assert_eq!(t.max().frequency, Frequency::mhz(2667));
        assert_eq!(t.max_idx(), PStateIdx(4));
        assert_eq!(t.index_of(Frequency::mhz(2133)), Some(PStateIdx(2)));
        assert_eq!(t.index_of(Frequency::mhz(9999)), None);
    }

    #[test]
    fn empty_rejected() {
        let err = PStateTable::new(vec![]).unwrap_err();
        assert_eq!(err, PStateTableError::Empty);
    }

    #[test]
    fn non_ascending_rejected() {
        let mk = |f| PState {
            frequency: Frequency::mhz(f),
            voltage: 1.0,
            cf: 1.0,
        };
        let err = PStateTable::new(vec![mk(2000), mk(1500)]).unwrap_err();
        assert_eq!(err, PStateTableError::NotAscending { index: 1 });
        let err2 = PStateTable::new(vec![mk(2000), mk(2000)]).unwrap_err();
        assert_eq!(err2, PStateTableError::NotAscending { index: 1 });
    }

    #[test]
    fn ratio_and_cf() {
        let t = ladder();
        assert!((t.ratio(t.max_idx()) - 1.0).abs() < 1e-12);
        assert!((t.ratio(PStateIdx(0)) - 1600.0 / 2667.0).abs() < 1e-12);
        assert!((t.cf(PStateIdx(0)) - 1.0).abs() < 1e-12, "ideal model");
    }

    #[test]
    fn cf_model_applied_per_state() {
        let t = PStateTable::from_frequencies(
            [1000, 2000].map(Frequency::mhz),
            &CfModel::microarch(0.0, 0.2),
        )
        .unwrap();
        assert!(t.cf(PStateIdx(0)) < 1.0);
        assert!((t.cf(PStateIdx(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn voltages_ramp() {
        let t = ladder();
        let volts: Vec<f64> = t.iter().map(|s| s.voltage).collect();
        assert!(volts.windows(2).all(|w| w[1] > w[0]));
        assert!((volts[0] - 0.85).abs() < 1e-12);
        assert!((volts[4] - 1.25).abs() < 1e-12);
    }

    #[test]
    fn lowest_at_least() {
        let t = ladder();
        assert_eq!(t.lowest_at_least(Frequency::mhz(1)), PStateIdx(0));
        assert_eq!(t.lowest_at_least(Frequency::mhz(1900)), PStateIdx(2));
        assert_eq!(t.lowest_at_least(Frequency::mhz(2667)), PStateIdx(4));
        assert_eq!(t.lowest_at_least(Frequency::mhz(9000)), PStateIdx(4));
    }

    #[test]
    fn effective_mcps() {
        let s = PState {
            frequency: Frequency::mhz(2000),
            voltage: 1.0,
            cf: 0.9,
        };
        assert!((s.effective_mcps() - 1800.0).abs() < 1e-9);
    }
}
