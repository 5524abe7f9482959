//! Processor frequency newtype.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A processor frequency in MHz.
///
/// A newtype (rather than a bare `u32`) so that frequencies, credits
/// and percentages cannot be mixed up in the scheduler code.
///
/// # Example
///
/// ```
/// use cpumodel::Frequency;
/// let f = Frequency::mhz(2667);
/// assert_eq!(f.as_mhz(), 2667);
/// assert!((f.as_ghz() - 2.667).abs() < 1e-9);
/// assert_eq!(format!("{f}"), "2667 MHz");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from MHz.
    #[must_use]
    pub const fn mhz(mhz: u32) -> Self {
        Frequency(mhz)
    }

    /// This frequency in MHz.
    #[must_use]
    pub const fn as_mhz(self) -> u32 {
        self.0
    }

    /// This frequency in GHz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Mega-cycles elapsed in `secs` seconds at this frequency.
    ///
    /// 1 MHz is by definition one mega-cycle per second, so this is the
    /// natural work unit of the whole simulator.
    #[must_use]
    pub fn mcycles_in(self, secs: f64) -> f64 {
        self.0 as f64 * secs
    }

    /// The ratio of this frequency to `fmax` — the paper's `ratio_i`.
    ///
    /// # Panics
    ///
    /// Panics if `fmax` is zero.
    #[inline]
    #[must_use]
    pub fn ratio_to(self, fmax: Frequency) -> f64 {
        assert!(fmax.0 > 0, "fmax must be non-zero");
        self.0 as f64 / fmax.0 as f64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let f = Frequency::mhz(1600);
        assert_eq!(f.as_mhz(), 1600);
        assert!((f.as_ghz() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn ratio() {
        let f = Frequency::mhz(1600);
        let fmax = Frequency::mhz(2667);
        let r = f.ratio_to(fmax);
        assert!((r - 1600.0 / 2667.0).abs() < 1e-12);
        assert!((fmax.ratio_to(fmax) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mcycles() {
        assert!((Frequency::mhz(2000).mcycles_in(0.5) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        assert!(Frequency::mhz(1600) < Frequency::mhz(2667));
    }

    #[test]
    #[should_panic(expected = "fmax must be non-zero")]
    fn zero_fmax_rejected() {
        let _ = Frequency::mhz(1).ratio_to(Frequency::mhz(0));
    }
}
