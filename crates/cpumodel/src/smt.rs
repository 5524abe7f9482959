//! Simultaneous multi-threading (hyper-threading) model — the first
//! technology factor named in the paper's perspectives ("we plan to
//! extend our scheduler and take into account other technology factors
//! such as hyper-threading, …", Section 7).
//!
//! SMT breaks the paper's Equation 1 in a way DVFS does not: two
//! logical CPUs share one physical core's execution resources, so the
//! *capacity of a logical CPU depends on what its sibling is doing*.
//! A core with both siblings busy delivers more aggregate throughput
//! than one thread alone (typically ~1.25× on Intel parts) but each
//! sibling individually runs much slower than a non-contended thread
//! (~0.625×). A credit booked as "20% of a logical CPU at maximum
//! frequency" is therefore ambiguous unless contention is accounted
//! for — exactly the same accounting gap the paper identifies for
//! frequency, one level down.
//!
//! [`SmtSpec`] captures the standard symmetric model: `n` hardware
//! threads per core and an *aggregate speedup* `s` when all threads
//! are busy. A thread running alone gets factor 1; with `k ≥ 2` busy
//! siblings each gets `s(k)/k`, with `s(·)` interpolated linearly
//! between 1 (one thread) and `s` (all threads).
//!
//! # Example
//!
//! ```
//! use cpumodel::smt::SmtSpec;
//!
//! let smt = SmtSpec::intel_typical(); // 2 threads, 1.25× aggregate
//! assert_eq!(smt.per_thread_factor(1), 1.0);
//! assert_eq!(smt.per_thread_factor(2), 0.625);
//! // Aggregate throughput still rises when the sibling wakes:
//! assert!(2.0 * smt.per_thread_factor(2) > smt.per_thread_factor(1));
//! ```

use std::fmt;

/// Error building an [`SmtSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SmtSpecError {
    /// `threads` was zero.
    NoThreads,
    /// The aggregate speedup was not in `[1, threads]`.
    ///
    /// Below 1 the core would lose throughput by using a second
    /// thread (not SMT, that is interference worth disabling); above
    /// `threads` a sibling would be faster than a dedicated core.
    SpeedupOutOfRange {
        /// The rejected speedup.
        speedup: f64,
        /// The thread count it must not exceed.
        threads: usize,
    },
}

impl fmt::Display for SmtSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtSpecError::NoThreads => write!(f, "smt spec needs at least one thread"),
            SmtSpecError::SpeedupOutOfRange { speedup, threads } => write!(
                f,
                "aggregate speedup {speedup} outside [1, {threads}] for {threads} threads"
            ),
        }
    }
}

impl std::error::Error for SmtSpecError {}

/// The symmetric SMT capacity model for one physical core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmtSpec {
    threads: usize,
    aggregate_speedup: f64,
}

impl SmtSpec {
    /// Builds a spec with `threads` hardware threads per core and the
    /// given aggregate speedup when all of them are busy.
    ///
    /// # Errors
    ///
    /// Returns [`SmtSpecError`] if `threads` is zero or the speedup
    /// lies outside `[1, threads]`.
    pub fn new(threads: usize, aggregate_speedup: f64) -> Result<Self, SmtSpecError> {
        if threads == 0 {
            return Err(SmtSpecError::NoThreads);
        }
        if !(1.0..=threads as f64).contains(&aggregate_speedup) {
            return Err(SmtSpecError::SpeedupOutOfRange {
                speedup: aggregate_speedup,
                threads,
            });
        }
        Ok(SmtSpec {
            threads,
            aggregate_speedup,
        })
    }

    /// The common Intel configuration: 2 threads per core, 1.25×
    /// aggregate throughput with both busy.
    #[must_use]
    pub fn intel_typical() -> Self {
        SmtSpec {
            threads: 2,
            aggregate_speedup: 1.25,
        }
    }

    /// SMT disabled: one thread per core, factor always 1.
    #[must_use]
    pub fn off() -> Self {
        SmtSpec {
            threads: 1,
            aggregate_speedup: 1.0,
        }
    }

    /// Hardware threads per core.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate core speedup with every thread busy.
    #[must_use]
    pub fn aggregate_speedup(&self) -> f64 {
        self.aggregate_speedup
    }

    /// Aggregate core throughput (relative to one non-contended
    /// thread) with `busy` threads running: linear interpolation from
    /// 1 at one thread to the full speedup at `threads`.
    ///
    /// `busy` above `threads` is clamped; zero busy threads yield zero
    /// aggregate throughput.
    #[inline]
    #[must_use]
    pub fn aggregate_factor(&self, busy: usize) -> f64 {
        let busy = busy.min(self.threads);
        match busy {
            0 => 0.0,
            1 => 1.0,
            _ if self.threads == 1 => 1.0,
            _ => {
                let t = (busy - 1) as f64 / (self.threads - 1) as f64;
                1.0 + t * (self.aggregate_speedup - 1.0)
            }
        }
    }

    /// The capacity factor each busy thread receives when `busy`
    /// threads share the core (`aggregate_factor(busy) / busy`).
    ///
    /// `per_thread_factor(0)` is 1 by convention (an idle thread is
    /// not slowed); the value only multiplies actual busy time.
    #[inline]
    #[must_use]
    pub fn per_thread_factor(&self, busy: usize) -> f64 {
        if busy <= 1 {
            1.0
        } else {
            let busy = busy.min(self.threads);
            self.aggregate_factor(busy) / busy as f64
        }
    }

    /// The Equation 4 denominator extension: the factor by which a
    /// VM's credit must additionally be divided so that its *delivered*
    /// capacity under the observed sibling contention matches its
    /// booking on a non-contended thread.
    ///
    /// `overlap` is the fraction of the VM's busy time during which
    /// all sibling threads were also busy (0 = always alone, 1 =
    /// always contended); values are clamped to `[0, 1]`.
    #[must_use]
    pub fn contention_factor(&self, overlap: f64) -> f64 {
        let overlap = overlap.clamp(0.0, 1.0);
        let contended = self.per_thread_factor(self.threads);
        1.0 - overlap + overlap * contended
    }
}

impl Default for SmtSpec {
    fn default() -> Self {
        SmtSpec::off()
    }
}

impl fmt::Display for SmtSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smt({}t, {:.2}x)", self.threads, self.aggregate_speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_threads() {
        assert_eq!(SmtSpec::new(0, 1.0), Err(SmtSpecError::NoThreads));
    }

    #[test]
    fn rejects_speedup_below_one() {
        let err = SmtSpec::new(2, 0.9).unwrap_err();
        assert!(matches!(err, SmtSpecError::SpeedupOutOfRange { .. }));
    }

    #[test]
    fn rejects_speedup_above_thread_count() {
        let err = SmtSpec::new(2, 2.1).unwrap_err();
        assert!(matches!(err, SmtSpecError::SpeedupOutOfRange { .. }));
        // Exactly `threads` is legal: perfect scaling, factor 1 each.
        let perfect = SmtSpec::new(2, 2.0).unwrap();
        assert_eq!(perfect.per_thread_factor(2), 1.0);
    }

    #[test]
    fn off_is_identity() {
        let off = SmtSpec::off();
        for busy in 0..4 {
            assert_eq!(off.per_thread_factor(busy), 1.0);
        }
        assert_eq!(off.aggregate_factor(3), 1.0, "clamped to one thread");
    }

    #[test]
    fn intel_typical_values() {
        let smt = SmtSpec::intel_typical();
        assert_eq!(smt.aggregate_factor(2), 1.25);
        assert_eq!(smt.per_thread_factor(2), 0.625);
    }

    #[test]
    fn aggregate_interpolates_for_four_way_smt() {
        // POWER-style 4-way SMT, 1.6x aggregate at full occupancy.
        let smt = SmtSpec::new(4, 1.6).unwrap();
        assert_eq!(smt.aggregate_factor(1), 1.0);
        assert!((smt.aggregate_factor(2) - 1.2).abs() < 1e-12);
        assert!((smt.aggregate_factor(3) - 1.4).abs() < 1e-12);
        assert!((smt.aggregate_factor(4) - 1.6).abs() < 1e-12);
        // Per-thread factor strictly decreases with occupancy.
        let f: Vec<f64> = (1..=4).map(|b| smt.per_thread_factor(b)).collect();
        assert!(f.windows(2).all(|w| w[1] < w[0]), "{f:?}");
    }

    #[test]
    fn aggregate_never_decreases_with_occupancy() {
        let smt = SmtSpec::intel_typical();
        let a: Vec<f64> = (0..=2).map(|b| smt.aggregate_factor(b)).collect();
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "{a:?}");
    }

    #[test]
    fn contention_factor_endpoints() {
        let smt = SmtSpec::intel_typical();
        assert_eq!(smt.contention_factor(0.0), 1.0);
        assert_eq!(smt.contention_factor(1.0), 0.625);
        // Midpoint is the mean of the endpoints (linear mix).
        assert!((smt.contention_factor(0.5) - 0.8125).abs() < 1e-12);
        // Out-of-range overlaps are clamped, not amplified.
        assert_eq!(smt.contention_factor(-3.0), 1.0);
        assert_eq!(smt.contention_factor(7.0), 0.625);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(SmtSpec::intel_typical().to_string(), "smt(2t, 1.25x)");
    }
}
