//! The web-app: the paper's load probe.
//!
//! "When we aim at measuring a CPU load, we use a web application
//! (a Joomla CMS server) which receives a load generated by httperf"
//! (Section 5.1). The essential structure is an **open-loop** request
//! stream: httperf sends at a configured rate regardless of whether
//! the server keeps up, so when the VM's capacity is cut (low
//! frequency, tight cap) the pending queue saturates and the VM runs
//! at 100% of whatever it is allowed — exactly the behaviour Figures
//! 3–10 rely on.
//!
//! Arrivals are either **fluid** (deterministic rate — clean figures)
//! or **Poisson** with a per-request service demand (bursty — what
//! makes the stock ondemand governor oscillate in Figure 3).

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use hypervisor::work::WorkSource;
use simkernel::{SimDuration, SimRng, SimTime};

use crate::profile::Profile;

/// Response-time statistics of served demand.
///
/// Latency is measured queue-to-completion per unit of demand: the
/// span between a request's arrival and the instant the VM finishes
/// executing it — the end-to-end time httperf would report (minus
/// network, which the paper's LAN setup makes negligible). Every field
/// is exact: the same bits as sorting every sample and summing it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Mean response time in seconds.
    pub mean_s: f64,
    /// 95th-percentile response time in seconds.
    pub p95_s: f64,
    /// Maximum response time in seconds.
    pub max_s: f64,
    /// Number of completed latency samples.
    pub samples: usize,
}

/// How requests arrive.
// The Poisson variant carries its RNG inline; one WebApp exists per VM,
// so the size asymmetry is irrelevant and boxing would only add a hop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ArrivalModel {
    /// Deterministic fluid demand at the phase rate.
    Fluid,
    /// Poisson arrivals of discrete requests; each request costs
    /// `request_mcycles`.
    Poisson {
        /// Service demand per request, in mega-cycles. Joomla-scale
        /// dynamic pages cost tens of mega-cycles.
        request_mcycles: f64,
        /// Deterministic generator for the arrival process.
        rng: SimRng,
    },
}

/// The httperf-driven web application.
///
/// Completed requests are kept as a count per distinct response time
/// in whole microseconds, the resolution of [`SimTime`], so the
/// statistics stay exact while their memory grows with the number of
/// distinct latencies, not with the number of requests.
///
/// # Example
///
/// ```
/// use hypervisor::work::WorkSource;
/// use simkernel::{SimDuration, SimTime};
/// use workloads::{ArrivalModel, Intensity, Profile, WebApp};
///
/// // A VM booked for 533 mc/s (20% of 2667) on a 2667 mc/s host,
/// // active with an exact load from t = 0.
/// let profile = Profile::active_for(SimDuration::from_secs(100), Intensity::Exact);
/// let mut app = WebApp::new(profile, 533.4, 2667.0, ArrivalModel::Fluid);
/// let demand = app.generate(SimTime::from_secs(1), SimDuration::from_secs(1));
/// assert!((demand - 533.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct WebApp {
    profile: Profile,
    vm_capacity_mcps: f64,
    host_capacity_mcps: f64,
    arrivals: ArrivalModel,
    queue_cap_secs: f64,
    offered_mcycles: f64,
    served_mcycles: f64,
    dropped_mcycles: f64,
    /// The phase the last slice's midpoint fell in (see
    /// [`WebApp::slice_rate`]).
    phase: CachedPhase,
    /// FIFO of in-flight demand: (arrival time, remaining mcycles).
    in_flight: VecDeque<(SimTime, f64)>,
    /// Completed requests per response time in microseconds, for
    /// latencies and counts below 2^32: 8 bytes an entry.
    latency_counts: HashMap<u32, u32, BuildHasherDefault<MicrosHasher>>,
    /// The rest: latencies of 2^32 µs (71 minutes) or more, and the
    /// requests of a latency whose narrow count is full.
    wide_latency_counts: HashMap<u64, u64, BuildHasherDefault<MicrosHasher>>,
}

/// A phase's `[start, end)` bounds and its demand rate.
#[derive(Debug, Clone, Copy)]
struct CachedPhase {
    start: SimTime,
    end: SimTime,
    rate_mcps: f64,
}

/// For a slice ending before this instant, the float midpoint
/// `generate` computes rounds to an instant inside the slice: each of
/// its four roundings (`now` and `dt` to seconds, their difference,
/// its product by 1e6) errs by at most half an ulp of a value below
/// 2^50 µs, under 0.12 µs, so the midpoint errs by under 0.5 µs.
const EXACT_MIDPOINT_LIMIT: SimTime = SimTime::from_micros(1 << 50);

/// One multiply per key. Latencies are not adversarial, so the keyed
/// SipHash behind std's default hasher would buy nothing here.
#[derive(Default)]
struct MicrosHasher(u64);

impl Hasher for MicrosHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits, which a product
        // mixes worst; rotate the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

impl WebApp {
    /// Creates a web-app.
    ///
    /// * `vm_capacity_mcps` — the VM's booked capacity at fmax
    ///   (credit × host capacity): the reference for
    ///   [`Intensity::Exact`](crate::Intensity::Exact).
    /// * `host_capacity_mcps` — the host's full capacity at fmax: the
    ///   reference for [`Intensity::Thrashing`](crate::Intensity::Thrashing).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is not strictly positive and finite.
    #[must_use]
    pub fn new(
        profile: Profile,
        vm_capacity_mcps: f64,
        host_capacity_mcps: f64,
        arrivals: ArrivalModel,
    ) -> Self {
        assert!(
            vm_capacity_mcps.is_finite() && vm_capacity_mcps > 0.0,
            "invalid vm capacity {vm_capacity_mcps}"
        );
        assert!(
            host_capacity_mcps.is_finite() && host_capacity_mcps > 0.0,
            "invalid host capacity {host_capacity_mcps}"
        );
        WebApp {
            profile,
            vm_capacity_mcps,
            host_capacity_mcps,
            arrivals,
            queue_cap_secs: 1.0,
            offered_mcycles: 0.0,
            served_mcycles: 0.0,
            dropped_mcycles: 0.0,
            // An empty range: the first slice looks its phase up.
            phase: CachedPhase {
                start: SimTime::ZERO,
                end: SimTime::ZERO,
                rate_mcps: 0.0,
            },
            in_flight: VecDeque::new(),
            latency_counts: HashMap::default(),
            wide_latency_counts: HashMap::default(),
        }
    }

    /// Overrides the accept-queue bound, expressed in seconds of
    /// host-capacity demand (default 1 s).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn with_queue_cap_secs(mut self, secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid queue cap {secs}");
        self.queue_cap_secs = secs;
        self
    }

    /// Total demand offered so far (mega-cycles).
    #[must_use]
    pub fn offered_mcycles(&self) -> f64 {
        self.offered_mcycles
    }

    /// Total demand served so far (mega-cycles).
    #[must_use]
    pub fn served_mcycles(&self) -> f64 {
        self.served_mcycles
    }

    /// Total demand dropped at the queue bound (mega-cycles).
    #[must_use]
    pub fn dropped_mcycles(&self) -> f64 {
        self.dropped_mcycles
    }

    /// The profile driving this app.
    #[must_use]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Response-time statistics over everything served so far.
    ///
    /// Exact: bit for bit what sorting every sample would give. The
    /// mean adds each distinct latency as many times as it occurred,
    /// in ascending order, so it is the same float sum. Only the
    /// distinct latencies are sorted, and they are all that is kept:
    /// memory grows with distinct microsecond values, not requests.
    #[must_use]
    pub fn latency_stats(&self) -> LatencyStats {
        let counts = self.sorted_latency_counts();
        let Some(&(max_us, _)) = counts.last() else {
            return LatencyStats::default();
        };
        let secs = |us| SimDuration::from_micros(us).as_secs_f64();
        let samples = counts.iter().map(|&(_, n)| n as usize).sum::<usize>();
        let sum: f64 = counts
            .iter()
            .flat_map(|&(us, n)| std::iter::repeat_n(secs(us), n as usize))
            .sum();
        let p95_idx = ((samples as f64) * 0.95).ceil() as usize - 1;
        let mut seen = 0;
        let (p95_us, _) = counts
            .iter()
            .find(|&&(_, n)| {
                seen += n as usize;
                seen > p95_idx
            })
            .expect("p95 index is below the sample count");
        LatencyStats {
            mean_s: sum / samples as f64,
            p95_s: secs(*p95_us),
            max_s: secs(max_us),
            samples,
        }
    }

    /// Every distinct latency with its count, both maps merged,
    /// ascending.
    fn sorted_latency_counts(&self) -> Vec<(u64, u64)> {
        let narrow = self
            .latency_counts
            .iter()
            .map(|(&us, &n)| (u64::from(us), u64::from(n)));
        let wide = self.wide_latency_counts.iter().map(|(&us, &n)| (us, n));
        let mut counts: Vec<(u64, u64)> = narrow.chain(wide).collect();
        counts.sort_unstable();
        // A latency in both maps is one whose narrow count filled up.
        counts.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        counts
    }

    fn record_latency(&mut self, latency: SimDuration) {
        let us = latency.as_micros();
        if let Ok(key) = u32::try_from(us) {
            let n = self.latency_counts.entry(key).or_insert(0);
            if let Some(more) = n.checked_add(1) {
                *n = more;
                return;
            }
        }
        *self.wide_latency_counts.entry(us).or_insert(0) += 1;
    }

    /// The demand rate of the slice of `dt` ending at `now`: the rate
    /// of the phase holding the slice's midpoint, computed in float
    /// seconds and rounded to the microsecond.
    ///
    /// That midpoint always lies in `[now − dt, now]` (see
    /// [`EXACT_MIDPOINT_LIMIT`]), so a slice that lies wholly inside
    /// the phase of the previous midpoint gets that phase's rate
    /// without the float round trip. Only a slice touching a phase
    /// edge, or one in another phase (time may move backwards), looks
    /// its phase up again.
    #[inline]
    fn slice_rate(&mut self, now: SimTime, dt: SimDuration) -> f64 {
        let from = SimTime::from_micros(now.as_micros().saturating_sub(dt.as_micros()));
        if self.phase.start <= from && now < self.phase.end {
            return self.phase.rate_mcps;
        }
        let mid = now.as_secs_f64() - dt.as_secs_f64() / 2.0;
        let (start, end, intensity) = self.profile.phase_at(SimTime::from_secs_f64(mid.max(0.0)));
        self.phase = CachedPhase {
            start,
            end: end.min(EXACT_MIDPOINT_LIMIT),
            rate_mcps: intensity.rate_mcps(self.vm_capacity_mcps, self.host_capacity_mcps),
        };
        self.phase.rate_mcps
    }

    /// Samples a Poisson count with mean `lambda` (Knuth's method —
    /// arrival counts per slice are small).
    fn poisson(rng: &mut SimRng, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        // For large means, fall back to a normal approximation to keep
        // the loop bounded.
        if lambda > 64.0 {
            let u1 = rng.uniform_range(f64::MIN_POSITIVE, 1.0);
            let u2 = rng.uniform_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            return (lambda + lambda.sqrt() * z).round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.uniform_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
}

impl WorkSource for WebApp {
    fn label(&self) -> &str {
        "web-app"
    }

    fn generate(&mut self, now: SimTime, dt: SimDuration) -> f64 {
        // Use the intensity at the midpoint of the slice so phase
        // boundaries land within half a quantum of their nominal time.
        let rate = self.slice_rate(now, dt);
        if rate == 0.0 {
            // Zero demand: nothing offered or queued, no arrival drawn.
            return 0.0;
        }
        let demand = match &mut self.arrivals {
            ArrivalModel::Fluid => rate * dt.as_secs_f64(),
            ArrivalModel::Poisson {
                request_mcycles,
                rng,
            } => {
                let lambda = rate * dt.as_secs_f64() / *request_mcycles;
                Self::poisson(rng, lambda) as f64 * *request_mcycles
            }
        };
        self.offered_mcycles += demand;
        if demand > 0.0 {
            self.in_flight.push_back((now, demand));
        }
        demand
    }

    fn on_progress(&mut self, mcycles: f64, now: SimTime) {
        self.served_mcycles += mcycles;
        let mut left = mcycles;
        while left > 1e-12 {
            let Some((arrived, remaining)) = self.in_flight.front_mut() else {
                break;
            };
            if *remaining <= left + 1e-12 {
                left -= *remaining;
                let latency = now.duration_since(*arrived);
                self.record_latency(latency);
                self.in_flight.pop_front();
            } else {
                *remaining -= left;
                left = 0.0;
            }
        }
    }

    fn on_dropped(&mut self, mcycles: f64, _now: SimTime) {
        self.dropped_mcycles += mcycles;
        // Drops come off the *tail* of the queue (newest arrivals are
        // refused), matching a full accept queue.
        let mut left = mcycles;
        while left > 1e-12 {
            let Some((_, remaining)) = self.in_flight.back_mut() else {
                break;
            };
            if *remaining <= left + 1e-12 {
                left -= *remaining;
                self.in_flight.pop_back();
            } else {
                *remaining -= left;
                left = 0.0;
            }
        }
    }

    fn backlog_cap_mcycles(&self) -> f64 {
        self.queue_cap_secs * self.host_capacity_mcps
    }

    fn is_finished(&self) -> bool {
        false // an open-loop injector never "finishes" on its own
    }

    fn qos_summary(&self) -> Option<hypervisor::work::QosSummary> {
        let lat = self.latency_stats();
        Some(hypervisor::work::QosSummary {
            served_mcycles: self.served_mcycles,
            dropped_mcycles: self.dropped_mcycles,
            mean_latency_s: lat.mean_s,
            p95_latency_s: lat.p95_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::profile::Intensity;

    fn exact_profile() -> Profile {
        Profile::active_for(SimDuration::from_secs(1000), Intensity::Exact)
    }

    #[test]
    fn fluid_rate_matches_intensity() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        let d = app.generate(SimTime::from_secs(10), SimDuration::from_secs(2));
        assert!((d - 1000.0).abs() < 1e-9);
        assert!((app.offered_mcycles() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn idle_phase_generates_nothing() {
        let profile = Profile::three_phase(
            SimDuration::from_secs(100),
            SimDuration::from_secs(100),
            Intensity::Exact,
        );
        let mut app = WebApp::new(profile, 500.0, 2500.0, ArrivalModel::Fluid);
        assert_eq!(
            app.generate(SimTime::from_secs(50), SimDuration::from_secs(1)),
            0.0
        );
        assert!(app.generate(SimTime::from_secs(150), SimDuration::from_secs(1)) > 0.0);
    }

    #[test]
    fn thrashing_uses_host_capacity() {
        let profile = Profile::active_for(SimDuration::from_secs(10), Intensity::Thrashing);
        let mut app = WebApp::new(profile, 500.0, 2500.0, ArrivalModel::Fluid);
        let d = app.generate(SimTime::from_secs(1), SimDuration::from_secs(1));
        assert!((d - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let rng = SimRng::seed_from(42);
        let mut app = WebApp::new(
            exact_profile(),
            500.0,
            2500.0,
            ArrivalModel::Poisson {
                request_mcycles: 10.0,
                rng,
            },
        );
        let mut total = 0.0;
        let n = 10_000;
        for i in 0..n {
            total += app.generate(
                SimTime::from_millis(10 * (i + 1)),
                SimDuration::from_millis(10),
            );
        }
        let mean_rate = total / (n as f64 * 0.010);
        assert!(
            (mean_rate - 500.0).abs() < 15.0,
            "poisson mean rate {mean_rate} far from 500"
        );
    }

    #[test]
    fn poisson_is_bursty() {
        let rng = SimRng::seed_from(7);
        let mut app = WebApp::new(
            exact_profile(),
            500.0,
            2500.0,
            ArrivalModel::Poisson {
                request_mcycles: 50.0,
                rng,
            },
        );
        let samples: Vec<f64> = (0..1000)
            .map(|i| {
                app.generate(
                    SimTime::from_millis(10 * (i + 1)),
                    SimDuration::from_millis(10),
                )
            })
            .collect();
        let zeros = samples.iter().filter(|&&d| d == 0.0).count();
        let spikes = samples.iter().filter(|&&d| d >= 50.0).count();
        assert!(zeros > 500, "bursty: many empty windows ({zeros})");
        assert!(spikes > 40, "bursty: some spike windows ({spikes})");
    }

    #[test]
    fn served_and_dropped_accounting() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        app.generate(SimTime::from_secs(1), SimDuration::from_secs(1));
        app.on_progress(120.0, SimTime::from_secs(1));
        app.on_dropped(30.0, SimTime::from_secs(1));
        assert_eq!(app.served_mcycles(), 120.0);
        assert_eq!(app.dropped_mcycles(), 30.0);
    }

    #[test]
    fn latency_tracks_queueing_delay() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        // 500 mc arrive at t=1s; half served at t=2s, rest at t=4s.
        app.generate(SimTime::from_secs(1), SimDuration::from_secs(1));
        app.on_progress(250.0, SimTime::from_secs(2));
        app.on_progress(250.0, SimTime::from_secs(4));
        let stats = app.latency_stats();
        assert_eq!(stats.samples, 1, "one arrival batch fully completed");
        assert!(
            (stats.mean_s - 3.0).abs() < 1e-9,
            "completed at t=4, arrived t=1"
        );
        assert_eq!(stats.max_s, stats.mean_s);
    }

    #[test]
    fn latency_distinguishes_fast_and_slow_service() {
        let mk = || WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        let mut fast = mk();
        let mut slow = mk();
        for i in 1..=10u64 {
            let t = SimTime::from_secs(i);
            fast.generate(t, SimDuration::from_secs(1));
            slow.generate(t, SimDuration::from_secs(1));
            fast.on_progress(500.0, t + SimDuration::from_millis(100));
            slow.on_progress(500.0, t + SimDuration::from_millis(900));
        }
        assert!(fast.latency_stats().mean_s < slow.latency_stats().mean_s);
        assert!((fast.latency_stats().p95_s - 0.1).abs() < 0.05);
        assert_eq!(fast.latency_stats().samples, 10);
    }

    #[test]
    fn empty_latency_stats_are_zero() {
        let app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        let stats = app.latency_stats();
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.mean_s, 0.0);
    }

    #[test]
    fn drops_trim_queue_tail() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        app.generate(SimTime::from_secs(1), SimDuration::from_secs(1)); // 500 mc
        app.generate(SimTime::from_secs(2), SimDuration::from_secs(1)); // 500 mc
        app.on_dropped(500.0, SimTime::from_secs(2));
        // The newest batch was refused; serving the rest completes the
        // first batch only.
        app.on_progress(500.0, SimTime::from_secs(3));
        let stats = app.latency_stats();
        assert_eq!(stats.samples, 1);
        assert!((stats.mean_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn queue_cap_scales_with_host() {
        let app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid)
            .with_queue_cap_secs(0.5);
        assert!((app.backlog_cap_mcycles() - 1250.0).abs() < 1e-9);
    }

    /// The statistics as computed before latencies were counted: every
    /// sample kept, sorted and summed. The reference the counts must
    /// match bit for bit.
    fn sorted_reference(latencies_s: &[f64]) -> LatencyStats {
        if latencies_s.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = latencies_s.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let p95_idx = ((sorted.len() as f64) * 0.95).ceil() as usize - 1;
        LatencyStats {
            mean_s: mean,
            p95_s: sorted[p95_idx.min(sorted.len() - 1)],
            max_s: *sorted.last().expect("non-empty"),
            samples: sorted.len(),
        }
    }

    /// Records `micros` into a web-app and checks its statistics against
    /// the sorted reference, bit for bit.
    fn assert_exact(micros: &[u64]) -> LatencyStats {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        for &us in micros {
            app.record_latency(SimDuration::from_micros(us));
        }
        let got = app.latency_stats();
        let secs: Vec<f64> = micros
            .iter()
            .map(|&us| SimDuration::from_micros(us).as_secs_f64())
            .collect();
        let want = sorted_reference(&secs);
        let bits = |s: &LatencyStats| {
            (
                s.mean_s.to_bits(),
                s.p95_s.to_bits(),
                s.max_s.to_bits(),
                s.samples,
            )
        };
        assert_eq!(bits(&got), bits(&want), "{} samples", micros.len());
        got
    }

    /// A latency sequence of 1–5,000 samples built from runs of one
    /// value: zero, under a millisecond, or anything up to 10 s; most
    /// runs are one sample long, some are up to 2,000.
    fn latency_sequences() -> impl Strategy<Value = Vec<u64>> {
        let value = (0u8..3, 0u64..=10_000_000).prop_map(|(kind, us)| match kind {
            0 => 0,
            1 => us % 1_000,
            _ => us,
        });
        let run = (value, 0u8..4, 1usize..=2_000)
            .prop_map(|(us, kind, len)| (us, if kind == 0 { len } else { 1 }));
        (1usize..=5_000, proptest::collection::vec(run, 1..=400)).prop_map(|(n, runs)| {
            runs.into_iter()
                .flat_map(|(us, len)| std::iter::repeat_n(us, len))
                .cycle()
                .take(n)
                .collect()
        })
    }

    proptest::proptest! {
        #[test]
        fn latency_counts_match_sorted_samples(micros in latency_sequences()) {
            assert_exact(&micros);
        }
    }

    #[test]
    fn latency_counts_match_at_p95_boundaries() {
        // ceil(0.95 n) - 1 is index 0 for n = 1, 18 for n = 20 and 19
        // for n = 21: each picks a different rank.
        for (n, p95_us) in [(1u64, 1), (20, 19), (21, 20)] {
            let ascending: Vec<u64> = (1..=n).collect();
            let descending: Vec<u64> = (1..=n).rev().collect();
            for micros in [ascending, descending] {
                let stats = assert_exact(&micros);
                assert_eq!(stats.p95_s, SimDuration::from_micros(p95_us).as_secs_f64());
                assert_eq!(stats.samples, n as usize);
            }
            assert_exact(&vec![0; n as usize]);
            assert_exact(&vec![10_000_000; n as usize]);
        }
    }

    #[test]
    fn latency_memory_grows_with_distinct_values_not_requests() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        let dt = SimDuration::from_micros(100);
        for i in 0..1_000_000u64 {
            let now = SimTime::from_micros(100 * (i + 1));
            let demand = app.generate(now, dt);
            app.on_progress(demand, now + SimDuration::from_micros(i % 1_000));
        }
        assert_eq!(app.latency_counts.len(), 1_000);
        assert_eq!(app.latency_stats().samples, 1_000_000);
    }

    #[test]
    fn latency_counts_match_beyond_u32_micros() {
        let wide = 1u64 << 32;
        let narrow_max = u64::from(u32::MAX);
        let mut micros = vec![
            5,
            5,
            narrow_max - 1,
            narrow_max,
            wide,
            wide,
            wide + 1,
            1 << 40,
        ];
        micros.extend([wide; 30]);
        micros.extend([7; 10]);
        let stats = assert_exact(&micros);
        assert_eq!(stats.max_s, SimDuration::from_micros(1 << 40).as_secs_f64());
        assert_eq!(stats.p95_s, SimDuration::from_micros(wide).as_secs_f64());
    }

    #[test]
    fn full_narrow_count_rolls_over_into_the_wide_map() {
        let mut app = WebApp::new(exact_profile(), 500.0, 2500.0, ArrivalModel::Fluid);
        app.latency_counts.insert(7, u32::MAX);
        for us in [7, 3, 7, 1 << 32, 7] {
            app.record_latency(SimDuration::from_micros(us));
        }
        assert_eq!(app.latency_counts[&7], u32::MAX);
        assert_eq!(app.wide_latency_counts[&7], 3);
        assert_eq!(
            app.sorted_latency_counts(),
            vec![(3, 1), (7, u64::from(u32::MAX) + 3), (1 << 32, 1)]
        );
    }

    /// `generate` before the phase cache: the rate of the phase
    /// holding the slice's float midpoint, looked up on every call by
    /// walking the phases.
    struct MidpointReference {
        phases: Vec<(u64, Intensity)>,
        arrivals: ArrivalModel,
        offered_mcycles: f64,
    }

    impl MidpointReference {
        fn generate(&mut self, now: SimTime, dt: SimDuration) -> f64 {
            let mid = now.as_secs_f64() - dt.as_secs_f64() / 2.0;
            let mid_us = SimTime::from_secs_f64(mid.max(0.0)).as_micros();
            let mut end = 0;
            let mut intensity = Intensity::Idle;
            for &(len, i) in &self.phases {
                end += len;
                if mid_us < end {
                    intensity = i;
                    break;
                }
            }
            let rate = intensity.rate_mcps(VM_MCPS, HOST_MCPS);
            let demand = match &mut self.arrivals {
                ArrivalModel::Fluid => rate * dt.as_secs_f64(),
                ArrivalModel::Poisson {
                    request_mcycles,
                    rng,
                } => {
                    let lambda = rate * dt.as_secs_f64() / *request_mcycles;
                    WebApp::poisson(rng, lambda) as f64 * *request_mcycles
                }
            };
            self.offered_mcycles += demand;
            demand
        }
    }

    const VM_MCPS: f64 = 533.4;
    const HOST_MCPS: f64 = 2667.0;

    /// Runs `slices` through a web-app and through the reference,
    /// checking each slice's demand and the offered total bit for bit.
    fn assert_matches_midpoint_rule(
        phases: &[(u64, Intensity)],
        arrivals: ArrivalModel,
        slices: &[(u64, u64)],
    ) {
        let profile = Profile::from_phases(
            phases
                .iter()
                .map(|&(len, intensity)| crate::profile::Phase {
                    duration: SimDuration::from_micros(len),
                    intensity,
                })
                .collect(),
        );
        let mut app = WebApp::new(profile, VM_MCPS, HOST_MCPS, arrivals.clone());
        let mut reference = MidpointReference {
            phases: phases.to_vec(),
            arrivals,
            offered_mcycles: 0.0,
        };
        for &(now, dt) in slices {
            let (now, dt) = (SimTime::from_micros(now), SimDuration::from_micros(dt));
            let got = app.generate(now, dt);
            let want = reference.generate(now, dt);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "slice of {dt} ending at {now}"
            );
            assert_eq!(
                app.offered_mcycles().to_bits(),
                reference.offered_mcycles.to_bits()
            );
        }
    }

    /// Slices around every phase edge, forwards and backwards, then a
    /// walk of abutting slices of 1 µs to 10 ms with jumps back and to
    /// the edges.
    fn slices_around(phases: &[(u64, Intensity)], seed: u64) -> Vec<(u64, u64)> {
        let edges: Vec<u64> = std::iter::once(0)
            .chain(phases.iter().scan(0, |end, &(len, _)| {
                *end += len;
                Some(*end)
            }))
            .collect();
        let mut slices = Vec::new();
        for &edge in &edges {
            for dt in [0, 1, 2, 3, 7, 10, 999, 1_000, 1_001, 4_999, 5_000, 10_000] {
                let ends = [
                    edge.saturating_sub(dt + 1),
                    edge.saturating_sub(dt),
                    edge.saturating_sub(dt) + 1,
                    edge.saturating_sub(1),
                    edge,
                    edge + 1,
                    edge + dt.saturating_sub(1),
                    edge + dt,
                    edge + dt + 1,
                ];
                slices.extend(ends.iter().map(|&now| (now, dt)));
                slices.extend(ends.iter().rev().map(|&now| (now, dt)));
            }
        }
        let mut rng = SimRng::seed_from(seed);
        let mut now = 0;
        for _ in 0..25_000 {
            let dt = 1 + rng.below(10_000);
            match rng.below(20) {
                0 => {
                    let edge = edges[rng.below(edges.len() as u64) as usize];
                    now = (edge + rng.below(24_000)).saturating_sub(12_000);
                }
                1 => now = now.saturating_sub(rng.below(20_000)),
                _ => now += dt,
            }
            slices.push((now, dt));
        }
        slices
    }

    #[test]
    fn phase_cache_matches_the_midpoint_rule() {
        let near_2_50 = (1u64 << 50) - 20_000;
        let profiles: [Vec<(u64, Intensity)>; 2] = [
            vec![
                (3_000, Intensity::Idle),
                (5_000, Intensity::Exact),
                (1, Intensity::Fraction(0.5)),
                (2_000, Intensity::Thrashing),
                (0, Intensity::Exact),
                (7_500, Intensity::Fraction(0.25)),
                (4, Intensity::Exact),
            ],
            vec![
                (near_2_50, Intensity::Exact),
                (4_000, Intensity::Thrashing),
                (3, Intensity::Fraction(0.25)),
                (10_000, Intensity::Idle),
                (5_000, Intensity::Exact),
                (2_000, Intensity::Thrashing),
            ],
        ];
        let mut checked = 0;
        for (seed, phases) in profiles.iter().enumerate() {
            let slices = slices_around(phases, seed as u64);
            assert_matches_midpoint_rule(phases, ArrivalModel::Fluid, &slices);
            for request_mcycles in [0.5, 10.0] {
                let poisson = ArrivalModel::Poisson {
                    request_mcycles,
                    rng: SimRng::seed_from(11 + seed as u64),
                };
                assert_matches_midpoint_rule(phases, poisson, &slices);
            }
            checked += 3 * slices.len();
        }
        assert!(checked >= 100_000, "{checked} slices");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_path() {
        let mut rng = SimRng::seed_from(3);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| WebApp::poisson(&mut rng, 100.0) as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - 100.0).abs() < 2.0,
            "normal approximation mean {mean}"
        );
    }
}
