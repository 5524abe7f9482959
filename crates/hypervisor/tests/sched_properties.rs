//! Property-based tests of the scheduler guarantees, run on the full
//! host loop with randomized VM populations.

use hypervisor::host::{HostConfig, SchedulerKind};
use hypervisor::vm::{SedfParams, VmConfig, VmId};
use hypervisor::work::{ConstantDemand, Idle, QosSummary, WorkSource};
use pas_core::Credit;
use proptest::prelude::*;
use simkernel::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SEDF's reservation guarantee: a thrashing VM with slice s and
    /// period p receives at least s/p of the CPU, whatever competes
    /// with it.
    #[test]
    fn sedf_guarantee_holds_under_competition(
        slice_ms in 5u64..40,
        competitors in 1usize..4,
    ) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Sedf { extra: false }).build();
        let thrash = host.fmax_mcps();
        let guaranteed = host.add_vm(
            VmConfig::new("reserved", Credit::percent(10.0)).with_sedf(SedfParams {
                slice: SimDuration::from_millis(slice_ms),
                period: SimDuration::from_millis(100),
                extra: false,
            }),
            Box::new(ConstantDemand::new(thrash)),
        );
        for i in 0..competitors {
            host.add_vm(
                VmConfig::new(format!("noise{i}"), Credit::percent(30.0)).with_sedf(SedfParams {
                    slice: SimDuration::from_millis(25),
                    period: SimDuration::from_millis(100),
                    extra: true,
                }),
                Box::new(ConstantDemand::new(thrash)),
            );
        }
        host.run_for(SimDuration::from_secs(30));
        let got = host.stats().vm_busy_fraction(guaranteed);
        let want = slice_ms as f64 / 100.0;
        prop_assert!(
            got >= want - 0.015,
            "reserved VM got {got}, guaranteed {want} with {competitors} competitors"
        );
    }

    /// Credit2 long-run shares are weight-proportional on a live host.
    #[test]
    fn credit2_shares_follow_weights(w0 in 10u32..90, w1 in 10u32..90) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit2).build();
        let thrash = host.fmax_mcps();
        host.add_vm(
            VmConfig::new("a", Credit::percent(f64::from(w0))).with_weight(w0),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.add_vm(
            VmConfig::new("b", Credit::percent(f64::from(w1))).with_weight(w1),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(30));
        let b0 = host.stats().vm_busy_fraction(VmId(0));
        let b1 = host.stats().vm_busy_fraction(VmId(1));
        let want0 = f64::from(w0) / f64::from(w0 + w1);
        prop_assert!((b0 / (b0 + b1) - want0).abs() < 0.08,
            "weights {w0}:{w1} gave shares {b0:.3}:{b1:.3}");
    }

    /// Work conservation: with at least one thrashing uncapped VM the
    /// processor never idles, under any scheduler.
    #[test]
    fn work_conservation_with_uncapped_vm(extra_vms in 0usize..3) {
        for kind in [
            SchedulerKind::Credit,
            SchedulerKind::Credit2,
            SchedulerKind::Sedf { extra: true },
        ] {
            let mut host = HostConfig::optiplex_defaults(kind).build();
            let thrash = host.fmax_mcps();
            host.add_vm(
                VmConfig::new("greedy", Credit::ZERO), // uncapped
                Box::new(ConstantDemand::new(thrash)),
            );
            for i in 0..extra_vms {
                host.add_vm(
                    VmConfig::new(format!("vm{i}"), Credit::percent(10.0)),
                    Box::new(ConstantDemand::new(0.05 * thrash)),
                );
            }
            // 30 s horizon: SEDF spends its first period (100 ms)
            // initialising deadlines, a startup transient that must
            // not count against steady-state work conservation.
            host.run_for(SimDuration::from_secs(30));
            let busy = host.stats().global_busy_fraction();
            prop_assert!(busy > 0.995, "{kind:?}: busy {busy} with an uncapped thrasher");
        }
    }

    /// SMT host conservation: for any booking mix on sibling threads,
    /// total delivered capacity never exceeds the SMT aggregate
    /// envelope, and an *aware* host never delivers less than a
    /// *naive* one to any VM (the compensation only adds capacity).
    #[test]
    fn smt_host_respects_aggregate_envelope(
        book0 in 5.0f64..95.0,
        book1 in 5.0f64..95.0,
    ) {
        use cpumodel::smt::SmtSpec;
        use hypervisor::smt::{SmtAwareness, SmtHost, ThreadId};

        let run = |awareness| {
            let mut host = SmtHost::new(
                &cpumodel::machines::optiplex_755(),
                SmtSpec::intel_typical(),
                awareness,
            );
            let thrash = host.fmax_mcps();
            let a = host.add_vm(
                VmConfig::new("a", Credit::percent(book0)),
                Box::new(ConstantDemand::new(thrash)),
                ThreadId(0),
            );
            let b = host.add_vm(
                VmConfig::new("b", Credit::percent(book1)),
                Box::new(ConstantDemand::new(thrash)),
                ThreadId(1),
            );
            host.run_for(SimDuration::from_secs(30));
            (host.vm_absolute_fraction(a), host.vm_absolute_fraction(b))
        };
        let (na, nb) = run(SmtAwareness::Naive);
        let (aa, ab) = run(SmtAwareness::Aware);
        prop_assert!(na + nb <= 1.25 + 0.02, "naive total {} over envelope", na + nb);
        prop_assert!(aa + ab <= 1.25 + 0.02, "aware total {} over envelope", aa + ab);
        // Awareness dominates per-VM only while the compensation fits
        // under the wall clock (booked / 0.625 ≤ 100%). Over-committed
        // bookings clamp at 100%, raising the overlap for everyone —
        // there the envelope bound above is the only guarantee.
        if book0 <= 60.0 && book1 <= 60.0 {
            prop_assert!(aa >= na - 0.02, "aware a {aa} below naive {na}");
            prop_assert!(ab >= nb - 0.02, "aware b {ab} below naive {nb}");
        }
    }

    /// VMs added mid-run are scheduled and respect their caps.
    #[test]
    fn vm_added_mid_run_respects_cap(cap_pct in 10.0f64..60.0) {
        let mut host = HostConfig::optiplex_defaults(SchedulerKind::Credit).build();
        let thrash = host.fmax_mcps();
        host.add_vm(
            VmConfig::new("first", Credit::percent(30.0)),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(10));
        let late = host.add_vm(
            VmConfig::new("late", Credit::percent(cap_pct)),
            Box::new(ConstantDemand::new(thrash)),
        );
        host.run_for(SimDuration::from_secs(20));
        // The late VM ran for 2/3 of the horizon at its cap.
        let busy = host.stats().vm_busy_fraction(late);
        let want = cap_pct / 100.0 * (20.0 / 30.0);
        prop_assert!((busy - want).abs() < 0.03, "late VM busy {busy} vs {want}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The event-driven core's acceptance criterion, randomized: for
    /// any scheduler × governor × workload-mix, a host with the fused
    /// window replay enabled must be bit-identical — energy, busy
    /// fractions, P-state, final instant, snapshots — to the
    /// slice-exact loop. The fused path may engage or not depending on
    /// the draw (caps below the quantum never fuse, multi-runnable
    /// windows never fuse); either way the results must agree exactly.
    #[test]
    fn event_core_matches_exact_loop_on_random_scenarios(
        sched_ix in 0usize..4,
        gov_ix in 0usize..3,
        vms in proptest::collection::vec((0usize..3, 0.05f64..1.0, 5.0f64..90.0), 1..5),
        secs in 30u64..90,
    ) {
        use governors::{Performance, StableOndemand};
        use hypervisor::work::test_batch;

        let sched = [
            SchedulerKind::Credit,
            SchedulerKind::Credit2,
            SchedulerKind::Sedf { extra: true },
            SchedulerKind::Pas,
        ][sched_ix];
        let run = |event_core: bool| {
            let mut cfg = HostConfig::optiplex_defaults(sched).with_event_core(event_core);
            // PAS owns DVFS; other schedulers draw a governor.
            if sched_ix != 3 {
                cfg = match gov_ix {
                    0 => cfg,
                    1 => cfg.with_governor(Box::new(StableOndemand::new())),
                    _ => cfg.with_governor(Box::new(Performance)),
                };
            }
            let mut host = cfg.build();
            let fmax = host.fmax_mcps();
            for (i, &(kind, frac, credit)) in vms.iter().enumerate() {
                let work: Box<dyn WorkSource> = match kind {
                    0 => Box::new(ConstantDemand::new(frac * fmax)),
                    1 => Box::new(test_batch(frac * 10.0 * fmax)),
                    _ => Box::new(Idle),
                };
                host.add_vm(
                    VmConfig::new(format!("vm{i}"), Credit::percent(credit)),
                    work,
                );
            }
            host.run_for(SimDuration::from_secs(secs));
            let per_vm: Vec<(u64, u64)> = (0..vms.len())
                .map(|i| {
                    (
                        host.stats().vm_busy_fraction(VmId(i)).to_bits(),
                        host.stats().vm_absolute_fraction(VmId(i)).to_bits(),
                    )
                })
                .collect();
            (
                host.cpu().energy().joules().to_bits(),
                host.stats().global_busy_fraction().to_bits(),
                host.cpu().pstate(),
                host.now(),
                per_vm,
                host.stats().snapshots().to_vec(),
            )
        };
        let on = run(true);
        let off = run(false);
        prop_assert_eq!(on, off);
    }
}

/// Forwards every [`WorkSource`] method to the wrapped source except
/// `steady_rate_mcps`, which keeps its default `None`: a VM running an
/// `Opaque` source has no cached demand model, so the host asks the
/// source on every slice, and the fused replay never engages.
struct Opaque<W>(W);

impl<W: WorkSource> WorkSource for Opaque<W> {
    fn label(&self) -> &str {
        self.0.label()
    }

    fn generate(&mut self, now: SimTime, dt: SimDuration) -> f64 {
        self.0.generate(now, dt)
    }

    fn on_progress(&mut self, mcycles: f64, now: SimTime) {
        self.0.on_progress(mcycles, now);
    }

    fn on_dropped(&mut self, mcycles: f64, now: SimTime) {
        self.0.on_dropped(mcycles, now);
    }

    fn backlog_cap_mcycles(&self) -> f64 {
        self.0.backlog_cap_mcycles()
    }

    fn is_finished(&self) -> bool {
        self.0.is_finished()
    }

    fn demand_exhausted(&self) -> bool {
        self.0.demand_exhausted()
    }

    fn qos_summary(&self) -> Option<QosSummary> {
        self.0.qos_summary()
    }
}

/// A steady source, plain or hidden behind [`Opaque`]. Kinds: a busy
/// constant demand of `frac` × fmax, a trickle of `frac` × 0.1 % of
/// fmax (sub-quantum wake/drain slices), a zero-rate source, an idle VM.
fn steady_source(kind: usize, frac: f64, fmax: f64, opaque: bool) -> Box<dyn WorkSource> {
    fn boxed<W: WorkSource + 'static>(w: W, opaque: bool) -> Box<dyn WorkSource> {
        if opaque {
            Box::new(Opaque(w))
        } else {
            Box::new(w)
        }
    }
    match kind {
        0 => boxed(ConstantDemand::new(frac * fmax), opaque),
        1 => boxed(ConstantDemand::new(frac * 1e-3 * fmax), opaque),
        2 => boxed(ConstantDemand::new(0.0), opaque),
        _ => boxed(Idle, opaque),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cached steady demand model changes no bit: a Credit or PAS
    /// host of steady VMs — random bookings, external cap overrides, a
    /// VM retired or migrated out and back mid-run — must match, to
    /// the last bit, its twin whose sources hide their steady rate and
    /// so go through the uncached path.
    #[test]
    fn cached_demand_model_matches_opaque_sources(
        setup in (0usize..2, 0usize..3, 0usize..8, 20u64..60),
        vms in proptest::collection::vec((0usize..4, 0.05f64..1.2, 5.0f64..90.0), 1..6),
        overrides in proptest::collection::vec((0usize..8, 0.0f64..1.1), 0..4),
    ) {
        let (sched_ix, churn, churn_vm, secs) = setup;
        let sched = [SchedulerKind::Credit, SchedulerKind::Pas][sched_ix];
        let run = |opaque: bool| {
            let mut host = HostConfig::optiplex_defaults(sched).build();
            let fmax = host.fmax_mcps();
            for (i, &(kind, frac, credit)) in vms.iter().enumerate() {
                host.add_vm(
                    VmConfig::new(format!("vm{i}"), Credit::percent(credit)),
                    steady_source(kind, frac, fmax, opaque),
                );
            }
            let n = vms.len();
            for (k, &(vm, cap)) in overrides.iter().enumerate() {
                // Every third override lifts the cap instead.
                host.set_vm_cap(VmId(vm % n), (k % 3 != 2).then_some(cap));
            }
            host.run_for(SimDuration::from_secs(secs / 2));
            let victim = VmId(churn_vm % n);
            match churn {
                1 => host.retire_vm(victim),
                2 => {
                    let moved = host.extract_vm(victim);
                    host.admit_vm(moved);
                }
                _ => {}
            }
            host.run_for(SimDuration::from_secs(secs - secs / 2));
            let per_vm: Vec<(u64, u64, u64)> = (0..host.vm_count())
                .map(|i| {
                    let id = VmId(i);
                    (
                        host.stats().vm_busy_fraction(id).to_bits(),
                        host.stats().vm_absolute_fraction(id).to_bits(),
                        host.vm(id).total_done_mcycles.to_bits(),
                    )
                })
                .collect();
            (
                host.cpu().energy().joules().to_bits(),
                host.stats().global_busy_fraction().to_bits(),
                host.cpu().pstate(),
                host.cpu().transitions(),
                host.now(),
                per_vm,
                host.stats().snapshots().to_vec(),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }
}
