//! Deterministic simulation event log.
//!
//! Every interesting simulation-time decision — scheduler picks,
//! DVFS transitions, cap rewrites, migrations, placement, epoch
//! boundaries, SLA violations — can be recorded as a typed
//! [`EventKind`] stamped with `(sim_time, host, vm)`. Events are
//! a pure function of simulation state, never of wall clock or worker
//! scheduling, so a trace is **byte-identical across `--jobs` and
//! shard counts** (wall-clock self-profiling lives in
//! [`metrics::profile`] and is written to a separate file precisely so
//! it cannot contaminate this contract).
//!
//! The pieces:
//!
//! * [`Tracer`] — a bounded in-memory ring per event stream (one
//!   stream per host plus one fleet-level stream). When the ring is
//!   full the oldest event is evicted and counted in
//!   [`Tracer::dropped`]; memory stays bounded no matter how long the
//!   run is. Hosts and fleets keep their tracer in an `Option`, so
//!   the untraced hot path is a single branch. perfbench's
//!   `trace.overhead_pct` measures what tracing and profiling cost
//!   when switched on together.
//! * [`Trace`] — the deterministic merge of many tracers, ordered by
//!   `(sim_time, stream, seq)`.
//! * [`render_jsonl`] — the JSONL artefact (schema
//!   [`SCHEMA`] = `pas-repro-trace/v1`): a header object, one flat
//!   object per event, and a footer with totals, written through
//!   [`metrics::export::JsonlWriter`].
//! * [`summary`] — the `repro trace-summary` analyzer, reducing a
//!   trace file to per-host/per-VM counts, a frequency-transition
//!   histogram and a migration timeline.

#![deny(missing_docs)]

use std::collections::VecDeque;

use metrics::export::{JsonValue, JsonlWriter};

pub mod summary;

/// Schema identifier written into every trace header.
pub const SCHEMA: &str = "pas-repro-trace/v1";

/// Default per-stream ring capacity (events kept before the oldest
/// are evicted and counted as dropped).
///
/// Sized so a full ring (16-byte entries → 32 KiB) stays resident in
/// a per-core L1/L2 cache: ring churn on the hot scheduling path then
/// costs a few percent instead of thrashing the simulation's own
/// working set. Callers wanting a longer tail pass an explicit
/// capacity to [`Tracer::new`] / `Fleet::enable_tracing`.
pub const DEFAULT_CAPACITY: usize = 2048;

/// What caused a frequency transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreqCause {
    /// The accounting tick of a PAS host (its `PasDomain` planning a
    /// new P-state); rendered `sched`.
    Scheduler,
    /// The cpufreq governor's sampling tick.
    Governor,
}

impl FreqCause {
    /// Stable string form used in the JSONL payload.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FreqCause::Scheduler => "sched",
            FreqCause::Governor => "governor",
        }
    }
}

/// Interned VM name: events are recorded millions of times on hot
/// scheduling paths, so carrying `Arc<str>` makes each record a
/// reference-count bump instead of a heap allocation. Producers
/// intern once (e.g. per VM at tracer install) and clone per event.
pub type VmName = std::sync::Arc<str>;

/// The typed payload of one trace event.
///
/// VM identity is carried by name (the scenario's `VmConfig` /
/// `VmSpec` name) so host-level and fleet-level events aggregate
/// under the same key in `trace-summary`; see [`VmName`] for why the
/// name is interned.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The scheduler's pick changed: a different VM (or none) now
    /// holds the CPU. `preempt` is true when the previously running
    /// VM was still runnable — i.e. it lost the CPU to a competitor
    /// rather than going idle.
    SchedPick {
        /// Name of the VM now running; `None` = CPU idle.
        vm: Option<VmName>,
        /// Whether the displaced VM was still runnable.
        preempt: bool,
    },
    /// The scheduler rewrote a VM's cap (PAS credit compensation,
    /// Equation 4). Emitted only when the cap actually changes.
    CapChange {
        /// Name of the capped VM.
        vm: VmName,
        /// New cap in percent of wall time; `None` = uncapped.
        cap_pct: Option<f64>,
    },
    /// The CPU changed P-state.
    FreqChange {
        /// Who initiated the transition.
        cause: FreqCause,
        /// Frequency before, MHz.
        from_mhz: u32,
        /// Frequency after, MHz.
        to_mhz: u32,
    },
    /// A VM finished its demand (work source exhausted and backlog
    /// drained).
    VmComplete {
        /// Name of the finished VM.
        vm: VmName,
    },
    /// The placement controller assigned a VM to a host (recorded
    /// once per VM when tracing is enabled on a fleet).
    Placement {
        /// Name of the placed VM.
        vm: VmName,
        /// Destination host index.
        to_host: usize,
        /// Zone the VM's name hashed to (sharded placement only).
        zone: Option<usize>,
        /// Whether the VM overflowed its zone's capacity and was
        /// re-placed serially by the coordinator.
        spilled: bool,
    },
    /// A live migration began (pre-copy starts).
    MigrationStart {
        /// Name of the migrating VM.
        vm: VmName,
        /// Source host index.
        from_host: usize,
        /// Destination host index.
        to_host: usize,
        /// VM memory footprint, GiB.
        mem_gib: f64,
        /// Pre-copy duration, seconds.
        copy_s: f64,
    },
    /// Pre-copy finished; the stop-and-copy blackout begins.
    MigrationBlackout {
        /// Name of the migrating VM.
        vm: VmName,
        /// Blackout duration, seconds.
        downtime_s: f64,
    },
    /// The migration completed on the destination host.
    MigrationFinish {
        /// Name of the migrated VM.
        vm: VmName,
        /// Source host index.
        from_host: usize,
        /// Destination host index.
        to_host: usize,
        /// Transfer energy charged to the fleet, joules.
        energy_j: f64,
    },
    /// A fleet control epoch ended.
    EpochEnd {
        /// Zero-based epoch index.
        epoch: u64,
        /// Fleet-mean host load over the epoch, percent.
        mean_load_pct: f64,
    },
    /// The run finished with delivered capacity below entitlement.
    SlaViolation {
        /// Delivered/entitled ratio (< 1 means violation).
        sla_ratio: f64,
    },
}

impl EventKind {
    /// Stable event name used as the JSONL `event` field.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SchedPick { .. } => "sched_pick",
            EventKind::CapChange { .. } => "cap_change",
            EventKind::FreqChange { .. } => "freq_change",
            EventKind::VmComplete { .. } => "vm_complete",
            EventKind::Placement { .. } => "placement",
            EventKind::MigrationStart { .. } => "migration_start",
            EventKind::MigrationBlackout { .. } => "migration_blackout",
            EventKind::MigrationFinish { .. } => "migration_finish",
            EventKind::EpochEnd { .. } => "epoch_end",
            EventKind::SlaViolation { .. } => "sla_violation",
        }
    }

    /// The VM this event is about, if any.
    #[must_use]
    pub fn vm(&self) -> Option<&str> {
        match self {
            EventKind::SchedPick { vm, .. } => vm.as_deref(),
            EventKind::CapChange { vm, .. }
            | EventKind::VmComplete { vm }
            | EventKind::Placement { vm, .. }
            | EventKind::MigrationStart { vm, .. }
            | EventKind::MigrationBlackout { vm, .. }
            | EventKind::MigrationFinish { vm, .. } => Some(vm),
            EventKind::FreqChange { .. }
            | EventKind::EpochEnd { .. }
            | EventKind::SlaViolation { .. } => None,
        }
    }

    /// Payload fields beyond `(at_s, host, vm, event)`, in schema
    /// order.
    fn payload(&self) -> Vec<(&'static str, JsonValue)> {
        match self {
            EventKind::SchedPick { preempt, .. } => vec![("preempt", (*preempt).into())],
            EventKind::CapChange { cap_pct, .. } => vec![("cap_pct", (*cap_pct).into())],
            EventKind::FreqChange {
                cause,
                from_mhz,
                to_mhz,
            } => vec![
                ("cause", cause.as_str().into()),
                ("from_mhz", (*from_mhz).into()),
                ("to_mhz", (*to_mhz).into()),
            ],
            EventKind::VmComplete { .. } => vec![],
            EventKind::Placement {
                to_host,
                zone,
                spilled,
                ..
            } => vec![
                ("to_host", (*to_host).into()),
                ("zone", (*zone).into()),
                ("spilled", (*spilled).into()),
            ],
            EventKind::MigrationStart {
                from_host,
                to_host,
                mem_gib,
                copy_s,
                ..
            } => vec![
                ("from_host", (*from_host).into()),
                ("to_host", (*to_host).into()),
                ("mem_gib", (*mem_gib).into()),
                ("copy_s", (*copy_s).into()),
            ],
            EventKind::MigrationBlackout { downtime_s, .. } => {
                vec![("downtime_s", (*downtime_s).into())]
            }
            EventKind::MigrationFinish {
                from_host,
                to_host,
                energy_j,
                ..
            } => vec![
                ("from_host", (*from_host).into()),
                ("to_host", (*to_host).into()),
                ("energy_j", (*energy_j).into()),
            ],
            EventKind::EpochEnd {
                epoch,
                mean_load_pct,
            } => vec![
                ("epoch", (*epoch).into()),
                ("mean_load_pct", (*mean_load_pct).into()),
            ],
            EventKind::SlaViolation { sla_ratio } => vec![("sla_ratio", (*sla_ratio).into())],
        }
    }
}

/// Index of an interned VM name in a [`Tracer`]'s name table (see
/// [`Tracer::intern`]). Copyable, so hot recording paths can stamp
/// events without touching the name's reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

/// One recorded event: simulation time plus a packed payload word —
/// 16 bytes, `Copy`. Scheduler picks fire millions of times per
/// simulated fleet and are encoded entirely in `packed` (tag +
/// preempt bit + [`NameId`]); every other kind is rare and stores a
/// [`TAG_SIDE`] marker here with its full [`EventKind`] in the
/// tracer's side queue. Small `Copy` entries keep the hot record path
/// to one 16-byte store and halve the ring's cache footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotEvent {
    at_s: f64,
    packed: u64,
}

/// `packed` bit layout: bits 0–1 tag, bit 2 preempt (picks), bits
/// 32–63 the picked VM's [`NameId`] ([`TAG_PICK_SOME`] only).
const TAG_MASK: u64 = 0b11;
/// The scheduler picked nothing: the CPU went idle.
const TAG_PICK_NONE: u64 = 0;
/// The scheduler picked the VM in bits 32–63.
const TAG_PICK_SOME: u64 = 1;
/// The payload is the oldest unclaimed entry of the side queue.
const TAG_SIDE: u64 = 2;
/// Pick events: the displaced VM was still runnable.
const PREEMPT_BIT: u64 = 1 << 2;

/// A bounded per-stream event ring.
///
/// Each simulation component that emits events owns one tracer with a
/// distinct `stream` id (fleet stream 0, host *h* stream *h + 1*).
/// Every recorded event gets a per-stream sequence number; when the
/// ring is full the oldest event is evicted and counted, so memory
/// stays bounded while the totals remain exact.
#[derive(Debug, Clone)]
pub struct Tracer {
    stream: usize,
    host: Option<usize>,
    capacity: usize,
    seq: u64,
    dropped: u64,
    names: Vec<VmName>,
    /// Flat ring: grows until `capacity`, then `write` wraps and
    /// overwrites oldest-first. No VecDeque head/tail bookkeeping on
    /// the hot store.
    events: Vec<SlotEvent>,
    /// Next overwrite position once the ring is full.
    write: usize,
    /// Payloads for [`TAG_SIDE`] slots, oldest first. At most one per
    /// ring slot, so bounded by `capacity`; evicting a side slot pops
    /// the front.
    side: VecDeque<EventKind>,
}

impl Tracer {
    /// Creates a tracer for `stream` keeping at most `capacity`
    /// events (a zero capacity is clamped to 1).
    #[must_use]
    pub fn new(stream: usize, capacity: usize) -> Self {
        Tracer {
            stream,
            host: None,
            capacity: capacity.max(1),
            seq: 0,
            dropped: 0,
            names: Vec::new(),
            events: Vec::new(),
            write: 0,
            side: VecDeque::new(),
        }
    }

    /// Interns a VM name into this tracer's name table, returning the
    /// copyable id the `record_pick` / `record_cap` fast paths take.
    /// Idempotent: interning the same name again returns the same id.
    pub fn intern(&mut self, name: &VmName) -> NameId {
        let found = self
            .names
            .iter()
            .position(|n| VmName::ptr_eq(n, name) || **n == **name);
        match found {
            Some(i) => NameId(u32::try_from(i).expect("name table fits u32")),
            None => {
                let id = NameId(u32::try_from(self.names.len()).expect("name table fits u32"));
                self.names.push(name.clone());
                id
            }
        }
    }

    /// Records one event at simulation time `at_s`.
    pub fn record(&mut self, at_s: f64, kind: EventKind) {
        self.side.push_back(kind);
        self.push(at_s, TAG_SIDE);
    }

    #[inline]
    fn push(&mut self, at_s: f64, packed: u64) {
        if self.events.len() < self.capacity {
            self.events.push(SlotEvent { at_s, packed });
        } else {
            let w = self.write;
            // Overwrites proceed oldest-first, and side payloads are
            // queued oldest-first, so an evicted side slot's payload
            // is always the queue front.
            if self.events[w].packed & TAG_MASK == TAG_SIDE {
                self.side.pop_front();
            }
            self.events[w] = SlotEvent { at_s, packed };
            self.write = if w + 1 == self.capacity { 0 } else { w + 1 };
            self.dropped += 1;
        }
        self.seq += 1;
    }

    /// Records a scheduler pick change without touching a name's
    /// reference count — the allocation-free fast path for the
    /// highest-volume event kind. `vm` is `None` when the CPU went
    /// idle. Merges identically to recording
    /// [`EventKind::SchedPick`] through [`Tracer::record`].
    #[inline]
    pub fn record_pick(&mut self, at_s: f64, vm: Option<NameId>, preempt: bool) {
        let packed = match vm {
            Some(id) => TAG_PICK_SOME | (u64::from(id.0) << 32),
            None => TAG_PICK_NONE,
        } | if preempt { PREEMPT_BIT } else { 0 };
        self.push(at_s, packed);
    }

    /// Records a cap rewrite via an interned id — the id-based
    /// equivalent of recording [`EventKind::CapChange`]. Cap rewrites
    /// are orders of magnitude rarer than picks (one per accounting
    /// period at most), so they ride the side queue.
    #[inline]
    pub fn record_cap(&mut self, at_s: f64, vm: NameId, cap_pct: Option<f64>) {
        let vm = self.names[vm.0 as usize].clone();
        self.record(at_s, EventKind::CapChange { vm, cap_pct });
    }

    /// Tags every event of this stream with a host index (rendered as
    /// the JSONL `host` field).
    #[must_use]
    pub fn with_host(mut self, host: usize) -> Self {
        self.host = Some(host);
        self
    }

    /// The stream id.
    #[must_use]
    pub fn stream(&self) -> usize {
        self.stream
    }

    /// The host tag, if any.
    #[must_use]
    pub fn host(&self) -> Option<usize> {
        self.host
    }

    /// Events currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events recorded on this stream (kept + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One event in a merged [`Trace`], annotated with its stream
/// identity so the merge order is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedEvent {
    /// Simulation time, seconds.
    pub at_s: f64,
    /// Originating stream id.
    pub stream: usize,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Host tag of the originating stream.
    pub host: Option<usize>,
    /// The typed payload.
    pub kind: EventKind,
}

/// The deterministic merge of one run's tracers.
///
/// Events are ordered by `(at_s, stream, seq)` — a pure function of
/// simulation state, so the merge is byte-stable no matter how many
/// worker threads or shards produced the streams.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<MergedEvent>,
    recorded: u64,
    dropped: u64,
    streams: usize,
}

impl Trace {
    /// Merges the given tracers into one ordered event list.
    #[must_use]
    pub fn merge(tracers: Vec<Tracer>) -> Self {
        let streams = tracers.len();
        let mut recorded = 0;
        let mut dropped = 0;
        let mut events = Vec::with_capacity(tracers.iter().map(Tracer::len).sum());
        for mut t in tracers {
            recorded += t.seq;
            dropped += t.dropped;
            let len = t.events.len();
            // Every record pushes exactly one entry, so the surviving
            // window holds the `len` newest consecutive sequence
            // numbers ending at `seq - 1`. Oldest-first ring order
            // starts at `write` once the ring has wrapped.
            let base = t.seq - len as u64;
            let start = if len < t.capacity { 0 } else { t.write };
            for i in 0..len {
                let ev = t.events[(start + i) % len];
                let kind = match ev.packed & TAG_MASK {
                    TAG_SIDE => t.side.pop_front().expect("side payload per side slot"),
                    tag => EventKind::SchedPick {
                        vm: (tag == TAG_PICK_SOME)
                            .then(|| t.names[(ev.packed >> 32) as usize].clone()),
                        preempt: ev.packed & PREEMPT_BIT != 0,
                    },
                };
                events.push(MergedEvent {
                    at_s: ev.at_s,
                    stream: t.stream,
                    seq: base + i as u64,
                    host: t.host,
                    kind,
                });
            }
        }
        events.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then(a.stream.cmp(&b.stream))
                .then(a.seq.cmp(&b.seq))
        });
        Trace {
            events,
            recorded,
            dropped,
            streams,
        }
    }

    /// The merged events in `(at_s, stream, seq)` order.
    #[must_use]
    pub fn events(&self) -> &[MergedEvent] {
        &self.events
    }

    /// Total events recorded across all streams (kept + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Total events evicted by full rings.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of merged streams.
    #[must_use]
    pub fn streams(&self) -> usize {
        self.streams
    }
}

/// Renders one or more traces as a `pas-repro-trace/v1` JSONL
/// document: a header object, one flat object per event, and a footer
/// object with totals.
///
/// `parts` pairs an optional run label with each trace — a single run
/// passes `[(None, &trace)]`; a traced campaign passes one labelled
/// part per run, in plan order, and every event line carries its
/// `run` label so the concatenation stays unambiguous.
///
/// ```
/// use trace::{EventKind, Trace, Tracer, render_jsonl};
/// let mut t = Tracer::new(0, 16);
/// t.record(0.5, EventKind::SlaViolation { sla_ratio: 0.9 });
/// let trace = Trace::merge(vec![t]);
/// let jsonl = render_jsonl("demo", &[(None, &trace)]);
/// let mut lines = jsonl.lines();
/// assert_eq!(
///     lines.next(),
///     Some("{\"schema\":\"pas-repro-trace/v1\",\"source\":\"demo\"}")
/// );
/// assert!(lines.next().unwrap().contains("\"event\":\"sla_violation\""));
/// assert!(lines.next().unwrap().starts_with("{\"events\":1,"));
/// ```
#[must_use]
pub fn render_jsonl(source: &str, parts: &[(Option<&str>, &Trace)]) -> String {
    let mut w = JsonlWriter::new();
    w.line(&[("schema", SCHEMA.into()), ("source", source.into())]);
    let mut events: u64 = 0;
    let mut recorded: u64 = 0;
    let mut dropped: u64 = 0;
    let mut streams: usize = 0;
    for (label, trace) in parts {
        recorded += trace.recorded();
        dropped += trace.dropped();
        streams += trace.streams();
        for ev in trace.events() {
            events += 1;
            let mut fields: Vec<(&str, JsonValue)> = Vec::with_capacity(8);
            if let Some(run) = label {
                fields.push(("run", (*run).into()));
            }
            fields.push(("at_s", ev.at_s.into()));
            fields.push(("host", ev.host.into()));
            fields.push(("vm", ev.kind.vm().map(str::to_owned).into()));
            fields.push(("event", ev.kind.name().into()));
            fields.extend(ev.kind.payload());
            w.line(&fields);
        }
    }
    w.line(&[
        ("events", events.into()),
        ("recorded", recorded.into()),
        ("dropped", dropped.into()),
        ("streams", streams.into()),
        ("runs", parts.len().into()),
    ]);
    w.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(vm: &str) -> EventKind {
        EventKind::SchedPick {
            vm: Some(vm.into()),
            preempt: false,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut t = Tracer::new(1, 3);
        for i in 0..5 {
            t.record(i as f64, pick("v"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        // The survivors are the *newest* events.
        let trace = Trace::merge(vec![t]);
        assert_eq!(trace.events()[0].at_s, 2.0);
        assert_eq!(trace.events()[2].at_s, 4.0);
    }

    #[test]
    fn merge_orders_by_time_then_stream_then_seq() {
        let mut fleet = Tracer::new(0, 16);
        let mut host = Tracer::new(1, 16).with_host(0);
        host.record(1.0, pick("a"));
        host.record(1.0, pick("b"));
        fleet.record(
            1.0,
            EventKind::EpochEnd {
                epoch: 0,
                mean_load_pct: 50.0,
            },
        );
        fleet.record(0.5, EventKind::SlaViolation { sla_ratio: 0.9 });
        let trace = Trace::merge(vec![fleet, host]);
        let order: Vec<(f64, usize, u64)> = trace
            .events()
            .iter()
            .map(|e| (e.at_s, e.stream, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![(0.5, 0, 1), (1.0, 0, 0), (1.0, 1, 0), (1.0, 1, 1)]
        );
        assert_eq!(trace.streams(), 2);
        assert_eq!(trace.recorded(), 4);
        assert_eq!(trace.dropped(), 0);
    }

    #[test]
    fn merge_is_invariant_to_tracer_insertion_order_within_a_time() {
        // Same streams handed over in a different order must yield the
        // same merged sequence (stream id, not vector position, breaks
        // ties).
        let mk = |stream: usize, names: &[&str]| {
            let mut t = Tracer::new(stream, 8);
            for n in names {
                t.record(2.0, pick(n));
            }
            t
        };
        let a = Trace::merge(vec![mk(1, &["x"]), mk(2, &["y"])]);
        let b = Trace::merge(vec![mk(2, &["y"]), mk(1, &["x"])]);
        let names = |t: &Trace| {
            t.events()
                .iter()
                .map(|e| e.kind.vm().unwrap().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
    }

    #[test]
    fn jsonl_lines_have_fixed_field_order_and_exact_numbers() {
        let mut t = Tracer::new(1, 8).with_host(3);
        t.record(
            30.0,
            EventKind::FreqChange {
                cause: FreqCause::Governor,
                from_mhz: 2800,
                to_mhz: 2100,
            },
        );
        let trace = Trace::merge(vec![t]);
        let jsonl = render_jsonl("unit", &[(Some("base#42"), &trace)]);
        let event_line = jsonl.lines().nth(1).unwrap();
        assert_eq!(
            event_line,
            "{\"run\":\"base#42\",\"at_s\":30,\"host\":3,\"vm\":null,\
             \"event\":\"freq_change\",\"cause\":\"governor\",\
             \"from_mhz\":2800,\"to_mhz\":2100}"
        );
        let footer = jsonl.lines().nth(2).unwrap();
        assert_eq!(
            footer,
            "{\"events\":1,\"recorded\":1,\"dropped\":0,\"streams\":1,\"runs\":1}"
        );
    }

    #[test]
    fn footer_totals_include_dropped_events() {
        let mut t = Tracer::new(0, 2);
        for i in 0..4 {
            t.record(i as f64, pick("v"));
        }
        let trace = Trace::merge(vec![t]);
        let jsonl = render_jsonl("unit", &[(None, &trace)]);
        let footer = jsonl.lines().last().unwrap();
        assert_eq!(
            footer,
            "{\"events\":2,\"recorded\":4,\"dropped\":2,\"streams\":1,\"runs\":1}"
        );
    }

    #[test]
    fn event_names_and_vm_extraction_are_stable() {
        let cases: Vec<(EventKind, &str, Option<&str>)> = vec![
            (pick("v1"), "sched_pick", Some("v1")),
            (
                EventKind::CapChange {
                    vm: "v2".into(),
                    cap_pct: Some(20.0),
                },
                "cap_change",
                Some("v2"),
            ),
            (
                EventKind::VmComplete { vm: "v3".into() },
                "vm_complete",
                Some("v3"),
            ),
            (
                EventKind::Placement {
                    vm: "v4".into(),
                    to_host: 1,
                    zone: Some(7),
                    spilled: false,
                },
                "placement",
                Some("v4"),
            ),
            (
                EventKind::MigrationStart {
                    vm: "v5".into(),
                    from_host: 0,
                    to_host: 1,
                    mem_gib: 4.0,
                    copy_s: 32.0,
                },
                "migration_start",
                Some("v5"),
            ),
            (
                EventKind::MigrationBlackout {
                    vm: "v5".into(),
                    downtime_s: 0.3,
                },
                "migration_blackout",
                Some("v5"),
            ),
            (
                EventKind::MigrationFinish {
                    vm: "v5".into(),
                    from_host: 0,
                    to_host: 1,
                    energy_j: 80.0,
                },
                "migration_finish",
                Some("v5"),
            ),
            (
                EventKind::EpochEnd {
                    epoch: 3,
                    mean_load_pct: 42.0,
                },
                "epoch_end",
                None,
            ),
            (
                EventKind::SlaViolation { sla_ratio: 0.98 },
                "sla_violation",
                None,
            ),
        ];
        for (kind, name, vm) in cases {
            assert_eq!(kind.name(), name);
            assert_eq!(kind.vm(), vm);
        }
    }
}
