//! The `repro trace-summary` analyzer.
//!
//! Parses a `pas-repro-trace/v1` JSONL document (header line, one
//! object per event, footer line with totals), validates it, and
//! reduces it to a human-readable report: event counts by kind, by
//! host and by VM, a frequency-transition histogram, and a migration
//! timeline table. Malformed input is rejected with the offending
//! line number — the analyzer doubles as the CI validator for traced
//! artefacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use metrics::export::exact_num;
use serde::Value;

/// One row of the migration timeline, stitched from the
/// `migration_start` / `migration_blackout` / `migration_finish`
/// triple of a single migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRow {
    /// Pre-copy start, simulation seconds.
    pub at_s: f64,
    /// Migrating VM name.
    pub vm: String,
    /// Source host index.
    pub from_host: u64,
    /// Destination host index.
    pub to_host: u64,
    /// Pre-copy duration, seconds.
    pub copy_s: f64,
    /// Blackout duration, seconds (absent if the blackout event was
    /// dropped from the ring).
    pub downtime_s: Option<f64>,
    /// Completion time, seconds (absent if the finish event was
    /// dropped).
    pub finish_s: Option<f64>,
}

/// The reduced view of one trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The header's `source` field.
    pub source: String,
    /// Labelled runs in the file (footer `runs`).
    pub runs: u64,
    /// Merged streams (footer `streams`).
    pub streams: u64,
    /// Event lines in the file (validated against the footer).
    pub events: u64,
    /// Events recorded before ring eviction (footer `recorded`).
    pub recorded: u64,
    /// Events evicted by full rings (footer `dropped`).
    pub dropped: u64,
    /// Event counts by kind name.
    pub by_kind: Vec<(String, u64)>,
    /// Event counts by host index (host-tagged streams only).
    pub by_host: Vec<(u64, u64)>,
    /// Events carrying no host tag (fleet-level streams).
    pub fleet_events: u64,
    /// Event counts by VM name, most active first.
    pub by_vm: Vec<(String, u64)>,
    /// Frequency-transition histogram: `(from_mhz, to_mhz, cause)`
    /// with occurrence counts, ascending by key.
    pub freq_transitions: Vec<((u64, u64, String), u64)>,
    /// Migration timeline in start order.
    pub migrations: Vec<MigrationRow>,
}

fn get<'v>(map: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(map: &[(String, Value)], key: &str, line: usize) -> Result<f64, String> {
    get(map, key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("line {line}: missing numeric field {key:?}"))
}

fn uint(map: &[(String, Value)], key: &str, line: usize) -> Result<u64, String> {
    let v = num(map, key, line)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!(
            "line {line}: field {key:?} is not a non-negative integer"
        ));
    }
    Ok(v as u64)
}

fn text_field(map: &[(String, Value)], key: &str, line: usize) -> Result<String, String> {
    get(map, key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("line {line}: missing string field {key:?}"))
}

/// Parses and validates a `pas-repro-trace/v1` JSONL document.
///
/// # Errors
///
/// Returns a message naming the offending line when the document is
/// not valid JSONL, the header schema is wrong, an event line lacks
/// `at_s`/`event`, or the footer totals disagree with the line count.
pub fn summarize(jsonl: &str) -> Result<TraceSummary, String> {
    let mut lines = jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());

    let (header_no, header_line) = lines.next().ok_or("trace file is empty")?;
    let header: Value =
        serde_json::from_str(header_line).map_err(|e| format!("line {}: {e}", header_no + 1))?;
    let header = header
        .as_map()
        .ok_or_else(|| format!("line {}: header is not an object", header_no + 1))?
        .to_vec();
    let schema = text_field(&header, "schema", header_no + 1)?;
    if schema != crate::SCHEMA {
        return Err(format!(
            "line {}: unsupported schema {schema:?} (expected {:?})",
            header_no + 1,
            crate::SCHEMA
        ));
    }
    let source = text_field(&header, "source", header_no + 1)?;

    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_host: BTreeMap<u64, u64> = BTreeMap::new();
    let mut fleet_events: u64 = 0;
    let mut by_vm: BTreeMap<String, u64> = BTreeMap::new();
    let mut freq: BTreeMap<(u64, u64, String), u64> = BTreeMap::new();
    let mut migrations: Vec<MigrationRow> = Vec::new();
    let mut event_count: u64 = 0;
    let mut footer: Option<(usize, Vec<(String, Value)>)> = None;

    for (idx, raw) in lines {
        let line = idx + 1;
        if footer.is_some() {
            return Err(format!("line {line}: content after the footer"));
        }
        let value: Value = serde_json::from_str(raw).map_err(|e| format!("line {line}: {e}"))?;
        let map = value
            .as_map()
            .ok_or_else(|| format!("line {line}: not a JSON object"))?
            .to_vec();
        if get(&map, "events").is_some() && get(&map, "event").is_none() {
            footer = Some((line, map));
            continue;
        }

        let at_s = num(&map, "at_s", line)?;
        let kind = text_field(&map, "event", line)?;
        event_count += 1;
        *by_kind.entry(kind.clone()).or_insert(0) += 1;
        match get(&map, "host").and_then(Value::as_num) {
            Some(h) => *by_host.entry(h as u64).or_insert(0) += 1,
            None => fleet_events += 1,
        }
        let vm = get(&map, "vm").and_then(Value::as_str).map(str::to_owned);
        if let Some(name) = &vm {
            *by_vm.entry(name.clone()).or_insert(0) += 1;
        }

        match kind.as_str() {
            "freq_change" => {
                let key = (
                    uint(&map, "from_mhz", line)?,
                    uint(&map, "to_mhz", line)?,
                    text_field(&map, "cause", line)?,
                );
                *freq.entry(key).or_insert(0) += 1;
            }
            "migration_start" => migrations.push(MigrationRow {
                at_s,
                vm: vm.ok_or_else(|| format!("line {line}: migration_start without vm"))?,
                from_host: uint(&map, "from_host", line)?,
                to_host: uint(&map, "to_host", line)?,
                copy_s: num(&map, "copy_s", line)?,
                downtime_s: None,
                finish_s: None,
            }),
            "migration_blackout" => {
                let downtime = num(&map, "downtime_s", line)?;
                if let Some(row) = migrations
                    .iter_mut()
                    .rev()
                    .find(|r| vm.as_deref() == Some(&r.vm) && r.downtime_s.is_none())
                {
                    row.downtime_s = Some(downtime);
                }
            }
            "migration_finish" => {
                if let Some(row) = migrations
                    .iter_mut()
                    .rev()
                    .find(|r| vm.as_deref() == Some(&r.vm) && r.finish_s.is_none())
                {
                    row.finish_s = Some(at_s);
                }
            }
            _ => {}
        }
    }

    let (footer_line, footer) = footer.ok_or("trace file has no footer (missing totals object)")?;
    let events = uint(&footer, "events", footer_line)?;
    if events != event_count {
        return Err(format!(
            "line {footer_line}: footer claims {events} events but the file has {event_count}"
        ));
    }

    let mut by_vm: Vec<(String, u64)> = by_vm.into_iter().collect();
    by_vm.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Ok(TraceSummary {
        source,
        runs: uint(&footer, "runs", footer_line)?,
        streams: uint(&footer, "streams", footer_line)?,
        events,
        recorded: uint(&footer, "recorded", footer_line)?,
        dropped: uint(&footer, "dropped", footer_line)?,
        by_kind: by_kind.into_iter().collect(),
        by_host: by_host.into_iter().collect(),
        fleet_events,
        by_vm,
        freq_transitions: freq.into_iter().collect(),
        migrations,
    })
}

const MAX_HOST_ROWS: usize = 16;
const MAX_VM_ROWS: usize = 16;
const MAX_MIGRATION_ROWS: usize = 20;

impl TraceSummary {
    /// Renders the report as the text `repro trace-summary` prints.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace summary: {}", self.source);
        let _ = writeln!(
            out,
            "  schema {}, {} run(s), {} stream(s)",
            crate::SCHEMA,
            self.runs,
            self.streams
        );
        let _ = writeln!(
            out,
            "  events {} (recorded {}, dropped {})",
            self.events, self.recorded, self.dropped
        );

        let _ = writeln!(out, "\nevents by kind:");
        for (kind, n) in &self.by_kind {
            let _ = writeln!(out, "  {kind:<20} {n:>8}");
        }

        let _ = writeln!(
            out,
            "\nevents by host ({} host(s), {} fleet-level):",
            self.by_host.len(),
            self.fleet_events
        );
        for (host, n) in self.by_host.iter().take(MAX_HOST_ROWS) {
            let _ = writeln!(out, "  host{host:<5} {n:>8}");
        }
        if self.by_host.len() > MAX_HOST_ROWS {
            let _ = writeln!(
                out,
                "  ... +{} more host(s)",
                self.by_host.len() - MAX_HOST_ROWS
            );
        }

        let _ = writeln!(out, "\nevents by vm ({} vm(s)):", self.by_vm.len());
        for (vm, n) in self.by_vm.iter().take(MAX_VM_ROWS) {
            let _ = writeln!(out, "  {vm:<12} {n:>8}");
        }
        if self.by_vm.len() > MAX_VM_ROWS {
            let _ = writeln!(out, "  ... +{} more vm(s)", self.by_vm.len() - MAX_VM_ROWS);
        }

        let _ = writeln!(
            out,
            "\nfrequency transitions ({}):",
            self.freq_transitions.len()
        );
        for ((from, to, cause), n) in &self.freq_transitions {
            let _ = writeln!(out, "  {from:>5} -> {to:<5} MHz  {cause:<9} {n:>6}");
        }

        let _ = writeln!(out, "\nmigrations ({}):", self.migrations.len());
        if !self.migrations.is_empty() {
            let _ = writeln!(
                out,
                "  {:>10}  {:<12} {:>5} {:>5}  {:>8}  {:>10}  {:>10}",
                "at_s", "vm", "from", "to", "copy_s", "downtime_s", "finish_s"
            );
            for row in self.migrations.iter().take(MAX_MIGRATION_ROWS) {
                let opt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), exact_num);
                let _ = writeln!(
                    out,
                    "  {:>10}  {:<12} {:>5} {:>5}  {:>8}  {:>10}  {:>10}",
                    exact_num(row.at_s),
                    row.vm,
                    row.from_host,
                    row.to_host,
                    exact_num(row.copy_s),
                    opt(row.downtime_s),
                    opt(row.finish_s),
                );
            }
            if self.migrations.len() > MAX_MIGRATION_ROWS {
                let _ = writeln!(
                    out,
                    "  ... +{} more migration(s)",
                    self.migrations.len() - MAX_MIGRATION_ROWS
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_jsonl, EventKind, FreqCause, Trace, Tracer};

    fn sample_jsonl() -> String {
        let mut fleet = Tracer::new(0, 64);
        let mut host = Tracer::new(1, 64).with_host(0);
        host.record(
            0.03,
            EventKind::SchedPick {
                vm: Some("v20".into()),
                preempt: false,
            },
        );
        host.record(
            30.0,
            EventKind::FreqChange {
                cause: FreqCause::Scheduler,
                from_mhz: 2800,
                to_mhz: 2100,
            },
        );
        fleet.record(
            30.0,
            EventKind::MigrationStart {
                vm: "v20".into(),
                from_host: 0,
                to_host: 1,
                mem_gib: 4.0,
                copy_s: 32.0,
            },
        );
        fleet.record(
            30.0,
            EventKind::MigrationBlackout {
                vm: "v20".into(),
                downtime_s: 0.3,
            },
        );
        fleet.record(
            62.3,
            EventKind::MigrationFinish {
                vm: "v20".into(),
                from_host: 0,
                to_host: 1,
                energy_j: 80.0,
            },
        );
        let trace = Trace::merge(vec![fleet, host]);
        render_jsonl("unit", &[(None, &trace)])
    }

    #[test]
    fn summarize_counts_kinds_hosts_vms_and_stitches_migrations() {
        let s = summarize(&sample_jsonl()).expect("valid trace");
        assert_eq!(s.source, "unit");
        assert_eq!(s.events, 5);
        assert_eq!(s.streams, 2);
        assert_eq!(s.dropped, 0);
        assert_eq!(
            s.by_kind,
            vec![
                ("freq_change".to_owned(), 1),
                ("migration_blackout".to_owned(), 1),
                ("migration_finish".to_owned(), 1),
                ("migration_start".to_owned(), 1),
                ("sched_pick".to_owned(), 1),
            ]
        );
        assert_eq!(s.by_host, vec![(0, 2)]);
        assert_eq!(s.fleet_events, 3);
        assert_eq!(s.by_vm, vec![("v20".to_owned(), 4)]);
        assert_eq!(
            s.freq_transitions,
            vec![((2800, 2100, "sched".to_owned()), 1)]
        );
        assert_eq!(s.migrations.len(), 1);
        let m = &s.migrations[0];
        assert_eq!(m.vm, "v20");
        assert_eq!((m.from_host, m.to_host), (0, 1));
        assert_eq!(m.downtime_s, Some(0.3));
        assert_eq!(m.finish_s, Some(62.3));
        let text = s.text();
        assert!(text.contains("trace summary: unit"));
        assert!(text.contains("sched_pick"));
        assert!(text.contains("2800 -> 2100"));
    }

    #[test]
    fn wrong_schema_is_rejected_with_line_number() {
        let doc = "{\"schema\":\"other/v9\",\"source\":\"x\"}\n";
        let err = summarize(doc).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("other/v9"), "{err}");
    }

    #[test]
    fn malformed_json_names_the_line() {
        let doc = format!(
            "{}\n{}\n",
            "{\"schema\":\"pas-repro-trace/v1\",\"source\":\"x\"}", "{not json"
        );
        let err = summarize(&doc).unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn footer_event_count_mismatch_is_rejected() {
        let doc = concat!(
            "{\"schema\":\"pas-repro-trace/v1\",\"source\":\"x\"}\n",
            "{\"at_s\":1,\"host\":null,\"vm\":null,\"event\":\"sla_violation\",\"sla_ratio\":0.9}\n",
            "{\"events\":7,\"recorded\":7,\"dropped\":0,\"streams\":1,\"runs\":1}\n",
        );
        let err = summarize(doc).unwrap_err();
        assert!(err.contains("claims 7 events but the file has 1"), "{err}");
    }

    #[test]
    fn missing_footer_is_rejected() {
        let doc = "{\"schema\":\"pas-repro-trace/v1\",\"source\":\"x\"}\n";
        let err = summarize(doc).unwrap_err();
        assert!(err.contains("no footer"), "{err}");
    }

    #[test]
    fn event_line_without_at_s_is_rejected() {
        let doc = concat!(
            "{\"schema\":\"pas-repro-trace/v1\",\"source\":\"x\"}\n",
            "{\"event\":\"sla_violation\"}\n",
            "{\"events\":1,\"recorded\":1,\"dropped\":0,\"streams\":1,\"runs\":1}\n",
        );
        let err = summarize(doc).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("at_s"), "{err}");
    }
}
