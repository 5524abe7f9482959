//! `serve`: one closed-loop client against an in-process
//! `server::Server`.
//!
//! Why: it is the only path through `server` and `campaign`. It mixes
//! writes (submits) with reads (polls and summaries) and accepted
//! requests with refused ones, and its campaigns are small, so the
//! request path and campaign expand/reduce/export are a visible share
//! of a turnaround. Retained jobs make its memory grow.
//!
//! Exercises `server` (accept loop, middleware chain, job queue, drain
//! thread) and `campaign` (parse, expand, simulate, reduce, export),
//! with `cluster` and `hypervisor` inside the simulated runs. Bypasses
//! `experiments`.
//!
//! The load is a closed loop with one client and one connection at a
//! time: the next request goes out only after the previous response
//! arrived. A pass boots a server (loopback ephemeral port, token auth
//! on, a rate limit far above what one client can send, one campaign
//! worker, quick fidelity, access log to a sink), then works through a
//! seed-shuffled fixed mix: two campaigns each shaped like
//! `credit-sweep.json`, `machine-governor-grid.json` and
//! `fleet-placement-sweep.json` (with `seeds.base` drawn from the
//! seed), plus one submit without a token (401) and one malformed spec
//! (400). Each campaign is submitted, polled every 2 ms until done and
//! its summary fetched. An operation is one request.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use campaign::{CampaignReport, CampaignSpec};
use serde::Value;
use server::middleware::LogSink;
use server::{Server, ServerConfig};
use simkernel::SimRng;

use crate::spans::{median, quantile};
use crate::{overhead_pct, ratio, Items, Reported, Run};

const TOKEN: &str = "perfbench";
/// Far above the few hundred requests per second one client sends.
const RATE_PER_S: f64 = 100_000.0;
const POLL_PAUSE: Duration = Duration::from_millis(2);
const IO_TIMEOUT: Duration = Duration::from_secs(30);
const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(60);

// The three campaign shapes of the mix, each sized to take tens of
// milliseconds so simulation, the request path and expand/reduce/export
// all show in a turnaround. The second value is one run's simulated
// length: the spec's duration at quick fidelity.

fn credit_sweep(base: u64) -> (String, f64) {
    let json = format!(
        r#"{{"name": "credit-sweep",
  "scenario": {{"kind": "host", "machine": "optiplex-755", "scheduler": "credit",
    "governor": "stable-ondemand", "duration_s": 6000,
    "vms": [
      {{"name": "v20", "credit_pct": 20, "workload": {{"kind": "web-app", "intensity_pct": 100,
        "start_s": 500, "active_s": 4500, "bursty": true}}}},
      {{"name": "v70", "credit_pct": 70, "workload": {{"kind": "web-app", "intensity_pct": 100,
        "start_s": 2500, "active_s": 2500, "bursty": true}}}}]}},
  "sweep": [{{"param": "scheduler", "values": ["credit", "sedf-extra", "pas"]}},
            {{"param": "credit_pct:v20", "values": [10, 20]}}],
  "seeds": {{"base": {base}, "replicates": 1}}}}"#
    );
    (json, 600.0)
}

fn machine_governor(base: u64) -> (String, f64) {
    let json = format!(
        r#"{{"name": "machine-governor",
  "scenario": {{"kind": "host", "scheduler": "credit", "duration_s": 1200,
    "vms": [
      {{"name": "web", "credit_pct": 30, "workload": {{"kind": "web-app", "intensity_pct": 100,
        "bursty": true, "request_mcycles": 50}}}},
      {{"name": "batch", "credit_pct": 40, "workload": {{"kind": "pi-app", "seconds": 600}}}}]}},
  "sweep": [{{"param": "machine", "values": ["optiplex-755", "xeon-x3440", "core-i7-3770"]}},
            {{"param": "governor", "values": ["ondemand", "stable-ondemand"]}}],
  "seeds": {{"base": {base}, "replicates": 3}}}}"#
    );
    (json, 120.0)
}

/// All VMs are 4 GiB, so every seed packs onto the same hosts count and
/// the campaign's simulated host-seconds do not vary with the seed.
fn fleet_placement(base: u64) -> (String, f64) {
    let json = format!(
        r#"{{"name": "fleet-placement",
  "scenario": {{"kind": "fleet", "scheduler": "pas", "duration_s": 600, "size": 12,
    "mem_gib_choices": [4], "cpu_frac_min": 0.03, "cpu_frac_max": 0.1,
    "credit_factor": 1.5, "epoch_s": 30, "spare_hosts": 1}},
  "sweep": [{{"param": "placement", "values": ["first-fit", "best-fit"]}},
            {{"param": "migration", "values": ["off", "on"]}}],
  "seeds": {{"base": {base}, "replicates": 1}}}}"#
    );
    (json, 60.0)
}

/// One step of the client's session.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Submit, poll and fetch the summary of campaign `i` of the mix.
    Campaign(usize),
    /// A valid submit without the token: must get 401.
    NoToken,
    /// A malformed spec: must get 400.
    Malformed,
}

/// A campaign of the mix with what the in-process library says about
/// it.
struct Reference {
    json: String,
    summary: String,
    host_s: f64,
}

/// The seed's campaign mix (spec, one run's simulated seconds) and
/// session order.
fn session(seed: u64) -> (Vec<(String, f64)>, Vec<Step>) {
    let mut rng = SimRng::seed_from(seed);
    let mut specs = Vec::new();
    for shape in [credit_sweep, machine_governor, fleet_placement] {
        for _ in 0..2 {
            specs.push(shape(rng.below(1_000_000)));
        }
    }
    let mut steps: Vec<Step> = (0..specs.len()).map(Step::Campaign).collect();
    steps.extend([Step::NoToken, Step::Malformed]);
    for i in (1..steps.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        steps.swap(i, j);
    }
    (specs, steps)
}

/// The summary artefact of a finished report.
fn summary_of(report: &CampaignReport) -> Result<String, String> {
    report
        .artefact_files()
        .map_err(|e| format!("artefact_files: {e}"))?
        .into_iter()
        .find(|(name, _)| name.ends_with("-summary.json"))
        .map(|(_, content)| content)
        .ok_or_else(|| "no -summary.json artefact".to_owned())
}

/// Simulated host-seconds of a finished campaign: each run is one
/// host (or a fleet's `host_count` hosts) for `run_s`.
fn host_seconds(report: &CampaignReport, run_s: f64) -> f64 {
    report
        .points
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| {
            let hosts = r
                .scalars
                .iter()
                .find(|(name, _)| name == "host_count")
                .map_or(1.0, |&(_, v)| v);
            hosts * run_s
        })
        .sum()
}

fn references(run: &mut Run, specs: &[(String, f64)]) -> Result<Vec<Reference>, String> {
    specs
        .iter()
        .map(|(json, run_s)| {
            let (spec, _) = run
                .spans
                .time("CampaignSpec::from_json", || CampaignSpec::from_json(json));
            let spec = spec.map_err(|e| format!("mix spec rejected: {e}"))?;
            let (report, _) = run
                .spans
                .time("campaign::run", || campaign::run(&spec, true, 1));
            let report = report.map_err(|e| format!("campaign::run: {e}"))?;
            let (summary, _) = run
                .spans
                .time("CampaignReport::artefact_files", || summary_of(&report));
            Ok(Reference {
                json: json.clone(),
                summary: summary?,
                host_s: host_seconds(&report, *run_s),
            })
        })
        .collect()
}

/// One HTTP/1.1 exchange on a fresh connection: `(status, body)`.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    token: Option<&str>,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    let auth = token.map_or(String::new(), |t| format!("authorization: Bearer {t}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\n{auth}content-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(response).map_err(|_| "response is not UTF-8".to_owned())?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {text:?}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Ok((status, body))
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn parse(body: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(body.trim()).map_err(|e| format!("bad JSON {body:?}: {e:?}"))
}

/// Named numbers from a `/profilez` list (`spans` by `ms`, `counters`
/// by `value`).
fn profile_entries(profile: &Value, list: &str, num: &str) -> Vec<(String, f64)> {
    field(profile, list)
        .and_then(Value::as_seq)
        .unwrap_or_default()
        .iter()
        .filter_map(|e| {
            let name = field(e, "name")?.as_str()?.to_owned();
            Some((name, field(e, num)?.as_num()?))
        })
        .collect()
}

fn entry(entries: &[(String, f64)], name: &str) -> f64 {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// A running server and what the client has seen of it.
struct Session {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    sent: u64,
    by_class: [u64; 6],
}

impl Session {
    /// One request as one operation: a transport error or a status
    /// other than `want` counts it as failed.
    fn request(
        &mut self,
        run: &mut Run,
        span: &'static str,
        (method, path, token, body): (&str, &str, Option<&str>, &str),
        want: u16,
    ) -> Option<String> {
        let addr = self.addr;
        run.op(span, |run| {
            let (reply, _) = run
                .spans
                .time(span, || http(addr, method, path, token, body));
            let (status, reply) = reply?;
            self.sent += 1;
            self.by_class[usize::from(status / 100).min(5)] += 1;
            if status == want {
                Ok(reply)
            } else {
                Err(format!(
                    "{method} {path} got {status} (wanted {want}): {}",
                    reply.trim()
                ))
            }
        })
    }
}

/// Boots a server and waits for its first `/healthz`; returns the
/// session and the boot's wall time.
fn boot(run: &mut Run) -> Option<(Session, f64)> {
    let span = run.spans.begin("boot");
    let sink: LogSink = Arc::new(Mutex::new(Box::new(std::io::sink())));
    let cfg = ServerConfig {
        addr: "127.0.0.1".to_owned(),
        port: 0,
        jobs: 1,
        token: Some(TOKEN.to_owned()),
        rate: Some(RATE_PER_S),
        quick: true,
        log: sink,
        ..ServerConfig::default()
    };
    let (bound, _) = run.spans.time("Server::bind", || Server::bind(cfg));
    let server = match bound.and_then(|s| s.local_addr().map(|a| (s, a))) {
        Ok(pair) => pair,
        Err(e) => {
            run.lost(1, &format!("Server::bind: {e}"));
            run.spans.end(span);
            return None;
        }
    };
    let (server, addr) = server;
    let mut session = Session {
        addr,
        thread: std::thread::spawn(move || server.run()),
        sent: 0,
        by_class: [0; 6],
    };
    session.request(
        run,
        "GET /healthz",
        ("GET", "/healthz", Some(TOKEN), ""),
        200,
    );
    let wall = run.spans.end(span);
    Some((session, wall))
}

/// Per-pass numbers a traced pass adds.
#[derive(Default)]
struct Traced {
    profiles: Vec<Value>,
    campaign_spans: Vec<Vec<(String, f64)>>,
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    host_phase_ms: Vec<[f64; 4]>,
}

pub(crate) fn run(run: &mut Run) -> Reported {
    let (specs, steps) = session(run.cfg.seed);
    let refs = match references(run, &specs) {
        Ok(refs) => refs,
        Err(e) => {
            run.lost(1, &e);
            return Reported::new();
        }
    };
    let mut items = Items::default();
    let mut traced = Traced::default();

    while let Some(is_traced) = run.next_pass() {
        let pass = run.spans.begin("pass");
        let Some((mut s, boot_s)) = boot(run) else {
            run.spans.end(pass);
            continue;
        };
        if !is_traced {
            items.setup(boot_s);
        }
        let mut runs = 0.0;
        let sess = run.spans.begin("session");
        for &step in &steps {
            match step {
                Step::Campaign(i) => {
                    let submitted = campaign(run, &mut s, &refs[i]);
                    if let Some((total_runs, turnaround)) = submitted {
                        runs += total_runs;
                        if let (Some(wall), false) = (turnaround, is_traced) {
                            items.record(i, refs[i].host_s, wall);
                        }
                    }
                }
                Step::NoToken => {
                    let req = ("POST", "/campaigns", None, refs[0].json.as_str());
                    s.request(run, "refused", req, 401);
                }
                Step::Malformed => {
                    let req = (
                        "POST",
                        "/campaigns",
                        Some(TOKEN),
                        "{\"name\": \"truncated\", ",
                    );
                    s.request(run, "refused", req, 400);
                }
            }
        }
        run.spans.end(sess);
        let mut counters = Reported::from([
            ("campaign.runs", runs),
            ("server.responses_4xx", s.by_class[4] as f64),
            ("server.responses_5xx", s.by_class[5] as f64),
        ]);
        if is_traced {
            let sent = s.sent;
            let req = ("GET", "/profilez", Some(TOKEN), "");
            if let Some(body) = s.request(run, "GET /profilez", req, 200) {
                let checked = parse(&body).and_then(|profile| {
                    let counted =
                        entry(&profile_entries(&profile, "counters", "value"), "requests");
                    if counted != sent as f64 {
                        return Err(format!(
                            "server counted {counted} requests, client sent {sent}"
                        ));
                    }
                    traced.profiles.push(profile);
                    Ok(())
                });
                run.check(checked);
            }
            in_process(run, &refs, &mut traced, &mut counters);
        }
        run.counters(&counters);
        let req = ("POST", "/shutdown", Some(TOKEN), "");
        if s.request(run, "POST /shutdown", req, 200).is_some() {
            // The accept loop ends after answering the shutdown request.
            let joined = match s.thread.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("Server::run: {e}")),
                Err(_) => Err("Server::run panicked".to_owned()),
            };
            run.check(joined);
        }
        let pass_s = run.spans.end(pass);
        run.pass_done(pass_s);
    }
    report(run, &items, &traced)
}

/// Submits one campaign, polls it to completion and checks its
/// summary; returns its total runs and, if it finished with the right
/// summary, its turnaround in seconds.
fn campaign(run: &mut Run, s: &mut Session, reference: &Reference) -> Option<(f64, Option<f64>)> {
    let span = run.spans.begin("campaign");
    let req = ("POST", "/campaigns", Some(TOKEN), reference.json.as_str());
    let accepted = s.request(run, "POST /campaigns", req, 202);
    let Some(accepted) = accepted else {
        run.spans.end(span);
        return None;
    };
    let ids = parse(&accepted).ok().and_then(|v| {
        let id = field(&v, "id")?.as_num()?;
        Some((id as u64, field(&v, "total_runs")?.as_num()?))
    });
    let Some((id, total_runs)) = ids else {
        run.check(Err(format!("submit answer without id: {accepted}")));
        run.spans.end(span);
        return None;
    };
    let status_path = format!("/campaigns/{id}");
    let deadline = Instant::now() + CAMPAIGN_DEADLINE;
    loop {
        std::thread::sleep(POLL_PAUSE);
        let req = ("GET", status_path.as_str(), Some(TOKEN), "");
        let Some(body) = s.request(run, "GET /campaigns/<id>", req, 200) else {
            run.spans.end(span);
            return Some((total_runs, None));
        };
        if body.contains("\"state\":\"done\"") {
            break;
        }
        if body.contains("\"state\":\"failed\"") || Instant::now() > deadline {
            run.check(Err(format!(
                "campaign {id} did not finish: {}",
                body.trim()
            )));
            run.spans.end(span);
            return Some((total_runs, None));
        }
    }
    let summary_path = format!("/campaigns/{id}/summary");
    let req = ("GET", summary_path.as_str(), Some(TOKEN), "");
    let fetched = s.request(run, "GET /campaigns/<id>/summary", req, 200);
    let turnaround = run.spans.end(span);
    let Some(mut summary) = fetched else {
        return Some((total_runs, None));
    };
    if run.take_fault() {
        let last = summary
            .pop()
            .map_or('x', |c| if c == 'x' { 'y' } else { 'x' });
        summary.push(last);
    }
    let ok = run.check(if summary == reference.summary {
        Ok(())
    } else {
        Err(format!("campaign {id} summary differs from campaign::run"))
    });
    Some((total_runs, ok.then_some(turnaround)))
}

/// The traced pass's in-process half: each campaign of the mix through
/// `CampaignSpec::from_json`, `campaign::run` and `campaign::run_traced`
/// (which must report the same summary), and
/// `CampaignReport::artefact_files`.
fn in_process(run: &mut Run, refs: &[Reference], traced: &mut Traced, counters: &mut Reported) {
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut phases = [0.0; 4];
    let (mut events, mut host_s) = (0.0, 0.0);
    for r in refs {
        run.op("campaign::run_traced", |run| {
            let (spec, _) = run.spans.time("CampaignSpec::from_json", || {
                CampaignSpec::from_json(&r.json)
            });
            let spec = spec.map_err(|e| e.to_string())?;
            let (plain, secs) = run
                .spans
                .time("campaign::run", || campaign::run(&spec, true, 1));
            plain_s += secs;
            plain.map_err(|e| e.to_string())?;
            let (t, secs) = run.spans.time("campaign::run_traced", || {
                campaign::run_traced(&spec, true, 1, trace::DEFAULT_CAPACITY)
            });
            traced_s += secs;
            let t = t.map_err(|e| e.to_string())?;
            let (summary, _) = run
                .spans
                .time("CampaignReport::artefact_files", || summary_of(&t.report));
            if summary? != r.summary {
                return Err("run_traced changed the summary".to_owned());
            }
            let spans: Vec<(String, f64)> = t
                .profile
                .spans
                .iter()
                .map(|s| (s.name.clone(), s.ms))
                .collect();
            let count = |name: &str| {
                t.profile
                    .counters
                    .iter()
                    .find(|c| c.name == name)
                    .map_or(0.0, |c| c.value as f64)
            };
            for (i, name) in ["host_slice", "sched_acct", "governor", "snapshot"]
                .iter()
                .enumerate()
            {
                phases[i] += entry(&spans, name);
            }
            events += count("trace_events") + count("trace_dropped");
            host_s += r.host_s;
            traced.campaign_spans.push(spans);
            Ok(())
        });
    }
    traced.plain_s.push(plain_s);
    traced.traced_s.push(traced_s);
    traced.host_phase_ms.push(phases);
    counters.insert("trace.events_per_host_s", ratio(events, host_s));
}

fn report(run: &Run, items: &Items, traced: &Traced) -> Reported {
    let spans = &run.spans;
    let ms_p50 = |name: &str| median(&spans.secs(name, true)) * 1e3;
    let statuses = spans.secs("GET /campaigns/<id>", true);
    let counters: Vec<Vec<(String, f64)>> = traced
        .profiles
        .iter()
        .map(|p| profile_entries(p, "counters", "value"))
        .collect();
    let profile_spans: Vec<Vec<(String, f64)>> = traced
        .profiles
        .iter()
        .map(|p| profile_entries(p, "spans", "ms"))
        .collect();
    let total = |lists: &[Vec<(String, f64)>], name: &str| {
        lists.iter().map(|l| entry(l, name)).sum::<f64>()
    };
    let requests = total(&counters, "requests");
    let mw = |layer: &str| ratio(total(&profile_spans, &format!("mw:{layer}")), requests);
    let campaigns = traced.campaign_spans.len() as f64;
    let per_campaign = |name: &str| ratio(total(&traced.campaign_spans, name), campaigns);
    let phase = |i: usize| {
        median(
            &traced
                .host_phase_ms
                .iter()
                .map(|p| p[i])
                .collect::<Vec<_>>(),
        )
    };
    Reported::from([
        ("setup_s", items.setup_s()),
        ("host_s_per_s", items.host_s_per_s()),
        ("turnaround_p50_s", items.p50_s()),
        ("hypervisor.host_slice_ms", phase(0)),
        ("hypervisor.sched_acct_ms", phase(1)),
        ("hypervisor.governor_ms", phase(2)),
        ("hypervisor.snapshot_ms", phase(3)),
        (
            "trace.overhead_pct",
            overhead_pct(median(&traced.plain_s), median(&traced.traced_s)),
        ),
        ("campaign.parse_ms", ms_p50("CampaignSpec::from_json")),
        ("campaign.expand_ms", per_campaign("expand")),
        ("campaign.simulate_ms", per_campaign("simulate")),
        ("campaign.runs_cpu_ms", per_campaign("runs_cpu")),
        ("campaign.reduce_ms", per_campaign("reduce")),
        (
            "campaign.export_ms",
            ms_p50("CampaignReport::artefact_files"),
        ),
        ("server.submit_ms_p50", ms_p50("POST /campaigns")),
        ("server.status_ms_p50", median(&statuses) * 1e3),
        ("server.status_ms_p99", quantile(&statuses, 0.99) * 1e3),
        (
            "server.summary_ms_p50",
            ms_p50("GET /campaigns/<id>/summary"),
        ),
        ("server.refused_ms_p50", ms_p50("refused")),
        ("server.mw.request_log_ms", mw("request_log")),
        ("server.mw.token_auth_ms", mw("token_auth")),
        ("server.mw.rate_limit_ms", mw("rate_limit")),
        ("server.mw.spec_validation_ms", mw("spec_validation")),
        ("server.mw.handler_ms", mw("handler")),
        (
            "server.campaign_run_ms",
            ratio(
                total(&profile_spans, "campaign_run"),
                total(&counters, "campaigns_run"),
            ),
        ),
        ("server.requests", ratio(requests, counters.len() as f64)),
    ])
}
