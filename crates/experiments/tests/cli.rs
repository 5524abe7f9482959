//! End-to-end tests of the `repro` binary: flag handling and the
//! acceptance criterion that `--jobs 1` and `--jobs 4` produce
//! byte-identical stdout and artefacts for the full quick pipeline.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Reads every artefact in `dir` into a name → bytes map.
fn artefacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("artefact dir exists") {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("readable file"));
    }
    out
}

#[test]
fn list_names_and_describes_every_experiment() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 25);
    let names: Vec<&str> = lines
        .iter()
        .map(|l| l.split_whitespace().next().expect("non-empty line"))
        .collect();
    for expected in [
        "fig9",
        "consolidation",
        "churn",
        "cluster-energy",
        "migration",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
    // Every line carries a one-line description after the name.
    for line in &lines {
        let (name, rest) = line.split_once(' ').expect("name plus description");
        assert!(
            rest.trim_start().len() >= 10,
            "{name} lacks a description: {line:?}"
        );
    }
    // Spot-check a headline so the descriptions are real, not filler.
    assert!(
        stdout.contains("Table 1") && stdout.contains("live migration"),
        "{stdout}"
    );
}

#[test]
fn valueless_out_flag_fails_with_a_clear_error() {
    let out = repro(&["fig9", "--out"]);
    assert!(!out.status.success(), "trailing --out must be rejected");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--out needs a directory"),
        "clear error, got: {stderr}"
    );
}

#[test]
fn out_swallowing_a_flag_fails_before_any_work() {
    let out = repro(&["fig9", "--out", "--quick"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--quick"), "names the culprit: {stderr}");
}

#[test]
fn unknown_experiment_fails_up_front() {
    // `bench` is no subcommand: a script still calling it fails like
    // any other unknown name instead of running something else.
    for (args, name) in [
        (&["fig9", "nonsense", "--quick"][..], "nonsense"),
        (&["bench", "--quick"][..], "bench"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(
            stderr.contains(&format!("unknown experiment {name:?}")),
            "{stderr}"
        );
    }
}

/// The acceptance criterion: the full quick pipeline with `--jobs 1`
/// and `--jobs 4` produces byte-identical stdout and byte-identical
/// CSV/JSON artefacts.
#[test]
fn repro_all_quick_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("repro-cli-test-{}", std::process::id()));
    let dir1 = base.join("jobs1");
    let dir4 = base.join("jobs4");
    let _ = std::fs::remove_dir_all(&base);

    let out1 = repro(&[
        "all",
        "--quick",
        "--out",
        dir1.to_str().unwrap(),
        "--jobs",
        "1",
    ]);
    assert!(out1.status.success(), "jobs=1 run succeeds");
    let out4 = repro(&[
        "all",
        "--quick",
        "--out",
        dir4.to_str().unwrap(),
        "--jobs",
        "4",
    ]);
    assert!(out4.status.success(), "jobs=4 run succeeds");

    assert_eq!(out1.stdout, out4.stdout, "stdout must not depend on --jobs");

    let a1 = artefacts(&dir1);
    let a4 = artefacts(&dir4);
    assert_eq!(
        a1.keys().collect::<Vec<_>>(),
        a4.keys().collect::<Vec<_>>(),
        "same artefact set"
    );
    assert!(
        a1.keys().any(|k| k == "cluster-energy.json"),
        "cluster experiments write artefacts"
    );
    for (name, bytes) in &a1 {
        assert_eq!(
            bytes, &a4[name],
            "{name} must be byte-identical across job counts"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

fn example_spec(name: &str) -> String {
    // CARGO_MANIFEST_DIR is crates/experiments; the specs live at the
    // workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/campaigns")
        .join(name)
        .to_str()
        .expect("utf8 path")
        .to_owned()
}

/// The campaign acceptance criterion: a spec with two sweep axes and
/// three seeds per point runs end-to-end through `repro campaign`,
/// emits per-point statistics, and produces byte-identical stdout and
/// artefacts for `--jobs 1` vs `--jobs 4`.
#[test]
fn campaign_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("repro-campaign-test-{}", std::process::id()));
    let dir1 = base.join("jobs1");
    let dir4 = base.join("jobs4");
    let _ = std::fs::remove_dir_all(&base);
    let spec = example_spec("credit-sweep.json");

    let out1 = repro(&[
        "campaign",
        &spec,
        "--quick",
        "--out",
        dir1.to_str().unwrap(),
        "--jobs",
        "1",
    ]);
    assert!(
        out1.status.success(),
        "jobs=1 campaign succeeds: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let out4 = repro(&[
        "campaign",
        &spec,
        "--quick",
        "--out",
        dir4.to_str().unwrap(),
        "--jobs",
        "4",
    ]);
    assert!(out4.status.success(), "jobs=4 campaign succeeds");

    assert_eq!(out1.stdout, out4.stdout, "stdout must not depend on --jobs");
    let stdout = String::from_utf8(out1.stdout).expect("utf8");
    assert!(
        stdout.contains("9 design points x 3 seeds = 27 runs"),
        "explicit count report: {stdout}"
    );
    assert!(stdout.contains("ranked by mean energy_j"), "{stdout}");
    assert!(stdout.contains("ci95="), "per-point statistics: {stdout}");

    let a1 = artefacts(&dir1);
    let a4 = artefacts(&dir4);
    assert_eq!(
        a1.keys().collect::<Vec<_>>(),
        vec![
            "credit-sweep-runs.csv",
            "credit-sweep-summary.csv",
            "credit-sweep-summary.json"
        ],
        "the three campaign artefacts"
    );
    for (name, bytes) in &a1 {
        assert_eq!(
            bytes, &a4[name],
            "{name} must be byte-identical across job counts"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// The fleet example spec also runs end-to-end (placement × migration
/// axes over a seed-generated population).
#[test]
fn fleet_campaign_example_runs_quick() {
    let spec = example_spec("fleet-placement-sweep.json");
    let out = repro(&["campaign", &spec, "--quick", "--jobs", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("4 design points x 3 seeds = 12 runs"),
        "{stdout}"
    );
    assert!(stdout.contains("migration=on"), "{stdout}");
}

/// Every shipped example spec must parse and validate (expansion
/// included), so a typo'd machine name or over-cap sweep can't ship
/// green and fail only on a user's machine.
#[test]
fn every_example_campaign_spec_is_valid() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/campaigns exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable spec");
        campaign::CampaignSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{} must be valid: {e}", path.display()));
        seen += 1;
    }
    assert!(seen >= 3, "expected the three shipped specs, found {seen}");
}

/// Spawns the repro binary while sampling the child's peak RSS
/// (`VmHWM` from `/proc/<pid>/status`, monotone over the child's
/// lifetime). Returns the process output and the last observed
/// high-water mark in KiB — 0 where `/proc` does not exist.
fn repro_with_rss(args: &[&str]) -> (Output, u64) {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary spawns");
    let status_path = format!("/proc/{}/status", child.id());
    let mut hwm_kb = 0u64;
    loop {
        if let Ok(Some(_)) = child.try_wait() {
            break;
        }
        if let Ok(status) = std::fs::read_to_string(&status_path) {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb = rest.trim().trim_end_matches("kB").trim();
                    hwm_kb = hwm_kb.max(kb.parse().unwrap_or(0));
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("repro binary runs");
    (out, hwm_kb)
}

/// The datacenter-scale smoke (ignored by default: it simulates a
/// ~2.9k-host fleet three times and wants a release binary; CI runs it
/// explicitly via `cargo test --release -p experiments --test cli --
/// --ignored`). The committed `fleet-scale.json` sweep is trimmed to
/// its middle point — 10 000 VMs, which places onto ≥1k hosts — and
/// run end-to-end through `repro campaign --quick`:
///
/// * the three artefacts exist and the summary CSV parses,
/// * the placed fleet really is ≥1k hosts,
/// * artefacts are byte-identical across `--jobs 1` vs `--jobs 2`
///   and across shard counts 16 vs 4 (sharding is pure partitioning),
/// * peak RSS of the run stays under the documented 512 MiB ceiling
///   (the bounded-statistics guarantee at this scale; the store-all
///   path would grow with epochs × hosts instead).
#[test]
#[ignore = "scale smoke: minutes of simulation; run with --release -- --ignored (CI does)"]
fn fleet_scale_campaign_quick_point_is_a_bounded_memory_smoke() {
    let base = std::env::temp_dir().join(format!("repro-fleet-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    let text = std::fs::read_to_string(example_spec("fleet-scale.json")).expect("readable spec");
    let full_axis = "\"values\": [1000, 10000, 100000]";
    assert!(
        text.contains(full_axis) && text.contains("\"shards\": 16"),
        "fleet-scale.json drifted from what this smoke trims: {text}"
    );
    let trimmed = text.replace(full_axis, "\"values\": [10000]");
    let spec1 = base.join("fleet-scale-10k.json");
    std::fs::write(&spec1, &trimmed).unwrap();
    let spec_shards4 = base.join("fleet-scale-10k-shards4.json");
    std::fs::write(
        &spec_shards4,
        trimmed.replace("\"shards\": 16", "\"shards\": 4"),
    )
    .unwrap();

    let dir1 = base.join("jobs1");
    let (out1, hwm_kb) = repro_with_rss(&[
        "campaign",
        spec1.to_str().unwrap(),
        "--quick",
        "--jobs",
        "1",
        "--out",
        dir1.to_str().unwrap(),
    ]);
    assert!(
        out1.status.success(),
        "quick point runs: {}",
        String::from_utf8_lossy(&out1.stderr)
    );

    // Artefacts exist and the summary CSV parses row-by-row.
    let a1 = artefacts(&dir1);
    for name in [
        "fleet-scale-runs.csv",
        "fleet-scale-summary.csv",
        "fleet-scale-summary.json",
    ] {
        assert!(
            a1.get(name).is_some_and(|b| !b.is_empty()),
            "{name} exists and is non-empty"
        );
    }
    let summary = String::from_utf8(a1["fleet-scale-summary.csv"].clone()).expect("utf8");
    let mut lines = summary.lines();
    let header = lines.next().expect("header row");
    assert_eq!(
        header, "point,label,metric,n,mean,stddev,ci95_half,p50,p95,p99,min,max,dropped",
        "summary schema"
    );
    let mut host_count = None;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 13, "malformed row: {line}");
        let mean: f64 = fields[4]
            .parse()
            .unwrap_or_else(|_| panic!("numeric mean: {line}"));
        if fields[2] == "host_count" {
            host_count = Some(mean);
        }
    }
    let hosts = host_count.expect("host_count metric present");
    assert!(hosts >= 1000.0, "the quick point is ≥1k hosts, got {hosts}");

    // Byte-identical across worker counts.
    let dir2 = base.join("jobs2");
    let out2 = repro(&[
        "campaign",
        spec1.to_str().unwrap(),
        "--quick",
        "--jobs",
        "2",
        "--out",
        dir2.to_str().unwrap(),
    ]);
    assert!(out2.status.success());
    let a2 = artefacts(&dir2);
    for (name, bytes) in &a1 {
        assert_eq!(bytes, &a2[name], "{name} must not depend on --jobs");
    }

    // Byte-identical across shard counts (the summary JSON echoes the
    // spec, shards included, so only the measurement artefacts apply).
    let dir3 = base.join("shards4");
    let out3 = repro(&[
        "campaign",
        spec_shards4.to_str().unwrap(),
        "--quick",
        "--jobs",
        "1",
        "--out",
        dir3.to_str().unwrap(),
    ]);
    assert!(out3.status.success());
    let a3 = artefacts(&dir3);
    for name in ["fleet-scale-runs.csv", "fleet-scale-summary.csv"] {
        assert_eq!(
            &a1[name], &a3[name],
            "{name} must not depend on shard count"
        );
    }

    // The documented bounded-statistics ceiling for this smoke.
    if hwm_kb > 0 {
        assert!(
            hwm_kb < 512 * 1024,
            "peak RSS {hwm_kb} KiB exceeds the 512 MiB ceiling"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

/// Tracing acceptance: a traced quick campaign writes the trace JSONL
/// and profile artefacts next to the campaign set, the trace is
/// byte-identical across `--jobs`, and `repro trace-summary` analyses
/// the artefact it just produced.
#[test]
fn traced_campaign_artefact_is_jobs_invariant_and_summarisable() {
    let base = std::env::temp_dir().join(format!("repro-trace-test-{}", std::process::id()));
    let dir1 = base.join("jobs1");
    let dir2 = base.join("jobs2");
    let _ = std::fs::remove_dir_all(&base);
    let spec = example_spec("credit-sweep.json");

    for (dir, jobs) in [(&dir1, "1"), (&dir2, "2")] {
        let out = repro(&[
            "campaign",
            &spec,
            "--quick",
            "--jobs",
            jobs,
            "--out",
            dir.to_str().unwrap(),
            "--trace",
        ]);
        assert!(
            out.status.success(),
            "jobs={jobs} traced campaign succeeds: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let a1 = artefacts(&dir1);
    let a2 = artefacts(&dir2);
    assert_eq!(
        a1.keys().collect::<Vec<_>>(),
        vec![
            "credit-sweep-profile.json",
            "credit-sweep-runs.csv",
            "credit-sweep-summary.csv",
            "credit-sweep-summary.json",
            "credit-sweep-trace.jsonl",
        ],
        "trace + profile artefacts ride alongside the campaign set"
    );
    assert_eq!(
        a1["credit-sweep-trace.jsonl"], a2["credit-sweep-trace.jsonl"],
        "trace JSONL must be byte-identical across --jobs"
    );
    let trace = String::from_utf8(a1["credit-sweep-trace.jsonl"].clone()).expect("utf8");
    assert!(
        trace.starts_with("{\"schema\":\"pas-repro-trace/v1\""),
        "schema header first: {}",
        trace.lines().next().unwrap_or("")
    );
    // The wall-clock profile exists in both runs but is intentionally
    // outside the byte-identity contract (timings differ).
    let profile = String::from_utf8(a1["credit-sweep-profile.json"].clone()).expect("utf8");
    assert!(profile.contains("pas-repro-profile/v1"), "{profile}");

    let trace_path = dir1.join("credit-sweep-trace.jsonl");
    let out = repro(&["trace-summary", trace_path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "trace-summary reads its own artefact: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("events by kind"), "{stdout}");
    assert!(stdout.contains("sched_pick"), "{stdout}");

    let _ = std::fs::remove_dir_all(&base);
}

/// `repro run` executes a single spec (no sweep) and `--trace-out`
/// implies tracing, writing the two trace artefacts into that directory.
#[test]
fn run_single_spec_with_trace_out_writes_the_trace_artefacts() {
    let base = std::env::temp_dir().join(format!("repro-run-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let spec = example_spec("credit-sweep.json");

    let out = repro(&[
        "run",
        &spec,
        "--quick",
        "--trace-out",
        base.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("run: credit-sweep (seed 42)"), "{stdout}");
    assert!(stdout.contains(" = "), "scalar lines present: {stdout}");

    let a = artefacts(&base);
    assert!(
        a.get("credit-sweep-trace.jsonl")
            .is_some_and(|b| !b.is_empty()),
        "trace artefact written"
    );
    assert!(
        a.get("credit-sweep-profile.json")
            .is_some_and(|b| !b.is_empty()),
        "profile artefact written"
    );

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn valueless_trace_out_flag_fails_with_a_clear_error() {
    let out = repro(&["campaign", "spec.json", "--trace-out"]);
    assert!(
        !out.status.success(),
        "trailing --trace-out must be rejected"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--trace-out needs a directory"),
        "clear error, got: {stderr}"
    );
}

#[test]
fn trace_flag_on_a_registry_experiment_is_rejected() {
    let out = repro(&["fig9", "--quick", "--trace"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("--trace applies to"),
        "names the restriction: {stderr}"
    );
}

#[test]
fn campaign_with_missing_spec_file_fails_cleanly() {
    let out = repro(&["campaign", "/nonexistent/spec.json"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn campaign_with_malformed_spec_reports_the_field() {
    let base = std::env::temp_dir().join(format!("repro-campaign-bad-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("bad.json");
    std::fs::write(
        &path,
        r#"{ "name": "bad",
             "scenario": { "kind": "host", "scheduler": "cfs", "vms": [] },
             "seeds": { "replicates": 1 } }"#,
    )
    .unwrap();
    let out = repro(&["campaign", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown scheduler `cfs`"), "{stderr}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn campaign_requires_exactly_one_spec() {
    let out = repro(&["campaign"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("exactly one spec file"), "{stderr}");
}

/// Sends one raw HTTP/1.1 request to `addr`, returning
/// `(status, body)`. The server closes each connection after the
/// response, so reading to EOF is the framing.
fn http_request(addr: &str, raw: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to repro serve");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// The serve acceptance criterion, end to end against the real
/// binary: `repro serve` boots on an ephemeral port and prints the
/// bound address; an unauthenticated request is rejected; a campaign
/// POSTed over HTTP runs to completion and its served summary — and
/// the `--out` artefact — are byte-identical to what `repro campaign`
/// writes for the same spec; `POST /shutdown` exits cleanly.
#[test]
fn serve_runs_a_posted_campaign_byte_identical_to_the_cli() {
    use std::io::BufRead as _;
    use std::process::Stdio;

    let base = std::env::temp_dir().join(format!("repro-serve-test-{}", std::process::id()));
    let cli_dir = base.join("cli");
    let srv_dir = base.join("srv");
    let _ = std::fs::remove_dir_all(&base);
    let spec = example_spec("credit-sweep.json");

    // The reference run through the existing subcommand.
    let out = repro(&[
        "campaign",
        &spec,
        "--quick",
        "--jobs",
        "2",
        "--out",
        cli_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--port",
            "0",
            "--quick",
            "--jobs",
            "2",
            "--token",
            "s3cret",
            "--out",
            srv_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro serve spawns");
    let mut boot_line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut boot_line)
        .expect("boot line");
    let addr = boot_line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected boot line {boot_line:?}"))
        .to_owned();

    let (status, _) = http_request(&addr, "GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    assert_eq!(status, 401, "the token guards the whole API");

    let auth = "authorization: Bearer s3cret\r\n";
    let (status, body) = http_request(
        &addr,
        &format!("GET /healthz HTTP/1.1\r\nhost: t\r\n{auth}\r\n"),
    );
    assert_eq!(status, 200, "{body}");

    let spec_json = std::fs::read_to_string(&spec).expect("readable spec");
    let (status, body) = http_request(
        &addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nhost: t\r\n{auth}content-length: {}\r\n\r\n{spec_json}",
            spec_json.len()
        ),
    );
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"id\":1"), "{body}");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    loop {
        let (status, body) = http_request(
            &addr,
            &format!("GET /campaigns/1 HTTP/1.1\r\nhost: t\r\n{auth}\r\n"),
        );
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            !body.contains("\"state\":\"failed\""),
            "campaign failed: {body}"
        );
        assert!(std::time::Instant::now() < deadline, "never finished");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    let (status, served_summary) = http_request(
        &addr,
        &format!("GET /campaigns/1/summary HTTP/1.1\r\nhost: t\r\n{auth}\r\n"),
    );
    assert_eq!(status, 200);
    let cli_summary =
        std::fs::read_to_string(cli_dir.join("credit-sweep-summary.json")).expect("CLI artefact");
    assert_eq!(
        served_summary, cli_summary,
        "the served summary must be byte-identical to `repro campaign`'s"
    );

    // The server's --out directory holds the same three artefacts.
    let cli_artefacts = artefacts(&cli_dir);
    let srv_artefacts = artefacts(&srv_dir);
    assert_eq!(
        cli_artefacts.keys().collect::<Vec<_>>(),
        srv_artefacts.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &cli_artefacts {
        assert_eq!(bytes, &srv_artefacts[name], "{name} must match the CLI's");
    }

    let (status, _) = http_request(
        &addr,
        &format!("POST /shutdown HTTP/1.1\r\nhost: t\r\n{auth}\r\n"),
    );
    assert_eq!(status, 200);
    let exit = child.wait().expect("serve exits after /shutdown");
    assert!(exit.success(), "clean exit, got {exit:?}");

    let _ = std::fs::remove_dir_all(&base);
}
