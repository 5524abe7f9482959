//! `repro` — regenerate the paper's tables and figures, and run
//! declarative campaigns.
//!
//! ```text
//! repro list                          # available experiments (with descriptions)
//! repro all [--quick] [--jobs N]      # run everything
//! repro fig9 [--quick] [--out D]      # one experiment, optional artefacts
//! repro campaign spec.json [--quick] [--jobs N] [--out D]
//! ```
//!
//! With `--out DIR`, each experiment writes `DIR/<id>.csv` (series)
//! and `DIR/<id>.json` (scalars + notes); a campaign writes
//! `DIR/<name>-summary.csv`, `DIR/<name>-runs.csv` and
//! `DIR/<name>-summary.json`. With `--jobs N`, independent
//! experiments (and campaign runs) execute on up to `N` worker
//! threads — the printed output and the artefacts are byte-identical
//! to a serial run (reports are emitted in request order, and every
//! simulation is independently seeded; see `cluster::exec`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::{
    all_experiment_names, experiment_description, run_experiment_jobs, ExperimentReport, Fidelity,
};

#[derive(Debug)]
struct Args {
    names: Vec<String>,
    fidelity: Fidelity,
    out: Option<PathBuf>,
    jobs: usize,
    trace: bool,
    trace_out: Option<PathBuf>,
    addr: String,
    port: u16,
    token: Option<String>,
    rate: Option<f64>,
}

const USAGE: &str = "usage: repro <experiment>... [--quick] [--out DIR] [--jobs N]\n\
                            repro all [--quick] [--out DIR] [--jobs N]\n\
                            repro run <spec.json> [--quick] [--out DIR] [--trace] [--trace-out DIR]\n\
                            repro campaign <spec.json> [--quick] [--out DIR] [--jobs N] [--trace] [--trace-out DIR]\n\
                            repro serve [--addr A] [--port P] [--jobs N] [--token T] [--rate R] [--quick] [--out DIR]\n\
                            repro trace-summary <trace.jsonl>\n\
                            repro list\n";

/// Pulls a value-taking flag's value off the argument stream. Every
/// such flag shares this one check, so a trailing `--out` and an
/// `--out --quick` that would swallow the next flag fail the same way
/// everywhere: naming the flag, what it needs, and (for the swallow
/// case) the culprit.
fn flag_value(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    example: &str,
) -> Result<String, String> {
    let value = argv
        .next()
        .ok_or_else(|| format!("{flag} needs {what}, e.g. `{flag} {example}`"))?;
    if value.starts_with('-') {
        return Err(format!("{flag} needs {what}, but got the flag {value:?}"));
    }
    Ok(value)
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut names = Vec::new();
    let mut fidelity = Fidelity::Full;
    let mut out = None;
    let mut jobs = 1;
    let mut trace = false;
    let mut trace_out = None;
    let mut addr = "127.0.0.1".to_owned();
    let mut port = 7077;
    let mut token = None;
    let mut rate = None;
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" | "-q" => fidelity = Fidelity::Quick,
            "--out" | "-o" => {
                let dir = flag_value(&mut argv, "--out", "a directory", "artefacts/")?;
                out = Some(PathBuf::from(dir));
            }
            "--trace" => trace = true,
            "--trace-out" => {
                let dir = flag_value(&mut argv, "--trace-out", "a directory", "artefacts/")?;
                trace = true;
                trace_out = Some(PathBuf::from(dir));
            }
            "--jobs" | "-j" => {
                let n = flag_value(&mut argv, "--jobs", "a thread count", "4")?;
                jobs = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--jobs needs a positive integer, got {n:?}"))?;
            }
            "--addr" => {
                addr = flag_value(&mut argv, "--addr", "a bind address", "0.0.0.0")?;
            }
            "--port" => {
                let p = flag_value(&mut argv, "--port", "a port number", "7077")?;
                port = p
                    .parse::<u16>()
                    .map_err(|_| format!("--port needs a port number (0-65535), got {p:?}"))?;
            }
            "--token" => {
                token = Some(flag_value(
                    &mut argv,
                    "--token",
                    "a bearer token",
                    "s3cret",
                )?);
            }
            "--rate" => {
                let r = flag_value(&mut argv, "--rate", "requests per second", "10")?;
                rate = Some(
                    r.parse::<f64>()
                        .ok()
                        .filter(|&r| r.is_finite() && r > 0.0)
                        .ok_or(format!(
                            "--rate needs a positive requests/second, got {r:?}"
                        ))?,
                );
            }
            "--help" | "-h" => {
                names.push("help".to_owned());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}"));
            }
            name => names.push(name.to_owned()),
        }
    }
    if names.is_empty() {
        names.push("help".to_owned());
    }
    Ok(Args {
        names,
        fidelity,
        out,
        jobs,
        trace,
        trace_out,
        addr,
        port,
        token,
        rate,
    })
}

/// Directory traced artefacts land in: `--trace-out`, else `--out`,
/// else the current directory.
fn trace_dir(args: &Args) -> PathBuf {
    args.trace_out
        .clone()
        .or_else(|| args.out.clone())
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Writes the trace JSONL and profile JSON artefacts of a traced run.
/// The trace is deterministic; the profile is wall-clock and lives in
/// its own file precisely so byte-identity checks can skip it.
fn write_trace_artefacts(
    dir: &Path,
    name: &str,
    trace_jsonl: &str,
    profile: &metrics::profile::ProfileReport,
) -> Result<(), String> {
    let trace_path = dir.join(format!("{name}-trace.jsonl"));
    metrics::export::write_artifact(&trace_path, trace_jsonl)
        .map_err(|e| format!("failed to write {}: {e}", trace_path.display()))?;
    println!("wrote {}", trace_path.display());
    let profile_json = metrics::export::to_json(profile)
        .map_err(|e| format!("failed to serialize profile: {e}"))?;
    let profile_path = dir.join(format!("{name}-profile.json"));
    metrics::export::write_artifact(&profile_path, &profile_json)
        .map_err(|e| format!("failed to write {}: {e}", profile_path.display()))?;
    println!("wrote {}", profile_path.display());
    Ok(())
}

fn emit(report: &ExperimentReport, out: Option<&PathBuf>) {
    println!("================================================================");
    println!("{}", report.text);
    for note in &report.notes {
        println!("  note: {note}");
    }
    if let Some(dir) = out {
        let csv_path = dir.join(format!("{}.csv", report.id));
        if !report.series.is_empty() {
            if let Err(e) = metrics::export::write_artifact(&csv_path, &report.to_csv()) {
                eprintln!("failed to write {}: {e}", csv_path.display());
            }
        }
        match metrics::export::to_json(report) {
            Ok(json) => {
                let json_path = dir.join(format!("{}.json", report.id));
                if let Err(e) = metrics::export::write_artifact(&json_path, &json) {
                    eprintln!("failed to write {}: {e}", json_path.display());
                }
            }
            Err(e) => eprintln!("failed to serialize {}: {e}", report.id),
        }
    }
}

/// Runs `repro campaign <spec.json>`: parse + validate the spec,
/// expand and run the sweep, print the ranked summary, and with
/// `--out` write the three campaign artefacts.
fn run_campaign(args: &Args) -> ExitCode {
    let spec_paths = &args.names[1..];
    let [path] = spec_paths else {
        eprintln!(
            "error: `repro campaign` takes exactly one spec file, got {}",
            spec_paths.len()
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match campaign::CampaignSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let quick = args.fidelity == Fidelity::Quick;
    let (report, traced) = if args.trace {
        match campaign::run_traced(&spec, quick, args.jobs, trace::DEFAULT_CAPACITY) {
            Ok(t) => (t.report.clone(), Some(t)),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match campaign::run(&spec, quick, args.jobs) {
            Ok(r) => (r, None),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    print!("{}", report.text());
    if let Some(dir) = &args.out {
        // The one artefact path the HTTP service shares: same names,
        // same bytes (see `CampaignReport::artefact_files`).
        let artefacts = match report.artefact_files() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("failed to serialize campaign report: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (name, content) in &artefacts {
            let path = dir.join(name);
            if let Err(e) = metrics::export::write_artifact(&path, content) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(t) = traced {
        if let Err(e) =
            write_trace_artefacts(&trace_dir(args), &spec.name, &t.trace_jsonl, &t.profile)
        {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs `repro run <spec.json>`: one simulation of the spec's base
/// scenario (no sweep, seed = `seeds.base`), printing the scalar
/// results; with `--trace`, also writes the event-trace JSONL and the
/// wall-clock profile.
fn run_single(args: &Args) -> ExitCode {
    let spec_paths = &args.names[1..];
    let [path] = spec_paths else {
        eprintln!(
            "error: `repro run` takes exactly one spec file, got {}",
            spec_paths.len()
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match campaign::CampaignSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let point = campaign::DesignPoint {
        label: "base".to_owned(),
        settings: Vec::new(),
        scenario: spec.scenario.clone(),
    };
    let quick = args.fidelity == Fidelity::Quick;
    let seed = spec.seeds.base;
    let mut profiler = metrics::profile::Profiler::new();
    let (record, trace) = if args.trace {
        let traced = profiler.span("simulate", || {
            campaign::run::run_point_traced(&point, seed, quick, trace::DEFAULT_CAPACITY)
        });
        (traced.record, Some(traced.trace))
    } else {
        (
            profiler.span("simulate", || campaign::run::run_point(&point, seed, quick)),
            None,
        )
    };

    println!("run: {} (seed {seed})", spec.name);
    for (name, value) in &record.scalars {
        println!("  {name} = {}", metrics::export::exact_num(*value));
    }
    if let Some(trace) = trace {
        profiler.count("trace_events", trace.events().len() as u64);
        profiler.count("trace_dropped", trace.dropped());
        let jsonl = trace::render_jsonl(&spec.name, &[(None, &trace)]);
        if let Err(e) =
            write_trace_artefacts(&trace_dir(args), &spec.name, &jsonl, &profiler.report())
        {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs `repro trace-summary <trace.jsonl>`: parses and validates a
/// `pas-repro-trace/v1` artefact and prints the analyzer report
/// (per-host/per-VM event counts, frequency-transition histogram,
/// migration timeline).
fn run_trace_summary(args: &Args) -> ExitCode {
    let paths = &args.names[1..];
    let [path] = paths else {
        eprintln!(
            "error: `repro trace-summary` takes exactly one trace.jsonl file, got {}",
            paths.len()
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match trace::summary::summarize(&text) {
        Ok(summary) => {
            print!("{}", summary.text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `repro serve`: the campaign-as-a-service daemon. Prints the
/// bound address on stdout (`listening on http://…`) and serves until
/// `POST /shutdown`, draining accepted jobs before exiting.
fn run_serve(args: &Args) -> ExitCode {
    if args.names.len() > 1 {
        eprintln!("error: `repro serve` takes no positional arguments");
        return ExitCode::FAILURE;
    }
    let cfg = server::ServerConfig {
        addr: args.addr.clone(),
        port: args.port,
        jobs: args.jobs,
        token: args.token.clone(),
        rate: args.rate,
        quick: args.fidelity == Fidelity::Quick,
        out: args.out.clone(),
        ..server::ServerConfig::default()
    };
    match server::serve(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    match args.names.first().map(String::as_str) {
        Some("campaign") => return run_campaign(&args),
        Some("serve") => return run_serve(&args),
        Some("run") => return run_single(&args),
        Some("trace-summary") => return run_trace_summary(&args),
        _ => {}
    }

    if args.trace {
        eprintln!(
            "error: --trace applies to `repro run` and `repro campaign`, \
             not to registry experiments"
        );
        return ExitCode::FAILURE;
    }

    let mut to_run: Vec<String> = Vec::new();
    for name in &args.names {
        match name.as_str() {
            "help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "list" => {
                let width = all_experiment_names()
                    .iter()
                    .map(|n| n.len())
                    .max()
                    .unwrap_or(0);
                for n in all_experiment_names() {
                    let desc = experiment_description(n).expect("registry names are described");
                    println!("{n:<width$}  {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => {
                to_run.extend(all_experiment_names().iter().map(|s| (*s).to_owned()));
            }
            other => to_run.push(other.to_owned()),
        }
    }

    // Validate every name up front so a typo late in the list does
    // not discard completed work.
    for name in &to_run {
        if !all_experiment_names().contains(&name.as_str()) {
            eprintln!("unknown experiment {name:?}; `repro list` shows the names");
            return ExitCode::FAILURE;
        }
    }

    if args.jobs <= 1 {
        // Serial: stream each report (and its artefacts) as it
        // completes, so long full-fidelity runs show progress and an
        // interrupted run keeps the work already done.
        for name in &to_run {
            let report = run_experiment_jobs(name, args.fidelity, 1).expect("name validated above");
            emit(&report, args.out.as_ref());
        }
    } else {
        // Parallel: run independent experiments concurrently, then
        // emit in request order — stdout and artefacts are
        // byte-identical to the serial path. The experiment-level
        // workers and the per-experiment fleet workers share the
        // --jobs budget (outer × inner ≈ N) instead of multiplying
        // into N² threads.
        let outer = args.jobs.min(to_run.len()).max(1);
        let inner = (args.jobs / outer).max(1);
        let reports = cluster::parallel_map(outer, to_run, |_, name| {
            run_experiment_jobs(&name, args.fidelity, inner).expect("name validated above")
        });
        for report in &reports {
            emit(report, args.out.as_ref());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_are_serial_full_fidelity() {
        let a = parse(&["fig9"]).unwrap();
        assert_eq!(a.names, vec!["fig9"]);
        assert_eq!(a.fidelity, Fidelity::Full);
        assert_eq!(a.jobs, 1);
        assert!(a.out.is_none());
    }

    #[test]
    fn quick_out_and_jobs_parse() {
        let a = parse(&["all", "--quick", "--out", "d", "--jobs", "4"]).unwrap();
        assert_eq!(a.fidelity, Fidelity::Quick);
        assert_eq!(a.out, Some(PathBuf::from("d")));
        assert_eq!(a.jobs, 4);
    }

    #[test]
    fn trailing_out_without_value_is_rejected() {
        let err = parse(&["fig9", "--out"]).unwrap_err();
        assert!(err.contains("--out needs a directory"), "{err}");
    }

    #[test]
    fn out_swallowing_a_flag_is_rejected() {
        let err = parse(&["fig9", "--out", "--quick"]).unwrap_err();
        assert!(err.contains("--out needs a directory"), "{err}");
        assert!(err.contains("--quick"), "names the culprit: {err}");
    }

    #[test]
    fn bad_jobs_values_are_rejected() {
        assert!(parse(&["all", "--jobs"]).unwrap_err().contains("--jobs"));
        assert!(parse(&["all", "--jobs", "0"])
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse(&["all", "--jobs", "many"])
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn empty_invocation_asks_for_help() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.names, vec!["help"]);
    }

    #[test]
    fn trace_flags_parse() {
        let a = parse(&["campaign", "spec.json", "--trace"]).unwrap();
        assert!(a.trace);
        assert!(a.trace_out.is_none());
        let b = parse(&["run", "spec.json", "--trace-out", "d"]).unwrap();
        assert!(b.trace, "--trace-out implies --trace");
        assert_eq!(b.trace_out, Some(PathBuf::from("d")));
        let c = parse(&["campaign", "spec.json"]).unwrap();
        assert!(!c.trace);
    }

    #[test]
    fn trailing_trace_out_without_value_is_rejected() {
        let err = parse(&["campaign", "spec.json", "--trace-out"]).unwrap_err();
        assert!(err.contains("--trace-out needs a directory"), "{err}");
    }

    #[test]
    fn trace_out_swallowing_a_flag_is_rejected() {
        let err = parse(&["campaign", "spec.json", "--trace-out", "--quick"]).unwrap_err();
        assert!(err.contains("--trace-out needs a directory"), "{err}");
        assert!(err.contains("--quick"), "names the culprit: {err}");
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let a = parse(&["serve"]).unwrap();
        assert_eq!((a.addr.as_str(), a.port), ("127.0.0.1", 7077));
        assert!(a.token.is_none() && a.rate.is_none());

        let a = parse(&[
            "serve", "--addr", "0.0.0.0", "--port", "8080", "--token", "s3cret", "--rate", "2.5",
            "--jobs", "4", "--quick",
        ])
        .unwrap();
        assert_eq!((a.addr.as_str(), a.port), ("0.0.0.0", 8080));
        assert_eq!(a.token.as_deref(), Some("s3cret"));
        assert_eq!(a.rate, Some(2.5));
        assert_eq!(a.jobs, 4);
        assert_eq!(a.fidelity, Fidelity::Quick);
    }

    #[test]
    fn every_serve_flag_rejects_a_missing_or_swallowed_value() {
        for flag in ["--addr", "--port", "--token", "--rate"] {
            let err = parse(&["serve", flag]).unwrap_err();
            assert!(err.contains(&format!("{flag} needs")), "{flag}: {err}");
            let err = parse(&["serve", flag, "--quick"]).unwrap_err();
            assert!(err.contains(&format!("{flag} needs")), "{flag}: {err}");
            assert!(err.contains("--quick"), "{flag} names the culprit: {err}");
        }
    }

    #[test]
    fn bad_port_and_rate_values_are_rejected() {
        assert!(parse(&["serve", "--port", "99999"])
            .unwrap_err()
            .contains("0-65535"));
        assert!(parse(&["serve", "--port", "web"])
            .unwrap_err()
            .contains("port number"));
        assert!(parse(&["serve", "--rate", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["serve", "--rate", "fast"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["serve", "--rate", "inf"])
            .unwrap_err()
            .contains("positive"));
    }
}
