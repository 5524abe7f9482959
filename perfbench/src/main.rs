//! `perfbench --workload <fleet|hosts|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the deterministic counters on one line, then the result
//! object as the last line of stdout. Failure details go to stderr. A
//! traced run also writes its spans to
//! `.perfbench/spans-<workload>-seed<n>.jsonl` under the working
//! directory.

use std::process::ExitCode;

use perfbench::{Config, Workload};

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value} must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        inject_fault: false,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fleet|hosts|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    for why in &outcome.failures {
        eprintln!("perfbench: failed: {why}");
    }
    if cfg.trace {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, outcome.spans.jsonl()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("counters {}", outcome.counters_json());
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
