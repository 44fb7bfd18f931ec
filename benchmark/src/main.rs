//! The repository's benchmark. See README.md; `--list` prints every
//! workload and metric.

mod clock;
mod cluster;
mod layers;
mod packet;
mod probes;
mod procfs;
mod run;
mod schedule;
mod sink;
mod spec;
mod stats;
mod trace_out;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str =
    "usage: beehive-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
       beehive-benchmark --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(1.0..=120.0).contains(&args.seconds) {
                    return Err(bad("between 1 and 120"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec::workload(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Some(args))
}

fn list() {
    for w in &WORKLOADS {
        println!("workload\t{}\t{}", w.name, w.why);
    }
    let row = |group: &str, m: &Metric| {
        let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
        println!("{group}\t{}\t{}\t{}\t{bound}", m.name, m.unit, m.better);
    };
    END_TO_END.iter().for_each(|m| row("end_to_end", m));
    PER_LAYER.iter().for_each(|m| row("per_layer", m));
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_line(outcome: &run::Outcome, listed: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in listed {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty() && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            list();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_args = run::RunArgs {
        workload: spec::workload(&args.workload).expect("checked while parsing"),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let outcome = match run::run(&run_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed before it could measure: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    for m in listed {
        if let Some((_, v)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            eprintln!("{:<36} {v:>16.4} {}", m.name, m.unit);
        }
    }
    for v in &outcome.violations {
        eprintln!("CHECK FAILED: {v}");
    }
    match result_line(&outcome, listed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.violations.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} events failed", outcome.failed, outcome.attempted);
        ExitCode::FAILURE
    }
}
