//! The repository's benchmark (contract: `BENCHMARK.json`; guide:
//! `benchmark/README.md`). Run through `benchmark/run.sh`, which builds
//! the daemon and this package first.
//!
//! ```text
//! beamdyn-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                       [--out FILE] [--write-expected]
//! beamdyn-benchmark suite [--seed N] [--seconds S]
//!                       [--self-check | --write-expected]
//! ```
//!
//! `run` measures one workload once and prints its result as the last
//! line of standard output. `suite` runs every workload several times,
//! each in a process of its own, and prints medians.

mod fleet;
mod http;
mod inproc;
mod json;
mod probes;
mod procfs;
mod report;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Outcome, Spec};
use spans::Trace;

const SPEC_PATH: &str = "BENCHMARK.json";
const OUT_DIR: &str = "benchmark/out";
/// Set by `run.sh` to the daemon it built; the default is where a plain
/// `cargo build --release` at the root leaves it.
const DAEMON_ENV: &str = "BEAMDYN_BENCHMARK_DAEMON";
const DEFAULT_DAEMON: &str = "target/release/beamdyn-daemon";

/// `--name value` pairs and bare `--flags` of a command line.
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Flags that take no value.
    const SWITCHES: &'static [&'static str] = &["--self-check", "--write-expected"];

    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = args.peekable();
        while let Some(name) = args.next() {
            if !name.starts_with("--") {
                return Err(format!("unexpected argument '{name}'"));
            }
            let value = if Self::SWITCHES.contains(&name.as_str()) {
                None
            } else {
                Some(args.next().ok_or_else(|| format!("{name} needs a value"))?)
            };
            pairs.push((name, value));
        }
        Ok(Self { pairs })
    }

    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    pub fn text(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read '{text}'")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!(
                "unknown option {name} (known: {})",
                allowed.join(" ")
            )),
            None => Ok(()),
        }
    }
}

fn daemon_path() -> PathBuf {
    std::env::var_os(DAEMON_ENV).map_or_else(|| PathBuf::from(DEFAULT_DAEMON), PathBuf::from)
}

fn print_metrics(outcome: &Outcome, spec: &Spec, workload: &str, per_layer: bool) {
    let declared = if per_layer {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for m in declared {
        if let Some(measured) = outcome.metrics.get(&m.name) {
            println!(
                "{:<44} {:>16.6} {:<6} n={:<6} {workload}",
                m.name, measured.value, m.unit, measured.samples
            );
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    args.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--out",
        "--write-expected",
    ])?;
    let spec = report::load_spec(SPEC_PATH)?;
    let workload = args.text("--workload").ok_or("--workload is required")?;
    let seed: u64 = args.number("--seed", inproc::REFERENCE_SEED)?;
    let seconds: f64 = args.number("--seconds", spec.run_seconds as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be a positive number".to_string());
    }
    let tracing = match args.text("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let write_expected = args.has("--write-expected");
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let trace = Trace::new(tracing);
    let in_process = [inproc::SOLVE_HEAVY, inproc::PUSH_HEAVY, inproc::SIM_TRACED]
        .into_iter()
        .find(|sizes| sizes.name == workload);
    let outcome = match in_process {
        Some(sizes) => inproc::run(&sizes, seed, seconds, &trace, write_expected, process_start)?,
        None if workload == "serve_fleet" => fleet::run(
            seed,
            seconds,
            &trace,
            &daemon_path(),
            &out_dir,
            process_start,
        )?,
        None => {
            return Err(format!(
                "unknown workload '{workload}' (known: {})",
                spec.workloads.join(" ")
            ))
        }
    };
    let declared: Vec<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|name| !declared.contains(&name.as_str()))
    {
        return Err(format!(
            "the run produced {stray}, which {SPEC_PATH} does not declare"
        ));
    }

    println!(
        "# {workload}: seed {seed}, {seconds} s, lane {}, {} hardware threads, trace {}",
        outcome.lane,
        report::nproc(),
        u8::from(tracing)
    );
    print_metrics(&outcome, &spec, workload, tracing);
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(tracing));
    if tracing {
        println!("# spans: name, count, total ms, self ms");
        for (name, (count, total, own)) in trace.self_times() {
            println!("{name:<44} {count:>8} {total:>14.3} {own:>14.3}");
        }
        let path = out_dir.join(format!("{tag}-spans.json"));
        std::fs::write(&path, trace.to_json(&format!("{workload}/{seed}")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let record = report::full_record(&outcome, &spec, workload, seed, tracing);
    let path = args
        .text("--out")
        .map_or_else(|| out_dir.join(format!("{tag}.json")), PathBuf::from);
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    for failure in &outcome.failures {
        eprintln!("FAILED: {workload}: {failure}");
    }
    let declared = if tracing {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report::result_line(&outcome, declared, tracing)?);
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let result = Args::parse(argv).and_then(|args| match mode.as_str() {
        "run" => run(&args, process_start),
        "suite" => suite::run(&args),
        other => Err(format!(
            "the first argument is 'run' or 'suite', not '{other}'"
        )),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("beamdyn-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_pairs_and_switches() {
        let a = args("--workload hit --seed 7 --self-check --seed 9").unwrap();
        assert_eq!(a.text("--workload"), Some("hit"));
        assert_eq!(a.number("--seed", 0u64), Ok(9));
        assert_eq!(a.number("--seconds", 12.0), Ok(12.0));
        assert!(a.has("--self-check") && !a.has("--write-expected"));
        assert!(a.number::<u64>("--workload", 0).is_err());
        assert!(a.only(&["--workload", "--seed"]).is_err());
        assert!(args("--seed").is_err());
        assert!(args("seed 1").is_err());
    }
}
