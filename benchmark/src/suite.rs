//! `run.sh` without `--workload`: the whole benchmark in one go.
//!
//! Every (workload, repetition) is a process of its own, so peak memory
//! and caches are per workload; repetitions are interleaved across the
//! workloads (A B C D, A B C D, …) so that drift of the machine spreads
//! over all of them; a metric's value is the median over repetitions. One
//! further, traced, pass per workload yields the per-layer metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::inproc::REFERENCE_SEED;
use crate::json::{self, Value};
use crate::report::{self, is_exact, Measured, MetricSpec, Spec};
use crate::stats::{median, relative_spread};
use crate::{Args, OUT_DIR, SPEC_PATH};

/// Untraced runs of every workload in a set.
const REPS: usize = 3;

/// What one child run left in its record file.
struct Record {
    correct: bool,
    metrics: BTreeMap<String, Measured>,
}

fn read_record(path: &Path) -> Result<Record, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_record(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_record(text: &str) -> Result<Record, String> {
    let doc = json::parse(text)?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(name, m)| {
            let measured = Measured {
                value: m.num("value")?,
                samples: m.num("samples")? as usize,
            };
            Some((name.clone(), measured))
        })
        .collect();
    Ok(Record {
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
    })
}

struct Runner {
    exe: PathBuf,
    seed: u64,
    seconds: f64,
}

impl Runner {
    /// Runs one workload once in a child process and reads its record.
    fn run(
        &self,
        workload: &str,
        trace: bool,
        out: &Path,
        extra: &[&str],
    ) -> Result<Record, String> {
        eprintln!(
            "suite: {workload} (trace {}) -> {}",
            u8::from(trace),
            out.display()
        );
        let output = Command::new(&self.exe)
            .args(["run", "--workload", workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(out)
            .args(extra)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.exe.display()))?;
        // Exit 1 is a run whose checks failed: its record says so. Anything
        // else unexpected left no usable record.
        match output.status.code() {
            Some(0 | 1) => read_record(out),
            _ => Err(format!("{workload}: the run ended with {}", output.status)),
        }
    }
}

/// One complete set of runs: `REPS` untraced runs and one traced run of
/// every workload.
struct Set {
    untraced: BTreeMap<String, Vec<Record>>,
    traced: BTreeMap<String, Record>,
}

impl Set {
    fn measure(runner: &Runner, spec: &Spec, label: &str) -> Result<Self, String> {
        let dir = PathBuf::from(OUT_DIR).join(label);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut set = Set {
            untraced: BTreeMap::new(),
            traced: BTreeMap::new(),
        };
        for rep in 0..REPS {
            for workload in &spec.workloads {
                let out = dir.join(format!("{workload}-rep{rep}.json"));
                let record = runner.run(workload, false, &out, &[])?;
                set.untraced
                    .entry(workload.clone())
                    .or_default()
                    .push(record);
            }
        }
        for workload in &spec.workloads {
            let out = dir.join(format!("{workload}-traced.json"));
            set.traced
                .insert(workload.clone(), runner.run(workload, true, &out, &[])?);
        }
        Ok(set)
    }

    fn records<'a>(&'a self, workload: &str) -> impl Iterator<Item = &'a Record> {
        self.untraced[workload]
            .iter()
            .chain(self.traced.get(workload))
    }

    fn all_correct(&self) -> bool {
        self.untraced
            .values()
            .flatten()
            .chain(self.traced.values())
            .all(|r| r.correct)
    }

    /// Values of `metric` over the untraced repetitions of `workload`.
    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.untraced[workload]
            .iter()
            .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
            .collect()
    }

    /// Prints every metric by name with its unit, sample count and
    /// workload: end-to-end as the median over repetitions, per-layer from
    /// the traced pass.
    fn print(&self, spec: &Spec) {
        println!("# end-to-end: metric, median over repetitions, unit, samples, spread, workload");
        for workload in &spec.workloads {
            for m in &spec.end_to_end {
                let values = self.values(workload, &m.name);
                let samples: usize = self.untraced[workload]
                    .iter()
                    .filter_map(|r| r.metrics.get(&m.name).map(|v| v.samples))
                    .sum();
                let spread =
                    relative_spread(&values).map_or("-".to_string(), |s| format!("{s:.3}"));
                println!(
                    "{:<44} {:>16.6} {:<6} n={samples:<6} spread={spread:<6} {workload}",
                    m.name,
                    median(&values),
                    m.unit
                );
            }
        }
        println!("# per-layer (traced pass): metric, value, unit, samples, workload");
        for workload in &spec.workloads {
            let record = &self.traced[workload];
            for m in &spec.per_layer {
                if let Some(v) = record.metrics.get(&m.name) {
                    println!(
                        "{:<44} {:>16.6} {:<6} n={:<6} {workload}",
                        m.name, v.value, m.unit, v.samples
                    );
                }
            }
            // Throughput is measured in both passes; what tracing costs is
            // the share by which the traced pass fell behind. A comparison
            // of runs, not a metric of one: `BENCHMARK.json` does not list it.
            let untraced = median(&self.values(workload, "steps_per_s"));
            if let Some(traced) = record.metrics.get("steps_per_s") {
                println!(
                    "# tracing overhead on {workload}: {:+.4} of steps_per_s",
                    untraced / traced.value - 1.0
                );
            }
        }
    }
}

/// Checks that every exact metric reads the same in all `records`;
/// returns one line per metric that does not.
fn exact_mismatches<'a>(workload: &str, records: impl Iterator<Item = &'a Record>) -> Vec<String> {
    let mut seen: BTreeMap<&str, f64> = BTreeMap::new();
    let mut lines = Vec::new();
    for record in records {
        for (name, m) in record.metrics.iter().filter(|(name, _)| is_exact(name)) {
            let first = *seen.entry(name).or_insert(m.value);
            if first != m.value {
                lines.push(format!("{workload}: {name} read {first} and {}", m.value));
            }
        }
    }
    lines
}

/// How far `b` is from `a`, as a share of `a`, in the direction that is
/// worse for the metric; negative when `b` is better.
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn run(args: &Args) -> Result<bool, String> {
    args.only(&["--seed", "--seconds", "--self-check", "--write-expected"])?;
    let spec = report::load_spec(SPEC_PATH)?;
    let runner = Runner {
        exe: std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?,
        seed: args.number("--seed", REFERENCE_SEED)?,
        seconds: args.number("--seconds", spec.run_seconds as f64)?,
    };

    if args.has("--write-expected") {
        if runner.seed != REFERENCE_SEED {
            return Err(format!(
                "references are written with --seed {REFERENCE_SEED}"
            ));
        }
        let dir = PathBuf::from(OUT_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let mut correct = true;
        for workload in spec.workloads.iter().filter(|w| *w != "serve_fleet") {
            let out = dir.join(format!("{workload}-write-expected.json"));
            correct &= runner
                .run(workload, false, &out, &["--write-expected"])?
                .correct;
        }
        return Ok(correct);
    }

    let first = Set::measure(&runner, &spec, "set-a")?;
    first.print(&spec);
    let mut ok = first.all_correct();
    let mut mismatches: Vec<String> = spec
        .workloads
        .iter()
        .flat_map(|w| exact_mismatches(w, first.records(w)))
        .collect();

    if args.has("--self-check") {
        let second = Set::measure(&runner, &spec, "set-b")?;
        ok &= second.all_correct();
        println!("# self-check: metric, first median, second median, worsening, bound, workload");
        for workload in &spec.workloads {
            for m in &spec.end_to_end {
                let a = median(&first.values(workload, &m.name));
                let b = median(&second.values(workload, &m.name));
                let bound = m.bound.unwrap_or(0.0);
                // Either set may be the worse one: the two agree when
                // neither is worse than the other by more than the bound.
                let apart = worsening(m, a, b).max(worsening(m, b, a));
                let verdict = if apart <= bound { "ok" } else { "APART" };
                println!(
                    "{:<28} {a:>14.6} {b:>14.6} {apart:>8.4} {bound:>6.3} {verdict:<5} {workload}",
                    m.name
                );
                ok &= apart <= bound;
            }
            mismatches.extend(exact_mismatches(
                workload,
                first.records(workload).chain(second.records(workload)),
            ));
        }
    }
    mismatches.sort();
    mismatches.dedup();
    for line in &mismatches {
        eprintln!("FAILED: exact metric differs between runs: {line}");
    }
    println!(
        "# suite: {} ({} hardware threads, seed {}, {} s, {REPS} repetitions)",
        if ok && mismatches.is_empty() {
            "OK"
        } else {
            "FAILED"
        },
        report::nproc(),
        runner.seed,
        runner.seconds
    );
    Ok(ok && mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(pairs: &[(&str, f64)]) -> Record {
        Record {
            correct: true,
            metrics: pairs
                .iter()
                .map(|(n, v)| {
                    (
                        n.to_string(),
                        Measured {
                            value: *v,
                            samples: 1,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn exact_metrics_must_repeat_and_timings_need_not() {
        let a = record(&[
            ("sim_gpu_ms_per_step.heuristic", 0.727194),
            ("setup_s", 1.0),
        ]);
        let b = record(&[
            ("sim_gpu_ms_per_step.heuristic", 0.727194),
            ("setup_s", 1.3),
        ]);
        assert!(exact_mismatches("sim_traced", [&a, &b].into_iter()).is_empty());
        let c = record(&[("sim_gpu_ms_per_step.heuristic", 0.727195)]);
        let lines = exact_mismatches("sim_traced", [&a, &b, &c].into_iter());
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("sim_gpu_ms_per_step.heuristic"));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = MetricSpec {
            name: "latency".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let higher = MetricSpec {
            higher_is_better: true,
            ..lower.clone()
        };
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&lower, 10.0, 9.0) < 0.0);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn records_read_back_what_a_run_wrote() {
        let spec =
            report::load_spec(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
        let mut outcome = report::Outcome::default();
        outcome.set("setup_s", 1.25, 3);
        outcome.check(false, || "a \"quoted\" failure".to_string());
        let text = report::full_record(&outcome, &spec, "solve_heavy", 42, false);
        let record = parse_record(&text).unwrap();
        assert!(!record.correct);
        assert_eq!(
            record.metrics["setup_s"],
            Measured {
                value: 1.25,
                samples: 3
            }
        );
    }
}
