//! What a run produces, and how it is checked against `BENCHMARK.json`
//! and printed.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Metrics whose values are counts or simulated statistics: they repeat
/// exactly between runs of one checkout with one seed, so `--self-check`
/// compares them for equality, not within a bound.
pub const EXACT_PREFIXES: &[&str] = &[
    "core.fallback_cells_per_step.",
    "core.launches_per_step.",
    "quad.evals_per_step.",
    "quad.replay_frac.",
    "sim_gpu_ms_per_step.",
    "simt.warp_eff.",
    "simt.gld_eff.",
    "simt.l1_hit.",
    "simt.issued_instr_per_step.",
    "simt.sim_speedup_vs_",
];

pub fn is_exact(name: &str) -> bool {
    EXACT_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// One measured value and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, Measured>,
    /// Operations tried: timed steps or sessions, plus correctness checks.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The compute lane the workload ran on, as `BackendKind::name` says.
    pub lane: String,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.metrics
            .insert(name.into(), Measured { value, samples });
    }

    /// Counts one correctness check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed relative worsening; only end-to-end metrics carry one.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads: it is the
/// one place metric names, units and bounds are written down.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: '{key}' must be a list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.str(f)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a '{key}' entry lacks '{f}'"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: field("better")? == "higher",
                bound: m.num("bound"),
            })
        })
        .collect()
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: 'workloads' must be a list")?
        .iter()
        .filter_map(|w| w.str("name").map(str::to_string))
        .collect();
    Ok(Spec {
        run_seconds: doc
            .num("run_seconds")
            .ok_or("BENCHMARK.json: 'run_seconds' must be a number")? as u64,
        workloads,
        end_to_end: metric_specs(&doc, "end_to_end")?,
        per_layer: metric_specs(&doc, "per_layer")?,
    })
}

pub fn load_spec(path: &str) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_spec(&text)
}

/// The run's result line: exactly the metrics `declared` lists, each with
/// its declared unit. An end-to-end metric the run did not produce is an
/// error; a per-layer metric that does not apply to the workload reads 0.
pub fn result_line(
    outcome: &Outcome,
    declared: &[MetricSpec],
    per_layer: bool,
) -> Result<String, String> {
    let mut members = Vec::with_capacity(declared.len());
    for spec in declared {
        let value = match outcome.metrics.get(&spec.name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => return Err(format!("metric {} is not finite: {}", spec.name, m.value)),
            None if per_layer => 0.0,
            None => return Err(format!("the run produced no {}", spec.name)),
        };
        members.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(&spec.name),
            json::number(value),
            json::quote(&spec.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        members.join(",")
    ))
}

/// Everything the run measured, for `benchmark/out/` and the suite.
pub fn full_record(
    outcome: &Outcome,
    spec: &Spec,
    workload: &str,
    seed: u64,
    trace: bool,
) -> String {
    let unit_of = |name: &str| {
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str())
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json::quote(name),
                json::number(m.value),
                json::quote(unit_of(name)),
                m.samples
            )
        })
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json::quote(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"lane\":{},\"nproc\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{\n{}\n}}}}\n",
        json::quote(workload),
        json::quote(&outcome.lane),
        nproc(),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        failures.join(","),
        metrics.join(",\n"),
    )
}

/// Hardware threads available to this process; every timing depends on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        load_spec(path).expect("the committed BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_keeps_within_its_contract() {
        let spec = spec();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name} is not a valid name");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "every name is used once");
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        for m in &spec.per_layer {
            assert!(m.bound.is_none(), "{} must carry no bound", m.name);
        }
    }

    #[test]
    fn result_line_lists_exactly_the_declared_metrics() {
        let spec = spec();
        let mut outcome = Outcome::default();
        for (i, m) in spec.end_to_end.iter().enumerate() {
            outcome.set(m.name.clone(), 1.5 + i as f64, 3);
        }
        outcome.set("core.workspace_mb", 2.0, 1);
        outcome.check(true, String::new);
        let line = result_line(&outcome, &spec.end_to_end, false).unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(doc.num("attempted"), Some(1.0));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec.end_to_end.len());
        assert_eq!(
            metrics[0].1.str("unit"),
            Some(spec.end_to_end[0].unit.as_str())
        );

        // Per-layer: a metric the workload does not have reads 0.
        let line = result_line(&outcome, &spec.per_layer, true).unwrap();
        let doc = json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.get("core.workspace_mb").unwrap().num("value"),
            Some(2.0)
        );
        assert_eq!(
            metrics.get("par.fork_join_us").unwrap().num("value"),
            Some(0.0)
        );

        // A missing or non-finite end-to-end metric is an error, not a 0.
        outcome.metrics.remove("setup_s");
        assert!(result_line(&outcome, &spec.end_to_end, false).is_err());
        outcome.set("setup_s", f64::NAN, 1);
        assert!(result_line(&outcome, &spec.end_to_end, false).is_err());
        outcome.check(false, || "boom".to_string());
        assert!(!outcome.correct());
    }

    #[test]
    fn exact_metrics_are_recognised_by_prefix() {
        assert!(is_exact("sim_gpu_ms_per_step.two-phase"));
        assert!(is_exact("quad.replay_frac.heuristic"));
        assert!(!is_exact("core.step_ms_p90.two-phase"));
    }
}
