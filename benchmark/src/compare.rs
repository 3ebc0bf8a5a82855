//! `benchmark compare <setA> <setB>`: judges set B against set A, metric by
//! metric and workload by workload.
//!
//! A set is a directory holding `<workload>.jsonl` files, each line the
//! result line of one run. Directions and bounds come from BENCHMARK.json
//! in the working directory. Each row prints both sides' median and
//! quartiles (as Python's `statistics.quantiles(n=4)` gives them), the
//! ratio B/A and a verdict: `within` the bound, `worse` by more than it,
//! `unresolved` when either side's spread (quartile distance over median)
//! is wider than the bound — unless every B run beats every A run, which
//! reads `better`. Per-layer metrics have no bound and get no verdict.

use crate::stats::quartiles;
use hemu_obs::JsonValue;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Within,
    Worse,
    Unresolved,
    Better,
}

/// Entry point; `Ok(false)` when a metric is worse or unresolved, or a run
/// in either set was incorrect.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare <setA> <setB>".into());
    };
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let specs = parse_spec(&spec_text)?;
    let (set_a, set_b) = (read_set(Path::new(a))?, read_set(Path::new(b))?);
    let mut ok = true;
    println!(
        "{:10} {:30} {:>12} {:>25} {:>12} {:>25} {:>7}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A"
    );
    for (workload, runs_a) in &set_a {
        let Some(runs_b) = set_b.get(workload) else {
            println!("{workload:10} only in {a}");
            continue;
        };
        for (side, runs) in [(a, runs_a), (b, runs_b)] {
            let bad = runs
                .iter()
                .filter(|r| r.get("correct").and_then(JsonValue::as_bool) != Some(true));
            let bad = bad.count();
            if bad > 0 {
                ok = false;
                println!(
                    "{workload:10} {bad} of {} runs in {side} were not correct",
                    runs.len()
                );
            }
        }
        for spec in &specs {
            let (va, vb) = (values(runs_a, &spec.name), values(runs_b, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let verdict = spec
                .bound
                .map(|bound| judge(&va, &vb, spec.lower_is_better, bound));
            ok &= !matches!(verdict, Some(Verdict::Worse | Verdict::Unresolved));
            println!(
                "{workload:10} {:30} {:>12.6} {:>25} {:>12.6} {:>25} {:>7.3}  {}",
                spec.name,
                qa[1],
                format!("[{:.6}, {:.6}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.6}, {:.6}]", qb[0], qb[2]),
                qb[1] / qa[1],
                verdict.map_or("-".into(), |v| format!("{v:?}").to_lowercase()),
            );
        }
    }
    Ok(ok)
}

/// The metric definitions of a BENCHMARK.json text: end-to-end metrics
/// first (with bounds), then per-layer ones.
pub fn parse_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let mut out = Vec::new();
    for (key, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let list = doc
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))?;
        for m in list {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_string);
            let name =
                field("name").ok_or(format!("BENCHMARK.json: a `{key}` metric has no name"))?;
            let better =
                field("better").ok_or(format!("BENCHMARK.json: {name} has no direction"))?;
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            if bounded && bound.is_none() {
                return Err(format!("BENCHMARK.json: {name} has no bound"));
            }
            out.push(MetricSpec {
                unit: field("unit").unwrap_or_default(),
                lower_is_better: better == "lower",
                bound,
                name,
            });
        }
    }
    Ok(out)
}

/// Every `<workload>.jsonl` of a set directory, parsed line by line.
fn read_set(dir: &Path) -> Result<BTreeMap<String, Vec<JsonValue>>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut set = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(workload) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".jsonl"))
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        set.insert(
            workload.to_string(),
            parse_lines(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        );
    }
    Ok(set)
}

fn parse_lines(text: &str) -> Result<Vec<JsonValue>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| JsonValue::parse(l).map_err(|e| format!("{e:?}")))
        .collect()
}

fn values(runs: &[JsonValue], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
    let worse = if lower_is_better {
        (qb[1] - qa[1]) / qa[1]
    } else {
        (qa[1] - qb[1]) / qa[1]
    };
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_beats_every_a = if lower_is_better {
        hi(b) < lo(a)
    } else {
        lo(b) > hi(a)
    };
    if spread > bound {
        if b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_text() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let specs = parse_spec(&spec_text()).expect("valid BENCHMARK.json");
        let listed: Vec<(String, String)> = specs
            .iter()
            .map(|s| (s.name.clone(), s.unit.clone()))
            .collect();
        let printed: Vec<(String, String)> = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER.iter())
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, printed);
        let setup = specs.iter().find(|s| s.name == "setup_s").expect("setup_s");
        assert!(setup.lower_is_better && setup.unit == "s");
        let largest = specs.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(largest <= 0.25);
    }

    #[test]
    fn metric_names_and_units_fit_the_result_format() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<_> = crate::END_TO_END
            .iter()
            .chain(crate::PER_LAYER.iter())
            .collect();
        for (name, unit) in &all {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(unit_ok(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1, 10.2, 10.25], true, 0.1),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], true, 0.1),
            Verdict::Worse
        );
        // Higher is better: a higher B is never worse.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9, 12.0, 12.05], false, 0.1),
            Verdict::Within
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(judge(&a, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[1.0, 1.1, 0.9, 1.0, 1.0], true, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn values_come_from_result_lines() {
        let runs = parse_lines(
            "{\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n\n\
             {\"correct\":true,\"attempted\":2,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.7,\"unit\":\"s\"}}}\n",
        )
        .expect("valid lines");
        assert_eq!(values(&runs, "setup_s"), vec![0.5, 0.7]);
        assert!(values(&runs, "runs_per_s").is_empty());
        assert!(parse_lines("{not json}").is_err());
    }
}
