//! `lnic-benchmark compare <parent runs…> -- <change runs…>`: the
//! regression gate over saved run outputs.
//!
//! Each input file holds the standard output of one or more runs (a
//! context line followed by a result line). Runs are grouped by
//! workload and mode; for every metric the report gives each side's
//! median and quartiles, how many of the index-paired runs the change
//! won, and a verdict under the bounds in `BENCHMARK.json`:
//!
//! - `improved`: the change won at least 9 of 10 pairs and the medians
//!   differ, in its favour, by more than the parent's quartile distance;
//! - `unresolved`: the parent's spread exceeds the bound (and the change
//!   did not win every pair);
//! - `regressed`: the change's median is worse by more than the bound;
//! - `unchanged`: otherwise.
//!
//! Simulated metrics repeat exactly for a seed, so runs of the same
//! seed on both sides must agree exactly; any difference is flagged as
//! drift. The comparison fails when any metric regressed, any change
//! run failed its correctness gate, or any simulated metric drifted.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::run::{is_host_timed, WORKLOAD_SPECIFIC};
use crate::stats::{median, quartiles, spread};

/// One run read back from its output.
#[derive(Clone, Debug)]
pub struct SavedRun {
    /// Workload name.
    pub workload: String,
    /// `end_to_end` or `layers`.
    pub mode: String,
    /// Seed.
    pub seed: u64,
    /// Correctness verdict of the run.
    pub correct: bool,
    /// Every metric of the result line and the context line's extras.
    pub metrics: Vec<(String, f64)>,
}

/// Reads every run in `text`.
///
/// # Errors
///
/// Returns an error for a result line with no context line before it,
/// or a malformed line.
pub fn parse_runs(text: &str) -> Result<Vec<SavedRun>, String> {
    let mut runs = Vec::new();
    let mut context: Option<Json> = None;
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if v.get("context").is_some() {
            context = Some(v);
            continue;
        }
        let Some(correct) = v.get("correct") else {
            continue;
        };
        let ctx = context
            .take()
            .ok_or_else(|| format!("line {}: result without a context line", n + 1))?;
        let c = ctx.get("context").expect("checked");
        let values = |obj: Option<&Json>| -> Vec<(String, f64)> {
            obj.map(Json::members)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect()
        };
        let mut metrics = values(v.get("metrics"));
        metrics.extend(values(ctx.get("extra")));
        runs.push(SavedRun {
            workload: c
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            mode: c
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            seed: c.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            correct: *correct == Json::Bool(true),
            metrics,
        });
    }
    Ok(runs)
}

/// Direction and regression bound of a metric.
#[derive(Clone, Copy, Debug)]
struct Rule {
    higher_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    bound: Option<f64>,
}

/// Reads the metric rules of a `BENCHMARK.json`, plus those of the
/// workload-specific metrics, which it cannot list.
fn rules(bench: &Json) -> BTreeMap<String, Rule> {
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).map(Json::elements).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Json::as_str) else {
                continue;
            };
            rules.insert(
                name.to_owned(),
                Rule {
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    for (name, _, higher_is_better, bound) in WORKLOAD_SPECIFIC {
        rules.insert(
            name.to_owned(),
            Rule {
                higher_is_better,
                bound: Some(bound),
            },
        );
    }
    rules
}

/// The verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Better by the gain rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Reported,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "-",
        }
    }
}

/// Judges `change` against `parent` under `bound` (a share of the
/// parent's median).
fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Reported;
    };
    // Signed so that positive is better.
    let gain = |p: f64, c: f64| if higher_is_better { c - p } else { p - c };
    let (pm, cm) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| gain(parent[i], change[i]) > 0.0)
        .count();
    let (q1, q3) = quartiles(parent);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(pm, cm) > q3 - q1 {
        return Verdict::Improved;
    }
    if spread(parent) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if -gain(pm, cm) > bound * pm.abs() {
        return Verdict::Regressed;
    }
    Verdict::Unchanged
}

/// The parent and change runs of one workload and mode.
type Sides<'a> = (Vec<&'a SavedRun>, Vec<&'a SavedRun>);

/// The result of a comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// The rendered report.
    pub report: String,
    /// Metrics judged regressed.
    pub regressed: usize,
    /// Change runs that failed their correctness gate.
    pub incorrect: usize,
    /// Simulated metrics that differ between runs of the same seed.
    pub drifted: usize,
}

impl Comparison {
    /// Whether the change fails the gate.
    pub fn failed(&self) -> bool {
        self.regressed + self.incorrect + self.drifted > 0
    }
}

/// Runs the comparison and renders its report.
///
/// # Errors
///
/// Returns an error when a workload appears on one side only.
pub fn compare(
    bench: &Json,
    parent: &[SavedRun],
    change: &[SavedRun],
) -> Result<Comparison, String> {
    let rules = rules(bench);
    let mut groups: BTreeMap<(String, String), Sides> = BTreeMap::new();
    for r in parent {
        groups
            .entry((r.workload.clone(), r.mode.clone()))
            .or_default()
            .0
            .push(r);
    }
    for r in change {
        groups
            .entry((r.workload.clone(), r.mode.clone()))
            .or_default()
            .1
            .push(r);
    }
    let mut result = Comparison::default();
    let mut out = String::new();
    for ((workload, mode), (p, c)) in &groups {
        if p.is_empty() || c.is_empty() {
            return Err(format!("{workload} ({mode}) has runs on one side only"));
        }
        let count_incorrect = |side: &[&SavedRun]| side.iter().filter(|r| !r.correct).count();
        let (parent_incorrect, change_incorrect) = (count_incorrect(p), count_incorrect(c));
        result.incorrect += change_incorrect;
        let _ = writeln!(
            out,
            "\n{workload} ({mode}): {} parent runs ({parent_incorrect} INCORRECT), \
             {} change runs ({change_incorrect} INCORRECT)",
            p.len(),
            c.len(),
        );
        let _ = writeln!(
            out,
            "  {:<30} {:>14} {:>27} {:>14} {:>27} {:>6}  verdict",
            "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "wins"
        );
        let names: Vec<&String> = {
            let mut seen = Vec::new();
            for (name, _) in p.iter().chain(c.iter()).flat_map(|r| &r.metrics) {
                if !seen.contains(&name) {
                    seen.push(name);
                }
            }
            seen
        };
        for name in names {
            let values = |side: &[&SavedRun]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1))
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let rule = rules.get(name.as_str()).copied().unwrap_or(Rule {
                higher_is_better: false,
                bound: None,
            });
            let v = verdict(&pv, &cv, rule.higher_is_better, rule.bound);
            if v == Verdict::Regressed {
                result.regressed += 1;
            }
            let better = |pp: f64, cc: f64| {
                if rule.higher_is_better {
                    cc > pp
                } else {
                    cc < pp
                }
            };
            let pairs = pv.len().min(cv.len());
            let wins = (0..pairs).filter(|&i| better(pv[i], cv[i])).count();
            let drift = !is_host_timed(name)
                && p.iter().any(|pr| {
                    c.iter().any(|cr| {
                        pr.seed == cr.seed
                            && pr.metrics.iter().find(|m| &m.0 == name).map(|m| m.1)
                                != cr.metrics.iter().find(|m| &m.0 == name).map(|m| m.1)
                    })
                });
            if drift {
                result.drifted += 1;
            }
            let (pq1, pq3) = quartiles(&pv);
            let (cq1, cq3) = quartiles(&cv);
            let _ = writeln!(
                out,
                "  {:<30} {:>14.6} [{:>12.6}, {:>12.6}] {:>14.6} [{:>12.6}, {:>12.6}] {:>3}/{:<2}  {}{}",
                name,
                median(&pv),
                pq1,
                pq3,
                median(&cv),
                cq1,
                cq3,
                wins,
                pairs,
                v.name(),
                if drift { "  DRIFT: same seed, different value" } else { "" }
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{} regressed, {} incorrect change runs, {} drifted: {}",
        result.regressed,
        result.incorrect,
        result.drifted,
        if result.failed() { "FAIL" } else { "pass" }
    );
    result.report = out;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_gain_rule() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let same = parent;
        assert_eq!(
            verdict(&parent, &same, false, Some(0.05)),
            Verdict::Unchanged
        );
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, false, Some(0.05)),
            Verdict::Regressed
        );
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(&parent, &faster, false, Some(0.05)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &slower, true, Some(0.05)),
            Verdict::Improved
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0];
        assert_eq!(
            verdict(&noisy, &[11.0; 5], false, Some(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[0.0; 3], &[0.01; 3], false, Some(0.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&parent, &slower, false, None), Verdict::Reported);
    }

    /// The output of one run of workload `w`.
    fn run(seed: u64, correct: bool, p50: f64, run_s: f64) -> String {
        format!(
            "{{\"context\": {{\"workload\": \"w\", \"mode\": \"end_to_end\", \"seed\": {seed}}}, \
             \"extra\": {{\"slo_rate_rps\": {{\"value\": 5000, \"unit\": \"req/sim_s\"}}}}}}\n\
             {{\"correct\": {correct}, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
             \"sojourn_p50_us\": {{\"value\": {p50}, \"unit\": \"sim_us\"}}, \
             \"run_s\": {{\"value\": {run_s}, \"unit\": \"s\"}}}}}}\n"
        )
    }

    fn bench() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "sojourn_p50_us", "unit": "sim_us", "better": "lower", "bound": 0.1},
                               {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn reads_runs_and_passes_an_identical_change() {
        let text = run(1, true, 10.0, 2.0) + &run(2, true, 11.0, 2.1);
        let parent = parse_runs(&text).unwrap();
        assert_eq!(parent.len(), 2);
        assert_eq!(parent[0].metrics.len(), 3);
        let change = parse_runs(&(run(1, true, 10.0, 2.05) + &run(2, true, 11.0, 2.0))).unwrap();
        let c = compare(&bench(), &parent, &change).unwrap();
        assert!(!c.failed(), "{}", c.report);
        assert!(!c.report.contains("DRIFT"), "{}", c.report);
        assert!(parse_runs("{\"correct\": true}").is_err());
    }

    #[test]
    fn fails_on_simulated_drift_only() {
        let parent = parse_runs(&(run(1, true, 10.0, 2.0) + &run(2, true, 11.0, 2.1))).unwrap();
        // Same seeds: a simulated metric that moved by less than its
        // bound still drifted; a host metric may move.
        let change = parse_runs(&(run(1, true, 10.5, 2.0) + &run(2, true, 11.0, 2.2))).unwrap();
        let c = compare(&bench(), &parent, &change).unwrap();
        assert_eq!(
            (c.regressed, c.incorrect, c.drifted),
            (0, 0, 1),
            "{}",
            c.report
        );
        assert!(c.failed());
        let p50 = c
            .report
            .lines()
            .find(|l| l.contains("sojourn_p50_us"))
            .unwrap();
        assert!(p50.contains("DRIFT"), "{}", c.report);
        let run_s = c.report.lines().find(|l| l.contains("run_s")).unwrap();
        assert!(!run_s.contains("DRIFT"), "{}", c.report);
    }

    #[test]
    fn fails_on_an_incorrect_change_run() {
        let parent = parse_runs(&(run(1, true, 10.0, 2.0) + &run(2, true, 11.0, 2.1))).unwrap();
        let change = parse_runs(&(run(1, true, 10.0, 2.0) + &run(2, false, 11.0, 2.1))).unwrap();
        let c = compare(&bench(), &parent, &change).unwrap();
        assert_eq!(
            (c.regressed, c.incorrect, c.drifted),
            (0, 1, 0),
            "{}",
            c.report
        );
        assert!(c.failed());
        // An incorrect parent run is reported, and does not fail the change.
        let c = compare(&bench(), &change, &parent).unwrap();
        assert!(!c.failed(), "{}", c.report);
        assert!(c.report.contains("(1 INCORRECT)"), "{}", c.report);
    }

    #[test]
    fn gates_workload_specific_metrics_with_their_bound() {
        let rules = rules(&bench());
        let slo = rules["slo_rate_rps"];
        assert!(slo.higher_is_better);
        assert_eq!(slo.bound, Some(0.01));
        assert!(!rules["run_s"].higher_is_better);
    }
}
