//! `sctbench compare BASE CHANGE`: medians and quartiles of every metric
//! per workload over two files of result records, with each delta judged
//! against the metric's bound, and failures judged absolutely.

use crate::report::quantile_of;
use sct_core::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// A metric's bound and direction. Record-line figures have no bound:
/// their rows are printed but not judged.
#[derive(Debug, Clone)]
struct Rule {
    bound: Option<f64>,
    lower_is_better: bool,
}

/// Figures judged absolutely rather than against a bound: any failure a
/// base run did not have is a regression, whatever the spread.
const ABSOLUTE: [&str; 2] = ["failed", "error_rate"];

/// workload → metric → (unit, values).
type Runs = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Bounds of the end-to-end metrics (`BENCHMARK.json`) and the directions
/// of the record-line figures (`sctbench/manifest.json`).
fn rules() -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::from([(
        "failed".to_string(),
        Rule {
            bound: None,
            lower_is_better: true,
        },
    )]);
    let bench = read_json(Path::new("BENCHMARK.json"))?;
    let manifest = read_json(Path::new("sctbench/manifest.json"))?;
    let lists = [bench.get("end_to_end"), manifest.get("record_metrics")];
    for m in lists
        .into_iter()
        .flatten()
        .filter_map(Json::as_arr)
        .flatten()
    {
        let Some(name) = m.get("name").and_then(Json::as_str) else {
            continue;
        };
        let lower = m.get("better").and_then(Json::as_str) != Some("higher");
        out.insert(
            name.to_string(),
            Rule {
                bound: m.get("bound").and_then(Json::as_f64),
                lower_is_better: lower,
            },
        );
    }
    Ok(out)
}

/// The untraced result records in a file of benchmark output.
fn runs(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Runs::new();
    for line in text.lines().filter(|l| l.starts_with("{\"record\"")) {
        let Ok(rec) = parse(line) else { continue };
        if rec.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            continue;
        };
        let failed = rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let figures = metrics.iter().filter_map(|(name, m)| {
            Some((
                name.as_str(),
                m.get("unit").and_then(Json::as_str)?,
                m.get("value").and_then(Json::as_f64)?,
            ))
        });
        for (name, unit, v) in figures.chain([("failed", "count", failed)]) {
            out.entry(workload.clone())
                .or_default()
                .entry(name.to_string())
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(v);
        }
    }
    Ok(out)
}

struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

fn summarize(xs: &[f64]) -> Summary {
    let q = |p: f64| quantile_of(xs, p).unwrap_or(0.0);
    Summary {
        median: q(0.5),
        q1: q(0.25),
        q3: q(0.75),
        n: xs.len(),
    }
}

impl Summary {
    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The verdict on one row: `worse` is the change of the median in the
/// bad direction, as a share of the base median.
fn verdict(
    name: &str,
    rule: &Rule,
    xs: &[f64],
    ys: &[f64],
    worse: f64,
    spread: f64,
) -> &'static str {
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if ABSOLUTE.contains(&name) {
        return match max(ys).total_cmp(&max(xs)) {
            std::cmp::Ordering::Greater => "REGRESSION",
            std::cmp::Ordering::Less => "better",
            std::cmp::Ordering::Equal => "same",
        };
    }
    let Some(bound) = rule.bound else {
        return "no bound";
    };
    // Every change run worse than every base run: the runs do not overlap,
    // so the delta is real even where the spread is wide.
    let separated = if rule.lower_is_better {
        ys.iter().copied().fold(f64::INFINITY, f64::min) > max(xs)
    } else {
        max(ys) < xs.iter().copied().fold(f64::INFINITY, f64::min)
    };
    if worse > bound && (spread <= bound || separated) {
        "REGRESSION"
    } else if spread > bound {
        "unresolved"
    } else if -worse > spread {
        "better"
    } else {
        "same"
    }
}

/// Prints one row per workload and metric; returns the number of
/// regressions.
///
/// # Errors
///
/// Unreadable or malformed input files.
pub fn compare(base: &Path, change: &Path) -> Result<usize, String> {
    let rules = rules()?;
    let (a, b) = (runs(base)?, runs(change)?);
    let mut regressions = 0;
    println!(
        "{:<11} {:<20} {:>6} {:>28} {:>28} {:>8}  verdict",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "delta"
    );
    for (workload, metrics) in &a {
        let Some(other) = b.get(workload) else {
            continue;
        };
        for (name, (unit, xs)) in metrics {
            let (Some(rule), Some((_, ys))) = (rules.get(name), other.get(name)) else {
                continue;
            };
            let (sa, sb) = (summarize(xs), summarize(ys));
            let delta = if sa.median == 0.0 {
                0.0
            } else {
                (sb.median - sa.median) / sa.median.abs()
            };
            let worse = if rule.lower_is_better { delta } else { -delta };
            let spread = sa.spread().max(sb.spread());
            let verdict = verdict(name, rule, xs, ys, worse, spread);
            if verdict == "REGRESSION" {
                regressions += 1;
            }
            let cell =
                |s: &Summary| format!("{:.4} [{:.4}, {:.4}] ({})", s.median, s.q1, s.q3, s.n);
            let bound = rule
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!(
                "{workload:<11} {name:<20} {unit:>6} {:>28} {:>28} {:>+7.1}%  {verdict} (bound {bound}, spread {:.1}%)",
                cell(&sa),
                cell(&sb),
                delta * 100.0,
                spread * 100.0
            );
        }
    }
    Ok(regressions)
}
