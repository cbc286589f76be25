//! The `sct-plan/3` entry on disk: one file per define, carrying the
//! define's contract summary as a second line that a load keeps as text
//! and only an exploration decodes.

use sct_cache::DiskCache;
use sct_core::json::{parse, Json};
use sct_lang::compile_program;
use sct_symbolic::pipeline::{
    plan_program, plan_program_incremental, PlanCache, PlanConfig, PlanObs,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sct-entry-format-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every file under the two-level cache layout, as `(path, text)`.
fn files(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap().flatten() {
        for file in std::fs::read_dir(shard.path()).unwrap().flatten() {
            let text = std::fs::read_to_string(file.path()).unwrap();
            out.push((file.path(), text));
        }
    }
    out
}

/// Splits an entry into its parsed decision line and its summary line.
fn split(text: &str) -> (Json, &str) {
    let (line, rest) = text.split_once('\n').expect("a terminated decision line");
    (parse(line).expect("decision line parses"), rest)
}

/// Plans `src` against a fresh handle on `dir`, returning the plan, the
/// store misses and the `plan.summary.{hits,misses}` counters.
fn plan_counted(dir: &Path, src: &str) -> (sct_core::plan::EnforcementPlan, usize, (u64, u64)) {
    let prog = compile_program(src).unwrap();
    let reg = Arc::new(sct_obs::Registry::new());
    let cfg = PlanConfig {
        obs: PlanObs::registered(reg.clone()),
        ..PlanConfig::default()
    };
    let mut disk = DiskCache::open(dir).unwrap();
    let (plan, stats) = plan_program_incremental(&prog, &cfg, &mut PlanCache::new(), &mut disk);
    let snap = reg.snapshot();
    let counter = |name| snap.counter(name).unwrap_or(0);
    (
        plan,
        stats.misses(),
        (counter("plan.summary.hits"), counter("plan.summary.misses")),
    )
}

/// A recursive helper, a non-recursive define, a refuted define and a
/// caller that applies the helper; `k` is the caller's base constant.
fn program(k: u32) -> String {
    format!(
        "(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
         (define (inc x) (+ x 1))
         (define (spin x) (spin x))
         (define (f l) (if (null? l) {k} (+ (len (cdr l)) (f (cdr l)))))"
    )
}

#[test]
fn a_cold_plan_writes_one_plan_file_per_define() {
    let dir = scratch("one-file");
    let (plan, misses, _) = plan_counted(&dir, &program(0));
    assert_eq!(misses, 4);
    let entries = files(&dir);
    assert_eq!(entries.len(), 4, "one file per λ-define: {entries:?}");
    for (path, text) in &entries {
        assert!(
            path.extension().is_some_and(|e| e == "plan"),
            "only .plan entries: {path:?}"
        );
        let (line, summary) = split(text);
        assert_eq!(
            line.get("schema").and_then(Json::as_str),
            Some("sct-plan/3")
        );
        assert_eq!(
            line.get("summary").and_then(Json::as_u64),
            Some(summary.len() as u64)
        );
        // Exactly the recursive `Static` defines carry a summary line.
        let name = line.get("name").and_then(Json::as_str).unwrap();
        let recursive_static = matches!(name, "len" | "f");
        assert_eq!(!summary.is_empty(), recursive_static, "{name}: {text}");
        if recursive_static {
            assert!(summary.starts_with("{\"schema\":\"sct-plan-summary/1\""));
        }
    }
    assert_eq!(plan.count("static"), 3, "{:?}", plan.decisions);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_garbage_summary_line_is_never_decoded_until_an_exploration() {
    let dir = scratch("undecoded");
    plan_counted(&dir, &program(0));
    // Overwrite len's summary with garbage of the declared length: the
    // entry still decodes, because a load never reads the summary.
    let (path, text) = files(&dir)
        .into_iter()
        .find(|(_, t)| split(t).0.get("name").and_then(Json::as_str) == Some("len"))
        .expect("len's entry");
    let line_end = text.find('\n').unwrap() + 1;
    let garbage = "#".repeat(text.len() - line_end);
    std::fs::write(&path, format!("{}{garbage}", &text[..line_end])).unwrap();

    // All hits: nothing explores, so the garbage is never decoded.
    let (warm, misses, decodes) = plan_counted(&dir, &program(0));
    assert_eq!((misses, decodes), (0, (0, 0)));
    assert_eq!(warm.count("static"), 3);

    // Editing `f` explores it after `len` hit: len's summary is decoded,
    // fails, counts one miss, and `f` falls back to full descent.
    let (plan, misses, decodes) = plan_counted(&dir, &program(1));
    assert_eq!((misses, decodes), (1, (0, 1)));
    let full = plan_program(
        &compile_program(&program(1)).unwrap(),
        &PlanConfig {
            summaries: false,
            ..PlanConfig::default()
        },
    );
    assert!(plan.structurally_eq(&full), "{plan}\n{full}");
    std::fs::remove_dir_all(&dir).ok();
}
