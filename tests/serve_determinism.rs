//! Determinism of the `sct serve` planner: a served plan is exactly the
//! single-thread `plan_program` answer, whatever the pool width, however
//! a seeded fault schedule stalls the planning jobs, and whatever the
//! order in which concurrent clients reach the shared store.
//!
//! Every comparison covers every field of every decision except
//! `micros` (timing). The failpoint registry is process-global, so the
//! tests serialize on [`SERIAL`]; `SCT_CHAOS_SEED` varies the stall
//! schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread;

use sct_contracts::corpus::{table1, workloads};
use sct_contracts::serve::{ServeOptions, Server};
use sct_contracts::{plan_program, PlanConfig};
use sct_core::json::{parse, Json};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn chaos_seed() -> u64 {
    std::env::var("SCT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// A seeded schedule that stalls about half of all planning jobs.
fn stall_spec() -> String {
    format!("seed={};serve.pool.job=stall-30@500", chaos_seed())
}

/// A stub-order repro: `f`'s proof is `Static{any,any}` only when `len`'s
/// contract summary is registered before `f` is explored; full descent
/// of `len` inside `f` discharges only under a `nat` guard.
const ACK_PAD_LEN_F: &str = "
(define (ack m n)
  (cond [(= 0 m) (+ 1 n)]
        [(= 0 n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))
(define (pad x) x)
(define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
(define (f l acc) (if (null? l) acc (f (cdr l) (+ acc (len l)))))";

/// A layered call-DAG of `layers × width` self-recursive defines: the
/// define at position `p` of layer `l` calls positions `p` and `p + 1`
/// of layer `l - 1`, and the recursion shape rotates through countdown,
/// accumulator and list descent.
fn call_dag(layers: usize, width: usize) -> String {
    let name = |l: usize, p: usize| format!("d{l}-{p}");
    let shape = |l: usize, p: usize| (l + p) % 3;
    let call = |l: usize, p: usize| match shape(l, p) {
        0 => format!("({} 2)", name(l, p)),
        1 => format!("({} 2 0)", name(l, p)),
        _ => format!("({} '(1 2))", name(l, p)),
    };
    let mut out = String::new();
    for l in 0..layers {
        for p in 0..width {
            let f = name(l, p);
            let calls = if l == 0 {
                String::new()
            } else {
                format!(" {} {}", call(l - 1, p), call(l - 1, (p + 1) % width))
            };
            let k = 1 + (l * width + p) % 9;
            out.push_str(&match shape(l, p) {
                0 => format!("(define ({f} n) (if (zero? n) (+ {k}{calls}) (+ 1 ({f} (- n 1)))))\n"),
                1 => format!(
                    "(define ({f} n acc) (if (zero? n) (+ acc {k}{calls}) ({f} (- n 1) (+ acc n))))\n"
                ),
                _ => format!("(define ({f} l) (if (null? l) (+ {k}{calls}) (+ (car l) ({f} (cdr l)))))\n"),
            });
        }
    }
    out.push_str(&format!("{}\n", call(layers - 1, 0)));
    out
}

/// Every input of the determinism oracle, tagged for failure messages.
fn corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = workloads::fig10()
        .into_iter()
        .map(|w| (format!("fig10/{}", w.id), w.source))
        .collect();
    out.extend(
        table1::all()
            .into_iter()
            .map(|p| (format!("table1/{}", p.id), p.source.to_string())),
    );
    out.push(("ack-pad-len-f".into(), ACK_PAD_LEN_F.into()));
    out.push(("call-dag-8x7".into(), call_dag(8, 7)));
    out
}

/// A plan document's `functions`, each with its `micros` member removed.
fn untimed(plan_doc: &Json) -> Vec<Json> {
    plan_doc
        .get("functions")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no functions in {plan_doc:?}"))
        .iter()
        .map(|f| match f {
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .filter(|(k, _)| k != "micros")
                    .cloned()
                    .collect(),
            ),
            other => panic!("function entry is not an object: {other:?}"),
        })
        .collect()
}

/// Single-thread `plan_program` under the daemon's planner config.
fn expected(source: &str) -> Vec<Json> {
    let program = sct_lang::compile_program(source).expect("corpus source compiles");
    let plan = plan_program(&program, &PlanConfig::default());
    untimed(&parse(&plan.to_json()).expect("plan JSON parses"))
}

fn plan_request(source: &str) -> String {
    Json::Obj(vec![
        ("op".into(), Json::str("plan")),
        ("source".into(), Json::str(source)),
    ])
    .to_string()
}

/// The daemon's answer to a `plan` of `source`.
fn served(server: &Server, source: &str) -> Vec<Json> {
    let doc = response(server, &plan_request(source));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc}");
    untimed(doc.get("plan").expect("plan member"))
}

/// The daemon's parsed response to one request line.
fn response(server: &Server, line: &str) -> Json {
    let out = server.handle_line(line).response.expect("a response");
    parse(&out).unwrap_or_else(|e| panic!("bad response {out}: {e}"))
}

fn server(threads: usize, cache_dir: Option<std::path::PathBuf>) -> Server {
    Server::new(ServeOptions {
        threads,
        cache_dir,
        ..ServeOptions::default()
    })
    .unwrap()
}

/// The first differing decision, rendered for a failure message.
fn first_diff(got: &[Json], want: &[Json]) -> String {
    if got.len() != want.len() {
        return format!("{} decisions served, {} expected", got.len(), want.len());
    }
    got.iter()
        .zip(want)
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("served {g}\nexpected {w}"))
        .unwrap_or_default()
}

/// Plans every corpus source on fresh daemons of width 1, 2 and 4 — cold
/// and then warm from the daemon's own store — and checks each answer
/// against single-thread `plan_program`.
fn assert_served_plans_match(faults: Option<&str>) {
    let corpus = corpus();
    let want: Vec<Vec<Json>> = corpus.iter().map(|(_, s)| expected(s)).collect();
    let _armed = faults.map(|spec| sct_faults::scoped(spec).unwrap());
    for threads in [1, 2, 4] {
        let server = server(threads, None);
        for pass in ["cold", "warm"] {
            for ((tag, source), want) in corpus.iter().zip(&want) {
                let got = served(&server, source);
                assert!(
                    got == *want,
                    "{tag}: threads {threads}, {pass} pass, faults {faults:?}:\n{}",
                    first_diff(&got, want)
                );
            }
        }
    }
}

#[test]
fn served_plans_equal_plan_program_at_every_pool_width() {
    let _lock = serial();
    assert_served_plans_match(None);
}

#[test]
fn served_plans_equal_plan_program_under_stalled_jobs() {
    let _lock = serial();
    assert_served_plans_match(Some(&stall_spec()));
}

/// Concurrent clients planning overlapping programs share one store: a
/// request may hit decisions another request is still publishing, and
/// must still answer exactly the single-thread plan.
#[test]
fn concurrent_clients_on_one_store_get_the_single_thread_plan() {
    let _lock = serial();
    let _armed = sct_faults::scoped(&stall_spec()).unwrap();
    let dag = call_dag(8, 7);
    let want = expected(&dag);
    let server = server(4, None);
    // Every client sends at once, so the requests race for the store.
    let start = Barrier::new(4);
    thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    served(&server, &dag)
                })
            })
            .collect();
        for client in clients {
            let got = client.join().expect("client thread");
            assert!(got == want, "{}", first_diff(&got, &want));
        }
    });
}

/// The plan tree the daemon embeds in a response encodes to exactly the
/// bytes of the CLI's `to_json` document, so building it directly does
/// not change what clients receive.
#[test]
fn plan_json_value_encodes_like_to_json() {
    for (tag, source) in corpus() {
        let program = sct_lang::compile_program(&source).expect("corpus source compiles");
        let plan = plan_program(&program, &PlanConfig::default());
        let reparsed = parse(&plan.to_json()).expect("plan JSON parses");
        assert_eq!(
            plan.to_json_value().to_string(),
            reparsed.to_string(),
            "{tag}"
        );
    }
}

/// The daemon's `plan.summary.{hits,misses}` counters: summaries
/// decoded for an exploration.
fn summary_decodes(server: &Server) -> Vec<i64> {
    let metrics = response(server, r#"{"op":"metrics"}"#);
    let counters = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics carry counters");
    ["plan.summary.hits", "plan.summary.misses"]
        .iter()
        .map(|name| counters.get(name).and_then(Json::as_i64).unwrap_or(0))
        .collect()
}

/// Every `.plan` entry under a cache directory, as `(decision line,
/// summary line)`; no other file may be there.
fn cache_entries(dir: &std::path::Path) -> Vec<(Json, String)> {
    let mut out = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap().flatten() {
        for file in std::fs::read_dir(shard.path()).unwrap().flatten() {
            let path = file.path();
            assert!(
                path.extension().is_some_and(|e| e == "plan"),
                "unexpected cache file {path:?}"
            );
            let text = std::fs::read_to_string(&path).unwrap();
            let (line, rest) = text.split_once('\n').expect("a terminated decision line");
            out.push((parse(line).expect("decision line parses"), rest.to_string()));
        }
    }
    out
}

/// A warm `plan` whose every define hits explores nothing, so it decodes
/// no contract summary: repeating it leaves the daemon's summary counters
/// where the cold plan left them, with or without a cache directory.
#[test]
fn all_hit_plans_read_no_summaries() {
    let _lock = serial();
    for source in [ACK_PAD_LEN_F.to_string(), call_dag(8, 7)] {
        let dir = std::env::temp_dir().join(format!(
            "sct-determinism-summaries-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        for cache_dir in [None, Some(dir.clone())] {
            let server = server(1, cache_dir.clone());
            served(&server, &source);
            if let Some(dir) = &cache_dir {
                let entries = cache_entries(dir);
                let with_summary = entries.iter().filter(|(_, s)| !s.is_empty()).count();
                assert!(with_summary > 0, "the cold plan persists summaries");
                for (line, summary) in &entries {
                    assert_eq!(
                        line.get("summary").and_then(Json::as_i64),
                        Some(summary.len() as i64),
                        "{line}"
                    );
                }
            }
            let after_cold = summary_decodes(&server);
            for _ in 0..2 {
                let doc = response(&server, &plan_request(&source));
                let cache = doc.get("cache").expect("plan responses carry cache");
                assert_eq!(cache.get("warm"), Some(&Json::Bool(true)), "{doc}");
                assert_eq!(summary_decodes(&server), after_cold);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// The persisted verdict is the single-thread one too: a daemon that
/// planned the repro under a stalled job leaves `f` on disk as
/// `Static{any,any}`, and a second daemon on the same directory replays
/// exactly that from its store.
#[test]
fn persisted_verdict_survives_a_daemon_restart() {
    let _lock = serial();
    let want = expected(ACK_PAD_LEN_F);
    let f = want
        .iter()
        .find(|d| d.get("name").and_then(Json::as_str) == Some("f"))
        .expect("f is planned");
    assert_eq!(f.get("decision").and_then(Json::as_str), Some("static"));
    assert_eq!(
        f.get("guard").map(ToString::to_string).as_deref(),
        Some(r#"["any","any"]"#),
        "{f}"
    );
    for threads in [2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "sct-determinism-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let _armed = sct_faults::scoped("serve.pool.job=stall-200*1").unwrap();
            let first = server(threads, Some(dir.clone()));
            let got = served(&first, ACK_PAD_LEN_F);
            assert!(
                got == want,
                "threads {threads}: {}",
                first_diff(&got, &want)
            );
        }
        let second = server(1, Some(dir.clone()));
        let response = second
            .handle_line(&plan_request(ACK_PAD_LEN_F))
            .response
            .unwrap();
        let doc = parse(&response).unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(
            cache.get("warm"),
            Some(&Json::Bool(true)),
            "every define replays from disk: {response}"
        );
        let got = untimed(doc.get("plan").unwrap());
        assert!(
            got == want,
            "threads {threads}: {}",
            first_diff(&got, &want)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
