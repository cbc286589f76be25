//! The `serve-warm` and `serve-edit` workloads: an in-process daemon on a
//! Unix socket, one closed-loop client, every answer checked, and — in a
//! traced run — a single-threaded replay of every timed request through
//! the layer functions against replica stores in the same state.

use crate::cpu;
use crate::gen::{self, CallDag, Op};
use crate::layers::{self, Counts, Per, ServeFigures};
use crate::oracle::{self, Expected};
use crate::report::{self, Outcome, Phase};
use crate::trace::{Recorder, SpanId, TimedStore};
use sct_cache::DiskCache;
use sct_contracts::refutation_error;
use sct_contracts::serve::{serve_unix, ServeOptions, Server};
use sct_core::json::{parse, Json};
use sct_core::monitor::TableStrategy;
use sct_core::plan::EnforcementPlan;
use sct_interp::{Machine, MachineConfig, SemanticsMode};
use sct_ir::CompiledProgram;
use sct_obs::Registry;
use sct_symbolic::{plan_program_incremental, PlanCache, PlanConfig, PlanObs, ProgramDigests};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Planning workers of every daemon the benchmark starts. With one worker
/// a request's defines are planned in source order, as single-thread
/// `plan_program` plans them, so answers and per-edit work do not depend
/// on how the scheduler interleaves workers.
pub const THREADS: usize = 1;
/// Set-ups per `serve-warm` run; `setup_s` is their median.
const WARM_SETUPS: usize = 3;
/// Set-ups per `serve-edit` run. Each is short, so take many: the user
/// share of their CPU comes from scheduler ticks, and a few dozen ticks
/// would leave it coarse.
const EDIT_SETUPS: usize = 40;
/// How often the timed loops time [`cpu::probe`].
const PROBE_EVERY: Duration = Duration::from_millis(500);
/// Rounds in the seeded `serve-warm` request order, cycled.
const ORDER_ROUNDS: usize = 16;

/// A daemon started in-process with `serve_unix`.
pub struct Daemon {
    thread: Option<JoinHandle<io::Result<()>>>,
    dir: PathBuf,
}

/// One client connection, counting what it sent per op.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
    /// Requests sent, by op name.
    pub sent: BTreeMap<String, u64>,
}

impl Client {
    /// Sends one request line (newline-terminated) and reads the response.
    ///
    /// # Errors
    ///
    /// Socket errors, or EOF before a response.
    pub fn call(&mut self, op: &str, line: &str) -> io::Result<&str> {
        *self.sent.entry(op.to_string()).or_insert(0) += 1;
        self.writer.write_all(line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(&self.line)
    }
}

impl Daemon {
    /// Starts a daemon whose socket and cache live under `dir` (created
    /// fresh) and connects one client to it.
    ///
    /// # Errors
    ///
    /// Directory, server or socket errors.
    pub fn start(dir: &Path) -> io::Result<(Daemon, Client)> {
        std::fs::create_dir_all(dir)?;
        let server = Arc::new(Server::new(ServeOptions {
            threads: THREADS,
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        })?);
        let socket = dir.join("d.sock");
        let thread = {
            let socket = socket.clone();
            thread::spawn(move || serve_unix(server, &socket))
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline && !thread.is_finished() => {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        };
        let daemon = Daemon {
            thread: Some(thread),
            dir: dir.to_path_buf(),
        };
        let client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
            sent: BTreeMap::new(),
        };
        Ok((daemon, client))
    }

    /// Shuts the daemon down through `client`, waits for it, and removes
    /// its directory.
    ///
    /// # Errors
    ///
    /// Socket errors or a daemon that ended with an error.
    pub fn stop(mut self, mut client: Client) -> io::Result<()> {
        client.call("shutdown", "{\"op\":\"shutdown\"}\n")?;
        drop(client);
        if let Some(t) = self.thread.take() {
            t.join()
                .map_err(|_| io::Error::other("daemon thread panicked"))??;
        }
        std::fs::remove_dir_all(&self.dir)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon dropped without `stop` (an error path): ask it to quit so
        // its thread can be joined rather than left running.
        if let Some(t) = self.thread.take() {
            if let Ok(mut s) = UnixStream::connect(self.dir.join("d.sock")) {
                let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
                let mut line = String::new();
                let _ = BufReader::new(s).read_line(&mut line);
            }
            let _ = t.join();
        }
    }
}

/// A protocol request line for `op` on `source`, newline included.
pub fn request_line(op: &str, source: &str) -> String {
    let mut s = Json::Obj(vec![
        ("op".into(), Json::str(op)),
        ("source".into(), Json::str(source)),
    ])
    .to_string();
    s.push('\n');
    s
}

fn parse_response(text: &str) -> Result<Json, String> {
    parse(text.trim()).map_err(|e| format!("unparseable response: {e}"))
}

fn compile(source: &str) -> sct_lang::Program {
    sct_lang::compile_program(source).expect("generated sources compile")
}

/// One timed request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    op: Op,
    latency: Duration,
    /// CPU time the daemon's threads used while the request was out.
    cpu: Duration,
    /// `"compiled":"fresh"` on a `run`/`hybrid` response.
    fresh: Option<bool>,
    /// `"cache":{"misses":M}` on a `plan`/`hybrid` response.
    misses: Option<u64>,
}

/// The answers every request of one source must give.
struct Answers {
    plan: Json,
    hybrid: Expected,
    run: Option<Expected>,
}

impl Answers {
    fn of(source: &str, runnable: bool) -> Answers {
        let program = compile(source);
        let plan = oracle::expected_plan(&program);
        Answers {
            plan: oracle::plan_doc(&plan),
            hybrid: oracle::expected_hybrid(&program, &plan),
            run: runnable.then(|| oracle::expected_run(&program)),
        }
    }

    fn check(&self, op: Op, resp: &Json) -> Result<(), String> {
        match op {
            Op::Plan => oracle::check_plan(resp, &self.plan),
            Op::Hybrid => oracle::check_exec(resp, &self.hybrid),
            Op::Run => oracle::check_exec(resp, self.run.as_ref().expect("run answer")),
        }
    }
}

/// Sends one request, times it, and checks the answer with `check`.
fn timed_call(
    client: &mut Client,
    out: &mut Outcome,
    what: &str,
    op: Op,
    line: &str,
    check: impl FnOnce(&Json) -> Result<(), String>,
) -> io::Result<Sample> {
    let cpu0 = cpu::sample();
    let t0 = Instant::now();
    let text = client.call(op.name(), line)?;
    let latency = t0.elapsed();
    let cpu = cpu::others(cpu0, cpu::sample());
    let resp = parse_response(text);
    let mut sample = Sample {
        op,
        latency,
        cpu,
        fresh: None,
        misses: None,
    };
    let result = resp.and_then(|r| {
        sample.fresh = r
            .get("compiled")
            .and_then(Json::as_str)
            .map(|c| c == "fresh");
        sample.misses = oracle::cache_misses(&r);
        check(&r)
    });
    out.check(what, result);
    Ok(sample)
}

/// Per-op counters of the daemon's `metrics` snapshot.
fn daemon_counters(client: &mut Client) -> Result<Json, String> {
    let text = client
        .call("metrics", "{\"op\":\"metrics\"}\n")
        .map_err(|e| e.to_string())?;
    let resp = parse_response(text)?;
    resp.get("metrics")
        .and_then(|m| m.get("counters"))
        .cloned()
        .ok_or_else(|| "metrics response has no counters".to_string())
}

fn counter(counters: &Json, name: &str) -> u64 {
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// One set-up as measured: the daemon's CPU time and ticks, and the wall
/// time.
#[derive(Debug, Clone, Copy)]
struct Setup {
    cpu: Duration,
    /// User and system ticks of the daemon's threads.
    ticks: (u64, u64),
    wall: Duration,
}

/// Runs `f` as one set-up, measuring it.
fn measure_setup<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<(T, Setup)> {
    let ticks0 = cpu::others_ticks();
    let cpu0 = cpu::sample();
    let t0 = Instant::now();
    let out = f()?;
    let wall = t0.elapsed();
    let cpu = cpu::others(cpu0, cpu::sample());
    let ticks = cpu::ticks_between(ticks0, cpu::others_ticks());
    Ok((out, Setup { cpu, ticks, wall }))
}

/// End-to-end metrics of a served workload. The bounded ones are
/// user-mode CPU times of the daemon's threads at the reference host
/// speed; the wall-clock latencies, which on a shared host move with other
/// tenants' load, go to the record line.
fn serve_metrics(out: &mut Outcome, setups: &[Setup], samples: &[Sample], ops: Timed, warm: bool) {
    let us = |d: &Duration| d.as_secs_f64() * 1e6;
    let lat: Vec<f64> = samples.iter().map(|s| us(&s.latency)).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| us(&s.cpu)).collect();
    let q = |xs: &[f64], p: f64| report::quantile_of(xs, p).unwrap_or(0.0);
    let n = samples.len().max(1) as f64;
    let setup_cpu: Vec<f64> = setups.iter().map(|s| us(&s.cpu)).collect();
    let setup_ticks = setups
        .iter()
        .fold((0, 0), |a, s| (a.0 + s.ticks.0, a.1 + s.ticks.1));
    report::cpu_metrics(
        out,
        Phase {
            cpu_us: &setup_cpu,
            user_share: cpu::user_share(setup_ticks),
            probe: ops.probe,
        },
        Phase {
            cpu_us: &cpu,
            user_share: cpu::user_share(ops.ticks),
            probe: ops.probe,
        },
    );
    let x = &mut out.extra;
    x.set(
        "setup_wall_s",
        report::median_secs(&setups.iter().map(|s| s.wall).collect::<Vec<_>>()),
        "s",
    );
    x.set(
        "throughput_rps",
        n / (lat.iter().sum::<f64>() / 1e6).max(1e-9),
        "1/s",
    );
    x.set("latency_p50_us", q(&lat, 0.5), "us");
    x.set("latency_p90_us", q(&lat, 0.9), "us");
    x.set("latency_p99_us", q(&lat, 0.99), "us");
    x.set("requests", n, "count");
    if warm {
        for op in [Op::Plan, Op::Hybrid, Op::Run] {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|s| s.op == op)
                .map(|s| us(&s.latency))
                .collect();
            x.set(&format!("{}_p50_us", op.name()), q(&xs, 0.5), "us");
        }
    }
}

/// A single-threaded stand-in for the daemon's planning and execution:
/// its own disk store, planner cache and IR images, fed the same requests
/// in the same order, so its store passes through the same states.
struct Replica {
    store: DiskCache,
    cache: PlanCache,
    registry: Arc<Registry>,
    images: HashMap<(String, u64), Rc<CompiledProgram>>,
}

/// What one replayed request did.
struct Replayed {
    misses: Option<u64>,
    elapsed: Duration,
}

impl Replica {
    fn new(dir: &Path) -> io::Result<Replica> {
        Ok(Replica {
            store: DiskCache::open(dir)?,
            cache: PlanCache::new(),
            registry: Arc::new(Registry::new()),
            images: HashMap::new(),
        })
    }

    /// Replays one request through the layer functions. `fresh` is the
    /// daemon's `"compiled"` answer: the replica compiles when the daemon
    /// did and reuses its image when the daemon reused one.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        counts: &mut Counts,
        request: u64,
        op: Op,
        source: &str,
        fresh: Option<bool>,
    ) -> Replayed {
        let t0 = Instant::now();
        let root = rec.open("replay", None, request);
        let r = Some(root);
        let data = rec
            .span("sexpr.parse", r, request, || sct_sexpr::parse_all(source))
            .expect("generated sources parse");
        let expanded = rec
            .span("lang.desugar", r, request, || {
                sct_lang::desugar::desugar_top_level(&data)
            })
            .expect("generated sources desugar");
        let program = rec
            .span("lang.resolve", r, request, || {
                sct_lang::resolve::resolve_program(&expanded)
            })
            .expect("generated sources resolve");
        let mut misses = None;
        let mut plan = None;
        if op != Op::Run {
            rec.span("symbolic.digest", r, request, || {
                black_box(ProgramDigests::new(&program));
            });
            let config = PlanConfig {
                obs: PlanObs::registered(Arc::clone(&self.registry)),
                ..PlanConfig::default()
            };
            let plan_span = rec.open("symbolic.plan", r, request);
            let mut store = TimedStore {
                inner: &mut self.store,
                rec: &mut *rec,
                parent: plan_span,
                request,
                counts: Default::default(),
            };
            let (p, stats) =
                plan_program_incremental(&program, &config, &mut self.cache, &mut store);
            counts.add_store(&store.counts);
            rec.close(plan_span);
            counts.defines_missed += stats.misses() as u64;
            misses = Some(stats.misses() as u64);
            plan = Some(p);
        }
        match op {
            Op::Plan => {
                let p = plan.as_ref().expect("planned");
                rec.span("serve.encode", r, request, || black_box(p.to_json()));
            }
            Op::Run | Op::Hybrid => {
                let refuted = plan.as_ref().is_some_and(|p| refutation_error(p).is_some());
                if !refuted {
                    self.execute(rec, counts, root, request, &program, source, plan, fresh);
                }
            }
        }
        rec.close(root);
        Replayed {
            misses,
            elapsed: t0.elapsed(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        rec: &mut Recorder,
        counts: &mut Counts,
        root: SpanId,
        request: u64,
        program: &sct_lang::Program,
        source: &str,
        plan: Option<EnforcementPlan>,
        fresh: Option<bool>,
    ) {
        let plan = plan.map(Rc::new);
        let key = (
            source.to_string(),
            plan.as_deref()
                .map_or(0, EnforcementPlan::decisions_fingerprint),
        );
        let code = match (fresh, self.images.get(&key)) {
            (Some(false), Some(code)) => Rc::clone(code),
            _ => {
                let code = rec.span("ir.compile", Some(root), request, || {
                    Rc::new(sct_ir::compile(program, plan.as_deref()))
                });
                counts.instrs += code.code.len() as u64;
                self.images.insert(key, Rc::clone(&code));
                code
            }
        };
        let config = match plan {
            Some(plan) => MachineConfig {
                mode: SemanticsMode::Monitored,
                plan: Some(plan),
                ..MachineConfig::monitored(TableStrategy::Imperative)
            },
            None => MachineConfig::standard(),
        };
        let stats = rec.span("interp.execute", Some(root), request, || {
            let mut m = Machine::with_code(program, code, config);
            let _ = black_box(m.run());
            m.stats
        });
        counts.add_vm(&stats);
    }
}

/// The traced half of a served run: replicas warmed like the daemon, then
/// every timed request replayed as soon as it is answered — traced on one
/// replica, untraced on the other, and through `Server::handle_line` on a
/// third.
struct Tracer {
    traced: Replica,
    plain: Replica,
    server: Server,
    rec: Recorder,
    silent: Recorder,
    counts: Counts,
    plain_counts: Counts,
    /// Store misses of the traced replays.
    misses: u64,
    /// `(traced, untraced)` wall time of each replay.
    times: Vec<(Duration, Duration)>,
}

impl Tracer {
    fn new(dir: &Path) -> io::Result<Tracer> {
        Ok(Tracer {
            traced: Replica::new(&dir.join("traced"))?,
            plain: Replica::new(&dir.join("plain"))?,
            server: Server::new(ServeOptions {
                threads: THREADS,
                cache_dir: Some(dir.join("server")),
                ..ServeOptions::default()
            })?,
            rec: Recorder::new(true),
            silent: Recorder::new(false),
            counts: Counts::default(),
            plain_counts: Counts::default(),
            misses: 0,
            times: Vec::new(),
        })
    }

    /// Brings the replicas to the daemon's set-up state (nothing recorded).
    fn warm(&mut self, op: Op, source: &str, line: &str) {
        let mut scratch = Counts::default();
        self.traced
            .replay(&mut self.silent, &mut scratch, 0, op, source, None);
        self.plain
            .replay(&mut self.silent, &mut scratch, 0, op, source, None);
        self.server.handle_line(line);
    }

    /// Replays timed request `id`, right after the daemon answered it, so
    /// the replay and the request see the host in the same state; records
    /// the traced replay's misses and its `(traced, untraced)` wall times.
    fn replay(&mut self, id: u64, op: Op, source: &str, line: &str, fresh: Option<bool>) {
        // Alternate which replica goes first so neither always runs on
        // caches the other just warmed.
        let (t, p) = if id.is_multiple_of(2) {
            let t = self
                .traced
                .replay(&mut self.rec, &mut self.counts, id, op, source, fresh);
            let p = self.plain.replay(
                &mut self.silent,
                &mut self.plain_counts,
                id,
                op,
                source,
                fresh,
            );
            (t, p)
        } else {
            let p = self.plain.replay(
                &mut self.silent,
                &mut self.plain_counts,
                id,
                op,
                source,
                fresh,
            );
            let t = self
                .traced
                .replay(&mut self.rec, &mut self.counts, id, op, source, fresh);
            (t, p)
        };
        let server = &self.server;
        self.rec.span("serve.handle", None, id, || {
            black_box(server.handle_line(line))
        });
        self.misses += t.misses.unwrap_or(0);
        self.times.push((t.elapsed, p.elapsed));
    }

    /// Per request id: (replayed layer time, `handle_line` time), in ns.
    /// The stand-alone digest span is left out of the layer time because
    /// `plan_program_incremental` computes the digests again inside.
    fn per_request(&self) -> HashMap<u64, (u64, u64)> {
        let spans = self.rec.spans();
        let mut out: HashMap<u64, (u64, u64)> = HashMap::new();
        for s in spans {
            match (s.name, s.parent) {
                ("serve.handle", None) => out.entry(s.request).or_default().1 += s.duration(),
                ("symbolic.digest", _) => {}
                (_, Some(p)) if spans[p as usize].name == "replay" => {
                    out.entry(s.request).or_default().0 += s.duration();
                }
                _ => {}
            }
        }
        out
    }

    /// Reconciles and reports the per-layer metrics.
    fn finish(self, out: &mut Outcome, samples: &[Sample], workload: &str, seed: u64) {
        let per_request = self.per_request();
        let n = samples.len().max(1) as f64;
        let handle: f64 = per_request.values().map(|v| v.1 as f64).sum::<f64>() / 1e3 / n;
        let layers_sum: f64 = per_request.values().map(|v| v.0 as f64).sum::<f64>() / 1e3 / n;
        let client: f64 = samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e6)
            .sum::<f64>()
            / n;
        let executions = samples.iter().filter(|s| s.fresh.is_some()).count();
        let fresh = samples.iter().filter(|s| s.fresh == Some(true)).count();
        let traced: f64 = self.times.iter().map(|t| t.0.as_secs_f64()).sum();
        let plain: f64 = self.times.iter().map(|t| t.1.as_secs_f64()).sum();
        let overhead_us = handle - layers_sum;
        out.check(
            "reconcile: serve.overhead_us >= 0",
            if overhead_us >= 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "handle_line {handle:.1} us < replayed layers {layers_sum:.1} us"
                ))
            },
        );
        let vm = &self.counts.vm;
        out.check(
            "reconcile: replay pic_hits + pic_misses == generic_calls",
            if vm.pic_hits + vm.pic_misses == vm.generic_calls {
                Ok(())
            } else {
                Err(format!(
                    "{} + {} != {}",
                    vm.pic_hits, vm.pic_misses, vm.generic_calls
                ))
            },
        );
        let snapshot = self.traced.registry.snapshot();
        let mut counts = self.counts.clone();
        counts.summary_hits = snapshot.counter("plan.summary.hits").unwrap_or(0);
        counts.stubbed_applications = snapshot
            .counter("plan.summary.stubbed_applications")
            .unwrap_or(0);
        let path = PathBuf::from(format!(".bench_work/traces/{workload}-seed{seed}.tsv"));
        if let Err(e) = self.rec.write_tsv(&path) {
            eprintln!("sctbench: could not write {}: {e}", path.display());
        }
        out.metrics = layers::metrics(
            &self.rec,
            &counts,
            Per { front: n, exec: n },
            ServeFigures {
                handle_us: handle,
                overhead_us,
                transport_us: client - handle,
                fresh_share: if executions == 0 {
                    0.0
                } else {
                    fresh as f64 / executions as f64
                },
            },
            traced / plain.max(1e-9) - 1.0,
        );
    }
}

/// A served run after its timed loop.
struct Session {
    daemon: Daemon,
    client: Client,
    tracer: Option<Tracer>,
    setups: Vec<Setup>,
    samples: Vec<Sample>,
    ops: Timed,
}

/// What a timed loop measured beside its samples.
#[derive(Debug, Clone, Copy)]
struct Timed {
    /// User and system ticks of the daemon's threads.
    ticks: (u64, u64),
    /// Median [`cpu::probe`] time.
    probe: Duration,
}

impl Session {
    /// Untraced: stops the daemon and reports the end-to-end metrics.
    /// Traced: reconciles with the daemon, stops it and reports the
    /// per-layer metrics of the replays.
    fn finish(self, out: &mut Outcome, warm: bool, workload: &str, seed: u64) -> io::Result<()> {
        let Session {
            daemon,
            mut client,
            tracer,
            setups,
            samples,
            ops,
        } = self;
        let Some(t) = tracer else {
            daemon.stop(client)?;
            serve_metrics(out, &setups, &samples, ops, warm);
            return Ok(());
        };
        let daemon_misses: u64 = samples.iter().filter_map(|s| s.misses).sum();
        reconcile_daemon(out, &mut client, t.misses, daemon_misses);
        daemon.stop(client)?;
        t.finish(out, &samples, workload, seed);
        Ok(())
    }
}

/// Checks the daemon's own counters against what the client sent and
/// what the replay saw.
fn reconcile_daemon(
    out: &mut Outcome,
    client: &mut Client,
    replay_misses: u64,
    daemon_misses: u64,
) {
    let counters = daemon_counters(client);
    out.check(
        "reconcile: client-counted requests == daemon metrics",
        counters.clone().and_then(|c| {
            for op in ["plan", "run", "hybrid"] {
                let sent = client.sent.get(op).copied().unwrap_or(0);
                let seen = counter(&c, &format!("serve.requests.{op}"));
                if sent != seen {
                    return Err(format!("{op}: client sent {sent}, daemon counted {seen}"));
                }
            }
            Ok(())
        }),
    );
    out.check(
        "reconcile: daemon vm.pic_hits + vm.pic_misses == vm.generic_calls",
        counters.and_then(|c| {
            let (h, m, g) = (
                counter(&c, "vm.pic_hits"),
                counter(&c, "vm.pic_misses"),
                counter(&c, "vm.generic_calls"),
            );
            if h + m == g {
                Ok(())
            } else {
                Err(format!("{h} + {m} != {g}"))
            }
        }),
    );
    out.check(
        "reconcile: replay misses == daemon misses",
        if replay_misses == daemon_misses {
            Ok(())
        } else {
            Err(format!("replay {replay_misses}, daemon {daemon_misses}"))
        },
    );
}

/// `serve-warm`: a seeded pool, warmed in set-up, then a seeded order of
/// `plan`/`hybrid`/`run` requests that all hit the store.
pub fn warm(seed: u64, seconds: f64, trace: bool, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let pool = gen::serve_pool(seed);
    let order = gen::request_order(seed, &pool, ORDER_ROUNDS);
    let answers: Vec<Answers> = pool
        .iter()
        .map(|p| Answers::of(&p.source, p.runnable))
        .collect();
    for (p, a) in pool.iter().zip(&answers) {
        if let (Some(want), Some(run)) = (p.expected, &a.run) {
            out.check(
                &format!("corpus expected value of {:?}", p.origin),
                if run.value.as_deref() == Some(want) {
                    Ok(())
                } else {
                    Err(format!(
                        "reference gives {:?}, corpus says {want}",
                        run.value
                    ))
                },
            );
        }
    }
    let lines: Vec<[String; 3]> = pool
        .iter()
        .map(|p| [Op::Plan, Op::Hybrid, Op::Run].map(|op| request_line(op.name(), &p.source)))
        .collect();
    let warm_ops = |i: usize| {
        if pool[i].runnable {
            vec![Op::Plan, Op::Hybrid, Op::Run]
        } else {
            vec![Op::Plan, Op::Hybrid]
        }
    };
    let mut setups = Vec::new();
    let mut session = None;
    for rep in 0..WARM_SETUPS {
        let ((daemon, client), setup) = measure_setup(|| {
            let (daemon, mut client) = Daemon::start(&work.join(format!("daemon{rep}")))?;
            for i in 0..pool.len() {
                for op in warm_ops(i) {
                    let line = &lines[i][op as usize];
                    timed_call(&mut client, &mut out, "set-up request", op, line, |r| {
                        answers[i].check(op, r)
                    })?;
                }
            }
            Ok((daemon, client))
        })?;
        setups.push(setup);
        if rep + 1 < WARM_SETUPS {
            daemon.stop(client)?;
        } else {
            session = Some((daemon, client));
        }
    }
    let (daemon, mut client) = session.expect("at least one set-up");
    let mut tracer = None;
    if trace {
        let mut t = Tracer::new(&work.join("replay"))?;
        for i in 0..pool.len() {
            for op in warm_ops(i) {
                t.warm(op, &pool[i].source, &lines[i][op as usize]);
            }
        }
        tracer = Some(t);
    }
    let mut samples = Vec::new();
    let mut probes = cpu::Probes::new(PROBE_EVERY);
    let ticks = cpu::others_ticks();
    let start = Instant::now();
    let mut k = 0usize;
    // Whole rounds only, so every (source, op) pair counts equally often.
    let round = order.len() / ORDER_ROUNDS;
    while start.elapsed().as_secs_f64() < seconds || !k.is_multiple_of(round) {
        probes.tick();
        let (i, op) = order[k % order.len()];
        k += 1;
        let s = timed_call(
            &mut client,
            &mut out,
            &format!("{} of {:?}", op.name(), pool[i].origin),
            op,
            &lines[i][op as usize],
            |r| {
                if let Some(m) = oracle::cache_misses(r).filter(|m| *m > 0) {
                    return Err(format!("{m} store misses on a warm store"));
                }
                answers[i].check(op, r)
            },
        )?;
        if let Some(t) = tracer.as_mut() {
            let id = samples.len() as u64;
            t.replay(id, op, &pool[i].source, &lines[i][op as usize], s.fresh);
        }
        samples.push(s);
    }
    let ops = Timed {
        ticks: cpu::ticks_between(ticks, cpu::others_ticks()),
        probe: probes.median(),
    };
    let run = Session {
        daemon,
        client,
        tracer,
        setups,
        samples,
        ops,
    };
    run.finish(&mut out, true, "serve-warm", seed)?;
    Ok(out)
}

/// `serve-edit`: a call-DAG of about 70 defines planned in set-up, then a
/// stream of fresh one-define edits, each of which must miss exactly its
/// dependent cone.
pub fn edit(seed: u64, seconds: f64, trace: bool, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dag: CallDag = gen::edit_base(seed);
    let base = dag.source();
    let base_line = request_line("plan", &base);
    let base_plan = oracle::plan_doc(&oracle::expected_plan(&compile(&base)));
    let check_base = |r: &Json| {
        oracle::check_plan(r, &base_plan)?;
        match oracle::cache_misses(r) {
            Some(m) if m as usize == dag.len() => Ok(()),
            m => Err(format!("cold plan of {} defines missed {m:?}", dag.len())),
        }
    };
    let mut setups = Vec::new();
    let mut session = None;
    for rep in 0..EDIT_SETUPS {
        let ((daemon, client), setup) = measure_setup(|| {
            let (daemon, mut client) = Daemon::start(&work.join(format!("daemon{rep}")))?;
            timed_call(
                &mut client,
                &mut out,
                "set-up plan",
                Op::Plan,
                &base_line,
                check_base,
            )?;
            Ok((daemon, client))
        })?;
        setups.push(setup);
        if rep + 1 < EDIT_SETUPS {
            daemon.stop(client)?;
        } else {
            session = Some((daemon, client));
        }
    }
    let (daemon, mut client) = session.expect("at least one set-up");
    let mut tracer = None;
    if trace {
        let mut t = Tracer::new(&work.join("replay"))?;
        t.warm(Op::Plan, &base, &base_line);
        tracer = Some(t);
    }
    let mut samples = Vec::new();
    let mut probes = cpu::Probes::new(PROBE_EVERY);
    let ticks = cpu::others_ticks();
    let start = Instant::now();
    let mut n = 0u64;
    // Run whole permutations of the defines, so every define is edited
    // equally often whatever the host's speed: cones differ in size, and
    // a partial permutation would weigh some more than others.
    while start.elapsed().as_secs_f64() < seconds || !n.is_multiple_of(dag.len() as u64) {
        probes.tick();
        let e = gen::edit(&dag, seed, n);
        n += 1;
        let source = dag.source_with(Some((e.define, e.constant)));
        let line = request_line("plan", &source);
        let what = format!("edit {} of {}", n - 1, dag.names[e.define]);
        let s = timed_call(&mut client, &mut out, &what, Op::Plan, &line, |r| {
            let missed = oracle::missed_defines(r).ok_or("response has no defines")?;
            if missed != e.cone {
                return Err(format!("missed {missed:?}, dependent cone {:?}", e.cone));
            }
            oracle::check_plan(
                r,
                &oracle::plan_doc(&oracle::expected_plan(&compile(&source))),
            )
        })?;
        if let Some(t) = tracer.as_mut() {
            t.replay(samples.len() as u64, Op::Plan, &source, &line, s.fresh);
        }
        samples.push(s);
    }
    let ops = Timed {
        ticks: cpu::ticks_between(ticks, cpu::others_ticks()),
        probe: probes.median(),
    };
    let run = Session {
        daemon,
        client,
        tracer,
        setups,
        samples,
        ops,
    };
    run.finish(&mut out, false, "serve-edit", seed)?;
    Ok(out)
}
