//! The `vm-run` workload: the seven Figure-10 programs at their largest
//! Figure-10 sizes, run in-process on one thread under unchecked, hybrid
//! (the production monitor stack) and imperative monitoring, with the
//! three modes interleaved pass by pass.

use crate::cpu;
use crate::gen;
use crate::layers::{self, Counts, Per, ServeFigures};
use crate::report::{self, Outcome, Phase};
use crate::trace::Recorder;
use sct_core::monitor::{BackoffPolicy, TableStrategy};
use sct_core::plan::EnforcementPlan;
use sct_corpus::workloads::{fig10, Workload};
use sct_fuzz::gen::Rng;
use sct_interp::{EvalError, Machine, MachineConfig, SemanticsMode, Stats, Value};
use sct_ir::CompiledProgram;
use sct_lang::Program;
use sct_symbolic::{plan_program, PlanConfig, SymDomain};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Each is short, so take
/// many: the user share of their CPU comes from scheduler ticks.
const SETUPS: usize = 60;

/// One pass: the 7 programs once under one mode.
struct Pass {
    mode: Mode,
    wall: Duration,
    cpu: Duration,
    traced: bool,
}

/// The three enforcement modes a pass runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Unchecked,
    Hybrid,
    Monitored,
}

const MODES: [Mode; 3] = [Mode::Unchecked, Mode::Hybrid, Mode::Monitored];

/// The largest Figure-10 input size of each workload.
fn largest(id: &str) -> u64 {
    match id {
        "fact" => 1600,
        "sum" => 128_000,
        "ack" => 320,
        "msort" => 1600,
        "interp-fact" => 480,
        "interp-sum" => 800,
        "interp-msort" => 512,
        other => panic!("no Figure-10 size for {other}"),
    }
}

fn sym_domain(d: sct_corpus::Domain) -> SymDomain {
    match d {
        sct_corpus::Domain::Nat => SymDomain::Nat,
        sct_corpus::Domain::Pos => SymDomain::Pos,
        sct_corpus::Domain::Int => SymDomain::Int,
        sct_corpus::Domain::List => SymDomain::List,
        sct_corpus::Domain::Any => SymDomain::Any,
    }
}

/// The planner configuration of the hybrid column: the default ladder with
/// the workload's declared signature pinned, as `report_fig10` plans it.
fn plan_config(w: &Workload) -> PlanConfig {
    let mut config = PlanConfig::default();
    if let Some((domains, result)) = w.sig {
        config.signatures.insert(
            w.entry.to_string(),
            (
                domains.iter().copied().map(sym_domain).collect(),
                sym_domain(result),
            ),
        );
    }
    config
}

/// Seeded inputs of the largest size, plus the input's elements rendered
/// and sorted for the sorting workloads. The sorting workloads get seeded
/// data of the Figure-10 shape; the others' inputs are their size alone.
fn seeded_args(w: &Workload, n: u64, seed: u64) -> (Vec<Value>, Option<Vec<String>>) {
    let mut rng = Rng::new(seed ^ n);
    let (arg, items) = match w.id {
        "msort" => {
            let items: Vec<Value> = (0..n)
                .map(|_| Value::int(rng.below(100_000) as i64))
                .collect();
            (Value::list(items.clone()), items)
        }
        "interp-msort" => {
            let items = gen::string_leaves(&mut rng, n as usize);
            (gen::pair_tree(&items), items)
        }
        _ => return ((w.make_args)(n), None),
    };
    let mut sorted: Vec<String> = items.iter().map(Value::to_write_string).collect();
    sorted.sort();
    (vec![arg], Some(sorted))
}

/// One workload, compiled and planned once per set-up.
struct Compiled {
    workload: Workload,
    n: u64,
    args: Vec<Value>,
    /// The input's elements rendered and sorted, for the sorting workloads.
    want_sorted: Option<Vec<String>>,
    program: Program,
    plan: Rc<EnforcementPlan>,
    code: Rc<CompiledProgram>,
    code_hybrid: Rc<CompiledProgram>,
}

impl Compiled {
    fn new(workload: Workload, seed: u64, rec: &mut Recorder, op: u64) -> Compiled {
        let n = largest(workload.id);
        let (args, want_sorted) = seeded_args(&workload, n, seed);
        let root = rec.open("setup", None, op);
        let r = Some(root);
        let data = rec
            .span("sexpr.parse", r, op, || {
                sct_sexpr::parse_all(&workload.source)
            })
            .expect("Figure-10 sources parse");
        let expanded = rec
            .span("lang.desugar", r, op, || {
                sct_lang::desugar::desugar_top_level(&data)
            })
            .expect("Figure-10 sources desugar");
        let program = rec
            .span("lang.resolve", r, op, || {
                sct_lang::resolve::resolve_program(&expanded)
            })
            .expect("Figure-10 sources resolve");
        let config = plan_config(&workload);
        let plan = Rc::new(rec.span("symbolic.plan", r, op, || plan_program(&program, &config)));
        let code = rec.span("ir.compile", r, op, || {
            Rc::new(sct_ir::compile(&program, None))
        });
        let code_hybrid = rec.span("ir.compile", r, op, || {
            Rc::new(sct_ir::compile(&program, Some(&plan)))
        });
        rec.close(root);
        Compiled {
            workload,
            n,
            args,
            want_sorted,
            program,
            plan,
            code,
            code_hybrid,
        }
    }

    fn config(&self, mode: Mode) -> MachineConfig {
        let order = self.workload.order.handle();
        match mode {
            Mode::Unchecked => MachineConfig {
                mode: SemanticsMode::Standard,
                order,
                ..MachineConfig::monitored(TableStrategy::Imperative)
            },
            Mode::Monitored => MachineConfig {
                order,
                ..MachineConfig::monitored(TableStrategy::Imperative)
            },
            Mode::Hybrid => {
                let mut c = MachineConfig {
                    order,
                    plan: Some(Rc::clone(&self.plan)),
                    ..MachineConfig::monitored(TableStrategy::Imperative)
                };
                c.monitor = c
                    .monitor
                    .with_loop_entries_only(true)
                    .with_backoff(BackoffPolicy::Exponential { factor: 2 });
                c
            }
        }
    }

    /// Runs once: machine construction, the program body and the entry
    /// call, timed together in wall and thread CPU time.
    fn run(&self, mode: Mode) -> (Duration, Duration, Stats, Result<Value, EvalError>) {
        let code = match mode {
            Mode::Hybrid => Rc::clone(&self.code_hybrid),
            _ => Rc::clone(&self.code),
        };
        let args = self.args.clone();
        let cpu0 = cpu::thread();
        let t0 = Instant::now();
        let mut m = Machine::with_code(&self.program, code, self.config(mode));
        let result = m.run().and_then(|_| {
            let f = m.global(self.workload.entry).expect("entry is defined");
            m.call(f, args)
        });
        let elapsed = t0.elapsed();
        let cpu = cpu::thread().saturating_sub(cpu0);
        (elapsed, cpu, m.stats, result)
    }

    /// Checks a run's answer.
    fn check(&self, result: &Result<Value, EvalError>) -> Result<(), String> {
        match result {
            Ok(v) if !(self.workload.check)(self.n, v) => {
                Err(format!("wrong result {}", v.to_write_string()))
            }
            Ok(v) => match &self.want_sorted {
                Some(want) => {
                    let mut got: Vec<String> = v
                        .list_to_vec()
                        .unwrap_or_default()
                        .iter()
                        .map(Value::to_write_string)
                        .collect();
                    got.sort();
                    if got == *want {
                        Ok(())
                    } else {
                        Err("output is not a permutation of the input".to_string())
                    }
                }
                None => Ok(()),
            },
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Every `sct_corpus::diverging` program must be stopped by the monitor
/// with its blame label (none of them carries one, so whole-program).
fn check_diverging(out: &mut Outcome) {
    for p in sct_corpus::diverging::all() {
        let program = sct_lang::compile_program(p.source).expect("diverging programs compile");
        let config = MachineConfig {
            order: p.order.handle(),
            ..MachineConfig::monitored(TableStrategy::Imperative)
        };
        let r = Machine::new(&program, config).run();
        out.check(
            &format!("diverging {} is blamed", p.id),
            match r {
                Err(EvalError::Sc(info)) if info.blame.is_none() => Ok(()),
                other => Err(format!("expected whole-program errorSC, got {other:?}")),
            },
        );
    }
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Runs `vm-run` for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(false);
    let mut setups = Vec::new();
    let mut compiled = Vec::new();
    let setup_ticks = cpu::process_ticks();
    for rep in 0..SETUPS {
        // Only the last set-up is traced, so the spans describe one set-up.
        if rep + 1 == SETUPS {
            rec = Recorder::new(trace);
        }
        let (cpu0, t0) = (cpu::thread(), Instant::now());
        compiled = fig10()
            .into_iter()
            .enumerate()
            .map(|(i, w)| Compiled::new(w, seed, &mut rec, i as u64))
            .collect();
        setups.push((cpu::thread().saturating_sub(cpu0), t0.elapsed()));
    }
    let setup_ticks = cpu::ticks_between(setup_ticks, cpu::process_ticks());
    check_diverging(&mut out);
    let mut rng = Rng::new(seed ^ 0x7a55);
    let mut counts = Counts::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut per_program: Vec<[Vec<f64>; 3]> = vec![Default::default(); compiled.len()];
    let mut executions = 0u64;
    let mut probes = cpu::Probes::new(Duration::ZERO);
    let ticks = cpu::process_ticks();
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        probes.tick();
        // A traced run alternates traced and untraced rounds, so the cost
        // of recording spans shows as the difference between the two.
        let traced_round = trace && round.is_multiple_of(2);
        round += 1;
        let mut modes = MODES;
        for i in (1..modes.len()).rev() {
            modes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for mode in modes {
            let mut pass = Pass {
                mode,
                wall: Duration::ZERO,
                cpu: Duration::ZERO,
                traced: traced_round,
            };
            for (i, c) in compiled.iter().enumerate() {
                // Execution spans are numbered after the set-up's, which use
                // the program indices.
                let id = compiled.len() as u64 + executions;
                let span = traced_round.then(|| rec.open("interp.execute", None, id));
                let (t, used, stats, result) = c.run(mode);
                if let Some(span) = span {
                    rec.close(span);
                    counts.add_vm(&stats);
                    executions += 1;
                }
                pass.wall += t;
                pass.cpu += used;
                per_program[i][mode as usize].push(t.as_secs_f64());
                out.check(
                    &format!("{} under {mode:?}", c.workload.id),
                    c.check(&result),
                );
                out.check(
                    &format!("{} pic_hits + pic_misses == generic_calls", c.workload.id),
                    if stats.pic_hits + stats.pic_misses == stats.generic_calls {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} + {} != {}",
                            stats.pic_hits, stats.pic_misses, stats.generic_calls
                        ))
                    },
                );
            }
            passes.push(pass);
        }
    }
    let ticks = cpu::ticks_between(ticks, cpu::process_ticks());
    let median_ms = |mode: Mode| {
        let xs: Vec<f64> = passes
            .iter()
            .filter(|p| p.mode == mode)
            .map(|p| p.wall.as_secs_f64() * 1e3)
            .collect();
        report::quantile_of(&xs, 0.5).unwrap_or(0.0)
    };
    if trace {
        let mean = |traced: bool| {
            let xs: Vec<f64> = passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.cpu.as_secs_f64())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let path = PathBuf::from(format!(".bench_work/traces/vm-run-seed{seed}.tsv"));
        if let Err(e) = rec.write_tsv(&path) {
            eprintln!("sctbench: could not write {}: {e}", path.display());
        }
        for c in &compiled {
            counts.instrs += (c.code.code.len() + c.code_hybrid.code.len()) as u64;
        }
        out.metrics = layers::metrics(
            &rec,
            &counts,
            Per {
                front: compiled.len() as f64,
                exec: executions as f64,
            },
            ServeFigures::default(),
            mean(true) / mean(false).max(1e-12) - 1.0,
        );
        return out;
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let q = |xs: &[f64], p: f64| report::quantile_of(xs, p).unwrap_or(0.0);
    let wall: Vec<f64> = passes.iter().map(|p| us(p.wall)).collect();
    let used: Vec<f64> = passes.iter().map(|p| us(p.cpu)).collect();
    let n = passes.len().max(1) as f64;
    let setup_cpu: Vec<f64> = setups.iter().map(|s| us(s.0)).collect();
    // The set-ups ran just before the loop, on the same thread, so the
    // loop's probes scale them too.
    report::cpu_metrics(
        &mut out,
        Phase {
            cpu_us: &setup_cpu,
            user_share: cpu::user_share(setup_ticks),
            probe: probes.median(),
        },
        Phase {
            cpu_us: &used,
            user_share: cpu::user_share(ticks),
            probe: probes.median(),
        },
    );
    let x = &mut out.extra;
    x.set(
        "setup_wall_s",
        report::median_secs(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    );
    x.set(
        "throughput_rps",
        n / (wall.iter().sum::<f64>() / 1e6).max(1e-9),
        "1/s",
    );
    x.set("latency_p50_us", q(&wall, 0.5), "us");
    x.set("latency_p90_us", q(&wall, 0.9), "us");
    x.set("unchecked_ms", median_ms(Mode::Unchecked), "ms");
    x.set("hybrid_ms", median_ms(Mode::Hybrid), "ms");
    x.set("monitored_ms", median_ms(Mode::Monitored), "ms");
    let ratios: Vec<f64> = per_program
        .iter()
        .map(|t| {
            q(&t[Mode::Hybrid as usize], 0.5) / q(&t[Mode::Unchecked as usize], 0.5).max(1e-12)
        })
        .collect();
    x.set("hybrid_overhead", geomean(&ratios), "ratio");
    x.set("passes", n, "count");
    out
}
