//! Seeded input generators. The program under test only ever sees the
//! sources these produce; every function here is deterministic in its seed.
//!
//! * [`CallDag`]: a layered call-DAG program — each `define` is a small
//!   self-recursive function whose base case calls defines of lower
//!   layers — plus its one-define edits and their dependent cones.
//! * [`serve_pool`]: the `serve-warm` source pool, drawn from the Figure-10
//!   workloads, the Table-1 rows, fuzzer cases and call-DAG programs.

use sct_fuzz::gen::Rng;
use sct_fuzz::Oracle;
use sct_interp::Value;
use std::collections::BTreeSet;

/// How a call-DAG define recurses, which fixes its arity and call form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `(f n)`: descends on a natural number.
    Nat,
    /// `(f n acc)`: descends on `n`, accumulates in `acc`.
    Acc,
    /// `(f l)`: descends on a list by `cdr`.
    List,
}

impl Shape {
    fn call(self, name: &str, size: u64) -> String {
        match self {
            Shape::Nat => format!("({name} {size})"),
            Shape::Acc => format!("({name} {size} 0)"),
            Shape::List => {
                let items: Vec<String> = (1..=size).map(|i| i.to_string()).collect();
                format!("({name} '({}))", items.join(" "))
            }
        }
    }
}

/// A layered call-DAG program. Define `i` calls only defines of lower
/// layers, so the call graph is acyclic apart from each define's
/// self-recursion, and editing define `i` changes the content address of
/// exactly `i` and its transitive callers (its dependent cone).
#[derive(Debug, Clone)]
pub struct CallDag {
    /// Define names, in program order (lowest layer first).
    pub names: Vec<String>,
    /// For each define, the defines its base case calls.
    pub callees: Vec<Vec<usize>>,
    shapes: Vec<Shape>,
    /// The constant each define's base case adds; an edit replaces it.
    consts: Vec<i64>,
    /// Defines the program's final expression calls.
    entry: Vec<usize>,
}

impl CallDag {
    /// Generates a DAG of `defines` defines (at least 2) named
    /// `<prefix>layer<L>-fn<i>`, in about `sqrt(defines)` layers.
    ///
    /// The call structure is fixed by `defines`: the define at position
    /// `p` of a layer calls positions `p` and `p + 1` of the layer below
    /// and, at every third position, position `p` two layers down. The
    /// seed shuffles which define holds which position, rotates the
    /// recursion shapes and picks the constants, so DAGs of one size are
    /// isomorphic and their dependent cones have the same sizes.
    pub fn generate(rng: &mut Rng, defines: usize, prefix: &str) -> CallDag {
        let defines = defines.max(2);
        let layers = ((defines as f64).sqrt().round() as usize).clamp(2, defines);
        let layer_of = |i: usize| i * layers / defines;
        let bounds: Vec<(usize, usize)> = (0..layers)
            .map(|l| {
                let lo = (0..defines).find(|&i| layer_of(i) == l).unwrap_or(defines);
                let hi = (lo..defines).find(|&i| layer_of(i) != l).unwrap_or(defines);
                (lo, hi)
            })
            .collect();
        // slot[l][p]: the define holding position p of layer l.
        let slot: Vec<Vec<usize>> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let mut s: Vec<usize> = (lo..hi).collect();
                shuffle(rng, &mut s);
                s
            })
            .collect();
        let rotation = rng.below(3) as usize;
        let mut callees = vec![Vec::new(); defines];
        let mut shapes = vec![Shape::Nat; defines];
        for (l, positions) in slot.iter().enumerate() {
            for (p, &i) in positions.iter().enumerate() {
                let mut calls = BTreeSet::new();
                if l >= 1 {
                    let below = &slot[l - 1];
                    calls.insert(below[p % below.len()]);
                    calls.insert(below[(p + 1) % below.len()]);
                }
                if l >= 2 && p % 3 == 0 {
                    let two_below = &slot[l - 2];
                    calls.insert(two_below[p % two_below.len()]);
                }
                callees[i] = calls.into_iter().collect();
                shapes[i] = [Shape::Nat, Shape::Acc, Shape::List][(l + p + rotation) % 3];
            }
        }
        let consts = (0..defines).map(|_| 1 + rng.below(90) as i64).collect();
        let top = &slot[layers - 1];
        let mut entry = vec![top[0], top[top.len() - 1]];
        entry.sort_unstable();
        entry.dedup();
        CallDag {
            names: (0..defines)
                .map(|i| format!("{prefix}layer{}-fn{i}", layer_of(i)))
                .collect(),
            callees,
            shapes,
            consts,
            entry,
        }
    }

    /// Number of defines.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: a DAG has at least two defines.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn define_text(&self, i: usize, constant: i64) -> String {
        let name = &self.names[i];
        let calls: String = self.callees[i]
            .iter()
            .map(|&c| format!(" {}", self.shapes[c].call(&self.names[c], 2)))
            .collect();
        match self.shapes[i] {
            Shape::Nat => format!(
                "(define ({name} n)\n  (if (zero? n) (+ {constant}{calls}) (+ 1 ({name} (- n 1)))))\n"
            ),
            Shape::Acc => format!(
                "(define ({name} n acc)\n  (if (zero? n) (+ acc {constant}{calls}) ({name} (- n 1) (+ acc n))))\n"
            ),
            Shape::List => format!(
                "(define ({name} l)\n  (if (null? l) (+ {constant}{calls}) (+ (car l) ({name} (cdr l)))))\n"
            ),
        }
    }

    /// The program text, with define `edit.0`'s constant replaced by
    /// `edit.1` when an edit is given.
    pub fn source_with(&self, edit: Option<(usize, i64)>) -> String {
        let mut out = String::new();
        for i in 0..self.len() {
            let constant = match edit {
                Some((j, c)) if j == i => c,
                _ => self.consts[i],
            };
            out.push_str(&self.define_text(i, constant));
        }
        let calls: Vec<String> = self
            .entry
            .iter()
            .map(|&e| self.shapes[e].call(&self.names[e], 3))
            .collect();
        out.push_str(&format!("(+ {})\n", calls.join(" ")));
        out
    }

    /// The unedited program text.
    pub fn source(&self) -> String {
        self.source_with(None)
    }

    /// The dependent cone of define `i`: `i` and every define that calls
    /// it directly or transitively, in program order.
    pub fn cone(&self, i: usize) -> Vec<usize> {
        let mut inside = vec![false; self.len()];
        inside[i] = true;
        // Callers always come later in program order, so one forward
        // sweep closes the cone.
        for j in i + 1..self.len() {
            if self.callees[j].iter().any(|&c| inside[c]) {
                inside[j] = true;
            }
        }
        (0..self.len()).filter(|&j| inside[j]).collect()
    }
}

/// One `serve-edit` request: the edited define, its new constant, and the
/// define names whose store entries the edit must miss.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Index of the edited define.
    pub define: usize,
    /// The fresh constant written into it.
    pub constant: i64,
    /// Names of the dependent cone, in program order.
    pub cone: Vec<String>,
}

/// Defines in the `serve-edit` base program.
pub const EDIT_DEFINES: usize = 70;

/// The `serve-edit` base program: a call-DAG of [`EDIT_DEFINES`] defines.
pub fn edit_base(seed: u64) -> CallDag {
    let mut rng = Rng::new(seed ^ 0xed17);
    CallDag::generate(&mut rng, EDIT_DEFINES, "edit-")
}

/// The `n`-th edit of `dag` under `seed`. Edits walk seeded permutations
/// of the defines, so each define is edited equally often; the edited
/// define gets a constant no earlier edit used, so every edit is new to
/// the store.
pub fn edit(dag: &CallDag, seed: u64, n: u64) -> Edit {
    let len = dag.len() as u64;
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (n / len));
    let mut order: Vec<usize> = (0..dag.len()).collect();
    shuffle(&mut rng, &mut order);
    let define = order[(n % len) as usize];
    Edit {
        define,
        constant: 1_000 + n as i64,
        cone: dag
            .cone(define)
            .into_iter()
            .map(|j| dag.names[j].clone())
            .collect(),
    }
}

/// Where a pool source came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A Figure-10 workload with a seeded small input.
    Fig10(&'static str),
    /// A Table-1 row.
    Table1(&'static str),
    /// A fuzzer case (`sct_fuzz::gen_case(seed)`).
    Fuzz(u64),
    /// A call-DAG program with this many defines.
    Dag(usize),
}

/// One source of the `serve-warm` pool.
#[derive(Debug, Clone)]
pub struct PoolSource {
    /// Provenance, for reports.
    pub origin: Origin,
    /// Program text.
    pub source: String,
    /// False for programs constructed to diverge: they are only sent as
    /// `plan` and `hybrid` (a monitored run always stops), never as `run`.
    pub runnable: bool,
    /// The corpus's expected value of the final expression, when pinned.
    pub expected: Option<&'static str>,
}

/// Fuzzer cases in the pool per seed.
const POOL_FUZZ: usize = 20;
/// Call-DAG programs in the pool per seed, evenly spread over 10–60 defines.
const POOL_DAGS: usize = 25;

/// The `serve-warm` source pool for `seed`: all seven Figure-10 workloads
/// with seeded small inputs, all 28 Table-1 rows, seeded fuzzer cases and
/// call-DAG programs whose define counts are stratified over 10–60, so
/// source sizes run without gaps from tens of bytes to about 8 KB.
pub fn serve_pool(seed: u64) -> Vec<PoolSource> {
    let mut rng = Rng::new(seed ^ 0x9001);
    let mut pool = Vec::new();
    for w in sct_corpus::workloads::fig10() {
        // Input sizes are fixed so every pool costs about the same to
        // serve; the seed picks the data.
        let call = match w.id {
            "fact" => "(fact 25)".to_string(),
            "sum" => "(sum 160 0)".to_string(),
            "ack" => "(ack 2 6)".to_string(),
            "msort" => {
                let items: Vec<String> = (0..25).map(|_| rng.below(1000).to_string()).collect();
                format!("(msort '({}))", items.join(" "))
            }
            "interp-msort" => format!(
                "(go '{})",
                pair_tree(&string_leaves(&mut rng, 10)).to_write_string()
            ),
            _ => "(go 10)".to_string(),
        };
        pool.push(PoolSource {
            origin: Origin::Fig10(w.id),
            source: format!("{}\n{call}\n", w.source.trim()),
            runnable: true,
            expected: None,
        });
    }
    for row in sct_corpus::table1::all() {
        pool.push(PoolSource {
            origin: Origin::Table1(row.id),
            source: row.source.trim().to_string(),
            runnable: true,
            expected: row.expected,
        });
    }
    for i in 0..POOL_FUZZ as u64 {
        let case = sct_fuzz::gen_case(seed.wrapping_mul(1_000_003).wrapping_add(i));
        pool.push(PoolSource {
            origin: Origin::Fuzz(case.seed),
            runnable: case.oracle == Oracle::Terminating,
            source: case.source,
            expected: None,
        });
    }
    for i in 0..POOL_DAGS {
        let defines = 10 + 50 * i / (POOL_DAGS - 1);
        let dag = CallDag::generate(&mut rng, defines, &format!("dag{i}-"));
        pool.push(PoolSource {
            origin: Origin::Dag(defines),
            source: dag.source(),
            runnable: true,
            expected: None,
        });
    }
    pool
}

/// `n` seeded six-letter strings.
pub fn string_leaves(rng: &mut Rng, n: usize) -> Vec<Value> {
    (0..n)
        .map(|_| {
            let s: String = (0..6)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Value::str(s)
        })
        .collect()
}

/// A balanced pair tree over `items`: the interpreted merge-sort's input
/// shape.
pub fn pair_tree(items: &[Value]) -> Value {
    match items.len() {
        0 => Value::str("only"),
        1 => items[0].clone(),
        len => Value::cons(pair_tree(&items[..len / 2]), pair_tree(&items[len / 2..])),
    }
}

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The ops `serve-warm` sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// `{"op":"plan"}`.
    Plan,
    /// `{"op":"hybrid"}`.
    Hybrid,
    /// `{"op":"run"}`.
    Run,
}

impl Op {
    /// The protocol name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Plan => "plan",
            Op::Hybrid => "hybrid",
            Op::Run => "run",
        }
    }
}

/// The `serve-warm` request order: `rounds` seeded shuffles of every
/// `(pool index, op)` pair — plan/hybrid/run for runnable sources,
/// plan/hybrid for the others — so each round sends every pair once.
pub fn request_order(seed: u64, pool: &[PoolSource], rounds: usize) -> Vec<(usize, Op)> {
    let mut rng = Rng::new(seed ^ 0x0bde);
    let pairs: Vec<(usize, Op)> = pool
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let ops: &[Op] = if p.runnable {
                &[Op::Plan, Op::Hybrid, Op::Run]
            } else {
                &[Op::Plan, Op::Hybrid]
            };
            ops.iter().map(move |&op| (i, op))
        })
        .collect();
    let mut order = Vec::with_capacity(pairs.len() * rounds);
    for _ in 0..rounds {
        let mut round = pairs.clone();
        shuffle(&mut rng, &mut round);
        order.extend(round);
    }
    order
}
