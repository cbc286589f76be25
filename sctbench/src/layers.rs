//! The per-layer metric set every traced run reports, named after the
//! repository's modules. A layer a workload does not run reports 0.

use crate::report::Metrics;
use crate::trace::{Recorder, StoreCounts};
use sct_interp::Stats;

/// Counts gathered alongside the spans of a traced run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Store traffic seen through the timing wrapper.
    pub store: StoreCounts,
    /// Defines the planner re-verified (store misses).
    pub defines_missed: u64,
    /// `plan.summary.hits` of the replay's planner registry.
    pub summary_hits: u64,
    /// `plan.summary.stubbed_applications` of the same registry.
    pub stubbed_applications: u64,
    /// IR instructions compiled.
    pub instrs: u64,
    /// Summed machine counters of every replayed execution.
    pub vm: Stats,
}

impl Counts {
    /// Adds one execution's machine counters.
    pub fn add_vm(&mut self, s: &Stats) {
        let v = &mut self.vm;
        v.steps += s.steps;
        v.env_frames_allocated += s.env_frames_allocated;
        v.static_skips += s.static_skips;
        v.monitored_calls += s.monitored_calls;
        v.checks += s.checks;
        v.generic_calls += s.generic_calls;
        v.pic_hits += s.pic_hits;
        v.pic_misses += s.pic_misses;
    }

    /// Adds store traffic.
    pub fn add_store(&mut self, s: &StoreCounts) {
        self.store.loads += s.loads;
        self.store.hits += s.hits;
        self.store.stores += s.stores;
    }
}

/// Figures only a served workload has: per request, in µs, plus the share
/// of executions whose IR image the daemon compiled fresh.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeFigures {
    /// `Server::handle_line` on the replayed request.
    pub handle_us: f64,
    /// `handle_us` minus the replayed layer spans.
    pub overhead_us: f64,
    /// Client latency minus `handle_us`.
    pub transport_us: f64,
    /// Share of `run`/`hybrid` responses with `"compiled":"fresh"`.
    pub fresh_share: f64,
}

/// What the layer times are divided by: the operations in which the
/// front end, planner and compiler ran, and those in which the VM ran.
#[derive(Debug, Clone, Copy)]
pub struct Per {
    /// Operations of the front end, digest, store, planner and compiler.
    pub front: f64,
    /// Operations of the VM.
    pub exec: f64,
}

/// Builds the per-layer metrics: mean self time per operation in µs,
/// counts per operation, and the ratios.
pub fn metrics(
    rec: &Recorder,
    counts: &Counts,
    per: Per,
    serve: ServeFigures,
    trace_overhead: f64,
) -> Metrics {
    let by = rec.by_layer();
    let front = per.front.max(1.0);
    let exec = per.exec.max(1.0);
    let self_us = |name: &str, d: f64| by.get(name).map_or(0.0, |e| e.0 as f64 / 1e3 / d);
    let total_us = |name: &str, d: f64| by.get(name).map_or(0.0, |e| e.1 as f64 / 1e3 / d);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut m = Metrics::default();
    m.set("sexpr.parse_us", self_us("sexpr.parse", front), "us");
    m.set("lang.desugar_us", self_us("lang.desugar", front), "us");
    m.set("lang.resolve_us", self_us("lang.resolve", front), "us");
    m.set(
        "symbolic.digest_us",
        self_us("symbolic.digest", front),
        "us",
    );
    m.set("cache.load_us", self_us("cache.load", front), "us");
    m.set("cache.loads", counts.store.loads as f64 / front, "count");
    m.set(
        "cache.hit_rate",
        ratio(counts.store.hits, counts.store.loads),
        "share",
    );
    m.set("cache.store_us", self_us("cache.store", front), "us");
    m.set("cache.stores", counts.store.stores as f64 / front, "count");
    m.set("symbolic.plan_us", total_us("symbolic.plan", front), "us");
    m.set("symbolic.explore_us", self_us("symbolic.plan", front), "us");
    m.set(
        "symbolic.defines_missed",
        counts.defines_missed as f64 / front,
        "count",
    );
    m.set(
        "plan.summary.hits",
        counts.summary_hits as f64 / front,
        "count",
    );
    m.set(
        "plan.summary.stubbed_applications",
        counts.stubbed_applications as f64 / front,
        "count",
    );
    m.set("ir.compile_us", self_us("ir.compile", front), "us");
    m.set("ir.instrs", counts.instrs as f64 / front, "count");
    m.set("ir.fresh_share", serve.fresh_share, "share");
    let vm = &counts.vm;
    m.set("interp.execute_us", self_us("interp.execute", exec), "us");
    m.set("interp.steps", vm.steps as f64 / exec, "count");
    let probes = vm.pic_hits + vm.pic_misses;
    m.set(
        "interp.pic_hit_rate",
        if probes == 0 {
            1.0
        } else {
            ratio(vm.pic_hits, probes)
        },
        "share",
    );
    m.set(
        "interp.env_frames_allocated",
        vm.env_frames_allocated as f64 / exec,
        "count",
    );
    m.set(
        "interp.static_skips",
        vm.static_skips as f64 / exec,
        "count",
    );
    m.set(
        "interp.monitored_calls",
        vm.monitored_calls as f64 / exec,
        "count",
    );
    m.set("interp.checks", vm.checks as f64 / exec, "count");
    m.set("serve.encode_us", self_us("serve.encode", front), "us");
    m.set("serve.handle_us", serve.handle_us, "us");
    m.set("serve.overhead_us", serve.overhead_us, "us");
    m.set("serve.transport_us", serve.transport_us, "us");
    m.set("bench.trace_overhead", trace_overhead, "share");
    m
}
