//! The generators are deterministic in their seed, their dependent cones
//! agree with brute-force reachability and with the planner's own store
//! misses, and the serve pool's sizes run without gaps.

use sct_cache::MemStore;
use sct_fuzz::gen::Rng;
use sct_symbolic::{plan_program_incremental, PlanCache, PlanConfig};
use sctbench::gen::{edit, edit_base, request_order, serve_pool, CallDag};
use std::collections::BTreeSet;

#[test]
fn same_seed_same_sources() {
    for seed in [0, 1, 17] {
        let a: Vec<String> = serve_pool(seed).into_iter().map(|p| p.source).collect();
        let b: Vec<String> = serve_pool(seed).into_iter().map(|p| p.source).collect();
        assert_eq!(a, b, "pool of seed {seed}");
        let pool = serve_pool(seed);
        assert_eq!(request_order(seed, &pool, 3), request_order(seed, &pool, 3));
        let (x, y) = (edit_base(seed), edit_base(seed));
        assert_eq!(x.source(), y.source());
        for n in 0..20 {
            let (e, f) = (edit(&x, seed, n), edit(&y, seed, n));
            assert_eq!(
                (e.define, e.constant, &e.cone),
                (f.define, f.constant, &f.cone)
            );
        }
    }
    let a: Vec<String> = serve_pool(1).into_iter().map(|p| p.source).collect();
    let b: Vec<String> = serve_pool(2).into_iter().map(|p| p.source).collect();
    assert_ne!(a, b, "different seeds give different pools");
    assert_ne!(edit_base(1).source(), edit_base(2).source());
}

/// Every define `j` whose transitive callees include `i`, plus `i`.
fn brute_force_cone(dag: &CallDag, i: usize) -> Vec<usize> {
    (0..dag.len())
        .filter(|&j| {
            let mut seen = BTreeSet::new();
            let mut stack = vec![j];
            while let Some(k) = stack.pop() {
                if seen.insert(k) {
                    stack.extend(dag.callees[k].iter().copied());
                }
            }
            seen.contains(&i)
        })
        .collect()
}

#[test]
fn cones_match_brute_force_reachability() {
    for seed in 0..6 {
        let mut rng = Rng::new(seed);
        for dag in [
            edit_base(seed),
            CallDag::generate(&mut rng, 12, "t"),
            CallDag::generate(&mut rng, 45, "u"),
        ] {
            for i in 0..dag.len() {
                assert_eq!(
                    dag.cone(i),
                    brute_force_cone(&dag, i),
                    "seed {seed}, define {i}"
                );
            }
        }
    }
}

#[test]
fn edits_miss_exactly_their_cone() {
    let dag = edit_base(3);
    let config = PlanConfig::default();
    let base = sct_lang::compile_program(&dag.source()).unwrap();
    let mut store = MemStore::new();
    let mut cache = PlanCache::new();
    let (_, cold) = plan_program_incremental(&base, &config, &mut cache, &mut store);
    assert_eq!(cold.misses(), dag.len());
    for n in 0..8 {
        let e = edit(&dag, 3, n);
        let edited =
            sct_lang::compile_program(&dag.source_with(Some((e.define, e.constant)))).unwrap();
        let (_, stats) = plan_program_incremental(&edited, &config, &mut cache, &mut store);
        assert_eq!(
            stats.missed_names(),
            e.cone,
            "edit {n} of define {}",
            e.define
        );
    }
}

#[test]
fn pool_sizes_have_no_gap() {
    for seed in 0..8 {
        let mut sizes: Vec<usize> = serve_pool(seed).iter().map(|p| p.source.len()).collect();
        sizes.sort_unstable();
        let (lo, hi) = (sizes[0], sizes[sizes.len() - 1]);
        assert!(lo <= 100, "seed {seed}: smallest source {lo} B");
        assert!(hi >= 6_000, "seed {seed}: largest source {hi} B");
        for w in sizes.windows(2) {
            assert!(
                w[1] as f64 <= w[0] as f64 * 1.6,
                "seed {seed}: gap between {} B and {} B",
                w[0],
                w[1]
            );
        }
    }
}
