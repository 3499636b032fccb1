//! Scheduler-skew benchmark: work-stealing `analyze_all` on a corpus built
//! to maximize per-level cost skew.
//!
//! The workload puts one *giant* SCC (a mutual-recursion cycle whose
//! members are expensive to summarize: naive recursion re-analyzes partner
//! bodies around the cycle) in the same scheduling level as many cheap leaf
//! functions, and stacks a deep call chain on top of one leaf. Under level
//! barriers the chain could not start until the giant SCC finishes — every
//! level-0 worker joins before level 1 — so wall-clock would be
//! `giant + chain`. The work-stealing scheduler releases each chain link
//! the moment its callee is summarized, so the chain overlaps the giant SCC
//! and wall-clock is `max(giant, chain)`.
//!
//! The headline check asserts this two ways, both on every component's
//! summary cost measured once (sequentially):
//!
//! 1. **Deterministically**, by computing the makespan each scheduling
//!    policy yields for two workers — barrier: sum over levels of the
//!    level's list-scheduled maximum; work-stealing: event-driven greedy
//!    over the condensation DAG. This captures the *structural* win and is
//!    immune to runner core counts and noise.
//! 2. **On the wall clock**: a real two-worker `analyze_all` must finish
//!    within the greedy list-scheduling bound `W/p + (1 - 1/p)·C`, where
//!    `W` is the summed component cost and `C` the critical-path cost — a
//!    schedule with level barriers cannot meet it on this corpus. Asserted
//!    only when the machine actually has ≥ 2 cores (with one core there is
//!    nothing to overlap).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowistry_core::{compute_summary, AnalysisParams, CachedSummary, Condition};
use flowistry_engine::{AnalysisEngine, EngineConfig};
use flowistry_lang::types::FuncId;
use flowistry_lang::CallGraph;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One giant `scc_size`-cycle plus `leaves` trivial functions in level 0,
/// and a `chain_depth`-deep caller chain rooted at leaf `s0`.
fn skewed_source(scc_size: usize, leaves: usize, chain_depth: usize) -> String {
    let mut src = String::new();
    for i in 0..scc_size {
        let next = (i + 1) % scc_size;
        let _ = writeln!(
            src,
            "fn g{i}(p: &mut i32, v: i32) -> i32 {{
                 let a = v + 1;
                 let mut b = a * 2;
                 if b > 6 {{ b = b - v; }} else {{ *p = *p + a; }}
                 let c = b + a;
                 let r = g{next}(p, c);
                 let d = r + c;
                 return d;
             }}"
        );
    }
    for i in 0..leaves {
        let _ = writeln!(
            src,
            "fn s{i}(p: &mut i32, v: i32) -> i32 {{
                 if v > 0 {{ *p = *p + v; }} else {{ *p = v; }}
                 return v * 2;
             }}"
        );
    }
    for i in 0..chain_depth {
        let callee = if i == 0 {
            "s0".to_string()
        } else {
            format!("c{}", i - 1)
        };
        let _ = writeln!(
            src,
            "fn c{i}(p: &mut i32, v: i32) -> i32 {{
                 let r1 = {callee}(p, v + 1);
                 let r2 = {callee}(p, r1);
                 let mut acc = r1 + r2;
                 if acc > 10 {{ acc = acc - v; }} else {{ *p = *p + acc; }}
                 return acc;
             }}"
        );
    }
    src
}

/// Measures every component's summary cost with one sequential bottom-up
/// pass (callee summaries seeded exactly as either scheduler would).
fn component_costs(
    program: &flowistry_lang::CompiledProgram,
    call_graph: &CallGraph,
    params: &AnalysisParams,
) -> Vec<f64> {
    let mut store: HashMap<FuncId, CachedSummary> = HashMap::new();
    let mut costs = vec![0.0; call_graph.sccs().len()];
    for (idx, members) in call_graph.sccs().iter().enumerate() {
        let start = Instant::now();
        let produced: Vec<(FuncId, CachedSummary)> = members
            .iter()
            .map(|&f| (f, compute_summary(program, f, params, &store)))
            .collect();
        costs[idx] = start.elapsed().as_secs_f64();
        store.extend(produced);
    }
    costs
}

fn argmin(loads: &[f64]) -> usize {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate() {
        if l < loads[best] {
            best = i;
        }
    }
    best
}

/// Makespan of the level-barrier policy on `workers` workers: per level,
/// longest-processing-time list scheduling; levels are strict barriers.
fn barrier_makespan(call_graph: &CallGraph, costs: &[f64], workers: usize) -> f64 {
    call_graph
        .schedule_levels()
        .iter()
        .map(|level| {
            let mut level_costs: Vec<f64> = level.iter().map(|&scc| costs[scc]).collect();
            level_costs.sort_by(|a, b| b.partial_cmp(a).expect("finite costs"));
            let mut loads = vec![0.0f64; workers];
            for cost in level_costs {
                let slot = argmin(&loads);
                loads[slot] += cost;
            }
            loads.iter().fold(0.0f64, |a, &b| a.max(b))
        })
        .sum()
}

/// Makespan of a barrier-free greedy schedule on `workers` workers: a
/// component starts as soon as a worker is free and its callees are done —
/// the policy work stealing implements (event-driven simulation).
fn work_stealing_makespan(call_graph: &CallGraph, costs: &[f64], workers: usize) -> f64 {
    let mut deps = call_graph.scc_dependency_counts();
    let mut ready: Vec<usize> = (0..deps.len()).filter(|&s| deps[s] == 0).collect();
    let mut running: Vec<(f64, usize)> = Vec::new(); // (finish time, scc)
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut left = deps.len();
    while left > 0 {
        while running.len() < workers && !ready.is_empty() {
            // Largest ready component first, mirroring LPT.
            let pick = (0..ready.len())
                .max_by(|&a, &b| {
                    costs[ready[a]]
                        .partial_cmp(&costs[ready[b]])
                        .expect("finite costs")
                })
                .expect("nonempty ready set");
            let scc = ready.swap_remove(pick);
            running.push((now + costs[scc], scc));
        }
        // Advance to the next completion.
        let next = (0..running.len())
            .min_by(|&a, &b| running[a].0.partial_cmp(&running[b].0).expect("finite"))
            .expect("running set nonempty while work remains");
        let (finish, scc) = running.swap_remove(next);
        now = finish;
        makespan = makespan.max(finish);
        left -= 1;
        for &caller in call_graph.scc_callers(scc) {
            deps[caller] -= 1;
            if deps[caller] == 0 {
                ready.push(caller);
            }
        }
    }
    makespan
}

/// Cost of the condensation's critical path: the most expensive chain of
/// components, each waiting for its callees (`sccs()` lists callees first).
fn critical_path_cost(call_graph: &CallGraph, costs: &[f64]) -> f64 {
    let mut start = vec![0.0f64; costs.len()];
    let mut longest = 0.0f64;
    for scc in 0..costs.len() {
        let finish = start[scc] + costs[scc];
        longest = longest.max(finish);
        for &caller in call_graph.scc_callers(scc) {
            start[caller] = start[caller].max(finish);
        }
    }
    longest
}

fn cold_seconds(
    program: &std::sync::Arc<flowistry_lang::CompiledProgram>,
    params: &AnalysisParams,
    threads: usize,
) -> f64 {
    let mut engine = AnalysisEngine::new(
        program.clone(),
        EngineConfig::default()
            .with_params(params.clone())
            .with_threads(threads),
    );
    let start = Instant::now();
    engine.analyze_all();
    start.elapsed().as_secs_f64()
}

fn bench_skewed_scc(c: &mut Criterion) {
    // Tuned so the giant SCC's cost is comparable to the chain's total
    // cost: the barrier schedule pays `giant + chain`, work stealing
    // `max(giant, chain)`, putting the structural win near its 2x maximum.
    // (Retuned for the indexed dataflow domain: summaries now resolve once
    // per call site instead of once per fixpoint visit, which made cycle
    // members far cheaper relative to chain links — the SCC is bigger and
    // the chain shorter than the tree-domain tuning used.)
    let src = skewed_source(16, 16, 170);
    let program =
        std::sync::Arc::new(flowistry_lang::compile(&src).expect("skewed corpus compiles"));
    let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
    // Two workers are enough to expose the skew (one gets stuck on the
    // giant SCC, the other runs the chain).
    let threads = 2;

    let mut group = c.benchmark_group("scheduler_skew");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("work_stealing"),
        &program,
        |b, program| {
            b.iter(|| {
                let mut engine = AnalysisEngine::new(
                    program.clone(),
                    EngineConfig::default()
                        .with_params(params.clone())
                        .with_threads(threads),
                );
                engine.analyze_all().analyzed
            })
        },
    );
    group.finish();

    // Acceptance check 1: the structural win, on measured per-component
    // costs — deterministic, independent of the runner's core count.
    let call_graph = CallGraph::extract(&program);
    let costs = component_costs(&program, &call_graph, &params);
    let barrier_sim = barrier_makespan(&call_graph, &costs, threads);
    let stealing_sim = work_stealing_makespan(&call_graph, &costs, threads);
    println!(
        "scheduler_skew/makespan ({} components, {threads} workers): \
         barrier {:.3} ms vs work-stealing {:.3} ms ({:.2}x)",
        costs.len(),
        barrier_sim * 1e3,
        stealing_sim * 1e3,
        barrier_sim / stealing_sim.max(1e-9)
    );
    assert!(
        stealing_sim < barrier_sim * 0.75,
        "on the skewed-SCC corpus the barrier-free schedule must beat the \
         level-barrier schedule decisively: {:.3} ms vs {:.3} ms",
        stealing_sim * 1e3,
        barrier_sim * 1e3
    );

    // Acceptance check 2: the real engine on the wall clock, against the
    // greedy list-scheduling bound W/p + (1 - 1/p)·C. On this corpus C is
    // over half of W, so the bound sits near 4/5 of W, below the
    // level-barrier makespan (giant + chain). Asserted where overlap is
    // physically possible (≥ 2 cores). Each attempt measures the costs
    // afresh next to its engine runs, so both sides see the same host
    // speed, and takes the best of `REPEATS` on each side: noise on a shared
    // host only ever adds time, to the engine run as to the costs the bound
    // is built from. Retried: the shape guarantees the fit, the retry
    // guards the measurement.
    const REPEATS: usize = 3;
    let p = threads as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measurements = Vec::new();
    let mut within = false;
    for attempt in 0..3 {
        let mut best = component_costs(&program, &call_graph, &params);
        for _ in 1..REPEATS {
            let again = component_costs(&program, &call_graph, &params);
            for (b, a) in best.iter_mut().zip(again) {
                *b = b.min(a);
            }
        }
        let total: f64 = best.iter().sum();
        let critical = critical_path_cost(&call_graph, &best);
        let bound = total / p + (1.0 - 1.0 / p) * critical;
        let stealing = (0..REPEATS)
            .map(|_| cold_seconds(&program, &params, threads))
            .fold(f64::INFINITY, f64::min);
        println!(
            "scheduler_skew/attempt {attempt}: work-stealing {:.3} ms vs bound {:.3} ms \
             (W {:.3} ms, C {:.3} ms)",
            stealing * 1e3,
            bound * 1e3,
            total * 1e3,
            critical * 1e3
        );
        measurements.push((stealing, bound));
        if stealing <= bound {
            within = true;
            break;
        }
    }
    if cores < 2 {
        println!(
            "scheduler_skew: single-core machine — wall-clock overlap is \
             impossible, skipping the wall-clock assertion (the makespan \
             check above already asserted the structural win)"
        );
        return;
    }
    assert!(
        within,
        "work stealing must finish within the greedy bound W/p + (1 - 1/p)·C \
         on the skewed-SCC corpus with {cores} cores; (run, bound) per attempt \
         in seconds: {measurements:?}"
    );
}

criterion_group!(benches, bench_skewed_scc);
criterion_main!(benches);
