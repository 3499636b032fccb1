//! `corpus-cold`: the batch/CI user. One op compiles and cold-analyzes every
//! crate of the 10-crate corpus in process, each with a fresh engine (no
//! cache path, the machine's worker count).

use crate::common::{compile_traced, engine_config, server_params, Ctx, SETUP_REPS};
use crate::report::Report;
use crate::trace::Tracer;
use crate::wire::vm_hwm_mb;
use flowistry_core::{analyze, compute_summary_with_results, CachedSummary, FunctionSummary};
use flowistry_corpus::{generate_corpus, GeneratedCrate};
use flowistry_engine::{AnalysisEngine, AnalysisSnapshot};
use flowistry_lang::types::FuncId;
use flowistry_lang::{CallGraph, CompiledProgram};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// At most this many traced ops get the (slow) attribution replay.
const ATTRIB_CAP: usize = 5;

/// Direct, engine-free summaries of every function: the oracle.
fn reference_summaries(program: &CompiledProgram) -> Vec<FunctionSummary> {
    let params = server_params();
    (0..program.bodies.len())
        .map(|i| {
            let func = FuncId(i as u32);
            let results = analyze(program, func, &params);
            FunctionSummary::from_exit_state(program.body(func), results.exit_theta())
        })
        .collect()
}

/// Swaps two different summaries of the first crate, so the oracle must
/// report a mismatch.
fn corrupt(reference: &mut [Vec<FunctionSummary>]) {
    let first = &mut reference[0];
    let other = (1..first.len())
        .find(|&j| first[j] != first[0])
        .expect("a crate whose summaries all agree");
    first.swap(0, other);
}

fn check(snapshots: &[AnalysisSnapshot], reference: &[Vec<FunctionSummary>]) -> Result<(), String> {
    for (snapshot, expected) in snapshots.iter().zip(reference) {
        for (i, want) in expected.iter().enumerate() {
            let got = snapshot.summary(FuncId(i as u32));
            if got != Some(want) {
                return Err(format!(
                    "summary of `{}` differs from the direct analysis",
                    snapshot.program().signature(FuncId(i as u32)).name
                ));
            }
        }
    }
    Ok(())
}

/// Replays an op's analysis after the timed window, for attribution: a
/// one-thread engine run (`engine.analyze_1t`) and the same summaries
/// computed function by function, bottom-up, with
/// `compute_summary_with_results` (`core.fn`). Returns the fixpoint
/// iterations summed over all functions.
fn attribute(tracer: &mut Tracer, programs: &[Arc<CompiledProgram>]) -> usize {
    let params = server_params();
    let root = tracer.begin("attrib");
    let mut iterations = 0;
    for program in programs {
        tracer.span("engine.analyze_1t", || {
            AnalysisEngine::new(program.clone(), engine_config(1)).analyze_all()
        });
        let graph = CallGraph::extract(program);
        let mut store: HashMap<FuncId, CachedSummary> = HashMap::new();
        for level in graph.schedule_levels() {
            for scc in level {
                for &func in &graph.sccs()[scc] {
                    let (entry, results) = tracer.span("core.fn", || {
                        compute_summary_with_results(program, func, &params, &store)
                    });
                    iterations += results.iterations();
                    store.insert(func, entry);
                }
            }
        }
    }
    tracer.end(root);
    iterations
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut corpus: Vec<GeneratedCrate> = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        corpus = generate_corpus(ctx.seed);
        report.record_setup(started);
    }
    let mut reference: Vec<Vec<FunctionSummary>> = corpus
        .iter()
        .map(|k| reference_summaries(&k.program))
        .collect();
    if ctx.corrupt_oracle {
        corrupt(&mut reference);
    }
    let sources: Vec<String> = corpus.into_iter().map(|k| k.source).collect();
    let source_bytes: usize = sources.iter().map(String::len).sum();
    // Peak RSS should reflect the ops, not the set-up above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let op = |tracer: &mut Tracer| -> Result<Vec<AnalysisSnapshot>, String> {
        let mut snapshots = Vec::with_capacity(sources.len());
        for source in &sources {
            let program = compile_traced(tracer, source)?;
            snapshots.push(tracer.span("engine.analyze", || {
                let mut engine = AnalysisEngine::new(program, engine_config(ctx.threads));
                engine.analyze_all();
                engine.snapshot()
            }));
        }
        Ok(snapshots)
    };

    // Warm-up pass, checked but not timed.
    let snapshots = op(&mut tracer)?;
    check(&snapshots, &reference)?;

    let mut traced_ops = Vec::new();
    let started = Instant::now();
    let mut i: u64 = 0;
    // A traced run goes on until it has traced an op, however short its
    // window.
    while started.elapsed() < ctx.window() || (ctx.trace && traced_ops.is_empty()) {
        let traced = ctx.traced_op(i);
        tracer.set_enabled(traced);
        tracer.set_op(i);
        tracer.reserve(256);
        report.attempted += 1;
        let t0 = Instant::now();
        let root = tracer.begin("op");
        let result = op(&mut tracer);
        tracer.end(root);
        let t1 = Instant::now();
        let snapshots = match result {
            Ok(s) => s,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        tracer.set_enabled(false);
        report.record_op(t0, t1, traced);
        if traced && traced_ops.len() < ATTRIB_CAP {
            traced_ops.push(i);
        }
        report.window_bytes.push(source_bytes as f64);
        if let Err(e) = check(&snapshots, &reference) {
            report.fail(e);
            break;
        }
        i += 1;
    }
    report.peak_rss_mb = vm_hwm_mb("/proc/self/status").unwrap_or(0.0);
    // Attribution runs after the timed window. Every op compiles the same
    // sources, so one set of programs serves every traced op's replay.
    if !traced_ops.is_empty() {
        let programs = sources
            .iter()
            .map(|s| {
                flowistry_lang::compile(s)
                    .map(Arc::new)
                    .map_err(|d| d.message)
            })
            .collect::<Result<Vec<_>, _>>()?;
        tracer.set_enabled(true);
        for op in traced_ops {
            tracer.set_op(op);
            let iterations = attribute(&mut tracer, &programs);
            report
                .counts
                .insert("core.iterations".to_string(), iterations as f64);
        }
    }
    report.spans = tracer.into_spans();
    Ok(())
}
