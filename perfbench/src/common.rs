//! Pieces the workloads share: run settings, the traced front end, the
//! server's analysis parameters and the wire workloads' set-up.

use crate::names::VerbSpans;
use crate::report::Report;
use crate::trace::Tracer;
use crate::wire::{ServerChild, WireClient};
use flowistry_core::{AnalysisParams, Condition};
use flowistry_corpus::{generate_crate, paper_profiles, GeneratedCrate, DEFAULT_SEED};
use flowistry_engine::{AnalysisEngine, EngineConfig, FlowService, QueryRequest, ServiceConfig};
use flowistry_lang::types::FuncId;
use flowistry_lang::{borrowck, lower, parser, regions, typeck, CompiledProgram};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Settings of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Replace one expected answer with a wrong one (oracle self-test).
    pub corrupt_oracle: bool,
    pub server_bin: PathBuf,
    pub work_dir: PathBuf,
    /// Worker threads for in-process engines (the machine's parallelism).
    pub threads: usize,
}

impl Ctx {
    /// In a traced run every other op is traced; the untraced ones in
    /// between measure the tracing overhead.
    pub fn traced_op(&self, i: u64) -> bool {
        self.trace && i % 2 == 1
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The analysis parameters `flow-server` uses: Whole-program, all bodies.
pub fn server_params() -> AnalysisParams {
    AnalysisParams::for_condition(Condition::WHOLE_PROGRAM)
}

/// An engine configured like `flow-server`'s, with `threads` workers.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_params(server_params())
        .with_threads(threads)
}

/// One crate of the Table 1 stand-in corpus as the repository's evaluation
/// generates it (`DEFAULT_SEED`). The server workloads keep the crate fixed
/// and draw their requests from the run's seed: a crate generated from the
/// run's seed differs in size from seed to seed, which moved `results-pull`
/// by about a fifth between seeds.
pub fn corpus_crate(name: &str) -> GeneratedCrate {
    let profile = paper_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("no corpus profile named {name}"));
    generate_crate(&profile, DEFAULT_SEED)
}

/// Compiles `source`. Untraced, this is `flowistry_lang::compile`; traced,
/// it calls the front-end phases one by one in `compile`'s order, each in
/// its own span, and assembles the same program.
pub fn compile_traced(tracer: &mut Tracer, source: &str) -> Result<CompiledProgram, String> {
    if !tracer.enabled() {
        return flowistry_lang::compile(source).map_err(|d| d.message);
    }
    let ast = tracer
        .span("lang.parse", || parser::parse_program(source))
        .map_err(|d| d.message)?;
    let tc = tracer
        .span("lang.typeck", || typeck::check_program(&ast))
        .map_err(|d| d.message)?;
    let mut bodies = tracer.span("lang.lower", || {
        ast.funcs
            .iter()
            .enumerate()
            .map(|(idx, func)| {
                lower::lower_fn(
                    func,
                    FuncId(idx as u32),
                    &tc.signatures[idx],
                    &tc.fn_tables[idx],
                    &tc.structs,
                )
            })
            .collect::<Vec<_>>()
    });
    tracer.span("lang.regions", || {
        regions::infer_regions(&mut bodies, &tc.signatures, &tc.structs)
    });
    let borrow_errors = tracer.span("lang.borrowck", || {
        bodies.iter().flat_map(borrowck::check_body).collect()
    });
    Ok(CompiledProgram {
        source: source.to_string(),
        ast,
        structs: tc.structs,
        signatures: tc.signatures,
        bodies,
        borrow_errors,
    })
}

/// A wire workload's fixture: the server under test and, in process, a
/// service over the same program with the server's parameters. The
/// in-process service's snapshot is the oracle; traced runs also replay
/// server-side calls against it.
pub struct WireFixture {
    pub krate: GeneratedCrate,
    pub server: ServerChild,
    pub service: FlowService,
}

/// Writes the crate's source under the work directory, then starts
/// `flow-server` on it [`SETUP_REPS`] times. Each start is timed from spawn
/// to the first answered `stats` request; all but the last server are shut
/// down again.
pub fn wire_setup(ctx: &Ctx, crate_name: &str, report: &mut Report) -> Result<WireFixture, String> {
    let krate = corpus_crate(crate_name);
    let source_path = ctx.work_dir.join(format!("{crate_name}.rox"));
    std::fs::write(&source_path, &krate.source)
        .map_err(|e| format!("write {}: {e}", source_path.display()))?;
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            ServerChild::stop(old);
        }
        let started = Instant::now();
        let child = start_and_probe(&ctx.server_bin, &source_path)?;
        report.record_setup(started);
        server = Some(child);
    }
    let program = std::sync::Arc::new(krate.program.clone());
    let engine = AnalysisEngine::new(program, engine_config(ctx.threads));
    let service = FlowService::new(engine, ServiceConfig::default().with_workers(ctx.threads));
    Ok(WireFixture {
        krate,
        server: server.expect("at least one set-up repetition"),
        service,
    })
}

fn start_and_probe(server_bin: &Path, source_path: &Path) -> Result<ServerChild, String> {
    let child = ServerChild::spawn(server_bin, source_path)?;
    let mut client = WireClient::connect(&child.addr)?;
    // Untraced, so the span names passed along are never recorded.
    let mut off = Tracer::new(false, Instant::now());
    client.query(&mut off, &VerbSpans::of("summary"), &QueryRequest::Stats)?;
    Ok(child)
}

/// Named user variables of `func` (parameters included).
pub fn user_vars(program: &CompiledProgram, func: FuncId) -> Vec<String> {
    program
        .body(func)
        .local_decls
        .iter()
        .filter_map(|d| d.name.clone())
        .collect()
}

/// Crate-local functions whose name starts with `prefix`.
pub fn funcs_named(krate: &GeneratedCrate, prefix: &str) -> Vec<FuncId> {
    krate
        .crate_funcs
        .iter()
        .copied()
        .filter(|f| krate.program.signature(*f).name.starts_with(prefix))
        .collect()
}
