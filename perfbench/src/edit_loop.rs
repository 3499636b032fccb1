//! `edit-loop`: the IDE user after a keystroke. One client sends `update`
//! with the rustpython source, edited by a fresh statement in a seeded-drawn
//! helper, then asks for a `slice` on a driver inside the edit's dirty cone.

use crate::common::{compile_traced, engine_config, server_params, user_vars, wire_setup, Ctx};
use crate::names::VerbSpans;
use crate::report::Report;
use crate::trace::Tracer;
use crate::util::{mean, Rng};
use crate::wire::WireClient;
use flowistry_engine::{AnalysisEngine, QueryEnvelope, QueryRequest, QueryResponse};
use flowistry_lang::types::FuncId;
use flowistry_server::codec;
use flowistry_slicer::{Slice, Slicer};
use std::time::Instant;

/// Count metrics are taken over this many traced ops (and `wire_kb` over
/// this many ops): a fixed prefix of the seeded edit sequence.
const COUNT_WINDOW: usize = 8;
/// At most this many traced ops are replayed in process.
const REPLAY_CAP: usize = 24;

/// One edit and the slice asked for after it.
struct Edit {
    source: String,
    func: FuncId,
    var: String,
}

/// The seeded, never-repeating edit sequence. Every helper some driver
/// reaches starts with one `let bench_edit = 0;` statement; edit `k`
/// rewrites that statement of a drawn helper to `let bench_edit = k;`. Each
/// update then changes exactly that helper (and so its transitive callers'
/// summaries), and the source keeps its size however many edits a run
/// makes.
struct Edits {
    rng: Rng,
    source: String,
    /// `(helper name, drivers that reach it)`, for helpers some driver calls.
    helpers: Vec<(String, Vec<FuncId>)>,
    vars: Vec<Vec<String>>,
    /// Helper indices still to edit in this pass. Each pass edits every
    /// helper once, in a fresh seeded order, so a run's mix of dirty cones
    /// is the same for every seed.
    pass: Vec<usize>,
    next: u64,
}

impl Edits {
    fn new(
        rng: Rng,
        base: &str,
        helpers: Vec<(String, Vec<FuncId>)>,
        vars: Vec<Vec<String>>,
    ) -> Edits {
        let mut source = base.to_string();
        for (helper, _) in &helpers {
            let body = body_start(&source, helper);
            source.insert_str(body, &edit_line(0));
        }
        Edits {
            rng,
            source,
            helpers,
            vars,
            pass: Vec::new(),
            next: 1,
        }
    }

    fn next(&mut self) -> Edit {
        let k = self.next;
        self.next += 1;
        if self.pass.is_empty() {
            self.pass = (0..self.helpers.len()).collect();
            self.rng.shuffle(&mut self.pass);
        }
        let (helper, drivers) = &self.helpers[self.pass.pop().expect("a pass is never empty")];
        let body = body_start(&self.source, helper);
        let line_end = body + self.source[body..].find('\n').expect("edit line ends") + 1;
        self.source.replace_range(body..line_end, &edit_line(k));
        let func = *self.rng.pick(drivers);
        let vars = &self.vars[func.0 as usize];
        let var = self.rng.pick(vars).clone();
        Edit {
            source: self.source.clone(),
            func,
            var,
        }
    }
}

fn edit_line(k: u64) -> String {
    format!("    let bench_edit = {k};\n")
}

/// Byte offset of the first line of `helper`'s body in `source`.
fn body_start(source: &str, helper: &str) -> usize {
    // The header is `fn helper_N(` or, with lifetimes, `fn helper_N<`.
    let header = format!("fn {helper}");
    let at = source
        .match_indices(&header)
        .map(|(at, _)| at)
        .find(|&at| matches!(source.as_bytes().get(at + header.len()), Some(b'(' | b'<')))
        .expect("helper in source");
    at + source[at..].find('\n').expect("header line ends") + 1
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let fx = wire_setup(ctx, "rustpython", report)?;
    let program = &fx.krate.program;
    let graph = flowistry_lang::CallGraph::extract(program);
    let helpers: Vec<(String, Vec<FuncId>)> = crate::common::funcs_named(&fx.krate, "helper_")
        .into_iter()
        .map(|h| {
            let drivers: Vec<FuncId> = graph
                .transitive_callers(h)
                .into_iter()
                .filter(|f| program.signature(*f).name.starts_with("drive_"))
                .filter(|f| !user_vars(program, *f).is_empty())
                .collect();
            (program.signature(h).name.clone(), drivers)
        })
        .filter(|(_, drivers)| !drivers.is_empty())
        .collect();
    if helpers.is_empty() {
        return Err("no helper is reached from a driver".to_string());
    }
    let mut edits = Edits::new(
        Rng::new(ctx.seed, 1),
        &fx.krate.source,
        helpers,
        (0..program.bodies.len())
            .map(|i| user_vars(program, FuncId(i as u32)))
            .collect(),
    );
    report.ops_per_pass = edits.helpers.len();
    let mut client = WireClient::connect(&fx.server.addr)?;
    let update_names = VerbSpans::of("update");
    let slice_names = VerbSpans::of("slice");
    let params = server_params();
    let mut tracer = Tracer::new(false, Instant::now());
    let mut epoch = 0u64;
    // Of each traced op: its id, the source before it, its edit and the
    // slice the server answered.
    let mut replays: Vec<(u64, String, Edit, QueryEnvelope)> = Vec::new();
    let mut resp_update = Vec::new();
    let mut resp_slice = Vec::new();
    let mut previous_source = fx.krate.source.clone();

    // Warm-up edit (index 0) is done and checked but not timed.
    let started = Instant::now();
    let mut i: u64 = 0;
    loop {
        let timed = i > 0;
        let window_open =
            report.window_bytes.len() < COUNT_WINDOW || (ctx.trace && replays.len() < COUNT_WINDOW);
        if timed && started.elapsed() >= ctx.window() && !window_open {
            break;
        }
        let edit = edits.next();
        let request = QueryRequest::BackwardSlice {
            func: edit.func,
            var: edit.var.clone(),
        };
        let traced = timed && ctx.traced_op(i);
        tracer.set_enabled(traced);
        tracer.set_op(i);
        tracer.reserve(256);
        if timed {
            report.attempted += 1;
        }
        let t0 = Instant::now();
        let root = tracer.begin("op");
        let outcome = (|| -> Result<_, String> {
            let (new_epoch, up) = client.update(&mut tracer, &update_names, &edit.source)?;
            let (envelope, sl) = client.query(&mut tracer, &slice_names, &request)?;
            Ok((new_epoch, up, envelope, sl))
        })();
        tracer.end(root);
        tracer.set_enabled(false);
        let t1 = Instant::now();
        let (new_epoch, up, envelope, sl) = match outcome {
            Ok(o) => o,
            Err(e) => {
                report.fail(e);
                break;
            }
        };
        if timed {
            report.record_op(t0, t1, traced);
            if report.window_bytes.len() < COUNT_WINDOW {
                report
                    .window_bytes
                    .push((up.sent + up.received + sl.sent + sl.received) as f64);
                resp_update.push(up.received as f64);
                resp_slice.push(sl.received as f64);
            }
        }

        // Oracle, outside the timed window: a direct analysis of this
        // epoch's source.
        let check = (|| -> Result<(), String> {
            if new_epoch <= epoch {
                return Err(format!(
                    "update acknowledged epoch {new_epoch} after {epoch}"
                ));
            }
            if envelope.epoch != new_epoch {
                return Err(format!(
                    "slice served from epoch {} right after update to {new_epoch}",
                    envelope.epoch
                ));
            }
            let program = flowistry_lang::compile(&edit.source).map_err(|d| d.message)?;
            let mut expected: Option<Slice> =
                Slicer::new(&program, edit.func, params.clone()).backward_slice_of_var(&edit.var);
            if ctx.corrupt_oracle && i == 0 {
                expected = None;
            }
            if envelope.response != QueryResponse::BackwardSlice(expected) {
                return Err(format!(
                    "slice of `{}` in `{}` differs from the direct analysis",
                    edit.var,
                    program.signature(edit.func).name
                ));
            }
            Ok(())
        })();
        if let Err(e) = check {
            report.fail(e);
            break;
        }
        let before = std::mem::replace(&mut previous_source, edit.source.clone());
        if traced && replays.len() < REPLAY_CAP {
            replays.push((i, before, edit, envelope));
        }
        epoch = new_epoch;
        if i == 0 {
            // Timed ops start on a fresh pass over the helpers.
            edits.pass.clear();
        }
        i += 1;
    }
    report.peak_rss_mb = fx.server.peak_rss_mb().unwrap_or(0.0);
    fx.server.stop();

    if ctx.trace {
        let mut dirty = Vec::new();
        let mut hits = Vec::new();
        let mut mirror = AnalysisEngine::new(program.clone(), engine_config(ctx.threads));
        mirror.analyze_all();
        for (op, before, edit, served) in &replays {
            // Bring the mirror to the program the server held before this
            // op. Edits never repeat, so the update below misses the cache
            // on exactly the functions the server's update missed on.
            let program = flowistry_lang::compile(before).map_err(|d| d.message)?;
            mirror.update_program(program);
            mirror.analyze_all();
            tracer.set_enabled(true);
            tracer.set_op(*op);
            let (analyzed, cache_hits) = replay(&mut tracer, &mut mirror, edit, served)?;
            tracer.set_enabled(false);
            if dirty.len() < COUNT_WINDOW {
                dirty.push(analyzed as f64);
                hits.push(cache_hits as f64 / (analyzed + cache_hits).max(1) as f64);
            }
        }
        for (name, values) in [
            ("engine.dirty_fns", &dirty),
            ("engine.hit_ratio", &hits),
            ("server.resp_bytes.update", &resp_update),
            ("server.resp_bytes.slice", &resp_slice),
        ] {
            report.counts.insert(name.to_string(), mean(values));
        }
    }
    report.spans = tracer.into_spans();
    Ok(())
}

/// Replays, in process and after the timed window, what the server
/// did for this op: decode the request, recompile (`lang.*`) and
/// re-analyze (`engine.update`), encode the ack; then decode the slice
/// request, answer it (`engine.query.slice`, mostly `slicer.slice`) and
/// encode the answer. Last, it times the first-touch `core.theta_decode`
/// of the driver's exit state, which the update pays. Returns the update's
/// analyzed and cache-hit function counts.
fn replay(
    tracer: &mut Tracer,
    mirror: &mut AnalysisEngine,
    edit: &Edit,
    served: &QueryEnvelope,
) -> Result<(usize, usize), String> {
    let update = VerbSpans::of("update");
    let root = tracer.begin(update.replay);
    let header = codec::encode_update_at(edit.source.len(), None);
    tracer
        .span(update.decode, || codec::decode_command(&header))
        .map_err(|e| format!("update header: {e}"))?;
    let program = compile_traced(tracer, &edit.source)?;
    let stats = tracer.span("engine.update", || {
        mirror.update_program(program);
        mirror.analyze_all()
    });
    tracer.span(update.encode, || codec::encode_update_ack(served.epoch));
    tracer.end(root);

    let slice = VerbSpans::of("slice");
    let root = tracer.begin(slice.replay);
    let line = codec::encode_request(&QueryRequest::BackwardSlice {
        func: edit.func,
        var: edit.var.clone(),
    });
    tracer
        .span(slice.decode, || codec::decode_command(&line))
        .map_err(|e| format!("slice request: {e}"))?;
    let snapshot = mirror.snapshot();
    let query = tracer.begin(slice.query);
    let results = snapshot.results(edit.func);
    let answer = tracer.span("slicer.slice", || {
        Slicer::from_results(snapshot.program(), edit.func, results.clone())
            .backward_slice_of_var(&edit.var)
    });
    tracer.end(query);
    let envelope = QueryEnvelope {
        epoch: served.epoch,
        response: QueryResponse::BackwardSlice(answer),
        trace_id: None,
    };
    tracer.span(slice.encode, || codec::encode_envelope(&envelope));
    tracer.end(root);

    // The update already decoded the driver's exit state when it extracted
    // the driver's summary, so the slice above reads a decoded state. Time
    // that first-touch decode on fresh results of the driver: the exit
    // state, the only one a variable slice reads.
    let fresh = flowistry_core::analyze(snapshot.program(), edit.func, snapshot.params());
    let root = tracer.begin("attrib");
    tracer.span("core.theta_decode", || {
        fresh.exit_theta();
    });
    tracer.end(root);
    if envelope.response != served.response {
        return Err("the in-process replay's slice differs from the served one".to_string());
    }
    Ok((stats.analyzed, stats.cache_hits))
}
