//! The closed-loop query client shared by `query-mix` and `results-pull`:
//! it sends one request, waits for the answer, checks it against the
//! oracle outside the timed window, and sends the next.

use crate::common::{Ctx, WireFixture};
use crate::names::VerbSpans;
use crate::report::Report;
use crate::trace::Tracer;
use crate::wire::WireClient;
use flowistry_core::FunctionSummary;
use flowistry_engine::{QueryRequest, QueryResponse};
use flowistry_ifc::{Policy, PolicyChecker};
use flowistry_lang::types::FuncId;
use flowistry_lint::Linter;
use flowistry_server::codec;
use flowistry_slicer::Slicer;
use std::collections::BTreeMap;
use std::time::Instant;

/// The direct layer call a traced op is attributed to, besides the service.
pub enum Attrib {
    None,
    /// Decode every state of fresh results of the function, as the first
    /// `results` request for it does.
    Decode(FuncId),
    Slice(FuncId, String),
    Lint(FuncId),
    Policy(Policy),
}

/// One request the client can send, with the oracle's answer.
pub struct Item {
    pub request: QueryRequest,
    pub expected: QueryResponse,
    pub names: VerbSpans,
    pub attrib: Attrib,
}

/// How a workload drives the client.
pub struct Plan<'a> {
    pub items: &'a [Item],
    /// Item indices the client sends untimed before the timed loop.
    pub warmup: Vec<usize>,
    /// Item indices of the timed requests; the client walks the list round
    /// and round.
    pub schedule: Vec<usize>,
    /// Requests in one pass of the schedule, which sends every item at
    /// least once; count metrics are taken over the first pass.
    pub pass: usize,
    /// Requests per op: one op sends this many consecutive scheduled
    /// requests, each waiting for the previous answer.
    pub burst: usize,
    /// The server side of at most this many traced ops is replayed.
    pub replay_cap: usize,
}

fn check(item: &Item, got: &QueryResponse) -> Result<(), String> {
    if *got == item.expected {
        Ok(())
    } else {
        Err(format!(
            "`{}` answer differs from the direct snapshot answer",
            codec::encode_request(&item.request)
        ))
    }
}

/// Replays, in process and outside the timed window, what the server does
/// for `item` (decode the request line, answer it through the service,
/// encode the answer), then calls the layer the answer comes from directly.
fn replay(tracer: &mut Tracer, fx: &WireFixture, item: &Item) -> Result<(), String> {
    let names = &item.names;
    let root = tracer.begin(names.replay);
    let line = codec::encode_request(&item.request);
    tracer
        .span(names.decode, || codec::decode_command(&line))
        .map_err(|e| format!("request line: {e}"))?;
    let envelope = tracer.span(names.query, || fx.service.query(item.request.clone()));
    tracer.span(names.encode, || codec::encode_envelope(&envelope));
    tracer.end(root);
    check(item, &envelope.response)?;

    let snapshot = fx.service.snapshot();
    let program = snapshot.program();
    let root = tracer.begin("attrib");
    match &item.attrib {
        Attrib::None => {}
        Attrib::Decode(func) => {
            let fresh = flowistry_core::analyze(program, *func, snapshot.params());
            tracer.span("core.theta_decode", || {
                fresh.raw_parts();
            });
        }
        Attrib::Slice(func, var) => {
            let results = snapshot.results(*func);
            tracer.span("slicer.slice", || {
                Slicer::from_results(program, *func, results).backward_slice_of_var(var)
            });
        }
        Attrib::Lint(func) => {
            let results = snapshot.results(*func);
            let summary = snapshot.summary(*func).cloned().unwrap_or_else(|| {
                FunctionSummary::from_exit_state(program.body(*func), results.exit_theta())
            });
            tracer.span("lint.lint", || {
                Linter::with_call_graph(program, snapshot.call_graph())
                    .lint_function(*func, &summary, &results)
            });
        }
        Attrib::Policy(policy) => {
            let all: Vec<_> = (0..program.bodies.len())
                .map(|i| snapshot.results(FuncId(i as u32)))
                .collect();
            tracer.span("ifc.policy", || -> Result<usize, String> {
                let checker =
                    PolicyChecker::new(program, policy.clone()).map_err(|e| format!("{e:?}"))?;
                Ok(all
                    .iter()
                    .map(|r| checker.check_with_results(r.func(), r).diagnostics.len())
                    .sum())
            })?;
        }
    }
    tracer.end(root);
    Ok(())
}

/// Runs one closed-loop client against the fixture's server, on the
/// calling thread, and records what it measured in `report`.
pub fn run_client(ctx: &Ctx, fx: &WireFixture, plan: &Plan, report: &mut Report) {
    let mut tracer = Tracer::new(false, Instant::now());
    let mut client = match WireClient::connect(&fx.server.addr) {
        Ok(c) => c,
        Err(e) => {
            report.fail(e);
            return;
        }
    };
    for &idx in &plan.warmup {
        let item = &plan.items[idx];
        let outcome = client
            .query(&mut tracer, &item.names, &item.request)
            .and_then(|(envelope, _)| check(item, &envelope.response));
        if let Err(e) = outcome {
            report.fail(format!("warm-up: {e}"));
            return;
        }
    }
    report.ops_per_pass = plan.pass / plan.burst;
    let mut replays: Vec<(u64, &Item)> = Vec::new();
    let mut replayed_ops = 0;
    // Count metrics are taken over the schedule's first pass: the same
    // requests for every seed.
    let pass = plan.pass;
    let mut counted = 0;
    let mut resp: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let schedule = &plan.schedule;
    let mut answers = Vec::with_capacity(plan.burst);
    let started = Instant::now();
    let mut i: u64 = 0;
    while started.elapsed() < ctx.window() || counted < pass {
        let first = i as usize * plan.burst;
        let burst: Vec<&Item> = (first..first + plan.burst)
            .map(|k| &plan.items[schedule[k % schedule.len()]])
            .collect();
        // Shift the traced/untraced alternation by one every time the
        // schedule wraps, so each request is traced as often as not.
        let traced = ctx.traced_op(i + (first / schedule.len()) as u64);
        tracer.set_enabled(traced);
        tracer.set_op(i);
        tracer.reserve(256);
        report.attempted += 1;
        answers.clear();
        let t0 = Instant::now();
        let root = tracer.begin("op");
        let outcome = burst.iter().try_for_each(|item| {
            answers.push(client.query(&mut tracer, &item.names, &item.request)?);
            Ok::<(), String>(())
        });
        tracer.end(root);
        let t1 = Instant::now();
        tracer.set_enabled(false);
        if let Err(e) = outcome {
            report.fail(e);
            break;
        }
        report.record_op(t0, t1, traced);
        for (item, (_, x)) in burst.iter().zip(&answers) {
            if counted < pass {
                counted += 1;
                // An op's bytes, as `burst` requests like this one.
                report
                    .window_bytes
                    .push(((x.sent + x.received) * plan.burst) as f64);
                resp.entry(item.names.verb)
                    .or_default()
                    .push(x.received as f64);
            }
        }
        if traced && replayed_ops < plan.replay_cap {
            replayed_ops += 1;
            replays.extend(burst.iter().map(|item| (i, *item)));
        }
        let checked = burst
            .iter()
            .zip(&answers)
            .try_for_each(|(item, (envelope, _))| check(item, &envelope.response));
        if let Err(e) = checked {
            report.fail(e);
            break;
        }
        i += 1;
    }
    report.peak_rss_mb = fx.server.peak_rss_mb().unwrap_or(0.0);
    // Server-side replays run after the timed window, so their in-process
    // work never competes with a timed op.
    tracer.set_enabled(true);
    for (op, item) in replays {
        tracer.set_op(op);
        if let Err(e) = replay(&mut tracer, fx, item) {
            report.fail(e);
            break;
        }
    }
    report.spans = tracer.into_spans();
    if ctx.trace {
        for (verb, values) in resp {
            report.counts.insert(
                format!("server.resp_bytes.{verb}"),
                crate::util::mean(&values),
            );
        }
    }
}
