//! `query-mix`: IDE reads against a warm server. One client sends every
//! `summary`, `slice`, `slice_at`, `lint` and `policy` request of a fixed
//! population over rg3d's crate functions, in seeded orders; no `results`
//! requests, no front end or fixpoint in the timed loop.

use crate::common::{user_vars, wire_setup, Ctx};
use crate::names::VerbSpans;
use crate::report::Report;
use crate::serve::{run_client, Attrib, Item, Plan};
use crate::util::Rng;
use flowistry_engine::{QueryRequest, QueryResponse};
use flowistry_ifc::{LatticeSpec, Policy};
use flowistry_lang::mir::{BasicBlock, Local, Location, Place};

/// Seeded `slice_at` criteria (place, location) per function.
const SLICE_AT_PER_FN: usize = 4;
/// Requests per op: the reads one IDE action issues, one after another.
/// A single request is a few tens of microseconds of round trip, and its
/// latency moved by a fifth to a half between runs on the two-core test
/// host; an op of 20 requests averages over that.
const BURST: usize = 20;
/// Passes over the ops in the schedule, each in its own seeded order; the
/// client walks the schedule round and round.
const PASSES: usize = 8;
/// The fixed draw that groups the request population into ops.
const GROUPING_STREAM: u64 = 0x0905;

/// The op schedule. The population is grouped into ops of [`BURST`]
/// requests once, by a fixed draw (the last op is filled up from the
/// first requests); every pass then sends each op once, in a fresh order
/// drawn from `rng`. No request kind is weighted: the mix is the population
/// itself, so it needs no claim about real traffic. Every seed runs the
/// same ops, so the latency distribution over a run, its tail included,
/// does not depend on which requests a seed happens to put together.
/// Returns the schedule and the length of one pass.
fn schedule(len: usize, rng: &mut Rng) -> (Vec<usize>, usize) {
    let mut grouped: Vec<usize> = (0..len).collect();
    Rng::new(0, GROUPING_STREAM).shuffle(&mut grouped);
    let ops = len.div_ceil(BURST);
    grouped.extend_from_within(..ops * BURST - len);
    let mut order: Vec<usize> = (0..ops).collect();
    let mut out = Vec::with_capacity(PASSES * grouped.len());
    for _ in 0..PASSES {
        rng.shuffle(&mut order);
        for &op in &order {
            out.extend_from_slice(&grouped[op * BURST..(op + 1) * BURST]);
        }
    }
    (out, grouped.len())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let fx = wire_setup(ctx, "rg3d", report)?;
    let snapshot = fx.service.snapshot();
    let program = snapshot.program().clone();
    let mut rng = Rng::new(ctx.seed, 2);
    let mut items: Vec<Item> = Vec::new();

    for &func in &fx.krate.crate_funcs {
        let body = program.body(func);
        items.push(Item {
            request: QueryRequest::Summary(func),
            expected: QueryResponse::Summary(snapshot.summary(func).cloned()),
            names: VerbSpans::of("summary"),
            attrib: Attrib::None,
        });
        for var in user_vars(&program, func) {
            items.push(Item {
                expected: QueryResponse::BackwardSlice(snapshot.backward_slice(func, &var)),
                request: QueryRequest::BackwardSlice {
                    func,
                    var: var.clone(),
                },
                names: VerbSpans::of("slice"),
                attrib: Attrib::Slice(func, var),
            });
        }
        for _ in 0..SLICE_AT_PER_FN {
            let block = rng.below(body.basic_blocks.len());
            let loc = Location {
                block: BasicBlock(block as u32),
                statement_index: rng.below(body.basic_blocks[block].statements.len() + 1),
            };
            let place = Place::from_local(Local(rng.below(body.local_decls.len()) as u32));
            items.push(Item {
                expected: QueryResponse::BackwardSliceAt(
                    snapshot.backward_slice_at(func, &place, loc),
                ),
                request: QueryRequest::BackwardSliceAt { func, place, loc },
                names: VerbSpans::of("slice_at"),
                attrib: Attrib::None,
            });
        }
        items.push(Item {
            request: QueryRequest::Lint(func),
            expected: QueryResponse::Lint(snapshot.lint(func)),
            names: VerbSpans::of("lint"),
            attrib: Attrib::Lint(func),
        });
    }
    // Policies: one per external function, whose results are Secret, with
    // the next external function as a sink cleared only for Public data.
    // Policy checks are whole-program and their cost differs a lot between
    // policies, so the set is the same for every seed.
    let externals = &fx.krate.external_funcs;
    for (i, &source) in externals.iter().enumerate() {
        let sink = externals[(i + 1) % externals.len()];
        let policy = Policy::default()
            .with_lattice(LatticeSpec::TwoPoint)
            .with_fn_label(program.signature(source).name.clone(), "Secret")
            .with_sink(program.signature(sink).name.clone(), "Public");
        let expected = snapshot
            .check_policy(policy.clone())
            .map_err(|e| format!("policy rejected: {e:?}"))?;
        items.push(Item {
            request: QueryRequest::CheckPolicy(policy.clone()),
            expected: QueryResponse::CheckPolicy(expected),
            names: VerbSpans::of("policy"),
            attrib: Attrib::Policy(policy),
        });
    }
    if ctx.corrupt_oracle {
        items[0].expected = QueryResponse::Error("deliberately corrupted".to_string());
    }
    let n = items.len();
    let (schedule, pass) = schedule(n, &mut Rng::new(ctx.seed, 100));
    let plan = Plan {
        items: &items,
        // Warm-up: every request once.
        warmup: (0..n).collect(),
        schedule,
        pass,
        burst: BURST,
        replay_cap: 100,
    };
    run_client(ctx, &fx, &plan, report);
    fx.server.stop();
    Ok(())
}
