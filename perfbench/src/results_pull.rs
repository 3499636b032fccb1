//! `results-pull`: bulk consumers of full results. One client pulls
//! `results` for rav1e's driver functions in a seeded order, so almost all
//! of an op is the results codec's encode and decode.

use crate::common::{funcs_named, wire_setup, Ctx};
use crate::names::VerbSpans;
use crate::report::Report;
use crate::serve::{run_client, Attrib, Item, Plan};
use crate::util::Rng;
use flowistry_engine::{QueryRequest, QueryResponse};

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let fx = wire_setup(ctx, "rav1e", report)?;
    let snapshot = fx.service.snapshot();
    let mut drivers = funcs_named(&fx.krate, "drive_");
    Rng::new(ctx.seed, 3).shuffle(&mut drivers);
    let mut items: Vec<Item> = drivers
        .iter()
        .map(|&func| Item {
            request: QueryRequest::Results(func),
            expected: QueryResponse::Results(snapshot.results(func)),
            names: VerbSpans::of("results"),
            attrib: Attrib::Decode(func),
        })
        .collect();
    if ctx.corrupt_oracle {
        items[0].expected = QueryResponse::Error("deliberately corrupted".to_string());
    }
    // The timed loop walks the seeded order round and round; the warm-up
    // pass pulls each driver once, so first-touch decoding is not timed.
    let n = items.len();
    let plan = Plan {
        items: &items,
        warmup: (0..n).collect(),
        schedule: (0..n).collect(),
        pass: n,
        burst: 1,
        // Each replay re-encodes a ~1 MB answer; a sample suffices.
        replay_cap: 16,
    };
    run_client(ctx, &fx, &plan, report);
    fx.server.stop();
    Ok(())
}
