//! The benchmark runner.
//!
//! ```text
//! perfbench --workload <corpus-cold|edit-loop|query-mix|results-pull>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --server <path to flow-server> --work-dir <dir> [--corrupt-oracle]
//! ```
//!
//! Prints one line per metric (name, value, unit), then, as the last line,
//! a JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 1 if any op failed or any answer differed from the
//! oracle, 2 on bad arguments.

mod common;
mod corpus_cold;
mod edit_loop;
mod host;
mod names;
mod query_mix;
mod report;
mod results_pull;
mod serve;
mod trace;
mod util;
mod wire;

use common::Ctx;
use report::{Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// Per workload: the fixed tail percentile reported as `tail_ms`, the
/// highest of p75, p80, p85, p90, p95, p99 and p99.9 that leaves at least
/// ten timed ops beyond it in a 22-second run on a two-core host, also when
/// the host runs a third slower (the test host timed 60 to 72, 300 to 370,
/// 4200 to 5700 and 160 to 180 ops).
const WORKLOADS: [(&str, f64); 4] = [
    ("corpus-cold", 75.0),
    ("edit-loop", 90.0),
    ("query-mix", 99.0),
    ("results-pull", 85.0),
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --server <flow-server> --work-dir <dir> [--corrupt-oracle]",
        WORKLOADS.map(|(w, _)| w).join("|")
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut corrupt_oracle = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-oracle" {
            corrupt_oracle = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|(w, _)| w == value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--server" => server_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(&(workload, tail_pct)), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let (Some(server_bin), Some(work_dir)) = (server_bin, work_dir) else {
        return usage("--server and --work-dir are required");
    };
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        return usage(&format!("cannot create {}: {e}", work_dir.display()));
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        corrupt_oracle,
        server_bin,
        work_dir,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    let mut report = Report::default();
    // A wire workload runs client, server and in-process oracle on one
    // CPU: a request then never waits for the hypervisor to wake an idle
    // second CPU, and that CPU's steal counter covers the whole op.
    // `corpus-cold` uses every CPU and reads the machine's steal counter.
    if workload != "corpus-cold" {
        if let Err(e) = report.host.pin(ctx.threads - 1) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for _ in 0..5 {
        report.host.probe();
    }
    let outcome = match workload {
        "corpus-cold" => corpus_cold::run(&ctx, &mut report),
        "edit-loop" => edit_loop::run(&ctx, &mut report),
        "query-mix" => query_mix::run(&ctx, &mut report),
        "results-pull" => results_pull::run(&ctx, &mut report),
        _ => unreachable!("workload names come from WORKLOADS"),
    };
    for _ in 0..5 {
        report.host.probe();
    }
    if let Err(e) = outcome {
        report.fail(e);
    }

    let metrics: Vec<Metric> = if trace {
        report::per_layer(&report)
    } else {
        report::end_to_end(&report, tail_pct)
    };
    let sum = report::layer_sum(&report.spans);
    let mut correct = report.failed == 0 && report.attempted > 0;
    if trace {
        let share = sum.violations as f64 / sum.ops.max(1) as f64;
        eprintln!(
            "layer-sum check: {}/{} traced ops leave more than {:.0}% (or {} us) of the op \
             outside layer spans; largest gap {:.1} us",
            sum.violations,
            sum.ops,
            report::SUM_TOL_SHARE * 100.0,
            report::SUM_TOL_US,
            sum.max_gap_us
        );
        if sum.ops == 0 || share > report::SUM_MAX_VIOLATION_SHARE {
            eprintln!("layer-sum check failed");
            correct = false;
        }
    }
    if let Some(why) = &report.first_failure {
        eprintln!(
            "perfbench: {workload}: {} failed op(s); first: {why}",
            report.failed
        );
    }

    println!(
        "# {workload} seed={seed} seconds={seconds} trace={} ops={} traced_ops={} \
         tail=p{tail_pct} threads={}",
        u8::from(trace),
        report.lat_ms.len(),
        report.traced_lat_ms.len(),
        ctx.threads
    );
    println!(
        "# host: probe_ms={:.4} (reference {}) steal_pct={:.2}; wall time, not host-adjusted: \
         setup_s={:.4} p50_ms={:.4} tail_ms={:.4}",
        util::median(&report.host.probe_ms()),
        host::REF_MS,
        report.host.steal_share(0.0, f64::INFINITY) * 100.0,
        util::median(&report.setup_s),
        report::segmented_percentile(&report.lat_ms, 50.0, report.ops_per_pass),
        report::segmented_percentile(&report.lat_ms, tail_pct, report.ops_per_pass),
    );
    for m in &metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
