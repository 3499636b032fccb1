//! What one run measured, and how it turns into the printed metrics.

use crate::host::HostSpeed;
use crate::trace::{self_times_ns, Span};
use crate::util::{mean, median, percentile};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The request kinds that cross the wire, in the order metrics list them.
pub const VERBS: [&str; 7] = [
    "summary", "slice", "slice_at", "lint", "policy", "results", "update",
];

/// A traced op passes the layer-sum check when the time its root span does
/// not hand to a layer span is at most this share of the op...
pub const SUM_TOL_SHARE: f64 = 0.05;
/// ...or at most this many microseconds, whichever is larger (a few span
/// pushes cost a few microseconds on their own).
pub const SUM_TOL_US: f64 = 20.0;
/// The run fails if more than this share of traced ops fail the layer-sum
/// check: a preemption that lands between two spans can push one op over.
pub const SUM_MAX_VIOLATION_SHARE: f64 = 0.01;

/// The timed ops of a run are cut, in the order they ran, into this many
/// segments. `p50_ms` and `tail_ms` are medians over the segments of each
/// segment's percentile, so a slow host phase that covers fewer than half
/// the segments leaves them unchanged. On the two-core test host steal came
/// in bursts of 10 to 60 seconds at 5 to 18% of CPU time; with whole-run
/// percentiles such bursts spread `tail_ms` over ten runs by up to 0.31.
pub const SEGMENTS: usize = 5;

/// The median over [`SEGMENTS`] consecutive segments of `lat_ms` of each
/// segment's `q` percentile. A workload's schedule repeats in passes of
/// `per_pass` ops that each hold every kind of op once, so segments are
/// cut at pass boundaries and ops after the last whole pass are left out:
/// every segment then holds the same mix of ops. With fewer whole passes
/// than segments, each segment is one pass; with no whole pass, this is
/// the plain percentile of every op.
pub fn segmented_percentile(lat_ms: &[f64], q: f64, per_pass: usize) -> f64 {
    let passes = lat_ms.len() / per_pass.max(1);
    if passes == 0 {
        return percentile(lat_ms, q);
    }
    let segments = passes.min(SEGMENTS);
    let per_segment: Vec<f64> = (0..segments)
        .map(|k| {
            let (a, b) = (k * passes / segments, (k + 1) * passes / segments);
            percentile(&lat_ms[a * per_pass.max(1)..b * per_pass.max(1)], q)
        })
        .collect();
    median(&per_segment)
}

/// `times`, each scaled by the host-speed factor of the interval in `at`
/// it was measured over.
pub fn host_adjusted(times: &[f64], at: &[(f64, f64)], host: &HostSpeed) -> Vec<f64> {
    times
        .iter()
        .zip(at)
        .map(|(t, &(t0, t1))| t * host.factor(t0, t1))
        .collect()
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// When each set-up repetition ran, in seconds on the probe's clock.
    pub setup_at: Vec<(f64, f64)>,
    /// Latency of every timed untraced op, in ms, in the order they ran.
    pub lat_ms: Vec<f64>,
    /// When each op of `lat_ms` ran, in seconds on the probe's clock.
    pub lat_at: Vec<(f64, f64)>,
    /// Ops in one pass of the workload's schedule (see
    /// [`segmented_percentile`]); 0 reads as 1.
    pub ops_per_pass: usize,
    /// Latency of every timed traced op, in ms.
    pub traced_lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first failure or oracle mismatch, if any.
    pub first_failure: Option<String>,
    pub peak_rss_mb: f64,
    /// Request plus response bytes of each op in the count window.
    pub window_bytes: Vec<f64>,
    /// Spans of the traced ops.
    pub spans: Vec<Span>,
    /// Count metrics the workload computed itself (deterministic).
    pub counts: BTreeMap<String, f64>,
    /// Host-speed probe samples taken between set-ups and ops.
    pub host: HostSpeed,
}

impl Report {
    /// Records a set-up repetition that started at `t0` and ends now, and
    /// probes the host after it.
    pub fn record_setup(&mut self, t0: Instant) {
        let t1 = Instant::now();
        self.setup_s.push((t1 - t0).as_secs_f64());
        self.setup_at.push((self.host.at(t0), self.host.at(t1)));
        self.host.probe();
    }

    /// Records a timed op that ran from `t0` to `t1`, and probes the host
    /// if a probe is due.
    pub fn record_op(&mut self, t0: Instant, t1: Instant, traced: bool) {
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        if traced {
            self.traced_lat_ms.push(ms);
        } else {
            self.lat_ms.push(ms);
            self.lat_at.push((self.host.at(t0), self.host.at(t1)));
        }
        self.host.tick();
    }

    /// Records a failed or mismatched op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(report: &Report, tail_pct: f64) -> Vec<Metric> {
    let ok_share = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    let setup_s = host_adjusted(&report.setup_s, &report.setup_at, &report.host);
    let lat_ms = host_adjusted(&report.lat_ms, &report.lat_at, &report.host);
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "p50_ms",
            segmented_percentile(&lat_ms, 50.0, report.ops_per_pass),
            "ms",
        ),
        metric(
            "tail_ms",
            segmented_percentile(&lat_ms, tail_pct, report.ops_per_pass),
            "ms",
        ),
        metric("peak_rss_mb", report.peak_rss_mb, "MB"),
        metric("wire_kb", mean(&report.window_bytes) / 1024.0, "KB"),
        metric("ok_share", ok_share, "ratio"),
    ]
}

/// Per-op totals: for each op id, the summed self time (ns), summed
/// duration (ns) and number of the spans with each name.
struct OpTotals {
    self_ns: HashMap<&'static str, u64>,
    dur_ns: HashMap<&'static str, u64>,
    count: HashMap<&'static str, u64>,
}

/// Outcome of the layer-sum check over the traced ops.
pub struct LayerSum {
    pub ops: usize,
    pub violations: usize,
    /// Median share of an op's latency that no layer span covers.
    pub unattributed_share: f64,
    /// Largest uncovered time of any op, in microseconds.
    pub max_gap_us: f64,
}

/// Checks, for every traced op, that the self times of the layer spans
/// under its `op` root add up to the op's latency: the root's own self
/// time must stay within the recorded tolerance.
pub fn layer_sum(spans: &[Span]) -> LayerSum {
    let self_ns = self_times_ns(spans);
    let mut shares = Vec::new();
    let mut violations = 0;
    let mut max_gap_us: f64 = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if s.name != "op" || s.parent.is_some() {
            continue;
        }
        let dur = s.dur_ns() as f64;
        let gap = self_ns[i] as f64;
        shares.push(if dur > 0.0 { gap / dur } else { 0.0 });
        max_gap_us = max_gap_us.max(gap / 1e3);
        if gap > (SUM_TOL_SHARE * dur).max(SUM_TOL_US * 1e3) {
            violations += 1;
        }
    }
    LayerSum {
        ops: shares.len(),
        violations,
        unattributed_share: median(&shares),
        max_gap_us,
    }
}

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("lang.parse_ms", "ms"),
        ("lang.typeck_ms", "ms"),
        ("lang.lower_ms", "ms"),
        ("lang.regions_ms", "ms"),
        ("lang.borrowck_ms", "ms"),
        ("core.analyze_ms", "ms"),
        ("core.fn_us_p50", "us"),
        ("core.iterations", "count"),
        ("core.theta_decode_ms", "ms"),
        ("engine.overhead_ms", "ms"),
        ("engine.update_ms", "ms"),
        ("engine.dirty_fns", "count"),
        ("engine.hit_ratio", "ratio"),
        ("slicer.slice_us", "us"),
        ("lint.lint_us", "us"),
        ("ifc.policy_us", "us"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for verb in VERBS {
        if verb != "update" {
            out.push((format!("engine.query_us.{verb}"), "us"));
        }
    }
    for (layer, unit) in [
        ("encode_us", "us"),
        ("decode_us", "us"),
        ("wire_us", "us"),
        ("resp_bytes", "bytes"),
    ] {
        for verb in VERBS {
            out.push((format!("server.{layer}.{verb}"), unit));
        }
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out.push(("trace.unattributed_pct".to_string(), "%"));
    out.push(("host.ref_ms".to_string(), "ms"));
    out.push(("host.steal_pct".to_string(), "%"));
    out
}

/// The per-layer metrics of a traced run. Layers a workload does not
/// exercise read 0.
pub fn per_layer(report: &Report) -> Vec<Metric> {
    let self_ns = self_times_ns(&report.spans);
    let mut by_op: BTreeMap<u64, OpTotals> = BTreeMap::new();
    let mut per_call: HashMap<&str, Vec<f64>> = HashMap::new();
    for (s, &own) in report.spans.iter().zip(&self_ns) {
        let t = by_op.entry(s.op).or_insert_with(|| OpTotals {
            self_ns: HashMap::new(),
            dur_ns: HashMap::new(),
            count: HashMap::new(),
        });
        *t.self_ns.entry(s.name).or_default() += own;
        *t.dur_ns.entry(s.name).or_default() += s.dur_ns();
        *t.count.entry(s.name).or_default() += 1;
        per_call.entry(s.name).or_default().push(own as f64);
    }
    // Median over the ops that ran span `name`, of the op's summed self
    // time in it, scaled from ns.
    let per_op = |name: &str, scale: f64| -> f64 {
        let v: Vec<f64> = by_op
            .values()
            .filter_map(|t| t.self_ns.get(name))
            .map(|&ns| ns as f64 / scale)
            .collect();
        median(&v)
    };
    let mut values: HashMap<String, f64> = HashMap::new();
    for (metric, span, scale) in [
        ("lang.parse_ms", "lang.parse", 1e6),
        ("lang.typeck_ms", "lang.typeck", 1e6),
        ("lang.lower_ms", "lang.lower", 1e6),
        ("lang.regions_ms", "lang.regions", 1e6),
        ("lang.borrowck_ms", "lang.borrowck", 1e6),
        ("core.analyze_ms", "core.fn", 1e6),
        ("core.theta_decode_ms", "core.theta_decode", 1e6),
        ("engine.update_ms", "engine.update", 1e6),
    ] {
        values.insert(metric.to_string(), per_op(span, scale));
    }
    // Per call: the median over every call of the layer's function.
    for (metric, span, scale) in [
        ("core.fn_us_p50", "core.fn", 1e3),
        ("slicer.slice_us", "slicer.slice", 1e3),
        ("lint.lint_us", "lint.lint", 1e3),
        ("ifc.policy_us", "ifc.policy", 1e3),
    ] {
        let calls = per_call.get(span).map(Vec::as_slice).unwrap_or(&[]);
        values.insert(metric.to_string(), median(calls) / scale);
    }
    // Engine overhead: the one-thread engine run minus the summed
    // per-function fixpoint replay of the same op.
    let overhead: Vec<f64> = by_op
        .values()
        .filter_map(|t| {
            let engine = *t.dur_ns.get("engine.analyze_1t")?;
            let core = t.dur_ns.get("core.fn").copied().unwrap_or(0);
            Some((engine as f64 - core as f64) / 1e6)
        })
        .collect();
    values.insert("engine.overhead_ms".to_string(), median(&overhead));
    // Per request kind, over the ops whose server side was replayed: an op
    // may send several requests of one kind, so each op contributes its
    // per-request mean, in microseconds.
    for verb in VERBS {
        let name = |layer: &str| crate::names::span_name(layer, verb);
        let per_request = |f: &dyn Fn(&OpTotals) -> f64| -> f64 {
            let v: Vec<f64> = by_op
                .values()
                .filter_map(|t| {
                    let n = *t.count.get(name("replay"))?;
                    Some(f(t) / n as f64 / 1e3)
                })
                .collect();
            median(&v)
        };
        let get = |m: &HashMap<&str, u64>, layer: &str| -> f64 {
            m.get(name(layer)).copied().unwrap_or(0) as f64
        };
        values.insert(
            format!("engine.query_us.{verb}"),
            per_request(&|t| get(&t.dur_ns, "engine.query")),
        );
        values.insert(
            format!("server.encode_us.{verb}"),
            per_request(&|t| get(&t.self_ns, "server.encode")),
        );
        values.insert(
            format!("server.decode_us.{verb}"),
            per_request(&|t| get(&t.self_ns, "server.decode")),
        );
        // What the socket round trip spent outside the server-side work
        // replayed in process (request decode, service, response encode).
        values.insert(
            format!("server.wire_us.{verb}"),
            per_request(&|t| get(&t.dur_ns, "server.wire") - get(&t.dur_ns, "replay")),
        );
    }
    for (k, v) in &report.counts {
        values.insert(k.clone(), *v);
    }
    let sum = layer_sum(&report.spans);
    values.insert(
        "trace.unattributed_pct".to_string(),
        sum.unattributed_share * 100.0,
    );
    let untraced = median(&report.lat_ms);
    let traced = median(&report.traced_lat_ms);
    values.insert(
        "trace.overhead_pct".to_string(),
        if untraced > 0.0 {
            (traced / untraced - 1.0) * 100.0
        } else {
            0.0
        },
    );
    values.insert("host.ref_ms".to_string(), median(&report.host.probe_ms()));
    values.insert(
        "host.steal_pct".to_string(),
        report.host.steal_share(0.0, f64::INFINITY) * 100.0,
    );
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            metric(name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn segment_medians_ignore_a_burst_in_two_segments() {
        // 50 ops at 10 ms, with segments 2 and 3 (ops 10..30) slowed to
        // 30 ms, as a steal burst over two fifths of a run would.
        let lat: Vec<f64> = (0..50)
            .map(|i| if (10..30).contains(&i) { 30.0 } else { 10.0 })
            .collect();
        assert_eq!(segmented_percentile(&lat, 50.0, 1), 10.0);
        assert_eq!(segmented_percentile(&lat, 90.0, 1), 10.0);
        // The whole-run percentiles move with the burst.
        assert_eq!(percentile(&lat, 90.0), 30.0);
        assert_eq!(segmented_percentile(&[3.0, 1.0, 2.0], 50.0, 1), 2.0);
        assert_eq!(segmented_percentile(&[3.0, 1.0, 2.0], 50.0, 4), 2.0);
    }

    #[test]
    fn segments_hold_whole_passes() {
        // Passes of one cheap and one dear op, plus a cheap op of a
        // sixth, unfinished pass: every segment holds one whole pass and
        // the leftover op is dropped.
        let mut lat: Vec<f64> = [1.0, 9.0].repeat(5);
        lat.push(1.0);
        assert_eq!(segmented_percentile(&lat, 50.0, 2), 5.0);
        assert_eq!(percentile(&lat, 50.0), 1.0);
    }

    #[test]
    fn layer_sum_flags_ops_whose_layers_miss_time() {
        let spans = vec![
            // Fully covered: 1 ms op, layers cover all but 1 us.
            span("op", 0, 1_000_000, None, 0),
            span("server.wire.summary", 1_000, 1_000_000, Some(0), 0),
            // Half of a 1 ms op outside any layer span.
            span("op", 2_000_000, 3_000_000, None, 1),
            span("server.wire.summary", 2_000_000, 2_500_000, Some(2), 1),
            // Replay roots do not count as ops.
            span("replay.summary", 4_000_000, 5_000_000, None, 1),
        ];
        let sum = layer_sum(&spans);
        assert_eq!(sum.ops, 2);
        assert_eq!(sum.violations, 1);
    }

    #[test]
    fn wire_time_excludes_the_replayed_server_work() {
        let spans = vec![
            span("op", 0, 100_000, None, 3),
            span("server.wire.lint", 0, 100_000, Some(0), 3),
            span("replay.lint", 200_000, 270_000, None, 3),
        ];
        let report = Report {
            spans,
            ..Report::default()
        };
        let wire = per_layer(&report)
            .into_iter()
            .find(|m| m.name == "server.wire_us.lint")
            .expect("wire metric listed");
        assert_eq!(wire.value, 30.0);
    }
}
