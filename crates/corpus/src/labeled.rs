//! Labeled Rox programs for the IFC differential evaluation.
//!
//! The policy checker claims noninterference: when it reports a program
//! secure, varying the program's high inputs must not change anything a
//! low sink observes. This generator produces programs against which that
//! claim can be tested end-to-end under the interpreter:
//!
//! * every program carries its policy **in annotations** (`#![lattice(..)]`,
//!   `#[label(..)]`, `#[sink(..)]`, occasional `#[declassify]`) *and* in
//!   **convention-matching names** (`secret_src_N`, `insecure_print_N`,
//!   `secret_inN`), so the annotation-derived policy and the
//!   naming-convention policy describe the same programs;
//! * drivers are scalar-only (`i32` parameters, no reference parameters),
//!   so the interpreter can run them on random inputs without constructing
//!   reference graphs;
//! * each driver records which parameter indices are *high inputs*: the
//!   dedicated seeds feeding secret sources plus explicitly labeled
//!   parameters. Seed parameters appear **only** as arguments to secret
//!   source calls — that invariant is what makes "vary the high inputs,
//!   watch the sinks" a sound oracle, because any flow from a seed into a
//!   sink necessarily passes through a labeled call result the analysis
//!   tracks.

use crate::profiles::DEFAULT_SEED;
use flowistry_lang::CompiledProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Parameters controlling the style of one generated labeled program.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledProfile {
    /// Program name prefix.
    pub name: String,
    /// Number of `#[label(Secret)] fn secret_src_N` producer functions.
    pub num_sources: usize,
    /// Number of unlabeled scalar helper functions.
    pub num_helpers: usize,
    /// Number of `#[sink(Public)] fn insecure_print_N` sink functions.
    pub num_sinks: usize,
    /// Number of driver functions.
    pub num_drivers: usize,
    /// Average number of statement-generating steps per driver.
    pub avg_driver_steps: usize,
    /// Probability that a sink call receives tainted data (an intended
    /// violation).
    pub p_taint_sink: f64,
    /// Probability that a driver step declassifies a tainted value.
    pub p_declassify: f64,
    /// Extra per-profile seed so profiles differ under one global seed.
    pub seed_offset: u64,
}

/// One driver function of a labeled program, with the metadata the
/// differential oracle needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledDriver {
    /// Function name.
    pub name: String,
    /// Indices (0-based) of the driver's high input parameters: secret
    /// seeds and `#[label(Secret)]`-annotated parameters. All parameters
    /// are `i32`.
    pub high_inputs: Vec<usize>,
    /// Total parameter count.
    pub num_params: usize,
    /// Whether the driver contains a `#[declassify]` point. Declassifying
    /// drivers are excluded from the interference oracle (released data
    /// legitimately varies with high inputs).
    pub declassifies: bool,
}

/// A generated labeled program: source, compiled form, and per-driver
/// oracle metadata.
#[derive(Debug, Clone)]
pub struct LabeledProgram {
    /// Program name (`<profile>_<index>`).
    pub name: String,
    /// The generated Rox source.
    pub source: String,
    /// The compiled program.
    pub program: CompiledProgram,
    /// The drivers, in definition order.
    pub drivers: Vec<LabeledDriver>,
    /// Names of the sink functions.
    pub sink_names: Vec<String>,
}

/// The labeled-corpus profiles: a mostly-secure profile, a leaky one, and
/// a declassification-heavy one.
pub fn labeled_profiles() -> Vec<LabeledProfile> {
    let base = |name: &str, p_taint: f64, p_declassify: f64, seed: u64| LabeledProfile {
        name: name.to_string(),
        num_sources: 2,
        num_helpers: 3,
        num_sinks: 2,
        num_drivers: 4,
        avg_driver_steps: 7,
        p_taint_sink: p_taint,
        p_declassify,
        seed_offset: seed,
    };
    vec![
        base("mostly_secure", 0.15, 0.0, 0x11),
        base("leaky", 0.60, 0.0, 0x12),
        base("declassifying", 0.30, 0.25, 0x13),
    ]
}

/// Generates one labeled program.
///
/// # Panics
///
/// Panics if the generated source fails to compile — a generator bug the
/// test suite guards against.
pub fn generate_labeled_program(profile: &LabeledProfile, seed: u64) -> LabeledProgram {
    let mut rng = StdRng::seed_from_u64(seed ^ profile.seed_offset.wrapping_mul(0x9E3779B9));
    let mut source = String::from("#![lattice(two_point)]\n\n");

    for i in 0..profile.num_sources {
        let m = 2 * rng.gen_range(1..8) + 1; // odd, so varying the seed varies the output
        let a = rng.gen_range(0..16);
        let _ = writeln!(
            source,
            "#[label(Secret)]\nfn secret_src_{i}(seed: i32) -> i32 {{ return seed * {m} + {a}; }}\n"
        );
    }
    for i in 0..profile.num_helpers {
        let op1 = ["+", "-", "*"][rng.gen_range(0..3)];
        let op2 = ["+", "-"][rng.gen_range(0..2)];
        let _ = writeln!(
            source,
            "fn mix_{i}(x: i32, y: i32) -> i32 {{ let t = x {op1} y; return t {op2} x; }}\n"
        );
    }
    // Declassification carriers: the functions whose call results get
    // `#[declassify]`-ed (think "hash before logging").
    for i in 0..2 {
        let m = 2 * rng.gen_range(9..16) + 1;
        let _ = writeln!(
            source,
            "fn scramble_{i}(x: i32) -> i32 {{ return x * {m} + {i}; }}\n"
        );
    }
    let mut sink_names = Vec::new();
    for i in 0..profile.num_sinks {
        let _ = writeln!(
            source,
            "#[sink(Public)]\nfn insecure_print_{i}(x: i32) -> i32 {{ return x; }}\n"
        );
        sink_names.push(format!("insecure_print_{i}"));
    }

    let mut drivers = Vec::new();
    for i in 0..profile.num_drivers {
        let (text, driver) = gen_labeled_driver(&format!("drive_{i}"), profile, &mut rng);
        source.push_str(&text);
        source.push('\n');
        drivers.push(driver);
    }

    let program = match flowistry_lang::compile(&source) {
        Ok(p) => p,
        Err(e) => panic!(
            "generated labeled program `{}` failed to compile: {}\n--- source ---\n{}",
            profile.name,
            e.render(&source),
            source
        ),
    };

    LabeledProgram {
        name: profile.name.clone(),
        source,
        program,
        drivers,
        sink_names,
    }
}

/// Generates `count` labeled programs by cycling the profiles under
/// per-program seeds derived from `seed`.
pub fn generate_labeled_corpus(seed: u64, count: usize) -> Vec<LabeledProgram> {
    let profiles = labeled_profiles();
    (0..count)
        .map(|i| {
            let profile = &profiles[i % profiles.len()];
            let mut p = profile.clone();
            p.name = format!("{}_{i}", profile.name);
            generate_labeled_program(&p, seed.wrapping_add(i as u64))
        })
        .collect()
}

/// The default number of programs the differential evaluation checks.
pub const DIFFERENTIAL_PROGRAMS: usize = 210;

/// Convenience: the default-seed differential corpus.
pub fn differential_corpus() -> Vec<LabeledProgram> {
    generate_labeled_corpus(DEFAULT_SEED, DIFFERENTIAL_PROGRAMS)
}

// ---------------------------------------------------------------------------
// driver generation
// ---------------------------------------------------------------------------

struct LabeledState {
    lines: Vec<String>,
    /// Variables carrying only public data (per the generator's own
    /// conservative tracking — the *analysis* verdict is what the oracle
    /// trusts; these pools only steer the mix of flows).
    low: Vec<String>,
    /// Variables tainted by a secret source or labeled parameter.
    high: Vec<String>,
    counter: usize,
    sink_calls: usize,
    declassifies: bool,
}

impl LabeledState {
    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    fn low_expr(&self, rng: &mut StdRng) -> String {
        if self.low.is_empty() || rng.gen_bool(0.2) {
            return rng.gen_range(0..8).to_string();
        }
        let a = self.low[rng.gen_range(0..self.low.len())].clone();
        match rng.gen_range(0..3) {
            0 => a,
            1 => format!("{a} + {}", rng.gen_range(1..5)),
            _ => {
                let b = self.low[rng.gen_range(0..self.low.len())].clone();
                format!("{a} + {b}")
            }
        }
    }

    fn high_var(&self, rng: &mut StdRng) -> String {
        self.high[rng.gen_range(0..self.high.len())].clone()
    }
}

fn gen_labeled_driver(
    name: &str,
    profile: &LabeledProfile,
    rng: &mut StdRng,
) -> (String, LabeledDriver) {
    let num_low = rng.gen_range(1..3);
    let num_seeds = rng.gen_range(1..3);
    let num_labeled = rng.gen_range(0..2);

    let mut params = Vec::new();
    let mut high_inputs = Vec::new();
    let mut seeds = Vec::new();
    let mut st = LabeledState {
        lines: Vec::new(),
        low: Vec::new(),
        high: Vec::new(),
        counter: 0,
        sink_calls: 0,
        declassifies: false,
    };
    for i in 0..num_low {
        params.push(format!("lo{i}: i32"));
        st.low.push(format!("lo{i}"));
    }
    for i in 0..num_seeds {
        // Seeds feed secret sources and nothing else; they are high inputs
        // but deliberately NOT in either variable pool.
        high_inputs.push(params.len());
        params.push(format!("hs{i}: i32"));
        seeds.push(format!("hs{i}"));
    }
    for i in 0..num_labeled {
        high_inputs.push(params.len());
        params.push(format!("#[label(Secret)] secret_in{i}: i32"));
        st.high.push(format!("secret_in{i}"));
    }

    // Taint always exists: start with one secret source call.
    gen_secret_call(&mut st, profile, &seeds, rng);

    let steps = (profile.avg_driver_steps as i64 + rng.gen_range(-2i64..=3i64)).max(3) as usize;
    for _ in 0..steps {
        gen_labeled_step(&mut st, profile, &seeds, rng);
    }
    if st.sink_calls == 0 {
        gen_sink_call(&mut st, profile, rng);
    }

    let ret = {
        let pool: Vec<&String> = st.low.iter().chain(&st.high).collect();
        pool[rng.gen_range(0..pool.len())].clone()
    };

    let mut out = String::new();
    let _ = writeln!(out, "fn {name}({}) -> i32 {{", params.join(", "));
    for line in &st.lines {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "    return {ret};");
    out.push_str("}\n");

    let driver = LabeledDriver {
        name: name.to_string(),
        high_inputs,
        num_params: params.len(),
        declassifies: st.declassifies,
    };
    (out, driver)
}

fn gen_secret_call(
    st: &mut LabeledState,
    profile: &LabeledProfile,
    seeds: &[String],
    rng: &mut StdRng,
) {
    let src = rng.gen_range(0..profile.num_sources);
    let seed = &seeds[rng.gen_range(0..seeds.len())];
    let v = st.fresh("s");
    st.lines
        .push(format!("    let {v} = secret_src_{src}({seed});"));
    st.high.push(v);
}

fn gen_sink_call(st: &mut LabeledState, profile: &LabeledProfile, rng: &mut StdRng) {
    let sink = rng.gen_range(0..profile.num_sinks);
    let tainted = !st.high.is_empty() && rng.gen_bool(profile.p_taint_sink);
    let arg = if tainted {
        st.high_var(rng)
    } else {
        st.low_expr(rng)
    };
    let v = st.fresh("o");
    st.lines
        .push(format!("    let {v} = insecure_print_{sink}({arg});"));
    if tainted {
        st.high.push(v);
    } else {
        st.low.push(v);
    }
    st.sink_calls += 1;
}

fn gen_labeled_step(
    st: &mut LabeledState,
    profile: &LabeledProfile,
    seeds: &[String],
    rng: &mut StdRng,
) {
    if !st.high.is_empty() && rng.gen_bool(profile.p_declassify) {
        // `#[declassify] let d = scramble_k(<tainted>);` — the policy layer
        // relabels the result to bottom, so it may flow anywhere.
        let k = rng.gen_range(0..2);
        let h = st.high_var(rng);
        let v = st.fresh("d");
        st.lines
            .push(format!("    #[declassify] let {v} = scramble_{k}({h});"));
        st.low.push(v);
        st.declassifies = true;
        return;
    }
    match rng.gen_range(0..7) {
        0 => gen_secret_call(st, profile, seeds, rng),
        1 => {
            let v = st.fresh("v");
            let e = st.low_expr(rng);
            st.lines.push(format!("    let {v} = {e};"));
            st.low.push(v);
        }
        2 => {
            // Tainted arithmetic.
            if st.high.is_empty() {
                return;
            }
            let v = st.fresh("t");
            let h = st.high_var(rng);
            let e = st.low_expr(rng);
            st.lines.push(format!("    let {v} = {h} + {e};"));
            st.high.push(v);
        }
        3 => {
            // Helper call; result taint follows the arguments.
            let k = rng.gen_range(0..profile.num_helpers);
            let use_high = !st.high.is_empty() && rng.gen_bool(0.4);
            let a = if use_high {
                st.high_var(rng)
            } else {
                st.low_expr(rng)
            };
            let b = st.low_expr(rng);
            let v = st.fresh("r");
            st.lines.push(format!("    let {v} = mix_{k}({a}, {b});"));
            if use_high {
                st.high.push(v);
            } else {
                st.low.push(v);
            }
        }
        4 => {
            // Branch (implicit flow when the condition is tainted).
            let cond_high = !st.high.is_empty() && rng.gen_bool(0.3);
            let cond = if cond_high {
                format!("{} > 3", st.high_var(rng))
            } else {
                format!("{} > 3", st.low_expr(rng))
            };
            let v = st.fresh("m");
            let e1 = st.low_expr(rng);
            let e2 = st.low_expr(rng);
            st.lines.push(format!("    let mut {v} = {e1};"));
            st.lines.push(format!("    if {cond} {{ {v} = {e2}; }}"));
            if cond_high {
                st.high.push(v);
            } else {
                st.low.push(v);
            }
        }
        5 => {
            // Bounded public loop.
            let i = st.fresh("idx");
            let v = st.fresh("acc");
            let bound = rng.gen_range(2..5);
            let e = st.low_expr(rng);
            st.lines.push(format!("    let mut {v} = 0;"));
            st.lines.push(format!("    let mut {i} = 0;"));
            st.lines.push(format!(
                "    while {i} < {bound} {{ {v} = {v} + {e}; {i} = {i} + 1; }}"
            ));
            st.low.push(v);
        }
        _ => gen_sink_call(st, profile, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_programs_compile_and_carry_annotations() {
        for profile in labeled_profiles() {
            let p = generate_labeled_program(&profile, DEFAULT_SEED);
            assert!(p.source.starts_with("#![lattice(two_point)]"));
            assert!(p.program.ast.lattice.as_deref() == Some("two_point"));
            assert_eq!(p.drivers.len(), profile.num_drivers);
            assert_eq!(p.sink_names.len(), profile.num_sinks);
            for d in &p.drivers {
                assert!(!d.high_inputs.is_empty(), "{}: no high inputs", d.name);
                assert!(d.high_inputs.iter().all(|&i| i < d.num_params));
                assert!(p.program.func_id(&d.name).is_some());
            }
        }
    }

    #[test]
    fn seed_params_feed_only_secret_sources() {
        // The oracle invariant: `hsN` occurs only inside `secret_src_K(hsN)`
        // calls. Check textually over a spread of seeds.
        for seed in 0..24u64 {
            for profile in labeled_profiles() {
                let p = generate_labeled_program(&profile, seed);
                for line in p.source.lines() {
                    if line.starts_with("fn drive_") {
                        continue; // the declaration itself
                    }
                    if let Some(pos) = line.find("hs") {
                        let prefix = &line[..pos];
                        assert!(
                            prefix.ends_with('(') && prefix.contains("secret_src_"),
                            "seed param escapes a secret source call: {line:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let profile = &labeled_profiles()[0];
        let a = generate_labeled_program(profile, 5);
        let b = generate_labeled_program(profile, 5);
        assert_eq!(a.source, b.source);
        let c = generate_labeled_program(profile, 6);
        assert_ne!(a.source, c.source);
    }

    #[test]
    fn corpus_scales_and_declassification_occurs() {
        let corpus = generate_labeled_corpus(DEFAULT_SEED, 30);
        assert_eq!(corpus.len(), 30);
        let declassifying = corpus
            .iter()
            .flat_map(|p| &p.drivers)
            .filter(|d| d.declassifies)
            .count();
        assert!(declassifying > 0, "no driver ever declassifies");
        let drivers: usize = corpus.iter().map(|p| p.drivers.len()).sum();
        assert!(drivers >= 100);
    }
}
