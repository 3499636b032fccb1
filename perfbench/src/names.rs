//! Span names that carry a request kind (`server.encode.results`, ...),
//! interned once so spans can keep `&'static str` names.

use crate::report::VERBS;
use std::collections::HashMap;
use std::sync::OnceLock;

const VERB_LAYERS: [&str; 5] = [
    "server.encode",
    "server.decode",
    "server.wire",
    "engine.query",
    "replay",
];

fn table() -> &'static HashMap<(&'static str, &'static str), &'static str> {
    static TABLE: OnceLock<HashMap<(&'static str, &'static str), &'static str>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = HashMap::new();
        for layer in VERB_LAYERS {
            for verb in VERBS {
                let name: &'static str = Box::leak(format!("{layer}.{verb}").into_boxed_str());
                t.insert((layer, verb), name);
            }
        }
        t
    })
}

/// The span name of `layer` for request kind `verb`.
pub fn span_name(layer: &str, verb: &str) -> &'static str {
    let layer = VERB_LAYERS
        .iter()
        .find(|l| **l == layer)
        .unwrap_or_else(|| panic!("unknown span layer {layer}"));
    let verb = VERBS
        .iter()
        .find(|v| **v == verb)
        .unwrap_or_else(|| panic!("unknown verb {verb}"));
    table()[&(*layer, *verb)]
}

/// The span names one request kind uses, resolved ahead of the timed loop.
#[derive(Clone, Copy)]
pub struct VerbSpans {
    pub verb: &'static str,
    pub encode: &'static str,
    pub decode: &'static str,
    pub wire: &'static str,
    pub query: &'static str,
    pub replay: &'static str,
}

impl VerbSpans {
    pub fn of(verb: &str) -> VerbSpans {
        VerbSpans {
            verb: VERBS
                .iter()
                .find(|v| **v == verb)
                .unwrap_or_else(|| panic!("unknown verb {verb}")),
            encode: span_name("server.encode", verb),
            decode: span_name("server.decode", verb),
            wire: span_name("server.wire", verb),
            query: span_name("engine.query", verb),
            replay: span_name("replay", verb),
        }
    }
}
