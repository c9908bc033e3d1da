//! Synthetic crate for the allow-comment audit: one used allow, one stale,
//! one naming no rule, one without a reason, and quoted markers such as
//! conformance:allow(determinism): in docs, which are prose. Never compiled.

// conformance:allow(determinism): the one finding this file suppresses
use std::collections::HashMap;

// conformance:allow(panic-safety): stale, this line and the next are clean
fn count(n: usize) -> usize {
    n
}

// conformance:allow(no-such-rule): names no registered rule
fn twice(n: usize) -> usize {
    n * 2
}

/// A doc comment quoting conformance:allow(panic-safety): prose.
fn quoted() -> &'static str {
    "// conformance:allow(panic-safety): a string, not a marker"
}

fn fallible(v: Option<u32>) -> u32 {
    // conformance:allow(panic-safety)
    v.unwrap()
}
