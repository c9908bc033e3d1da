//! The dead-API auditor.
//!
//! A `pub` item that nothing calls is code every reader still has to read,
//! every refactor still has to carry, and every test still has to keep
//! green. This rule flags each `pub` fn, method, struct, enum, trait or
//! const declared in a library crate's `src/` (outside `src/bin/` and
//! `src/main.rs`) whose name no token uses anywhere else in the workspace.
//!
//! Three kinds of mention do not count as a use: the item's own
//! definition (any `fn`/`struct`/... name token), `use`/`pub use` lines,
//! and the `#[cfg(test)]` code of the file that defines the item, so an
//! item kept alive only by its own unit tests is still dead. Every other
//! file counts, test or not: bins, examples, integration tests and
//! perfbench are callers.
//!
//! Matching is by name, not by resolved path, so a name that two items
//! share (`new`, `snapshot`, `len`) counts as used whenever either is:
//! the rule under-reports shared names. It cannot see a caller outside
//! the token stream either, so an item reached only through a doc example
//! or a generated name, or that a same-file test checks a fast path
//! against (a reference formula), needs
//! `// conformance:allow(dead-api): <the caller>` on or above its
//! definition line.

use std::collections::BTreeMap;

use super::{Rule, Violation};
use crate::lexer::{Tok, TokKind};
use crate::Analysis;

pub struct DeadApi;

/// Keywords whose following identifier is a definition, not a use.
const DEFINERS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "const", "static", "type", "union", "mod"];

/// The item kinds the rule audits.
const AUDITED: [&str; 5] = ["fn", "struct", "enum", "trait", "const"];

impl Rule for DeadApi {
    fn name(&self) -> &'static str {
        "dead-api"
    }
    fn description(&self) -> &'static str {
        "every pub fn, method, struct, enum, trait or const in a library crate's src/ \
         must be named somewhere outside its definition, use lines and its own file's \
         tests; matching is by name, so the rule under-reports"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        // Name → the files (by index) whose counted tokens mention it, and
        // whether any of those mentions is outside test code.
        let mut uses: BTreeMap<&str, Vec<(usize, bool)>> = BTreeMap::new();
        for (fi, fm) in a.model.files.iter().enumerate() {
            for t in counted_uses(&fm.tokens) {
                uses.entry(&t.text).or_default().push((fi, a.is_test_line(&fm.rel, t.line)));
            }
        }
        let mut out = Vec::new();
        for (fi, fm) in a.model.files.iter().enumerate() {
            if !is_library_source(&fm.rel) {
                continue;
            }
            for (kind, name) in pub_items(&fm.tokens) {
                if a.is_test_line(&fm.rel, name.line) {
                    continue;
                }
                let used = uses
                    .get(name.text.as_str())
                    .is_some_and(|u| u.iter().any(|&(f, test)| f != fi || !test));
                if !used {
                    out.push(Violation {
                        rule: "dead-api",
                        file: fm.rel.clone(),
                        line: name.line,
                        message: format!(
                            "`pub {kind} {}` is named nowhere outside its definition, `use` \
                             lines and this file's tests; delete it, or name its caller in a \
                             conformance:allow comment",
                            name.text
                        ),
                    });
                }
            }
        }
        out
    }
}

/// A `crates/<name>/src/` file that is part of the library target.
fn is_library_source(rel: &str) -> bool {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    let Some((_, path)) = rest.split_once('/') else {
        return false;
    };
    path.starts_with("src/") && !path.starts_with("src/bin/") && path != "src/main.rs"
}

/// The identifier tokens that count as uses: every identifier except
/// definition names and the tokens of `use` declarations.
fn counted_uses(toks: &[Tok]) -> impl Iterator<Item = &Tok> {
    let mut in_use = false;
    toks.iter().enumerate().filter_map(move |(i, t)| {
        if in_use {
            in_use = !t.is_punct(";");
            return None;
        }
        in_use = t.is_ident("use");
        (t.kind == TokKind::Ident && !in_use && !is_definition_name(toks, i)).then_some(t)
    })
}

/// Whether `toks[i]` is the name a definition introduces.
fn is_definition_name(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return false;
    };
    // `*const T` names a type; it defines nothing.
    let raw_pointer = prev.is_ident("const") && i >= 2 && toks[i - 2].is_punct("*");
    DEFINERS.iter().any(|d| prev.is_ident(d)) && !raw_pointer
}

/// The `pub` items of a token stream, as (kind, name token). `pub(crate)`
/// and other restricted visibilities are not public API.
fn pub_items(toks: &[Tok]) -> Vec<(&'static str, &Tok)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // Skip qualifiers: `pub const fn`, `pub unsafe fn`, `pub async fn`,
        // `pub extern "C" fn`. A `const` before anything else is the item.
        const QUALIFIERS: [&str; 4] = ["fn", "unsafe", "async", "extern"];
        let mut j = i + 1;
        while toks.get(j).is_some_and(|q| {
            let next_qualifies =
                toks.get(j + 1).is_some_and(|n| QUALIFIERS.iter().any(|k| n.is_ident(k)));
            QUALIFIERS[1..].iter().any(|k| q.is_ident(k))
                || q.kind == TokKind::Str
                || (q.is_ident("const") && next_qualifies)
        }) {
            j += 1;
        }
        let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) else {
            continue;
        };
        if name.kind != TokKind::Ident {
            continue;
        }
        if let Some(kind) = AUDITED.iter().find(|k| kw.is_ident(k)) {
            out.push((*kind, name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn qualified_and_restricted_items() {
        let toks = lex("pub const fn a() {} pub unsafe extern \"C\" fn b() {} \
                        pub(crate) fn c() {} pub const D: u8 = 0; pub struct E;");
        let items: Vec<_> = pub_items(&toks).iter().map(|(k, t)| (*k, t.text.as_str())).collect();
        assert_eq!(items, [("fn", "a"), ("fn", "b"), ("const", "D"), ("struct", "E")]);
    }

    #[test]
    fn definition_names_and_use_lines_are_not_uses() {
        let toks = lex("use a::b; fn f(p: *const T) -> S { g() }");
        let uses: Vec<_> = counted_uses(&toks).map(|t| t.text.as_str()).collect();
        for used in ["p", "T", "S", "g"] {
            assert!(uses.contains(&used), "{used} is a use");
        }
        for unused in ["a", "b", "f"] {
            assert!(!uses.contains(&unused), "{unused} is not a use");
        }
    }
}
