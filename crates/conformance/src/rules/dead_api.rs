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
//! the rule under-reports shared names. A method with a `self` receiver
//! can only be called after `.` or `::`, so only those mentions count for
//! it: a local binding that shares its name is not a call. The rule
//! cannot see a caller outside the token stream either, so an item
//! reached only through a doc example or a generated name, or that a
//! same-file test checks a fast path against (a reference formula), needs
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
         tests (a method only after `.` or `::`); matching is by name, so the rule \
         under-reports"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        // Name → its counted mentions: the file (by index), whether the
        // mention is test code, and whether it follows `.` or `::`.
        let mut uses: BTreeMap<&str, Vec<(usize, bool, bool)>> = BTreeMap::new();
        for (fi, fm) in a.model.files.iter().enumerate() {
            for (t, qualified) in counted_uses(&fm.tokens) {
                let test = a.is_test_line(&fm.rel, t.line);
                uses.entry(&t.text).or_default().push((fi, test, qualified));
            }
        }
        let mut out = Vec::new();
        for (fi, fm) in a.model.files.iter().enumerate() {
            if !is_library_source(&fm.rel) {
                continue;
            }
            for (kind, name, method) in pub_items(&fm.tokens) {
                if a.is_test_line(&fm.rel, name.line) {
                    continue;
                }
                let used = uses.get(name.text.as_str()).is_some_and(|u| {
                    u.iter()
                        .any(|&(f, test, qualified)| (f != fi || !test) && (qualified || !method))
                });
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
/// definition names and the tokens of `use` declarations, each with
/// whether it follows `.` or `::` (the only place a method is called).
fn counted_uses(toks: &[Tok]) -> impl Iterator<Item = (&Tok, bool)> {
    let mut in_use = false;
    toks.iter().enumerate().filter_map(move |(i, t)| {
        if in_use {
            in_use = !t.is_punct(";");
            return None;
        }
        in_use = t.is_ident("use");
        if t.kind != TokKind::Ident || in_use || is_definition_name(toks, i) {
            return None;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        Some((t, prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::"))))
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

/// The `pub` items of a token stream, as (kind, name token, whether it
/// is a method with a `self` receiver). `pub(crate)` and other restricted
/// visibilities are not public API.
fn pub_items(toks: &[Tok]) -> Vec<(&'static str, &Tok, bool)> {
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
            out.push((*kind, name, *kind == "fn" && has_self_receiver(&toks[j + 2..])));
        }
    }
    out
}

/// Whether the tokens after a fn's name (generics, then the parameter
/// list) open with a `self` receiver: `self`, `&self`, `&'a mut self`,
/// `mut self: Box<Self>`, ….
fn has_self_receiver(after_name: &[Tok]) -> bool {
    let mut depth = 0i32;
    let Some(open) = after_name.iter().position(|t| {
        depth += match t.text.as_str() {
            "<" => 1,
            ">" => -1,
            ">>" => -2,
            _ => 0,
        };
        depth == 0 && t.is_punct("(")
    }) else {
        return false;
    };
    after_name[open + 1..]
        .iter()
        .find(|t| !(t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime))
        .is_some_and(|t| t.is_ident("self"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn qualified_and_restricted_items() {
        let toks = lex("pub const fn a() {} pub unsafe extern \"C\" fn b() {} \
                        pub(crate) fn c() {} pub const D: u8 = 0; pub struct E;");
        let items: Vec<_> =
            pub_items(&toks).iter().map(|(k, t, _)| (*k, t.text.as_str())).collect();
        assert_eq!(items, [("fn", "a"), ("fn", "b"), ("const", "D"), ("struct", "E")]);
    }

    #[test]
    fn methods_are_the_fns_with_a_self_receiver() {
        let toks = lex("pub fn a(&self) {} pub fn b<F: Fn(u8) -> u8>(&'a mut self, f: F) {} \
                        pub fn c(x: Self) {} pub fn d() {} pub fn e(mut self: Box<Self>) {}");
        let items: Vec<_> =
            pub_items(&toks).iter().map(|(_, t, m)| (t.text.as_str(), *m)).collect();
        assert_eq!(items, [("a", true), ("b", true), ("c", false), ("d", false), ("e", true)]);
    }

    #[test]
    fn definition_names_and_use_lines_are_not_uses() {
        let toks = lex("use a::b; fn f(p: *const T) -> S { g() }");
        let uses: Vec<_> = counted_uses(&toks).map(|(t, _)| t.text.as_str()).collect();
        for used in ["p", "T", "S", "g"] {
            assert!(uses.contains(&used), "{used} is a use");
        }
        for unused in ["a", "b", "f"] {
            assert!(!uses.contains(&unused), "{unused} is not a use");
        }
    }
}
