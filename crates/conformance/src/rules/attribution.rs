//! The attribution-totality lint.
//!
//! The stall-attribution contract (DESIGN.md §11) is that every stage
//! tick charges *exactly one* breakdown bucket per cycle — the Fig. 9
//! fractions only sum to 1 if no path through `tick()` charges zero or
//! two buckets. A sleeping lane does not tick: when it wakes, or wherever
//! its counters are read, each stage's `replay_stall(n)` charges the `n`
//! cycles it slept to the one bucket its last tick charged, in a single
//! bulk `.charge_cycles(class, n)`. So the same shape holds there, with the
//! bulk charge in place of the single one. This rule checks the shape
//! statically for both methods of every sim-state struct holding a
//! `StageBreakdown`/`CycleBreakdown` field, where "the charge" is
//! `.charge(...)` in `tick` and `.charge_cycles(...)` in `replay_stall`:
//!
//! * the method must contain at least one call of its charge;
//! * no `?` operator (it exits without charging);
//! * every `return` must be immediately preceded by the charge and `;`;
//! * the body's final statement must be the charge;
//! * every charge must be the last action on its path — the call is
//!   followed by `;` and then either `return` or the end of the body.
//!
//! Together these force the "charge once, then leave" discipline the
//! stages follow. A single `.charge(...)` in `replay_stall` would charge
//! one of the `n` owed cycles, so it does not count there. A path the lint
//! cannot prove (e.g. a charge inside a loop by design) takes the usual
//! `conformance:allow` escape.

use super::{sim_state_models, Rule, Violation};
use crate::lexer::Tok;
use crate::model::FnDef;
use crate::Analysis;

pub struct AttributionTotality;

/// The methods that account for a stage's cycles, each with the charge
/// it must make exactly once: its tick charges one cycle, and the replay
/// of a stalled tick charges all the cycles a sleeping lane owes at once.
const CYCLE_METHODS: [(&str, &str); 2] = [("tick", "charge"), ("replay_stall", "charge_cycles")];

impl Rule for AttributionTotality {
    fn name(&self) -> &'static str {
        "attribution-totality"
    }
    fn description(&self) -> &'static str {
        "every tick() (with .charge) and replay_stall(n) (with the bulk \
         .charge_cycles) of a stage holding a Stage/CycleBreakdown must \
         charge exactly one bucket on every path (charge immediately before \
         every return and as the final statement)"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let mut out = Vec::new();
        for fm in sim_state_models(a) {
            let Some(krate) = fm.crate_name.as_deref() else {
                continue;
            };
            for decl in &fm.structs {
                if a.is_test_line(&fm.rel, decl.line) {
                    continue;
                }
                let attributed = decl
                    .fields
                    .iter()
                    .any(|f| f.ty.contains("StageBreakdown") || f.ty.contains("CycleBreakdown"));
                if !attributed {
                    continue;
                }
                for (method, charge) in CYCLE_METHODS {
                    for (mfm, def) in a.model.methods_of(krate, &decl.name, method) {
                        if a.is_test_line(&mfm.rel, def.line) {
                            continue;
                        }
                        audit_cycle_method(&mfm.rel, &decl.name, def, charge, &mut out);
                    }
                }
            }
        }
        out
    }
}

fn violation(file: &str, line: usize, message: String) -> Violation {
    Violation { rule: "attribution-totality", file: file.to_string(), line, message }
}

/// Audits one cycle method, whose charge is the `.{charge}(...)` call.
fn audit_cycle_method(rel: &str, ty: &str, def: &FnDef, charge: &str, out: &mut Vec<Violation>) {
    let body = &def.body;
    let name = format!("{ty}::{}", def.name);
    // Indices of the `charge` identifier in `.charge(` call sites.
    let charges: Vec<usize> = (0..body.len())
        .filter(|&i| {
            body[i].is_ident(charge)
                && i >= 1
                && body[i - 1].is_punct(".")
                && body.get(i + 1).is_some_and(|t| t.is_punct("("))
        })
        .collect();
    if charges.is_empty() {
        out.push(violation(
            rel,
            def.line,
            format!(
                "`{name}` never charges its attribution breakdown with \
                 `.{charge}(...)`; every cycle must charge exactly one bucket"
            ),
        ));
        return;
    }
    for (i, t) in body.iter().enumerate() {
        if t.is_punct("?") {
            out.push(violation(
                rel,
                t.line,
                format!(
                    "`?` in `{name}` can exit without charging a bucket; \
                     restructure so every path charges exactly once"
                ),
            ));
        }
        if t.is_ident("return") && !ends_with_charge(body, i, charge) {
            out.push(violation(
                rel,
                t.line,
                format!(
                    "return path in `{name}` does not charge immediately before \
                     returning; this cycle would go unattributed"
                ),
            ));
        }
    }
    if !ends_with_charge(body, body.len(), charge) {
        let line = body.last().map(|t| t.line).unwrap_or(def.line);
        out.push(violation(
            rel,
            line,
            format!(
                "`{name}` must end by charging exactly one bucket (final \
                 statement is not a `.{charge}(...);`)"
            ),
        ));
    }
    // Exactly-one: a charge must be the last action on its path.
    for &c in &charges {
        let Some(close) = matching_close_paren(body, c + 1) else {
            continue;
        };
        let ok = body.get(close + 1).is_some_and(|t| t.is_punct(";"))
            && match body.get(close + 2) {
                None => true,
                Some(t) => t.is_ident("return"),
            };
        if !ok {
            out.push(violation(
                rel,
                body[c].line,
                format!(
                    "`.{charge}(...)` in `{name}` is not the final action of its \
                     path; a later statement could charge a second bucket this cycle"
                ),
            ));
        }
    }
}

/// True when the tokens immediately before `body[at]` (or before the end
/// of the body when `at == body.len()`) are `. charge ( … ) ;`, with
/// `charge` the method's charge.
fn ends_with_charge(body: &[Tok], at: usize, charge: &str) -> bool {
    if at < 4 || !body[at - 1].is_punct(";") || !body[at - 2].is_punct(")") {
        return false;
    }
    let Some(open) = matching_open_paren(body, at - 2) else {
        return false;
    };
    open >= 2 && body[open - 1].is_ident(charge) && body[open - 2].is_punct(".")
}

/// Index of the `(` matching the `)` at `close` (paren-only counting; the
/// group may contain braces, e.g. `charge(if x { A } else { B })`).
fn matching_open_paren(body: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    for j in (0..=close).rev() {
        if body[j].is_punct(")") {
            depth += 1;
        } else if body[j].is_punct("(") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open`.
fn matching_close_paren(body: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in body.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}
