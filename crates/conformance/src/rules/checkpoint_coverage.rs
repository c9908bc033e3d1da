//! The checkpoint-coverage auditor.
//!
//! Bit-identical replay (DESIGN.md §10) only holds if *every* mutable
//! field of the simulator's state structs rides the checkpoint. The
//! historical failure mode is silent: a field added to `SpAl` or `Pe`
//! compiles fine, all short tests pass, and replay diverges three PRs
//! later. This rule makes that a static error by cross-checking three
//! walks against the declared field lists of the source model:
//!
//! 1. **`plain_struct!` walks** — the macro serializes a live struct as it
//!    is, exactly the fields it is given; a declared field missing from the
//!    invocation (or a listed field that no longer exists) is flagged.
//! 2. **`snapshot`/`restore` pairs** — each unit writes its own fields
//!    straight into the checkpoint bytes and reads them back, so for every
//!    sim-state struct with an inherent `snapshot` method, each declared
//!    field must be mentioned in the snapshot body and in a `restore` body
//!    (inherent or associated).
//! 3. **`fingerprint*` functions** — every field of a sim-state struct
//!    taken as a parameter must be folded into the fingerprint, one level
//!    deep through struct-typed fields (so `MatRaptorConfig.mem` pulls in
//!    all of `HbmConfig`).
//!
//! Intentionally transient fields (rebuilt from config at restore) are
//! marked with `// conformance:allow(checkpoint-coverage): why` on the
//! field or the line above — the standard escape hatch, applied by the
//! engine.

use std::collections::BTreeMap;

use super::{sim_state_models, Rule, Violation};
use crate::lexer::TokKind;
use crate::model::{FileModel, StructDef};
use crate::Analysis;

pub struct CheckpointCoverage;

/// Method name of the restoring half of a checkpoint walk.
const RESTORE_NAME: &str = "restore";

impl Rule for CheckpointCoverage {
    fn name(&self) -> &'static str {
        "checkpoint-coverage"
    }
    fn description(&self) -> &'static str {
        "every field of a snapshot/restore-walked, plain_struct!-serialized, or \
         fingerprinted sim-state struct must ride the walk; transient fields \
         need a conformance:allow comment"
    }
    fn check(&self, a: &Analysis) -> Vec<Violation> {
        let mut out = Vec::new();
        plain_struct_audit(a, &mut out);
        snapshot_restore_audit(a, &mut out);
        fingerprint_audit(a, &mut out);
        out
    }
}

fn violation(file: &str, line: usize, message: String) -> Violation {
    Violation { rule: "checkpoint-coverage", file: file.to_string(), line, message }
}

// ---------------------------------------------------------------------------
// plain_struct! audit
// ---------------------------------------------------------------------------

/// Cross-checks each `plain_struct!(Name { fields… })` invocation against
/// the declaration of `Name`: the macro emits `Enc`/`Dec` walking exactly
/// the listed fields, in order, so a missing field silently vanishes from
/// the serialized format.
fn plain_struct_audit(a: &Analysis, out: &mut Vec<Violation>) {
    for fm in sim_state_models(a) {
        for call in fm.macro_calls.iter().filter(|m| m.name == "plain_struct") {
            let idents: Vec<&crate::lexer::Tok> =
                call.tokens.iter().filter(|t| t.kind == TokKind::Ident).collect();
            let Some((name, fields)) = idents.split_first() else {
                continue;
            };
            let Some((decl_fm, decl)) = a.model.find_struct(&name.text, &fm.rel) else {
                continue; // type not declared in this workspace
            };
            for f in &decl.fields {
                if !fields.iter().any(|t| t.text == f.name) {
                    out.push(violation(
                        &decl_fm.rel,
                        f.line,
                        format!(
                            "field `{}` of `{}` is not serialized by the plain_struct! \
                             walk ({}:{}); add it to the invocation or mark it transient \
                             with a conformance:allow comment",
                            f.name, decl.name, fm.rel, call.line
                        ),
                    ));
                }
            }
            for t in fields {
                if !decl.fields.iter().any(|f| f.name == t.text) {
                    out.push(violation(
                        &fm.rel,
                        call.line,
                        format!(
                            "plain_struct!({}) serializes `{}`, which is not a declared \
                             field of `{}` ({}:{})",
                            decl.name, t.text, decl.name, decl_fm.rel, decl.line
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot / restore audit
// ---------------------------------------------------------------------------

/// For every sim-state struct with an inherent `snapshot` method, each
/// declared field must appear (as an identifier) in the snapshot body and,
/// when a `restore` method exists, in at least one restore body.
fn snapshot_restore_audit(a: &Analysis, out: &mut Vec<Violation>) {
    for fm in sim_state_models(a) {
        let Some(krate) = fm.crate_name.as_deref() else {
            continue;
        };
        for decl in &fm.structs {
            if a.is_test_line(&fm.rel, decl.line) {
                continue;
            }
            let snaps: Vec<_> = a
                .model
                .methods_of(krate, &decl.name, "snapshot")
                .into_iter()
                .filter(|(f, m)| !a.is_test_line(&f.rel, m.line))
                .collect();
            if snaps.is_empty() {
                continue;
            }
            let restores: Vec<_> = a
                .model
                .methods_of(krate, &decl.name, RESTORE_NAME)
                .into_iter()
                .filter(|(f, m)| !a.is_test_line(&f.rel, m.line))
                .collect();
            for f in &decl.fields {
                let mut missing = Vec::new();
                if !snaps.iter().any(|(_, m)| m.body_mentions(&f.name)) {
                    missing.push("snapshot");
                }
                if !restores.is_empty() && !restores.iter().any(|(_, m)| m.body_mentions(&f.name)) {
                    missing.push("restore");
                }
                if !missing.is_empty() {
                    out.push(violation(
                        &fm.rel,
                        f.line,
                        format!(
                            "field `{}` of `{}` is missing from the checkpoint walk \
                             ({}); checkpoint it or mark it transient with a \
                             conformance:allow comment",
                            f.name,
                            decl.name,
                            missing.join(", ")
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fingerprint audit
// ---------------------------------------------------------------------------

/// Every `fingerprint*` function must fold in all fields of any sim-state
/// struct it takes as a parameter, one level deep through struct-typed
/// fields.
fn fingerprint_audit(a: &Analysis, out: &mut Vec<Violation>) {
    // Name → declaration, for structs living in sim-state crates. First
    // declaration wins on (unlikely) cross-crate name collisions.
    let mut sim_structs: BTreeMap<&str, (&FileModel, &StructDef)> = BTreeMap::new();
    for fm in sim_state_models(a) {
        for s in &fm.structs {
            if !a.is_test_line(&fm.rel, s.line) {
                sim_structs.entry(&s.name).or_insert((fm, s));
            }
        }
    }
    for fm in sim_state_models(a) {
        for func in &fm.fns {
            if !func.name.starts_with("fingerprint") || a.is_test_line(&fm.rel, func.line) {
                continue;
            }
            let mut audited: Vec<&str> = Vec::new();
            for t in &func.params {
                if t.kind == TokKind::Ident
                    && sim_structs.contains_key(t.text.as_str())
                    && !audited.contains(&t.text.as_str())
                {
                    audited.push(sim_structs.keys().find(|k| **k == t.text).copied().unwrap_or(""));
                }
            }
            let mut queue: Vec<(&str, usize)> = audited.iter().map(|n| (*n, 0)).collect();
            let mut seen: Vec<&str> = audited.clone();
            while let Some((ty, depth)) = queue.pop() {
                let Some(&(decl_fm, decl)) = sim_structs.get(ty) else {
                    continue;
                };
                for f in &decl.fields {
                    if !func.body_mentions(&f.name) {
                        out.push(violation(
                            &decl_fm.rel,
                            f.line,
                            format!(
                                "field `{}` of `{}` is not folded into `{}` ({}:{}); \
                                 fingerprint it or mark it transient with a \
                                 conformance:allow comment",
                                f.name, decl.name, func.name, fm.rel, func.line
                            ),
                        ));
                    } else if depth == 0 {
                        // One level of transitivity: a struct-typed field
                        // pulls its own fields into the audit.
                        for word in f.ty.split(|c: char| !c.is_alphanumeric() && c != '_') {
                            if word != ty && sim_structs.contains_key(word) && !seen.contains(&word)
                            {
                                if let Some(k) = sim_structs.keys().find(|k| **k == word) {
                                    seen.push(k);
                                    queue.push((k, 1));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
