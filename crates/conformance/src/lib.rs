//! Workspace-wide static-analysis pass for the MatRaptor reproduction.
//!
//! The suite runs in two layers. [`workspace`] loads every source file and
//! manifest into a line-oriented text model (with `#[cfg(test)]` tracking
//! and `conformance:allow` markers); [`lexer`] and [`model`] then build a
//! *source model* on top — a comment/string-accurate token stream per file,
//! item-parsed into structs with field lists, impl methods with bodies as
//! token streams, and item-level macro invocations. Rules pick whichever
//! layer fits.
//!
//! Eight named rules guard the invariants the simulator's credibility
//! rests on (see DESIGN.md "Invariants & static analysis"):
//!
//! * **determinism** — simulator-state crates (`core`, `sim`, `mem`,
//!   `service`) must not use `HashMap`/`HashSet`, wall-clock time, or
//!   OS-seeded randomness; same seed, same cycle count, always.
//! * **panic-safety** — `core`, `mem`, `service`, and the `sparse`
//!   SpGEMM/C²SR hot paths must propagate errors (`Result<_, SparseError>`)
//!   instead of calling `unwrap`/`expect`/`panic!` outside test code.
//! * **layering** — crate dependencies must follow the DAG
//!   `sparse → sim → mem → core → {service, baselines, energy} → bench`;
//!   checked in both `Cargo.toml` `[dependencies]` tables and
//!   `matraptor_*` paths in source. Dev-dependencies are exempt.
//! * **doc-drift** — every `fig*`/`table*`/`ablation*`/`trace*` binary in
//!   `crates/bench/src/bin/` must have a matching entry in `EXPERIMENTS.md`,
//!   and every path the `DESIGN.md` §6 module map names must exist.
//! * **checkpoint-coverage** — every field of a struct walked by
//!   `snapshot`/`restore`, serialized by `plain_struct!`, or folded by a
//!   `fingerprint*` function must actually ride that walk; transient
//!   fields carry an allow comment naming why.
//! * **attribution-totality** — every `tick()` of a stage holding a
//!   `StageBreakdown`/`CycleBreakdown` must charge exactly one bucket on
//!   every path, and every `replay_stall(n)` must charge its `n` owed
//!   cycles to exactly one bucket with one bulk `.charge_cycles(...)`
//!   (Fig. 9's fractions only sum to 1 if no cycle goes unattributed or
//!   double-counted).
//! * **cast-safety** — no narrowing `as` casts or unchecked `+`/`-` on
//!   cycle/byte counters in sim-state crates; use `saturating_*` /
//!   `checked_*` / `try_from`.
//! * **dead-api** — every `pub` item of a library crate is named somewhere
//!   outside its definition, `use` lines and its own file's tests
//!   (matching is by name, so it under-reports shared names).
//!
//! Individual findings are silenced with a justification comment on the
//! flagged line or the line above. An allow comment that suppresses no
//! finding is itself reported (`stale-allow`), as is one without a
//! justification (`unjustified-allow`):
//!
//! ```text
//! // conformance:allow(panic-safety): documented panic at the API boundary
//! try_gustavson(a, b).unwrap_or_else(|e| panic!("gustavson: {e}"))
//! ```
//!
//! Two entry points: `cargo run -p matraptor-conformance` (CLI, `--json`
//! for machine-readable output) and the `workspace_gate` integration test,
//! which makes `cargo test` fail on any violation.

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod workspace;

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

pub use model::SourceModel;
pub use report::Report;
pub use rules::{registry, Rule, Violation};
pub use workspace::Workspace;

/// Everything a rule can see: the line-oriented workspace text model plus
/// the lexed/item-parsed source model built from it.
pub struct Analysis {
    pub ws: Workspace,
    pub model: SourceModel,
}

impl Analysis {
    /// Loads the workspace at `root` and builds the source model.
    pub fn load(root: &Path) -> io::Result<Analysis> {
        let ws = Workspace::load(root)?;
        let model = SourceModel::build(&ws);
        Ok(Analysis { ws, model })
    }

    /// Whether `line` (1-based) of the source file `rel` is inside a
    /// `#[cfg(test)]` region. Unknown files count as non-test.
    pub fn is_test_line(&self, rel: &str, line: usize) -> bool {
        self.ws
            .sources
            .iter()
            .find(|s| s.rel == rel)
            .and_then(|s| s.lines.get(line.wrapping_sub(1)))
            .is_some_and(|l| l.is_test)
    }
}

/// Loads the workspace at `root` and runs every registered rule,
/// applying `conformance:allow` suppressions.
pub fn run(root: &Path) -> io::Result<Report> {
    let a = Analysis::load(root)?;
    Ok(run_on(&a, &registry()))
}

/// Runs `rules` over an already-loaded analysis, then audits the
/// `conformance:allow` comments of the rules it ran: one that suppresses
/// no finding (or names no registered rule) is reported as `stale-allow`,
/// one without a justification as `unjustified-allow`.
pub fn run_on(a: &Analysis, rules: &[Box<dyn Rule>]) -> Report {
    let mut violations = Vec::new();
    // The allow comments that suppressed a finding: (file, line, rule).
    let mut used = BTreeSet::new();
    let mut suppressed = 0;
    for rule in rules {
        for v in rule.check(a) {
            match allow_line(&a.ws, &v) {
                Some(line) => {
                    suppressed += 1;
                    used.insert((v.file.clone(), line, v.rule));
                }
                None => violations.push(v),
            }
        }
    }
    violations.extend(audit_allows(&a.ws, rules, &used));
    violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Report {
        violations,
        suppressed,
        files_scanned: a.ws.sources.len(),
        manifests_scanned: a.ws.manifests.len(),
        rules: rules.iter().map(|r| (r.name(), r.description())).collect(),
    }
}

/// The 1-based line of the `conformance:allow(<rule>)` comment that
/// suppresses `v`: on the flagged line or the one above it. Manifests
/// carry the marker in a `#` TOML comment.
fn allow_line(ws: &Workspace, v: &Violation) -> Option<usize> {
    if v.line == 0 {
        return None;
    }
    if let Some(src) = ws.sources.iter().find(|f| f.rel == v.file) {
        return src.allow_line(v.rule, v.line);
    }
    let m = ws.manifests.iter().find(|m| m.rel == v.file)?;
    [v.line, v.line - 1]
        .into_iter()
        .find(|&l| m.allows.iter().any(|(at, a)| *at == l && a.rule == v.rule))
}

/// Reports every allow comment of a rule in `rules` that suppressed
/// nothing in `used`, or that gives no justification; also every allow
/// comment that names no registered rule, which can never suppress.
fn audit_allows(
    ws: &Workspace,
    rules: &[Box<dyn Rule>],
    used: &BTreeSet<(String, usize, &'static str)>,
) -> Vec<Violation> {
    let ran: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    let registered: Vec<&str> = registry().iter().map(|r| r.name()).collect();
    let sources = ws.sources.iter().flat_map(|f| {
        f.lines
            .iter()
            .enumerate()
            .flat_map(move |(i, l)| l.allows.iter().map(move |a| (&f.rel, i + 1, a)))
    });
    let manifests =
        ws.manifests.iter().flat_map(|m| m.allows.iter().map(move |(line, a)| (&m.rel, *line, a)));
    let mut out = Vec::new();
    for (file, line, allow) in sources.chain(manifests) {
        let rule = allow.rule.as_str();
        let known = registered.contains(&rule);
        if known && !ran.contains(&rule) {
            continue;
        }
        let (check, message) = if !known {
            ("stale-allow", format!("`conformance:allow({rule})` names no registered rule"))
        } else if !used.iter().any(|(f, l, r)| f == file && *l == line && *r == rule) {
            ("stale-allow", format!("`conformance:allow({rule})` suppresses no finding; delete it"))
        } else if allow.reason.is_empty() {
            ("unjustified-allow", format!("`conformance:allow({rule})` gives no reason after `):`"))
        } else {
            continue;
        };
        out.push(Violation { rule: check, file: file.clone(), line, message });
    }
    out
}
