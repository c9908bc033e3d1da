//! Fixture tests: each synthetic workspace under `tests/fixtures/` triggers
//! exactly one rule, and each also demonstrates the `conformance:allow`
//! suppression for that rule. The real workspace walker skips these trees.

use std::path::PathBuf;

use matraptor_conformance::{registry, run_on, Analysis, Report};

/// Scans fixture `name` with the registered rules that `keep` selects.
fn scan(name: &str, keep: impl Fn(&str) -> bool) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let analysis =
        Analysis::load(&root).unwrap_or_else(|e| panic!("failed to scan fixture `{name}`: {e}"));
    let rules: Vec<_> = registry().into_iter().filter(|r| keep(r.name())).collect();
    run_on(&analysis, &rules)
}

/// Scans fixture `name` with every registered rule but `dead-api`: the
/// fixtures' `pub` items have no callers by construction, and the dead-api
/// rule has a fixture of its own.
fn fixture(name: &str) -> Report {
    scan(name, |r| r != "dead-api")
}

#[test]
fn determinism_rule_fires_and_suppresses() {
    let report = fixture("determinism");
    assert_eq!(
        report.violations.len(),
        1,
        "expected exactly the HashMap import:\n{}",
        report.human()
    );
    let v = &report.violations[0];
    assert_eq!(v.rule, "determinism");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 3);
    assert!(v.message.contains("HashMap"));
    // The HashSet on line 6 carries an allow comment; the HashMap inside
    // `#[cfg(test)]` is exempt without one.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn panic_safety_rule_fires_and_suppresses() {
    let report = fixture("panic_safety");
    assert_eq!(report.violations.len(), 1, "{}", report.human());
    let v = &report.violations[0];
    assert_eq!(v.rule, "panic-safety");
    assert_eq!(v.file, "crates/mem/src/lib.rs");
    assert_eq!(v.line, 4);
    assert!(v.message.contains(".unwrap()"));
    // The `.expect(` on line 9 is justified with an allow comment; the
    // unwrap inside the test module needs none.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn unsafe_without_safety_comment_fires_and_suppresses() {
    let report = fixture("unsafe_safety");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the bare block and the test-module block:\n{}",
        report.human()
    );
    let bare = &report.violations[0];
    assert_eq!(bare.rule, "panic-safety");
    assert_eq!(bare.file, "crates/core/src/lib.rs");
    assert_eq!(bare.line, 6);
    assert!(bare.message.contains("SAFETY"));
    // Memory safety does not care about `#[cfg(test)]`: the unjustified
    // block inside the test module is audited like any other.
    let in_test = &report.violations[1];
    assert_eq!(in_test.line, 34);
    assert!(in_test.message.contains("SAFETY"));
    // The single-line rationale, the multi-line rationale above the
    // `unsafe impl`, and the doc-comment prose all stay silent; the
    // allow-commented block is suppressed.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn layering_rule_fires_on_manifest_and_source_back_edges() {
    let report = fixture("layering");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the sim->core manifest edge and import:\n{}",
        report.human()
    );
    let manifest = report
        .violations
        .iter()
        .find(|v| v.file == "crates/sim/Cargo.toml")
        .expect("manifest back-edge flagged");
    assert_eq!(manifest.rule, "layering");
    assert_eq!(manifest.line, 6);
    assert!(manifest.message.contains("matraptor-core"));
    let source = report
        .violations
        .iter()
        .find(|v| v.file == "crates/sim/src/lib.rs")
        .expect("source back-edge flagged");
    assert_eq!(source.line, 4);
    assert!(source.message.contains("matraptor_core"));
    // mem's allow-commented core edge is suppressed; its sim dep, its
    // dev-dep on sparse, and the sparse use in tests/ are all legal.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn doc_drift_rule_fires_and_suppresses() {
    let report = fixture("doc_drift");
    assert_eq!(
        report.violations.len(),
        2,
        "expected the undocumented fig and trace binaries:\n{}",
        report.human()
    );
    let fig = report
        .violations
        .iter()
        .find(|v| v.file == "crates/bench/src/bin/fig99_missing.rs")
        .expect("undocumented fig binary flagged");
    assert_eq!(fig.rule, "doc-drift");
    assert_eq!(fig.line, 1);
    assert!(fig.message.contains("fig99_missing"));
    assert!(fig.message.contains("EXPERIMENTS.md"));
    // Observability binaries are tracked too: trace* joined the prefix
    // list with the cycle-level trace layer.
    let trace = report
        .violations
        .iter()
        .find(|v| v.file == "crates/bench/src/bin/trace_undocumented.rs")
        .expect("undocumented trace binary flagged");
    assert!(trace.message.contains("trace_undocumented"));
    // fig01_present is documented, sweep_extra is untracked, and
    // ablation_allowed carries a line-1 allow comment.
    assert_eq!(report.suppressed, 1);
}

/// A §6 module map that names files the tree does not hold is flagged at
/// the map's line, one finding per missing path after brace expansion;
/// fenced blocks outside §6 are not the map.
#[test]
fn doc_drift_flags_module_map_paths_that_do_not_exist() {
    let report = fixture("doc_drift_map");
    let found: Vec<(&str, usize, &str)> =
        report.violations.iter().map(|v| (v.file.as_str(), v.line, v.rule)).collect();
    assert_eq!(
        found,
        [("DESIGN.md", 10, "doc-drift"), ("DESIGN.md", 11, "doc-drift")],
        "expected the missing merge.rs and gone.rs:\n{}",
        report.human()
    );
    assert!(report.violations[0].message.contains("crates/core/src/merge.rs"));
    assert!(report.violations[1].message.contains("tests/gone.rs"));
}

/// The workspace's own DESIGN.md §6 map names only paths that exist.
#[test]
fn the_workspace_module_map_names_only_existing_paths() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = Analysis::load(&root).expect("workspace scan");
    let rules: Vec<_> = registry().into_iter().filter(|r| r.name() == "doc-drift").collect();
    let report = run_on(&analysis, &rules);
    let map: Vec<_> = report.violations.iter().filter(|v| v.file == "DESIGN.md").collect();
    assert!(map.is_empty(), "stale §6 map entries:\n{}", report.human());
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    assert!(design.lines().any(|l| l.starts_with("## 6.")), "the map's section moved");
}

#[test]
fn checkpoint_coverage_rule_fires_and_suppresses() {
    let report = fixture("checkpoint_coverage");
    assert_eq!(
        report.violations.len(),
        3,
        "expected the plain_struct! gap, the snapshot/restore gap, and the \
         fleet-worker heartbeat gap:\n{}",
        report.human()
    );
    // `GadgetState.drained` is declared but absent from the plain_struct!
    // invocation that serializes the type.
    let macro_gap = &report.violations[0];
    assert_eq!(macro_gap.rule, "checkpoint-coverage");
    assert_eq!(macro_gap.file, "crates/core/src/lib.rs");
    assert_eq!(macro_gap.line, 10);
    assert!(macro_gap.message.contains("`drained`"));
    assert!(macro_gap.message.contains("plain_struct!"));
    // `Gadget.drained` is mentioned by neither `snapshot` nor `restore`.
    let walk_gap = &report.violations[1];
    assert_eq!(walk_gap.line, 19);
    assert!(walk_gap.message.contains("missing from the checkpoint walk (snapshot, restore)"));
    // The fleet-worker shaped fixture: `FleetWorker.beats` (the heartbeat
    // counter the real service::Worker carries across restarts) is
    // mentioned by neither `snapshot` nor `restore`.
    let beat_gap = &report.violations[2];
    assert_eq!(beat_gap.file, "crates/service/src/lib.rs");
    assert!(beat_gap.message.contains("`beats`"));
    assert!(beat_gap.message.contains("missing from the checkpoint walk"));
    // `Gadget.capacity` and `FleetWorker.watchdog` are transient and
    // carry allow comments.
    assert_eq!(report.suppressed, 2);
}

#[test]
fn attribution_totality_rule_fires_and_suppresses() {
    let report = fixture("attribution");
    assert_eq!(report.violations.len(), 5, "{}", report.human());
    assert!(report.violations.iter().all(|v| v.rule == "attribution-totality"));
    let v = &report.violations[0];
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 19);
    assert!(v.message.contains("`Stage::tick`"));
    assert!(v.message.contains("does not charge immediately before returning"));
    // A stall replay charges the owed cycles: its early return skips them.
    let replay = &report.violations[1];
    assert_eq!(replay.line, 55);
    assert!(replay.message.contains("`Replayer::replay_stall`"));
    assert!(replay.message.contains("does not charge immediately before returning"));
    // A bulk replay that charges nothing, or one single cycle, fails.
    let uncharged = &report.violations[2];
    assert_eq!(uncharged.line, 72);
    assert!(uncharged.message.contains("`Uncharged::replay_stall` never charges"));
    assert!(uncharged.message.contains("`.charge_cycles(...)`"));
    let single = &report.violations[3];
    assert_eq!(single.line, 87);
    assert!(single.message.contains("`Single::replay_stall` never charges"));
    // So does one that charges the owed cycles twice.
    let twice = &report.violations[4];
    assert_eq!(twice.line, 103);
    assert!(twice.message.contains("`.charge_cycles(...)` in `Twice::replay_stall`"));
    assert!(twice.message.contains("not the final action of its path"));
    // `Helper::tick` defers charging by design and carries an allow comment.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn cast_safety_rule_fires_and_suppresses() {
    let report = fixture("cast_safety");
    assert_eq!(report.violations.len(), 4, "{}", report.human());
    let compound = &report.violations[0];
    assert_eq!(compound.rule, "cast-safety");
    assert_eq!(compound.line, 10);
    assert!(compound.message.contains("unchecked `+=` on counter-like `stall_cycles`"));
    let cast = &report.violations[1];
    assert_eq!(cast.line, 14);
    assert!(cast.message.contains("narrowing cast `stall_cycles as u32`"));
    // Wire-protocol identifiers (len/frame/offset/payload/port segments)
    // are in scope since the TCP front end landed.
    let wire_sum = &report.violations[2];
    assert_eq!(wire_sum.line, 26);
    assert!(wire_sum.message.contains("unchecked `+` after wire-protocol `payload_len`"));
    let wire_cast = &report.violations[3];
    assert_eq!(wire_cast.line, 30);
    assert!(wire_cast.message.contains("narrowing cast `frame_offset as u16`"));
    // `report + 1` on line 35 matches no whole segment and must NOT fire;
    // the bounded `bytes_hint as u16` carries an allow comment.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn dead_api_rule_fires_and_suppresses() {
    let report = scan("dead_api", |_| true);
    assert_eq!(report.violations.len(), 1, "expected exactly the dead fn:\n{}", report.human());
    let v = &report.violations[0];
    assert_eq!(v.rule, "dead-api");
    assert_eq!(v.file, "crates/core/src/lib.rs");
    assert_eq!(v.line, 10);
    assert!(v.message.contains("`pub fn dead`"));
    // The bin calls `called_from_a_bin` (its `use` line alone would not
    // count); `doc_example_only` carries an allow comment; `restricted`
    // is not public; `Meter::reset` shares its name with a called method.
    assert_eq!(report.suppressed, 1);
}

#[test]
fn allow_audit_reports_stale_unknown_and_unjustified_allows() {
    let report = scan("stale_allow", |_| true);
    let found: Vec<_> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        found,
        [("stale-allow", 8), ("stale-allow", 13), ("unjustified-allow", 24)],
        "{}",
        report.human()
    );
    assert!(report.violations[0].message.contains("suppresses no finding"));
    assert!(report.violations[1].message.contains("names no registered rule"));
    // The HashMap import and the unwrap are suppressed; the markers quoted
    // in doc comments and in a string are prose, not allows.
    assert_eq!(report.suppressed, 2);
    // An allow of a registered rule that did not run is not audited.
    let only = scan("stale_allow", |r| r == "determinism");
    let lines: Vec<_> = only.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, [13], "{}", only.human());
}

#[test]
fn tokens_inside_strings_and_doc_comments_do_not_fire() {
    // Regression for the substring-era false positives: `HashMap`,
    // `.unwrap()`, `Instant::now()` etc. appear only in prose (string
    // literals, doc comments, line comments) and must report nothing —
    // with no allow comments needed.
    let report = fixture("lexer_prose");
    assert!(report.is_clean(), "prose tokens misread as code:\n{}", report.human());
    assert_eq!(report.suppressed, 0);
}

#[test]
fn violations_sort_stably_by_file_line_rule() {
    for name in ["checkpoint_coverage", "cast_safety", "layering", "dead_api", "stale_allow"] {
        let report = scan(name, |_| true);
        let keys: Vec<_> =
            report.violations.iter().map(|v| (v.file.clone(), v.line, v.rule)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "unsorted report for fixture `{name}`");
    }
}

#[test]
fn json_report_round_trips_rule_names() {
    let json = fixture("determinism").json();
    assert!(json.contains("\"rule\": \"determinism\""));
    assert!(json.contains("\"file\": \"crates/core/src/lib.rs\""));
    assert!(json.contains("\"line\": 3"));
    assert!(json.contains("\"ok\": false"));
}
