//! Tier-1 gate: `cargo test` fails if the real workspace violates any
//! conformance rule. Equivalent to `cargo run -p matraptor-conformance`
//! exiting non-zero.

use std::path::Path;

#[test]
fn workspace_has_zero_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = matraptor_conformance::run(&root).expect("workspace scan failed");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    assert!(report.is_clean(), "conformance violations in the workspace:\n{}", report.human());
}

#[test]
fn all_eight_rules_are_registered() {
    let names: Vec<_> = matraptor_conformance::registry().iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        [
            "determinism",
            "panic-safety",
            "layering",
            "doc-drift",
            "checkpoint-coverage",
            "attribution-totality",
            "cast-safety",
            "dead-api"
        ]
    );
}
