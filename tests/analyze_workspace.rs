//! Meta-test: the live workspace must be clean under `mvi-analyze`.
//!
//! This is the teeth behind the concurrency/unsafety/panic-surface
//! invariants documented in `ARCHITECTURE.md`: any regression — a lock
//! acquired out of protocol order in `crates/serve`, an `unsafe` block
//! without a `// SAFETY:` justification, or a bare `unwrap` on the serving
//! hot path — fails `cargo test` the same way it fails the dedicated CI
//! `analyze` job.

use std::path::Path;

#[test]
fn workspace_has_zero_static_analysis_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = mvi_analyze::analyze_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously small scan ({} files) — did the walker break?",
        report.files_scanned
    );
    assert!(!report.deny(), "static-analysis findings on the live workspace:\n{}", report.human());
    // Suppressions are allowed but must stay deliberate: every one carries a
    // justification (the lexer guarantees the annotation parsed), and the
    // count is pinned so a new `mvi-allow` shows up in review.
    for s in &report.suppressed {
        assert!(
            !s.justification.is_empty(),
            "suppression without justification at {}:{}",
            s.file,
            s.line
        );
    }
}
