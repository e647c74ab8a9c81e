//! Fixture-driven contract tests: every pass must fire on its known-bad
//! fixture (at the expected sites) and stay quiet on its clean twin, and
//! the suppression/allowlist machinery must be visible in the report.

use mvi_analyze::{analyze_source, Lint, PassSet};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn run(name: &str, passes: PassSet) -> mvi_analyze::FileReport {
    analyze_source(name, &fixture(name), passes)
}

fn only(lint: Lint) -> PassSet {
    PassSet {
        lock_order: lint == Lint::LockOrder,
        safety: lint == Lint::Safety,
        atomic_ordering: lint == Lint::AtomicOrdering,
        panic: lint == Lint::Panic,
    }
}

#[test]
fn lock_order_rejects_health_before_core_and_double_health() {
    let report = run("lock_order_bad.rs", only(Lint::LockOrder));
    assert_eq!(report.findings.len(), 2, "findings: {:#?}", report.findings);
    // The headline inversion: the health lock acquired before the core lock.
    assert!(
        report.findings[0].message.contains("core lock acquired after health lock"),
        "first finding must be the health-before-core inversion: {:?}",
        report.findings[0]
    );
    assert!(
        report.findings[1].message.contains("second health-lock acquisition"),
        "a second health acquisition must be named as a self-deadlock: {:?}",
        report.findings[1]
    );
}

#[test]
fn lock_order_quiet_on_protocol_compliant_bodies() {
    let report = run("lock_order_clean.rs", only(Lint::LockOrder));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    assert!(report.suppressed.is_empty());
}

#[test]
fn safety_flags_every_unjustified_unsafe() {
    let report = run("safety_bad.rs", only(Lint::Safety));
    assert_eq!(report.findings.len(), 4, "findings: {:#?}", report.findings);
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().filter(|m| m.starts_with("unsafe block")).count() == 2);
    assert!(messages.iter().any(|m| m.starts_with("unsafe fn")));
    assert!(messages.iter().any(|m| m.starts_with("unsafe impl")));
}

#[test]
fn safety_accepts_adjacent_comments_doc_sections_and_attribute_gaps() {
    let report = run("safety_clean.rs", only(Lint::Safety));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
}

#[test]
fn atomic_ordering_flags_relaxed_in_publication_module() {
    let report = run("atomic_bad.rs", only(Lint::AtomicOrdering));
    assert_eq!(report.findings.len(), 3, "findings: {:#?}", report.findings);
    assert!(report.findings.iter().all(|f| f.lint == Lint::AtomicOrdering));
}

#[test]
fn atomic_ordering_honors_pin_slot_allowlist_and_records_suppressions() {
    let report = run("atomic_clean.rs", only(Lint::AtomicOrdering));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    // The NEXT_PIN_SLOT allowlist is structural (no annotation needed); the
    // stat counter relaxation is an explicit, recorded suppression.
    assert_eq!(report.suppressed.len(), 1, "suppressed: {:#?}", report.suppressed);
    assert!(report.suppressed[0].justification.contains("monotonic stat counter"));
}

#[test]
fn atomic_ordering_ignores_files_without_publication_cells() {
    // Relaxed stat counters outside AtomicPtr modules are out of scope.
    let source = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                  fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let report = analyze_source("stats.rs", source, only(Lint::AtomicOrdering));
    assert!(report.findings.is_empty());
}

#[test]
fn panic_surface_flags_each_panic_shape_outside_tests() {
    let report = run("panic_bad.rs", only(Lint::Panic));
    assert_eq!(report.findings.len(), 4, "findings: {:#?}", report.findings);
    let rendered = format!("{:?}", report.findings);
    for shape in [".unwrap()", ".expect(…)", "panic!", "unreachable!"] {
        assert!(rendered.contains(shape), "missing {shape} in {rendered}");
    }
}

#[test]
fn panic_surface_quiet_on_typed_errors_and_test_code() {
    let report = run("panic_clean.rs", only(Lint::Panic));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    assert_eq!(report.suppressed.len(), 1, "suppressed: {:#?}", report.suppressed);
    assert_eq!(report.suppressed[0].lint, Lint::Panic);
    assert!(report.suppressed[0].justification.contains("non-empty input"));
}

#[test]
fn panic_surface_flags_net_codec_and_conn_shapes() {
    let report = run("panic_net_bad.rs", only(Lint::Panic));
    assert_eq!(report.findings.len(), 4, "findings: {:#?}", report.findings);
    let rendered = format!("{:?}", report.findings);
    // The naive-codec shapes: try_into().unwrap() on framing bytes, expect on
    // attacker input, lock().unwrap(), and an explicit accept-path panic.
    for shape in [".unwrap()", ".expect(…)", "panic!"] {
        assert!(rendered.contains(shape), "missing {shape} in {rendered}");
    }
}

#[test]
fn panic_surface_quiet_on_total_decoding_and_poison_tolerant_locks() {
    let report = run("panic_net_clean.rs", only(Lint::Panic));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    assert!(report.suppressed.is_empty(), "suppressed: {:#?}", report.suppressed);
}

#[test]
fn panic_surface_flags_naive_registry_shapes() {
    let report = run("panic_registry_bad.rs", only(Lint::Panic));
    assert_eq!(report.findings.len(), 4, "findings: {:#?}", report.findings);
    let rendered = format!("{:?}", report.findings);
    // The naive-router shapes: lock().unwrap() on the tenant map, unwrap on a
    // client-controlled lookup, an explicit full-registry panic, and expect
    // on derived eviction state.
    for shape in [".unwrap()", ".expect(…)", "panic!"] {
        assert!(rendered.contains(shape), "missing {shape} in {rendered}");
    }
}

#[test]
fn panic_surface_quiet_on_typed_tenancy_errors() {
    let report = run("panic_registry_clean.rs", only(Lint::Panic));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    assert!(report.suppressed.is_empty(), "suppressed: {:#?}", report.suppressed);
}

#[test]
fn workspace_scoping_pins_panic_pass_to_serve_and_net_hot_paths() {
    for rel in [
        "crates/serve/src/engine.rs",
        "crates/serve/src/shard.rs",
        "crates/serve/src/batch.rs",
        "crates/serve/src/registry.rs",
        "crates/serve/src/snapshot.rs",
        "crates/serve/src/durable.rs",
        "crates/net/src/frame.rs",
        "crates/net/src/server.rs",
        "crates/net/src/client.rs",
    ] {
        assert!(mvi_analyze::workspace_passes(rel).panic, "{rel} must be panic-checked");
    }
    // The cold paths stay out of scope; safety runs everywhere.
    for rel in ["crates/net/src/lib.rs", "crates/serve/src/lib.rs", "src/lib.rs"] {
        let passes = mvi_analyze::workspace_passes(rel);
        assert!(!passes.panic, "{rel} must not be panic-checked");
        assert!(passes.safety, "{rel} must still be safety-checked");
    }
}

#[test]
fn clean_fixtures_pass_all_passes_at_once() {
    // Mirrors explicit-file CLI mode: every pass over every clean fixture.
    for name in [
        "lock_order_clean.rs",
        "safety_clean.rs",
        "atomic_clean.rs",
        "panic_clean.rs",
        "panic_net_clean.rs",
        "panic_registry_clean.rs",
    ] {
        let report = run(name, PassSet::all());
        assert!(report.findings.is_empty(), "{name} findings: {:#?}", report.findings);
    }
}

#[test]
fn bad_fixtures_deny_under_all_passes() {
    for name in [
        "lock_order_bad.rs",
        "safety_bad.rs",
        "atomic_bad.rs",
        "panic_bad.rs",
        "panic_net_bad.rs",
        "panic_registry_bad.rs",
    ] {
        let report = run(name, PassSet::all());
        assert!(!report.findings.is_empty(), "{name} must produce findings");
    }
}

#[test]
fn suppression_covers_same_line_and_line_above_only() {
    let same_line = "fn f(v: &[f64]) -> f64 { v.first().unwrap() } // mvi-allow: panic inline\n";
    let report = analyze_source("s.rs", same_line, only(Lint::Panic));
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 1);

    let too_far = "fn f(v: &[f64]) -> f64 {\n    // mvi-allow: panic too far away\n\n    \
                   v.first().unwrap()\n}\n";
    let report = analyze_source("s.rs", too_far, only(Lint::Panic));
    assert_eq!(report.findings.len(), 1, "a gapped annotation must not suppress");
}

#[test]
fn suppression_is_per_lint() {
    // A panic allowance must not silence an atomic-ordering finding.
    let source = "use std::sync::atomic::{AtomicPtr, Ordering};\n\
                  fn load(p: &AtomicPtr<u8>) -> *mut u8 {\n\
                  \x20   // mvi-allow: panic wrong lint\n\
                  \x20   p.load(Ordering::Relaxed)\n\
                  }\n";
    let report = analyze_source("s.rs", source, only(Lint::AtomicOrdering));
    assert_eq!(report.findings.len(), 1, "findings: {:#?}", report.findings);
    assert!(report.suppressed.is_empty());
}
