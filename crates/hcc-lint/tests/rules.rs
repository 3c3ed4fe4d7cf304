//! Per-rule fixture tests: each rule must fire on its seeded-violation
//! fixture (true positives) and stay silent on the matching clean
//! fixture (false positives). The same fixture text is also re-parsed
//! under out-of-scope paths to pin the scope boundaries.

use hcc_lint::lint_files;
use hcc_lint::rules::Finding;
use hcc_lint::syntax::SourceFile;

/// Lint one fixture as if it lived at `rel` inside the workspace.
fn lint_as(rel: &str, src: &str) -> (Vec<Finding>, usize) {
    let report = lint_files(&[SourceFile::parse(rel, src)]);
    (report.findings, report.waived)
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_true_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-core/src/fixture.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    assert!(
        findings.len() >= 4,
        "expected a finding per banned use: {findings:?}"
    );
    assert!(findings.iter().all(|f| f.rule == "determinism"));
    let text = format!("{findings:?}");
    for name in ["HashMap", "SystemTime", "thread_rng"] {
        assert!(text.contains(name), "missing a finding for {name}");
    }
}

#[test]
fn determinism_false_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-core/src/fixture.rs",
        include_str!("fixtures/determinism_ok.rs"),
    );
    assert!(
        findings.is_empty(),
        "docs, strings and test code must not trip the rule: {findings:?}"
    );
}

#[test]
fn determinism_out_of_scope_file_is_ignored() {
    // Same banned content, but on the monitoring plane (telemetry is
    // exempt) and in a bench crate: not release-path code.
    for rel in [
        "crates/hcc-engine/src/server_helpers.rs",
        "crates/hcc-bench/src/bin/fixture.rs",
    ] {
        let (findings, _) = lint_as(rel, include_str!("fixtures/determinism_bad.rs"));
        assert!(
            findings.iter().all(|f| f.rule != "determinism"),
            "{rel} is not on the release path: {findings:?}"
        );
    }
}

#[test]
fn lock_order_true_positive_inversion() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/fixture.rs",
        include_str!("fixtures/lock_order_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["lock-order"], "{findings:?}");
    assert!(
        findings[0]
            .message
            .contains("`state` acquired while holding `gate`"),
        "{findings:?}"
    );
}

#[test]
fn lock_order_cycle_is_reported() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/fixture.rs",
        include_str!("fixtures/lock_order_cycle.rs"),
    );
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")),
        "AB/BA nesting must be reported as a cycle: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`state` acquired while holding `cache`")),
        "the inverted edge itself is also an order violation: {findings:?}"
    );
}

#[test]
fn lock_order_false_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/fixture.rs",
        include_str!("fixtures/lock_order_ok.rs"),
    );
    assert!(
        findings.is_empty(),
        "ordered nesting, drops, and chained temporaries are clean: {findings:?}"
    );
}

/// The job's consumer slot (`ActiveJob::on_done`) ranks as `job`:
/// taken under the state lock it is clean, and holding it while taking
/// the state lock is an inversion, not an unclassified receiver.
#[test]
fn lock_order_ranks_the_job_consumer_slot() {
    let nest = |outer: &str, inner: &str| {
        let src = format!(
            "impl ActiveJob {{ fn nest(&self) {{ let a = self.{outer}.lock(); \
             let b = self.{inner}.lock(); drop(b); drop(a); }} }}"
        );
        lint_as("crates/hcc-engine/src/fixture.rs", &src).0
    };
    let ordered = nest("state", "on_done");
    assert!(ordered.is_empty(), "{ordered:?}");
    let inverted = nest("on_done", "state");
    assert_eq!(rules_of(&inverted), vec!["lock-order"], "{inverted:?}");
    assert!(
        inverted[0]
            .message
            .contains("`state` acquired while holding `job`"),
        "{inverted:?}"
    );
}

#[test]
fn lock_order_ignores_non_engine_crates() {
    let (findings, _) = lint_as(
        "crates/hcc-tables/src/fixture.rs",
        include_str!("fixtures/lock_order_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn atomics_true_positives_in_telemetry() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/telemetry.rs",
        include_str!("fixtures/atomics_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec!["atomics", "atomics"],
        "{findings:?}"
    );
    let text = format!("{findings:?}");
    assert!(text.contains("SeqCst"));
    assert!(
        text.contains("Relaxed-only"),
        "Acquire on a telemetry counter: {text}"
    );
}

#[test]
fn atomics_outside_telemetry_only_seqcst_fires() {
    let (findings, _) = lint_as(
        "crates/hcc-tables/src/fixture.rs",
        include_str!("fixtures/atomics_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["atomics"], "{findings:?}");
    assert!(findings[0].message.contains("SeqCst"));
}

#[test]
fn atomics_false_positives_and_waiver() {
    let (findings, waived) = lint_as(
        "crates/hcc-engine/src/telemetry.rs",
        include_str!("fixtures/atomics_ok.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(waived, 1, "the justified SeqCst is waived, not silent");
}

#[test]
fn panic_policy_true_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/server.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec!["panic-policy", "panic-policy", "panic-policy"],
        "index + unwrap + expect: {findings:?}"
    );
}

#[test]
fn panic_policy_covers_the_budget_ledger() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/ledger.rs",
        "fn spent(store: Option<f64>) -> f64 { store.unwrap() }\n",
    );
    assert_eq!(rules_of(&findings), vec!["panic-policy"], "{findings:?}");
}

#[test]
fn panic_policy_false_positives() {
    let (findings, waived) = lint_as(
        "crates/hcc-engine/src/server.rs",
        include_str!("fixtures/panic_ok.rs"),
    );
    assert!(
        findings.is_empty(),
        "typed errors, waived index, type brackets, test unwraps: {findings:?}"
    );
    assert_eq!(waived, 1);
}

#[test]
fn panic_policy_out_of_scope_file_is_ignored() {
    let (findings, _) = lint_as(
        "crates/hcc-engine/src/client.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    assert!(
        findings.iter().all(|f| f.rule != "panic-policy"),
        "client.rs is not a server/worker connection path: {findings:?}"
    );
}

#[test]
fn noise_true_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-estimators/src/fixture.rs",
        include_str!("fixtures/noise_bad.rs"),
    );
    let rules = rules_of(&findings);
    assert_eq!(
        rules,
        vec!["noise-discipline", "noise-discipline"],
        "DoubleGeometric outside hcc-noise + bare seed_from_u64: {findings:?}"
    );
}

#[test]
fn noise_rule_allows_the_noise_crate_itself() {
    let (findings, _) = lint_as(
        "crates/hcc-noise/src/fixture.rs",
        include_str!("fixtures/noise_bad.rs"),
    );
    assert!(
        findings.is_empty(),
        "hcc-noise may construct its own sampler and seed freely: {findings:?}"
    );
}

#[test]
fn noise_false_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-estimators/src/fixture.rs",
        include_str!("fixtures/noise_ok.rs"),
    );
    assert!(
        findings.is_empty(),
        "seed_from_u64 fed by node_seeds is sanctioned: {findings:?}"
    );
}

#[test]
fn hygiene_true_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-newcrate/src/lib.rs",
        include_str!("fixtures/hygiene_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec!["hygiene", "hygiene"],
        "{findings:?}"
    );
}

#[test]
fn hygiene_binary_roots_need_no_missing_docs() {
    let (findings, _) = lint_as(
        "crates/hcc-newcrate/src/bin/tool.rs",
        include_str!("fixtures/hygiene_bad.rs"),
    );
    assert_eq!(rules_of(&findings), vec!["hygiene"], "{findings:?}");
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
}

#[test]
fn hygiene_false_positives() {
    let (findings, _) = lint_as(
        "crates/hcc-newcrate/src/lib.rs",
        include_str!("fixtures/hygiene_ok.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hygiene_ignores_non_root_modules() {
    let (findings, _) = lint_as(
        "crates/hcc-newcrate/src/helpers.rs",
        include_str!("fixtures/hygiene_bad.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_and_unknown_waivers_are_findings() {
    let (findings, waived) = lint_as(
        "crates/hcc-tables/src/fixture.rs",
        include_str!("fixtures/waiver_bad.rs"),
    );
    assert_eq!(
        rules_of(&findings),
        vec!["waiver", "waiver"],
        "{findings:?}"
    );
    assert_eq!(waived, 0);
    let text = format!("{findings:?}");
    assert!(
        text.contains("reason"),
        "reason-less waiver reported: {text}"
    );
    assert!(
        text.contains("made-up-rule"),
        "unknown rule name reported: {text}"
    );
}

#[test]
fn waivers_do_not_leak_across_lines() {
    // A waiver covers its own line and the next — not two lines down.
    let src = "// hcc-lint: allow(atomics, reason = \"close enough\")\n\
               fn a() {}\n\
               use std::sync::atomic::Ordering;\n\
               fn b(c: &std::sync::atomic::AtomicU64) { c.load(Ordering::SeqCst); }\n";
    let (findings, waived) = lint_as("crates/hcc-tables/src/fixture.rs", src);
    assert_eq!(rules_of(&findings), vec!["atomics"], "{findings:?}");
    assert_eq!(waived, 0);
}
