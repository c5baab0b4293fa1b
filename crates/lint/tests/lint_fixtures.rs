//! End-to-end fixture tests: `bgc_lint::lint_workspace` over the mini
//! workspace in `tests/fixtures/ws`, which has a positive, negative,
//! waived and baselined fixture for every rule.

use std::path::{Path, PathBuf};

use bgc_lint::{lint_files, lint_workspace, render_json, workspace_files, Baseline, Rule};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn fixture_workspace_reports_exactly_the_planted_violations() {
    let report = lint_workspace(&fixture_root()).expect("fixture workspace lints");

    let by_rule = |rule: Rule| -> Vec<(&str, usize)> {
        report
            .violations
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| (f.file.as_str(), f.line))
            .collect()
    };

    // poison-unsafe-lock: the pre-fix memo-lock shape fires on both the
    // Mutex and RwLock sites; the relock'd negative fixture is silent.
    let poison = by_rule(Rule::PoisonUnsafeLock);
    assert_eq!(poison.len(), 2, "{poison:?}");
    assert!(poison
        .iter()
        .all(|(file, _)| *file == "crates/demo/src/poison_positive.rs"));

    // unchecked-panic: 3 library findings in panic_positive; the test-scope
    // copies, the waived site and the baselined sites are silent.
    let panics = by_rule(Rule::UncheckedPanic);
    assert_eq!(panics.len(), 3, "{panics:?}");
    assert!(panics
        .iter()
        .all(|(file, _)| *file == "crates/demo/src/panic_positive.rs"));

    // nondet-iteration: only the designated order-sensitive path fires.
    let nondet = by_rule(Rule::NondetIteration);
    assert_eq!(nondet.len(), 2, "{nondet:?}");
    assert!(nondet
        .iter()
        .all(|(file, _)| *file == "crates/eval/src/runner.rs"));

    // wall-clock-in-compute: both reads outside the allowlist; the
    // allowlisted bench copy is silent.
    let clocks = by_rule(Rule::WallClockInCompute);
    assert_eq!(clocks.len(), 2, "{clocks:?}");
    assert!(clocks
        .iter()
        .all(|(file, _)| *file == "crates/demo/src/wallclock_positive.rs"));

    // unregistered-fault-point: the bogus literal only; the registered
    // points and the test-scope toy point are silent.
    let faults = by_rule(Rule::UnregisteredFaultPoint);
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].0, "crates/demo/src/fault_points.rs");

    // Waiver hygiene: one unused waiver, one malformed (reason-less).
    assert_eq!(by_rule(Rule::UnusedWaiver).len(), 1);
    assert_eq!(by_rule(Rule::MalformedWaiver).len(), 1);

    // Bookkeeping: one waived finding, three baselined, nothing stale.
    assert_eq!(report.waived, 1);
    assert_eq!(report.baselined, 3);
    assert!(report.stale.is_empty(), "{:?}", report.stale);
    assert_eq!(report.violations.len(), 12, "{:#?}", report.violations);
}

#[test]
fn stale_baseline_entries_are_detected() {
    let root = fixture_root();
    let files = workspace_files(&root).expect("fixture files");
    // A baseline that over-admits (3 > the 1 actual finding), admits a
    // vanished file, and baselines a non-baselineable rule: all stale.
    let baseline = Baseline::parse(
        r#"{
            "unchecked-panic": {
                "crates/demo/src/panic_baselined.rs": 3,
                "crates/demo/src/deleted_long_ago.rs": 2
            },
            "poison-unsafe-lock": { "crates/demo/src/poison_positive.rs": 2 }
        }"#,
    )
    .expect("parses");
    let report = lint_files(&root, &files, &baseline, bgc_lint::FAULT_POINTS)
        .expect("fixture workspace lints");
    assert_eq!(report.stale.len(), 3, "{:?}", report.stale);
    assert!(!report.is_clean());
}

#[test]
fn json_output_round_trips_and_counts_match() {
    let report = lint_workspace(&fixture_root()).expect("fixture workspace lints");
    let json = render_json(&report);
    let value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(
        value
            .get("violations")
            .and_then(|v| v.as_array())
            .map(|a| a.len()),
        Some(report.violations.len())
    );
    assert_eq!(value.get("clean").and_then(|v| v.as_bool()), Some(false));
    // Every violation row carries a file:line span and a rule name.
    let rows = value
        .get("violations")
        .and_then(|v| v.as_array())
        .expect("violations array");
    for row in rows {
        assert!(row.get("rule").and_then(|v| v.as_str()).is_some());
        assert!(row.get("file").and_then(|v| v.as_str()).is_some());
        assert!(row.get("line").and_then(|v| v.as_u64()).is_some());
        assert!(row.get("message").and_then(|v| v.as_str()).is_some());
    }
}

#[test]
fn violations_are_sorted_and_deterministic() {
    let first = lint_workspace(&fixture_root()).expect("lints");
    let second = lint_workspace(&fixture_root()).expect("lints");
    let spans = |r: &bgc_lint::LintReport| -> Vec<(String, usize)> {
        r.violations
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect()
    };
    assert_eq!(spans(&first), spans(&second));
    let mut sorted = spans(&first);
    sorted.sort();
    assert_eq!(spans(&first), sorted, "violations are file:line sorted");
}
