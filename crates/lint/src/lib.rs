//! `bgc-lint` — the workspace invariant lint pass.
//!
//! A self-contained static-analysis pass (hand-rolled lexer, no external
//! parser) that enforces the determinism, panic-safety and fault-point
//! invariants the BGC reproduction's correctness arguments rest on:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `poison-unsafe-lock` | lock poisoning recovers via `bgc_runtime::relock`, never cascades panics |
//! | `unchecked-panic` | library code returns typed `BgcError`s (ratcheted by `lint-baseline.json`) |
//! | `nondet-iteration` | canonicalization/persist/report paths never iterate hash maps |
//! | `wall-clock-in-compute` | compute crates are clock-free; timing lives in bench/runtime/store and the prefetch pipeline's stall/idle timers |
//! | `unregistered-fault-point` | every `fault::fire` literal is in `bgc_runtime::FAULT_POINTS` |
//!
//! Findings can be waived inline (`// bgc-lint: allow(rule) — reason`) or,
//! for `unchecked-panic` only, admitted by the committed baseline, which
//! may only ever shrink (see [`baseline`]).  The pass scans
//! `crates/*/src/**/*.rs` — including this crate, so the lint itself is
//! written panic-free.
//!
//! Drive it with `bgc lint` (exit 5 on violations, 6 on a stale baseline)
//! or [`lint_workspace`] directly.  See `docs/lint.md`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

pub use baseline::{Baseline, StaleEntry};
pub use bgc_runtime::FAULT_POINTS;
pub use rules::{Rule, ALL_RULES};

/// The baseline file name at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.json";

/// A confirmed violation (post waiver/baseline filtering).
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation of the violation.
    pub message: String,
}

/// The result of a lint pass over the workspace.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Violations, sorted by (file, line, rule).
    pub violations: Vec<Finding>,
    /// Baseline entries that must be shrunk or removed.
    pub stale: Vec<StaleEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings suppressed by inline waivers.
    pub waived: usize,
    /// Findings admitted by the committed baseline.
    pub baselined: usize,
    /// Current per-(rule, file) counts of baselineable findings (after
    /// waivers) — the input to `--write-baseline`.
    pub counts: BTreeMap<(Rule, String), usize>,
}

impl LintReport {
    /// Whether the workspace is clean: no violations and no stale
    /// baseline entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Lints the workspace rooted at `root`: scans `crates/*/src/**/*.rs`
/// against the committed baseline and `bgc_runtime::FAULT_POINTS`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let baseline = Baseline::load(&root.join(BASELINE_FILE))?;
    let files = workspace_files(root)?;
    lint_files(root, &files, &baseline, bgc_runtime::FAULT_POINTS)
}

/// Collects the lintable sources: every `.rs` file under `crates/*/src`,
/// skipping `tests`, `fixtures` and `target` path components.  Sorted for
/// deterministic output.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    for crate_dir in sorted_dir(&crates_dir)? {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively gathers `.rs` files under `dir`, skipping excluded
/// directory names.
fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    for entry in sorted_dir(dir)? {
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if entry.is_dir() {
            if matches!(name.as_str(), "tests" | "fixtures" | "target") {
                continue;
            }
            collect_rs(&entry, files)?;
        } else if name.ends_with(".rs") {
            files.push(entry.clone());
        }
    }
    Ok(())
}

/// Directory entries of `dir`, sorted by path; an unreadable directory is
/// an error (the lint must never silently skip sources).
fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let reader = std::fs::read_dir(dir)
        .map_err(|err| format!("cannot read directory {}: {err}", dir.display()))?;
    let mut entries = Vec::new();
    for entry in reader {
        let entry = entry.map_err(|err| format!("cannot list {}: {err}", dir.display()))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

/// Lints an explicit file list against an explicit baseline and
/// fault-point registry (the testable core of [`lint_workspace`]).
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    baseline: &Baseline,
    fault_points: &[&str],
) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    // Raw survivors of waiver filtering, keyed for baseline application.
    let mut surviving: Vec<Finding> = Vec::new();

    for path in files {
        let rel = relative_path(root, path);
        let source = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        report.files_scanned += 1;

        let tokens = lexer::tokenize(&source);
        let in_test = lexer::test_scope(&tokens);
        let (waivers, waiver_findings) = rules::parse_waivers(&tokens);
        let mut raw = rules::run_rules(&rel, &tokens, &in_test, fault_points);
        raw.extend(waiver_findings);

        let mut waiver_used = vec![false; waivers.len()];
        for finding in raw {
            // A waiver covers its own line (trailing comment) and the
            // next line (comment above the code).
            let waived = waivers.iter().enumerate().find(|(_, w)| {
                w.rule == finding.rule && (w.line == finding.line || w.line + 1 == finding.line)
            });
            if let Some((idx, _)) = waived {
                waiver_used[idx] = true;
                report.waived += 1;
                continue;
            }
            surviving.push(Finding {
                rule: finding.rule,
                file: rel.clone(),
                line: finding.line,
                message: finding.message,
            });
        }
        for (idx, used) in waiver_used.iter().enumerate() {
            if !used {
                surviving.push(Finding {
                    rule: Rule::UnusedWaiver,
                    file: rel.clone(),
                    line: waivers[idx].line,
                    message: format!(
                        "waiver for `{}` suppressed nothing; remove it",
                        waivers[idx].rule.name()
                    ),
                });
            }
        }
    }

    // Count baselineable findings per (rule, file), then either admit a
    // file's findings (count within baseline) or surface them all.
    for finding in &surviving {
        if finding.rule.baselineable() {
            *report
                .counts
                .entry((finding.rule, finding.file.clone()))
                .or_insert(0) += 1;
        }
    }
    for finding in surviving {
        if finding.rule.baselineable() {
            let found = report
                .counts
                .get(&(finding.rule, finding.file.clone()))
                .copied()
                .unwrap_or(0);
            let allowed = baseline.allowed(finding.rule, &finding.file);
            if found <= allowed {
                report.baselined += 1;
                continue;
            }
            report.violations.push(Finding {
                message: format!(
                    "{} [file has {found} findings, baseline allows {allowed}]",
                    finding.message
                ),
                ..finding
            });
            continue;
        }
        report.violations.push(finding);
    }

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.stale = baseline.stale_entries(&report.counts);
    Ok(report)
}

/// Finds the workspace root by ascending from the current directory until
/// a directory containing both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir()
        .map_err(|err| format!("cannot determine the current directory: {err}"))?;
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace root (Cargo.toml + crates/) above {}",
                    start.display()
                ))
            }
        }
    }
}

/// `path` relative to `root` with `/` separators (the spelling used in
/// findings, waiver docs and the baseline).
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Renders the report for humans: one `file:line: rule: message` per
/// violation, stale entries, then a summary line.
pub fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    for finding in &report.violations {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            finding.file,
            finding.line,
            finding.rule.name(),
            finding.message
        ));
    }
    for stale in &report.stale {
        out.push_str(&format!(
            "lint-baseline.json: stale entry {} / {} (allowed {}, found {}): {}\n",
            stale.rule, stale.file, stale.allowed, stale.found, stale.why
        ));
    }
    out.push_str(&format!(
        "bgc-lint: {} file(s) scanned, {} violation(s), {} stale baseline entr{}, {} waived, {} baselined\n",
        report.files_scanned,
        report.violations.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" },
        report.waived,
        report.baselined,
    ));
    out
}

/// Renders the report as a JSON document (for CI and tooling).
pub fn render_json(report: &LintReport) -> String {
    let violations: Vec<Value> = report
        .violations
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::String(f.rule.name().to_string())),
                ("file".to_string(), Value::String(f.file.clone())),
                ("line".to_string(), Value::Number(f.line as f64)),
                ("message".to_string(), Value::String(f.message.clone())),
            ])
        })
        .collect();
    let stale: Vec<Value> = report
        .stale
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("rule".to_string(), Value::String(s.rule.clone())),
                ("file".to_string(), Value::String(s.file.clone())),
                ("allowed".to_string(), Value::Number(s.allowed as f64)),
                ("found".to_string(), Value::Number(s.found as f64)),
                ("why".to_string(), Value::String(s.why.clone())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        (
            "files_scanned".to_string(),
            Value::Number(report.files_scanned as f64),
        ),
        ("violations".to_string(), Value::Array(violations)),
        ("stale_baseline".to_string(), Value::Array(stale)),
        ("waived".to_string(), Value::Number(report.waived as f64)),
        (
            "baselined".to_string(),
            Value::Number(report.baselined as f64),
        ),
        ("clean".to_string(), Value::Bool(report.is_clean())),
    ]);
    let mut text = doc.to_json_string_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renderers_cover_violations_and_stale_entries() {
        let report = LintReport {
            violations: vec![Finding {
                rule: Rule::UncheckedPanic,
                file: "crates/a/src/lib.rs".to_string(),
                line: 7,
                message: ".unwrap() in library code".to_string(),
            }],
            stale: vec![StaleEntry {
                rule: "unchecked-panic".to_string(),
                file: "crates/b/src/lib.rs".to_string(),
                allowed: 2,
                found: 1,
                why: "shrink".to_string(),
            }],
            files_scanned: 2,
            waived: 1,
            baselined: 3,
            counts: BTreeMap::new(),
        };
        let human = render_human(&report);
        assert!(human.contains("crates/a/src/lib.rs:7: unchecked-panic:"));
        assert!(human.contains("stale entry unchecked-panic / crates/b/src/lib.rs"));
        assert!(human.contains("2 file(s) scanned, 1 violation(s), 1 stale baseline entry"));
        let json = render_json(&report);
        let value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value.get("files_scanned").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(value.get("clean").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            value
                .get("violations")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn clean_report_is_clean() {
        let report = LintReport::default();
        assert!(report.is_clean());
        let json = render_json(&report);
        let value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value.get("clean").and_then(|v| v.as_bool()), Some(true));
    }
}
