//! Invariant tests against the *real* workspace (not fixtures):
//!
//! * `bgc lint` runs clean — the acceptance bar for every future change;
//! * the fault-point registry `bgc_runtime::FAULT_POINTS` exactly matches
//!   the set of `fault::fire`/`fire_io` literals in non-test library code,
//!   in both directions (no unregistered firing, no dead registry entry).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bgc_lint::lexer::{test_scope, tokenize, TokenKind};
use bgc_lint::{lint_workspace, workspace_files, FAULT_POINTS};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("workspace lints");
    assert!(
        report.is_clean(),
        "bgc lint must stay clean; run `cargo run -p bgc-bench --bin bgc -- lint` \
         and fix, waive or (for unchecked-panic only) re-baseline:\n{}",
        bgc_lint::render_human(&report)
    );
    assert!(report.files_scanned > 50, "the scan covered the workspace");
}

#[test]
fn fault_point_registry_matches_fire_call_sites_exactly() {
    let root = repo_root();
    let mut fired: BTreeSet<String> = BTreeSet::new();
    for path in workspace_files(&root).expect("workspace files") {
        let source = std::fs::read_to_string(&path).expect("readable source");
        let tokens = tokenize(&source);
        let in_test = test_scope(&tokens);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        for (k, &idx) in code.iter().enumerate() {
            if in_test[idx] {
                continue;
            }
            let tok = &tokens[idx];
            if tok.kind == TokenKind::Ident
                && matches!(tok.text.as_str(), "fire" | "fire_io")
                && k + 2 < code.len()
                && tokens[code[k + 1]].text == "("
                && tokens[code[k + 2]].kind == TokenKind::Str
            {
                fired.insert(tokens[code[k + 2]].text.clone());
            }
        }
    }
    let registered: BTreeSet<String> = FAULT_POINTS.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        fired, registered,
        "bgc_runtime::FAULT_POINTS and the non-test fault::fire call sites \
         must match exactly (left: fired, right: registered)"
    );
}

#[test]
fn committed_baseline_is_byte_stable() {
    // Regenerating the committed baseline from the current findings must
    // reproduce it byte for byte — proof that it is neither stale nor
    // hand-edited out of sync.
    let root = repo_root();
    let report = lint_workspace(&root).expect("workspace lints");
    let regenerated = bgc_lint::Baseline::from_counts(&report.counts).to_json();
    let committed = std::fs::read_to_string(root.join(bgc_lint::BASELINE_FILE))
        .expect("lint-baseline.json is committed");
    assert_eq!(
        committed, regenerated,
        "lint-baseline.json drifted; regenerate with `bgc lint --write-baseline`"
    );
}
