//! Multi-process contention test of the content-addressed artifact store:
//! N concurrent `bgc run` subprocesses over one shared, cold store must
//! produce byte-identical results, compute each artifact exactly once
//! (single-flight) — the cell itself included — and leave no orphan temp
//! or lock files behind.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const PROCESSES: usize = 3;

fn temp_workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgc-store-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp workdir");
    dir
}

fn bgc(workdir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgc"));
    cmd.current_dir(workdir)
        .env_remove("BGC_FAULTS")
        .env_remove("BGC_STORE_DIR");
    cmd
}

fn store_files(workdir: &Path) -> Vec<String> {
    fs::read_dir(workdir.join("target/store"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default()
}

fn stat(doc: &Value, counter: &str) -> u64 {
    doc.get("stats")
        .and_then(|s| s.get(counter))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats.{} missing from the JSON document", counter))
}

#[test]
fn concurrent_runs_share_one_store_with_exactly_once_computation() {
    let dir = temp_workdir("contention");

    // Race N identical runs against the shared cold store.
    let children: Vec<_> = (0..PROCESSES)
        .map(|_| {
            bgc(&dir)
                .args(["run", "--dataset", "cora", "--serial", "--format", "json"])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("bgc spawns")
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|child| child.wait_with_output().expect("bgc finishes"))
        .collect();
    for output in &outputs {
        assert_eq!(output.status.code(), Some(0), "every process succeeds");
    }
    let docs: Vec<Value> = outputs
        .iter()
        .map(|output| {
            serde_json::from_str(&String::from_utf8_lossy(&output.stdout))
                .expect("each process emits one JSON document")
        })
        .collect();

    // Exactly-once computation: across all processes the three artifacts
    // (clean condensation, attack and the cell's eval result) were computed
    // exactly once in total, so one process evaluated the cell and the
    // others read it; nothing fell back to degraded in-process compute.
    let sum = |counter: &str| -> u64 { docs.iter().map(|doc| stat(doc, counter)).sum() };
    let counts = ["store_computed", "cells_computed", "store_degraded"].map(sum);
    assert_eq!(counts, [3, 1, 0], "computed, cells computed, degraded");

    // Byte-identical results: every process reports the same cell canon
    // and the same measured result values.
    let results: Vec<String> = docs
        .iter()
        .map(|doc| {
            let cells = doc.get("cells").and_then(Value::as_array).expect("cells");
            assert_eq!(cells.len(), 1, "one cell per run");
            let canon = cells[0].get("cell").and_then(Value::as_str).expect("canon");
            let result = cells[0].get("result").expect("result");
            format!("{}: {}", canon, result.to_json_string())
        })
        .collect();
    for result in &results {
        assert_eq!(result, &results[0], "results are byte-identical");
    }

    // The store holds exactly the three live artifacts — no orphan temp
    // files, no leaked locks, nothing quarantined.
    let mut files = store_files(&dir);
    files.sort();
    assert_eq!(files.len(), 3, "three live artifacts: {:?}", files);
    assert!(
        files.iter().all(|name| name.ends_with(".art")),
        "no orphan .tmp/.lock/.corrupt files: {:?}",
        files
    );

    // A warm follow-up run reads the cell and computes nothing.
    let output = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial", "--format", "json"])
        .output()
        .expect("warm run");
    assert_eq!(output.status.code(), Some(0));
    let doc: Value = serde_json::from_str(&String::from_utf8_lossy(&output.stdout))
        .expect("warm run emits JSON");
    let warm = ["store_computed", "cell_disk_hits"].map(|counter| stat(&doc, counter));
    assert_eq!(warm, [0, 1], "warm store: nothing computed, cell read");

    let _ = fs::remove_dir_all(&dir);
}
