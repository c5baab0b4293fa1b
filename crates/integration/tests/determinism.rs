//! Byte-identical-output tests: the grid's observable outputs — the store
//! artifacts of its stages and cells, and per-cell results — must not
//! depend on cell submission order or on serial vs. parallel execution.
//! This is the behavioural guarantee behind the `disallowed-types` entries
//! of `crates/clippy.toml`: every map on the canonicalization/persist/report
//! path is a `BTreeMap`, so no hash-seed or scheduling accident can leak
//! into bytes.

use std::fs;
use std::path::{Path, PathBuf};

use bgc_condense::CondensationKind;
use bgc_eval::{CellKey, ExperimentScale, Runner};
use bgc_graph::DatasetKind;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The live `.art` artifacts of a store root as sorted `(file name, bytes)`
/// pairs.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).expect("store root exists") {
        let path = entry.expect("store entry").path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.ends_with(".art") {
            files.push((name, fs::read(&path).expect("artifact readable")));
        }
    }
    files.sort();
    files
}

#[test]
fn grid_outputs_are_byte_identical_across_order_and_parallelism() {
    let dir_serial = fresh_dir("determinism_serial");
    let dir_parallel = fresh_dir("determinism_parallel");

    // Serial runner, cells submitted in natural order.
    let serial = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir_serial.clone())).serial();
    let g1 = serial.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let g2 = serial.bgc_group(DatasetKind::Cora, CondensationKind::DcGraph, 0.026);
    let keys: Vec<CellKey> = g1.keys.iter().chain(g2.keys.iter()).cloned().collect();
    let report = serial.run_cells(&keys);
    assert!(report.is_ok(), "{}", report.summary());

    // Parallel runner (default thread pool), same cells submitted reversed.
    let parallel = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir_parallel.clone()));
    let reversed: Vec<CellKey> = keys.iter().rev().cloned().collect();
    let report = parallel.run_cells(&reversed);
    assert!(report.is_ok(), "{}", report.summary());

    // Per-cell results agree to the bit regardless of order/scheduling.
    for key in &keys {
        let a = serial.result(key).expect("serial result");
        let b = parallel.result(key).expect("parallel result");
        assert_eq!(a.cta.to_bits(), b.cta.to_bits(), "{}", key.canon());
        assert_eq!(a.asr.to_bits(), b.asr.to_bits(), "{}", key.canon());
        assert_eq!(a.c_cta.to_bits(), b.c_cta.to_bits(), "{}", key.canon());
        assert_eq!(a.c_asr.to_bits(), b.c_asr.to_bits(), "{}", key.canon());
        assert_eq!(a.asr_nodes, b.asr_nodes, "{}", key.canon());
    }

    // The stores are byte-identical: same artifact names, same bytes.  Each
    // cell (two methods on one dataset) publishes its own clean, attack and
    // eval artifact.
    let files_serial = artifacts(&dir_serial);
    let files_parallel = artifacts(&dir_parallel);
    assert_eq!(
        files_serial.len(),
        3 * keys.len(),
        "three artifacts per cell"
    );
    let names: Vec<&str> = files_serial.iter().map(|(n, _)| n.as_str()).collect();
    let names_parallel: Vec<&str> = files_parallel.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, names_parallel);
    for ((name, a), (_, b)) in files_serial.iter().zip(&files_parallel) {
        assert_eq!(
            a, b,
            "artifact {name} differs between serial and parallel runs"
        );
    }
}
