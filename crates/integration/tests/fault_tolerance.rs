//! Integration tests of fault-tolerant grid execution through the public
//! `bgc_eval` API: injected panics stay isolated to their cell under
//! `keep_going`, a re-run heals a spent fault bit-identically,
//! cell deadlines cancel cooperatively inside the training stack, and
//! corrupt store artifacts are quarantined and recomputed to the same bytes.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bgc_condense::CondensationKind;
use bgc_eval::{
    CellStatus, ExperimentScale, FaultAction, FaultPlan, FaultSpec, GridReport, Runner,
};
use bgc_graph::DatasetKind;

fn quick_runner() -> Runner {
    Runner::in_memory(ExperimentScale::Quick).serial()
}

/// The live artifacts under a store root whose stored key belongs to
/// `stage`, as `(path, bytes)` pairs.
fn stage_artifacts(root: &Path, stage: &str) -> Vec<(PathBuf, Vec<u8>)> {
    let prefix = format!("k{}|{}|", bgc_store::KEY_VERSION, stage);
    fs::read_dir(root)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|path| path.extension().is_some_and(|ext| ext == "art"))
                .filter_map(|path| fs::read(&path).ok().map(|bytes| (path, bytes)))
                .filter(|(_, bytes)| {
                    bgc_store::parse_artifact_canon(bytes).is_ok_and(|c| c.starts_with(&prefix))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn grid_keys(runner: &Runner) -> Vec<bgc_eval::CellKey> {
    let cora = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let citeseer = runner.bgc_group(DatasetKind::Citeseer, CondensationKind::GCondX, 0.018);
    cora.keys
        .iter()
        .chain(citeseer.keys.iter())
        .cloned()
        .collect()
}

fn outcome_for(report: &GridReport, dataset: DatasetKind) -> &bgc_eval::CellOutcome {
    report
        .outcomes
        .iter()
        .find(|outcome| outcome.key.dataset == dataset)
        .expect("grid contains the dataset")
}

#[test]
fn keep_going_isolates_an_injected_panic_to_its_cell() {
    // A panic injected deep inside citeseer's training loop must not take
    // down the cora cell sharing the grid, and the aggregate error must name
    // the panicked cell.
    let plan = FaultPlan::new()
        .with(FaultSpec::new("trainer.epoch", FaultAction::Panic).in_context("citeseer"));
    let runner = quick_runner().keep_going(true).with_fault_plan(plan);
    let keys = grid_keys(&runner);
    let report = runner.run_cells(&keys);

    assert!(!report.is_ok());
    assert!(outcome_for(&report, DatasetKind::Cora).status.is_success());
    let citeseer = outcome_for(&report, DatasetKind::Citeseer);
    assert!(
        matches!(&citeseer.status, CellStatus::Panicked { message } if message.contains("trainer.epoch")),
        "expected an injected panic, got {:?}",
        citeseer.status
    );
    let err = report.error().expect("a failed grid aggregates an error");
    assert!(err.to_string().contains("citeseer"), "{}", err);
    assert!(err.is_cell_failure());
}

#[test]
fn a_rerun_heals_a_transient_panic_bit_identically() {
    // Injected faults fire exactly once, so a second runner on the same,
    // now spent, plan recovers the cell — and the recovered result must
    // match a fault-free run to the bit.
    let clean = quick_runner();
    let keys = grid_keys(&clean);
    assert!(clean.run_cells(&keys).is_ok());

    let plan = FaultPlan::new()
        .with(FaultSpec::new("trainer.epoch", FaultAction::Panic).in_context("citeseer"));
    let faulted = quick_runner()
        .keep_going(true)
        .with_fault_plan(plan.clone());
    let report = faulted.run_cells(&keys);
    assert!(matches!(
        outcome_for(&report, DatasetKind::Citeseer).status,
        CellStatus::Panicked { .. }
    ));

    let rerun = quick_runner().with_fault_plan(plan);
    let report = rerun.run_cells(&keys);
    assert!(report.is_ok(), "a re-run heals: {}", report.summary());
    for key in &keys {
        let healed = rerun.result(key).expect("cell result");
        let reference = clean.result(key).expect("cell result");
        assert_eq!(healed.cta.to_bits(), reference.cta.to_bits());
        assert_eq!(healed.asr.to_bits(), reference.asr.to_bits());
        assert_eq!(healed.c_cta.to_bits(), reference.c_cta.to_bits());
        assert_eq!(healed.c_asr.to_bits(), reference.c_asr.to_bits());
    }
}

#[test]
fn cell_deadline_cancels_inside_the_training_loop() {
    // A delay injected into the first trainer epoch pushes the cell past its
    // deadline; the next cooperative checkpoint must unwind into a typed
    // timeout (not a panic).
    let plan = FaultPlan::new().with(FaultSpec::new(
        "trainer.epoch",
        FaultAction::Delay(Duration::from_millis(300)),
    ));
    let runner = quick_runner()
        .keep_going(true)
        .with_fault_plan(plan)
        .with_cell_timeout(Some(Duration::from_millis(50)));
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let report = runner.run_cells(&group.keys);

    let outcome = outcome_for(&report, DatasetKind::Cora);
    assert!(
        matches!(outcome.status, CellStatus::TimedOut { limit_ms: 50 }),
        "expected a 50 ms timeout, got {:?}",
        outcome.status
    );
}

#[test]
fn corrupt_cache_files_quarantine_and_heal_byte_identically() {
    let dir = std::env::temp_dir().join(format!("bgc-integration-corrupt-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Populate the store and snapshot the cell's pristine `eval` artifact.
    let runner = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone())).serial();
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    assert!(runner.run_cells(&group.keys).is_ok());
    let mut cells = stage_artifacts(&dir, "eval");
    assert_eq!(cells.len(), 1, "one eval artifact persisted");
    let (cell_file, pristine) = cells.remove(0);

    // Truncate the artifact mid-payload; a fresh runner must quarantine it,
    // recompute the cell from the stored stages, and publish the identical
    // bytes again.
    fs::write(&cell_file, &pristine[..pristine.len() / 2]).expect("truncate");
    let recovery = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone())).serial();
    let group = recovery.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    assert!(recovery.run_cells(&group.keys).is_ok());
    let stats = recovery.stats();
    let store = recovery.store().expect("store attached");
    assert_eq!(store.counters().quarantined, 1);
    assert_eq!(stats.cells_computed, 1);
    assert_eq!(stats.cell_disk_hits, 0);
    assert_eq!(stats.store_hits, 2, "both stages still serve");
    let quarantined = cell_file.with_extension("art.corrupt");
    assert!(quarantined.exists(), "corrupt file kept for inspection");
    assert_eq!(
        fs::read(&cell_file).expect("healed bytes"),
        pristine,
        "recomputed eval artifact is byte-identical"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn injected_persist_faults_keep_results_usable() {
    // A failed publish of the cell's own result must not fail the cell: the
    // in-memory result stays valid, the store counts the cell as degraded,
    // and no partial file is left behind.  On a pre-warmed store the cell's
    // `eval` publish is the only write.
    let dir = std::env::temp_dir().join(format!("bgc-integration-persist-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let warm = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone())).serial();
    let group = warm.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    assert!(warm.run_cells(&group.keys).is_ok());
    for (path, _) in stage_artifacts(&dir, "eval") {
        fs::remove_file(path).expect("drop the cell's result");
    }

    let plan = FaultPlan::new().with(FaultSpec::new("store.write", FaultAction::IoError));
    let runner = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone()))
        .serial()
        .with_fault_plan(plan);
    let report = runner.run_cells(&group.keys);

    assert!(report.is_ok(), "publish failures do not fail the cell");
    assert_eq!(report.outcomes[0].status, CellStatus::Ok);
    assert!(runner.result(&group.keys[0]).is_ok());
    let stats = runner.stats();
    assert_eq!(stats.store_degraded, 1);
    assert_eq!((stats.store_hits, stats.cells_computed), (2, 1));
    assert!(
        stage_artifacts(&dir, "eval").is_empty(),
        "no live eval artifact"
    );
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_none_or(|ext| ext != "art"))
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "no partial, tmp or lock files after a failed publish: {:?}",
        leftovers
    );

    let _ = fs::remove_dir_all(&dir);
}
