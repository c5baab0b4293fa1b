//! Subprocess tests of the `bgc` binary's failure behaviour: distinct exit
//! codes per failure class, `BGC_FAULTS` injection end to end, `--deadline`
//! timeouts, and the atomic-rename persist protocol surviving a kill
//! mid-persist.
//!
//! Each test runs the real binary (`CARGO_BIN_EXE_bgc`) in its own temp
//! working directory — the cell cache lives under the cwd-relative
//! `target/experiments/<scale>/cells/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn temp_workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgc-cli-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp workdir");
    dir
}

fn bgc(workdir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgc"));
    cmd.current_dir(workdir).env_remove("BGC_FAULTS");
    cmd
}

fn cells_dir(workdir: &Path) -> PathBuf {
    workdir.join("target/experiments/quick/cells")
}

fn dir_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.to_string_lossy().ends_with(suffix))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn exit_codes_distinguish_failure_classes_end_to_end() {
    let dir = temp_workdir("exit-codes");

    // 2: malformed invocation.
    let status = bgc(&dir).arg("frobnicate").status().expect("bgc runs");
    assert_eq!(status.code(), Some(2));

    // 2: malformed BGC_FAULTS (rejected before any cell runs).
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=explode")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(2));

    // 1: unknown registry name (a configuration error, not a cell failure).
    let status = bgc(&dir)
        .args([
            "run",
            "--dataset",
            "cora",
            "--attack",
            "Ghost",
            "--no-cache",
        ])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(1));

    // 3: an injected panic fails the cell under --keep-going.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--keep-going", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));

    // 3: the same failure without --keep-going still exits as a cell failure.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));

    // 0: the identical fault-free invocation succeeds.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_times_out_runs_and_reports_without_a_panic_report() {
    let dir = temp_workdir("deadline");
    let invocations: [&[&str]; 2] = [
        &["run", "--dataset", "cora", "--serial", "--no-cache"],
        &["table", "2", "--scale", "quick", "--no-cache"],
    ];
    for args in invocations {
        let output = bgc(&dir)
            .args(args)
            .args(["--deadline", "0.0005"])
            .output()
            .expect("bgc runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(3),
            "`bgc {}` past its deadline is a cell failure:\n{}",
            args.join(" "),
            stderr
        );
        assert!(
            stderr.contains("timed out"),
            "the failure is reported as a timeout:\n{}",
            stderr
        );
        assert!(
            !stderr.contains("panicked at"),
            "a cooperative cancellation prints no panic report:\n{}",
            stderr
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sampler_thread_panic_fails_only_its_cell_and_shuts_down_cleanly() {
    let dir = temp_workdir("sampler-fault");
    let sampled_args = [
        "run",
        "--dataset",
        "cora",
        "--serial",
        "--batch-size",
        "32",
        "--fanouts",
        "5x5",
    ];

    // A panic injected on the prefetch producer thread must be forwarded to
    // the trainer, fail the cell as an ordinary cell failure (exit 3, not a
    // crash), name the fault point in the failure output, and leave no
    // deadlocked pipeline behind — the process must exit promptly instead
    // of hanging on a blocked channel or an unjoined sampler thread.
    let start = Instant::now();
    let output = bgc(&dir)
        .args(sampled_args)
        .args(["--keep-going", "--no-cache"])
        .env("BGC_FAULTS", "sampler.produce=panic")
        .output()
        .expect("bgc runs");
    assert_eq!(
        output.status.code(),
        Some(3),
        "a sampler-thread panic is a cell failure:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let combined = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        combined.contains("sampler.produce"),
        "the failure names the injected fault point:\n{}",
        combined
    );
    assert!(
        start.elapsed() < Duration::from_secs(600),
        "the pipeline shut down instead of deadlocking"
    );

    // The identical fault-free invocation succeeds: the producer fault
    // poisoned one run, not the workspace.
    let status = bgc(&dir).args(sampled_args).status().expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_during_persist_leaves_no_partial_cell_file_and_rerun_heals() {
    let dir = temp_workdir("kill-persist");

    // Arm a long delay between the temp-file write and the atomic rename,
    // then kill the process inside that window.
    let mut child = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .env("BGC_FAULTS", "runner.persist=delay:20000")
        .spawn()
        .expect("bgc spawns");
    let cells = cells_dir(&dir);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_tmp = false;
    while Instant::now() < deadline {
        if !dir_files(&cells, "").iter().any(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains(".json.tmp-"))
        }) {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        saw_tmp = true;
        break;
    }
    child.kill().expect("kill mid-persist");
    let _ = child.wait();
    assert!(saw_tmp, "persist window was observed before the kill");
    assert!(
        dir_files(&cells, ".json").is_empty(),
        "no live cell file exists after a kill mid-persist"
    );

    // A fault-free re-run sweeps the stale temp file, recomputes and
    // persists a complete, checksummed cell file.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));
    let live = dir_files(&cells, ".json");
    assert_eq!(live.len(), 1, "exactly one live cell file: {:?}", live);
    assert!(
        dir_files(&cells, "")
            .iter()
            .all(|p| !p.to_string_lossy().contains(".json.tmp-")),
        "stale temp files were swept"
    );
    let text = fs::read_to_string(&live[0]).expect("cell file reads");
    let footer = text.trim_end().lines().last().unwrap_or_default();
    assert!(
        footer.starts_with("#bgc-cell v") && footer.contains("fnv1a64="),
        "cell file carries an integrity footer: {}",
        footer
    );

    // A third run serves the cell from disk without touching the bytes.
    let healed = fs::read(&live[0]).expect("healed bytes");
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));
    assert_eq!(fs::read(&live[0]).expect("bytes"), healed);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn faulted_then_clean_rerun_matches_a_never_faulted_cache_byte_for_byte() {
    let reference = temp_workdir("heal-reference");
    let faulted = temp_workdir("heal-faulted");

    // Reference: one clean run.
    let status = bgc(&reference)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    // Faulted: an injected panic fails the run, a clean re-run heals.
    let status = bgc(&faulted)
        .args(["run", "--dataset", "cora", "--serial", "--keep-going"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));
    let status = bgc(&faulted)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    // The healed cache is byte-identical to the never-faulted one.
    let reference_cells = dir_files(&cells_dir(&reference), ".json");
    let healed_cells = dir_files(&cells_dir(&faulted), ".json");
    assert!(!reference_cells.is_empty());
    assert_eq!(reference_cells.len(), healed_cells.len());
    for path in &reference_cells {
        let name = path.file_name().expect("file name");
        let healed = cells_dir(&faulted).join(name);
        assert_eq!(
            fs::read(path).expect("reference bytes"),
            fs::read(&healed).expect("healed bytes"),
            "cell {} healed byte-identically",
            name.to_string_lossy()
        );
    }

    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&faulted);
}
