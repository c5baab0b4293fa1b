//! Subprocess tests of the `bgc` binary's failure behaviour: distinct exit
//! codes per failure class, `BGC_FAULTS` injection end to end, `--deadline`
//! timeouts, and the store's atomic-rename publish surviving a kill
//! mid-persist.
//!
//! Each test runs the real binary (`CARGO_BIN_EXE_bgc`) in its own temp
//! working directory — the artifact store lives under the cwd-relative
//! `target/store/`.

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
    cmd.current_dir(workdir)
        .env_remove("BGC_FAULTS")
        .env_remove("BGC_STORE_DIR");
    cmd
}

fn store_dir(workdir: &Path) -> PathBuf {
    workdir.join("target/store")
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

/// The stage of every live artifact under `dir`, sorted.
fn artifact_stages(dir: &Path) -> Vec<String> {
    let mut stages: Vec<String> = dir_files(dir, ".art")
        .iter()
        .map(|path| {
            let bytes = fs::read(path).expect("artifact readable");
            let canon = bgc_store::parse_artifact_canon(&bytes).expect("artifact verifies");
            canon.split('|').nth(1).unwrap_or_default().to_string()
        })
        .collect();
    stages.sort();
    stages
}

#[test]
fn exit_codes_distinguish_failure_classes_end_to_end() {
    let dir = temp_workdir("exit-codes");

    // 2: malformed invocation.
    let status = bgc(&dir).arg("frobnicate").status().expect("bgc runs");
    assert_eq!(status.code(), Some(2));

    // 2: malformed BGC_FAULTS (rejected before any cell runs): an unknown
    // action, and a misspelt point that would otherwise arm nothing.
    for faults in ["stage.clean=explode", "stage.clen=panic"] {
        let status = bgc(&dir)
            .args(["run", "--dataset", "cora", "--no-cache"])
            .env("BGC_FAULTS", faults)
            .status()
            .expect("bgc runs");
        assert_eq!(status.code(), Some(2), "BGC_FAULTS={}", faults);
    }

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
        "--plan",
        "sampled:b32:f5x5",
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
    let store = store_dir(&dir);
    let is_tmp = |p: &PathBuf| p.to_string_lossy().contains(".art.tmp-");

    // Arm a long delay between the temp-file write and the atomic rename of
    // the cell's own `eval` artifact (the third publish, after the clean
    // and attack stages), then kill the process inside that window.
    let mut child = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .env("BGC_FAULTS", "store.write#3=delay:20000")
        .spawn()
        .expect("bgc spawns");
    // Once both stages are live, the only temp file left to appear is the
    // cell's own.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_tmp = false;
    while Instant::now() < deadline {
        let in_window =
            dir_files(&store, ".art").len() == 2 && dir_files(&store, "").iter().any(is_tmp);
        if !in_window {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        saw_tmp = true;
        break;
    }
    child.kill().expect("kill mid-persist");
    let _ = child.wait();
    assert!(saw_tmp, "persist window was observed before the kill");
    assert_eq!(
        artifact_stages(&store),
        ["attack", "clean"],
        "no live eval artifact exists after a kill mid-persist"
    );

    // A fault-free re-run sweeps the dead writer's temp file, evaluates the
    // cell from the stored stages and publishes a complete artifact.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));
    assert_eq!(artifact_stages(&store), ["attack", "clean", "eval"]);
    assert!(
        !dir_files(&store, "").iter().any(is_tmp),
        "stale temp files were swept"
    );

    // A third run serves the cell from the store without touching a byte.
    let live = dir_files(&store, ".art");
    let healed: Vec<Vec<u8>> = live.iter().map(|p| fs::read(p).expect("bytes")).collect();
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));
    for (path, bytes) in live.iter().zip(&healed) {
        assert_eq!(&fs::read(path).expect("bytes"), bytes);
    }

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

    // The healed store is byte-identical to the never-faulted one.
    let reference_artifacts = dir_files(&store_dir(&reference), ".art");
    let healed_artifacts = dir_files(&store_dir(&faulted), ".art");
    assert_eq!(
        artifact_stages(&store_dir(&reference)),
        ["attack", "clean", "eval"]
    );
    assert_eq!(reference_artifacts.len(), healed_artifacts.len());
    for path in &reference_artifacts {
        let name = path.file_name().expect("file name");
        let healed = store_dir(&faulted).join(name);
        assert_eq!(
            fs::read(path).expect("reference bytes"),
            fs::read(&healed).expect("healed bytes"),
            "artifact {} healed byte-identically",
            name.to_string_lossy()
        );
    }

    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&faulted);
}
