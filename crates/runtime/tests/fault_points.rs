//! The fault-point registry `bgc_runtime::FAULT_POINTS` matches the
//! `fault::fire` / `fault::fire_io` literals of the workspace's library code
//! exactly, in both directions: no site fires an unregistered point, and no
//! registered point is dead.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use bgc_runtime::FAULT_POINTS;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The point literal of each `fire("` / `fire_io("` call in the library
/// code of `source`: the lines before its first `#[cfg(test)]`, skipping
/// comment lines.
fn fired_points(source: &str) -> Vec<String> {
    let mut points = Vec::new();
    for line in source.lines().take_while(|line| *line != "#[cfg(test)]") {
        let line = line.trim_start();
        if line.starts_with("//") {
            continue;
        }
        for call in ["fire(\"", "fire_io(\""] {
            let mut rest = line;
            while let Some(at) = rest.find(call) {
                rest = &rest[at + call.len()..];
                let end = rest
                    .find('"')
                    .expect("the point literal closes on its line");
                points.push(rest[..end].to_string());
            }
        }
    }
    points
}

#[test]
fn fault_point_registry_matches_fire_call_sites_exactly() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ directory");
    let mut files = Vec::new();
    for entry in fs::read_dir(crates).expect("readable crates/ directory") {
        let src = entry.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut fired = BTreeSet::new();
    for path in &files {
        let source = fs::read_to_string(path).expect("readable source");
        fired.extend(fired_points(&source));
    }
    let registered: BTreeSet<String> = FAULT_POINTS.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        fired, registered,
        "bgc_runtime::FAULT_POINTS and the non-test fault::fire call sites \
         must match exactly (left: fired, right: registered)"
    );
}
