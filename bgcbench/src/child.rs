//! Child processes: every timed invocation is a fresh process, so its wall
//! clock includes process start and its CPU and memory are its own.
//!
//! The child runs `bgc_bench::cli::run` (exactly what the `bgc` binary
//! runs), then appends one marker line with its in-process time, CPU time
//! and peak resident memory, and exits with the CLI's exit code.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::workload::Workload;

/// Child role: one `bgc` invocation.
pub const INVOKE: &str = "__invoke";
/// Child role: process start plus loading the workload's datasets.
pub const SETUP: &str = "__setup";

const MARKER: &str = "@@bgcbench ";

/// CPU seconds and peak resident memory of the calling process.
struct Usage {
    cpu_s: f64,
    peak_rss_kb: f64,
}

#[cfg(target_os = "linux")]
fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the layout of `struct rusage` on 64-bit Linux
    // (two `timeval`s of two longs, then 14 longs), and the pointer is to a
    // live, writable local for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage {
            cpu_s: f64::NAN,
            peak_rss_kb: f64::NAN,
        };
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_kb: ru.maxrss as f64,
    }
}

#[cfg(not(target_os = "linux"))]
fn usage() -> Usage {
    Usage {
        cpu_s: f64::NAN,
        peak_rss_kb: f64::NAN,
    }
}

fn finish(in_process_s: f64, code: i32) -> ! {
    let usage = usage();
    let line = Value::Object(vec![
        ("in_process_s".into(), Value::Number(in_process_s)),
        ("cpu_s".into(), Value::Number(usage.cpu_s)),
        ("peak_rss_kb".into(), Value::Number(usage.peak_rss_kb)),
    ]);
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{MARKER}{}", line.to_json_string());
    let _ = out.flush();
    std::process::exit(code)
}

/// `bgcbench __invoke <bgc args...>`
pub fn invoke(args: &[String]) -> ! {
    let started = Instant::now();
    let result = bgc_bench::cli::run(args);
    let elapsed = started.elapsed().as_secs_f64();
    if let Err(err) = &result {
        eprintln!("error: {err}");
    }
    finish(elapsed, bgc_bench::cli::exit_code(&result))
}

/// `bgcbench __setup <workload> <seed>`
pub fn setup(args: &[String]) -> ! {
    let (Some(workload), Some(seed)) = (
        args.first().and_then(|w| Workload::parse(w)),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("usage: bgcbench {SETUP} <workload> <seed>");
        std::process::exit(2)
    };
    let started = Instant::now();
    for dataset in workload.datasets() {
        black_box(workload.scale().load(dataset, seed));
    }
    finish(started.elapsed().as_secs_f64(), 0)
}

/// What the parent observed of one child process.
pub struct Outcome {
    /// Spawn to exit, as the parent saw it.
    pub wall_s: f64,
    /// The child's own timing of the call it was spawned for.
    pub in_process_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// The child's standard output without the marker line.
    pub stdout: String,
}

/// Runs this executable in a child role inside `dir` and waits for it.
/// A nonzero exit or a missing marker line is an error.
pub fn spawn(exe: &Path, dir: &Path, role: &str, args: &[String]) -> Result<Outcome, String> {
    let store = std::fs::canonicalize(dir)
        .map_err(|err| format!("cannot resolve {}: {err}", dir.display()))?
        .join("store");
    let started = Instant::now();
    let output = Command::new(exe)
        .arg(role)
        .args(args)
        .current_dir(dir)
        .env("BGC_STORE_DIR", store)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .map_err(|err| format!("cannot spawn {}: {err}", exe.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let command = format!("{role} {}", args.join(" "));
    if !output.status.success() {
        return Err(format!(
            "`{command}` exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let (body, marker) = match stdout.rfind(MARKER) {
        Some(at) => (&stdout[..at], &stdout[at + MARKER.len()..]),
        None => return Err(format!("`{command}` printed no usage line")),
    };
    let usage = serde_json::from_str(marker.trim())
        .map_err(|err| format!("`{command}` printed a malformed usage line: {err}"))?;
    let number = |key: &str| {
        usage
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("`{command}` usage line lacks {key}"))
    };
    Ok(Outcome {
        wall_s,
        in_process_s: number("in_process_s")?,
        cpu_s: number("cpu_s")?,
        peak_rss_mb: number("peak_rss_kb")? / 1024.0,
        stdout: body.to_string(),
    })
}
