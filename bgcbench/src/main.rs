//! `bgcbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path bgcbench/Cargo.toml -- \
//!     --workload quick-cold --seed 17 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times whole `bgc` invocations from outside, each a fresh child
//! process, and prints the end-to-end metrics.  `--trace 1` replays the
//! workload's stages through the crates' public functions with one span per
//! call and prints the per-layer metrics.  Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.  See `README.md` for the workloads and the metric map.

mod child;
mod digest;
mod measure;
mod probes;
mod replay;
mod report;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use workload::Workload;

const USAGE: &str = "usage: bgcbench --workload quick-cold|quick-warm|large-flickr \
                     --seed <n> --seconds <s> --trace 0|1";

/// Everything a run needs: the parsed arguments plus the directories and
/// the executable it spawns children from.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory of this run (removed when the run ends).
    pub work: PathBuf,
    /// Where the traced run writes its Chrome trace and layer table.
    pub trace_dir: PathBuf,
    /// This executable, re-run as the child of every invocation.
    pub exe: PathBuf,
    /// The thread count children and the in-process replay use.
    pub threads: usize,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag} got a malformed value '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (expected {})", Workload::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds expects a number in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child roles never return: they exit with their own status.
    match argv.first().map(String::as_str) {
        Some(child::INVOKE) => child::invoke(&argv[1..]),
        Some(child::SETUP) => child::setup(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bgcbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Children inherit the pool size; the in-process replay's pool reads it
    // on first use, which is after this point.
    std::env::set_var("BGC_NUM_THREADS", threads.to_string());
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        work: PathBuf::from(".bench_work").join(std::process::id().to_string()),
        trace_dir: PathBuf::from(".bench_trace"),
        exe: match std::env::current_exe() {
            Ok(exe) => exe,
            Err(err) => {
                eprintln!("bgcbench: cannot locate own executable: {err}");
                return ExitCode::FAILURE;
            }
        },
        threads,
    };
    if let Err(err) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("bgcbench: cannot create {}: {err}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let outcome: Result<Report, String> = if args.trace {
        replay::run(&ctx)
    } else {
        measure::run(&ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Leave `.bench_work` itself behind only when another run still uses it.
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(report) => {
            println!("{}", report::provenance(&ctx));
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("bgcbench: {err}");
            ExitCode::FAILURE
        }
    }
}
