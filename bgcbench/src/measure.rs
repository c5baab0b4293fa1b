//! The timed run (`--trace 0`): whole `bgc` invocations, each a fresh child
//! process, one at a time, for `--seconds`.  Reports the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::child::{self, Outcome};
use crate::digest::{self, Doc};
use crate::report::{median, Report};
use crate::Ctx;

/// Creates `dir` empty (a previous run's leftovers are removed).
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|err| format!("cannot create {}: {err}", dir.display()))
}

/// One `bgc` invocation in `dir`, with its output checked.
pub fn invoke(ctx: &Ctx, dir: &Path, args: &[String]) -> Result<(Outcome, Doc), String> {
    let outcome = child::spawn(&ctx.exe, dir, child::INVOKE, args)?;
    let doc = digest::check(&outcome.stdout, ctx.workload, ctx.seed)?;
    Ok((outcome, doc))
}

/// Checks `doc` against the run's reference digest (the first one seen).
pub fn same_digest(reference: &mut Option<u64>, doc: &Doc) -> Result<(), String> {
    let expected = *reference.get_or_insert(doc.digest);
    if expected != doc.digest {
        return Err(format!(
            "cell digest {:016x} differs from the run's {:016x}",
            doc.digest, expected
        ));
    }
    Ok(())
}

/// Median wall clock of `repeats` set-up children: process start plus
/// loading the workload's datasets.
pub fn setup_s(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let args = vec![ctx.workload.name().to_string(), ctx.seed.to_string()];
    let mut walls = Vec::new();
    for _ in 0..ctx.workload.setup_repeats() {
        report.attempted += 1;
        match child::spawn(&ctx.exe, &ctx.work, child::SETUP, &args) {
            Ok(outcome) => walls.push(outcome.wall_s),
            Err(err) => report.fail("set-up", &err),
        }
    }
    if walls.is_empty() {
        return Err("no set-up probe succeeded".into());
    }
    Ok(median(&walls))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let workload = ctx.workload;
    let args = workload.bgc_args(ctx.seed);
    let mut report = Report::default();
    let setup = setup_s(ctx, &mut report)?;

    let mut reference = None;
    let warm_dir = ctx.work.join("warm");
    if workload.is_warm() {
        fresh_dir(&warm_dir)?;
        report.attempted += 1;
        match invoke(ctx, &warm_dir, &args) {
            Ok((_, doc)) => reference = Some(doc.digest),
            Err(err) => report.fail("cache fill", &err),
        }
    }

    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_cold: Option<PathBuf> = None;
    let started = Instant::now();
    let mut index = 0usize;
    // Start another invocation while at least half of it is expected to fall
    // inside the run, so a run lasts about `--seconds` however long one
    // invocation takes.
    let half_s = |wall: &[f64]| {
        if wall.is_empty() {
            0.0
        } else {
            median(wall) / 2.0
        }
    };
    while index == 0 || started.elapsed().as_secs_f64() + half_s(&wall) <= ctx.seconds {
        let dir = if workload.is_warm() {
            warm_dir.clone()
        } else {
            let dir = ctx.work.join(format!("cold-{index}"));
            fresh_dir(&dir)?;
            dir
        };
        report.attempted += 1;
        match invoke(ctx, &dir, &args)
            .and_then(|(outcome, doc)| same_digest(&mut reference, &doc).map(|()| outcome))
        {
            Ok(outcome) => {
                wall.push(outcome.wall_s);
                cpu.push(outcome.cpu_s);
                rss.push(outcome.peak_rss_mb);
            }
            Err(err) => report.fail(&format!("invocation {index}"), &err),
        }
        if !workload.is_warm() {
            if first_cold.is_none() {
                first_cold = Some(dir);
            } else {
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        index += 1;
    }

    // A cold run's caches must read back to the same cells.
    if let Some(dir) = first_cold {
        report.attempted += 1;
        if let Err(err) =
            invoke(ctx, &dir, &args).and_then(|(_, doc)| same_digest(&mut reference, &doc))
        {
            report.fail("warm re-read of the first cold invocation", &err);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    if wall.is_empty() {
        return Err("no invocation succeeded".into());
    }
    let walls: Vec<String> = wall.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!(
        "bgcbench: {} invocations of {} in {:.1}s; wall_s min {:.4} max {:.4}{}",
        wall.len(),
        workload.name(),
        started.elapsed().as_secs_f64(),
        wall.iter().copied().fold(f64::INFINITY, f64::min),
        wall.iter().copied().fold(0.0, f64::max),
        if wall.len() <= 20 {
            format!(": {}", walls.join(" "))
        } else {
            String::new()
        },
    );
    report.metric("wall_s", median(&wall), "s");
    report.metric("cpu_s", median(&cpu), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
    report.metric("setup_s", setup, "s");
    Ok(report)
}
