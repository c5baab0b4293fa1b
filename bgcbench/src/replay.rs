//! The traced run (`--trace 1`): per-layer metrics.
//!
//! 1. Runs the workload's command as children, untraced: cold (parallel),
//!    warm on the caches it filled, and `--serial`.  Their JSON documents
//!    give the runner's counters; their in-process times give the parallel
//!    speed-up and the warm grid time.
//! 2. Collects the workload's `CellKey`s through a `WaveObserver`, on a
//!    runner that reads the cold invocation's cell files.
//! 3. Replays the distinct stages serially through `ExperimentScale::load`,
//!    `clean_stage`, `attack_stage` and `evaluate_backdoor`, one span per
//!    call under a span per cell, and checks every replayed cell against
//!    the runner's result.  The warm workload replays its cell-file reads
//!    and report rendering instead.
//! 4. Probes the kernels, the sampler and the selector.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bgc_condense::resolve_condenser;
use bgc_core::{
    evaluate_backdoor, resolve_attack, AttackArtifacts, BgcConfig, BgcError, EvaluationOptions,
    VictimSpec,
};
use bgc_eval::{
    attack_stage, clean_stage, enter_wave, experiments, CellKey, CellResult, EvalKind, Experiment,
    ExperimentReport, ExperimentScale, Runner, WaveCtx, WaveObserver,
};
use bgc_graph::{CondensedGraph, DatasetKind, Graph};
use bgc_store::Store;

use crate::digest::stat;
use crate::measure::{fresh_dir, invoke, same_digest};
use crate::probes;
use crate::report::Report;
use crate::spans::Tracer;
use crate::workload::Workload;
use crate::Ctx;

type Regenerate = fn(&Runner) -> Result<ExperimentReport, BgcError>;

/// The reports `bgc all` regenerates from the grid, in its order (Table I
/// is rendered from dataset statistics and runs no cell).
const QUICK_REPORTS: [(&str, Regenerate); 12] = [
    ("fig1", experiments::fig1),
    ("table2", |r| experiments::table2(r, false)),
    ("fig4", |r| experiments::fig4(r, false)),
    ("table3", |r| experiments::table3(r, false)),
    ("table4", |r| experiments::table4(r, false)),
    ("fig5", experiments::fig5),
    ("table5", experiments::table5),
    ("table6", experiments::table6),
    ("fig6", |r| experiments::fig6(r, false)),
    ("table7", |r| experiments::table7(r, false)),
    ("table8", |r| experiments::table8(r, false)),
    ("fig8", experiments::fig8),
];

/// The attack-time split of the per-layer table: BGC and its random-
/// selection ablation by condensation method, the other attacks together.
const ATTACK_SPANS: [(&str, &str); 5] = [
    ("GCond", "core.attack.gcond"),
    ("GCond-X", "core.attack.gcond-x"),
    ("DC-Graph", "core.attack.dc-graph"),
    ("GC-SNTK", "core.attack.gc-sntk"),
    ("", "core.attack.baselines"),
];

fn attack_span(key: &CellKey) -> &'static str {
    if !matches!(key.attack.as_str(), "BGC" | "BGC_Rand") {
        return "core.attack.baselines";
    }
    ATTACK_SPANS
        .iter()
        .find(|(method, _)| *method == key.method.as_str())
        .map_or("core.attack.other", |(_, span)| span)
}

/// Runs the workload's command on `runner` the way the CLI does.
fn regenerate(workload: Workload, runner: &Runner, seed: u64) -> Result<(), BgcError> {
    match workload {
        Workload::QuickCold | Workload::QuickWarm => {
            for (_, report) in QUICK_REPORTS {
                report(runner)?;
            }
            Ok(())
        }
        Workload::LargeFlickr => {
            let group = Experiment::builder()
                .scale(ExperimentScale::Large)
                .dataset(DatasetKind::Flickr)
                .method("GCond-X")
                .seed(seed)
                .build()?
                .group(runner)?;
            match runner.run_cells(&group.keys).error() {
                Some(err) => Err(err),
                None => Ok(()),
            }
        }
    }
}

/// The distinct cells the workload resolves, in the order they resolve.
fn collect_keys(workload: Workload, runner: &Runner, seed: u64) -> Result<Vec<CellKey>, String> {
    let seen: Arc<Mutex<Vec<CellKey>>> = Arc::default();
    let sink = Arc::clone(&seen);
    let observer: WaveObserver = Arc::new(move |outcome| {
        sink.lock()
            .expect("the key sink is only locked to push")
            .push(outcome.key.clone())
    });
    {
        let _wave = enter_wave(WaveCtx {
            observer: Some(observer),
            ..WaveCtx::default()
        });
        regenerate(workload, runner, seed).map_err(|err| format!("collecting cells: {err}"))?;
    }
    let keys = std::mem::take(&mut *seen.lock().expect("the key sink is only locked to push"));
    let mut distinct = std::collections::BTreeSet::new();
    Ok(keys
        .into_iter()
        .filter(|k| distinct.insert(k.clone()))
        .collect())
}

/// Stage results shared between cells, as the runner shares them.
#[derive(Default)]
struct Memo {
    graphs: BTreeMap<(DatasetKind, u64), Arc<Graph>>,
    cleans: BTreeMap<CleanId, Result<Arc<CondensedGraph>, BgcError>>,
    attacks: BTreeMap<CellKey, Result<AttackArtifacts, BgcError>>,
}

/// What the clean condensation depends on: dataset, method, ratio, seed and
/// the outer-epoch override.
type CleanId = (DatasetKind, String, u32, u64, Option<usize>);

/// The key with every victim-side field cleared: cells that differ only in
/// victim or evaluation share one attack stage.
fn attack_id(key: &CellKey) -> CellKey {
    let mut id = key.clone();
    id.eval = EvalKind::Standard;
    id.overrides.architecture = None;
    id.overrides.num_layers = None;
    id.base_seed = key.seed();
    id.rep = 0;
    id
}

fn oom_result() -> CellResult {
    CellResult {
        c_cta: 0.0,
        cta: 0.0,
        c_asr: 0.0,
        asr: 0.0,
        asr_nodes: 0,
        oom: true,
    }
}

/// A cell's attack configuration, victim and evaluation options: the
/// scale's defaults with the cell's overrides applied.
fn cell_inputs(
    scale: ExperimentScale,
    key: &CellKey,
) -> (BgcConfig, VictimSpec, EvaluationOptions) {
    let mut config = scale.bgc_config(key.dataset, key.ratio(), key.seed());
    let mut victim = scale.victim_spec_for(key.dataset);
    let mut options = scale.evaluation_options_for(key.dataset, key.seed());
    key.overrides.apply(&mut config, &mut victim, &mut options);
    (config, victim, options)
}

/// One cell, computed the way `Runner::compute_cell` computes it.  Defended
/// cells evaluate through `defended`, a runner whose store already holds
/// their stages, since the defended evaluation is internal to the runner.
fn replay_cell(
    t: &mut Tracer,
    memo: &mut Memo,
    scale: ExperimentScale,
    key: &CellKey,
    defended: &Runner,
) -> Result<CellResult, BgcError> {
    let label = key.canon();
    let attack = resolve_attack(key.attack.as_str())
        .ok_or_else(|| BgcError::UnknownAttack(key.attack.to_string()))?;
    let method = resolve_condenser(key.method.as_str())
        .ok_or_else(|| BgcError::UnknownMethod(key.method.to_string()))?;
    let seed = key.seed();
    let graph = match memo.graphs.get(&(key.dataset, seed)) {
        Some(graph) => Arc::clone(graph),
        None => {
            let graph = t.span("graph", "graph.load", &label, |_| {
                Arc::new(scale.load(key.dataset, seed))
            });
            memo.graphs.insert((key.dataset, seed), Arc::clone(&graph));
            graph
        }
    };
    let (config, victim, options) = cell_inputs(scale, key);

    let needs_clean = key.eval == EvalKind::Standard || attack.needs_clean_reference();
    let clean = if needs_clean {
        let id: CleanId = (
            key.dataset,
            key.method.as_str().to_string(),
            key.ratio_bits,
            seed,
            key.overrides.outer_epochs,
        );
        let outcome = match memo.cleans.get(&id) {
            Some(outcome) => outcome.clone(),
            None => {
                let outcome = t.span("condense", "condense.clean", &label, |_| {
                    clean_stage(&graph, method.as_ref(), &config).map(Arc::new)
                });
                memo.cleans.insert(id, outcome.clone());
                outcome
            }
        };
        match outcome {
            Ok(clean) => Some(clean),
            Err(err) if err.is_oom() => return Ok(oom_result()),
            Err(err) => return Err(err),
        }
    } else {
        None
    };

    let id = attack_id(key);
    let outcome = match memo.attacks.get(&id) {
        Some(outcome) => outcome.clone(),
        None => {
            let outcome = t.span("core", attack_span(key), &label, |_| {
                attack_stage(
                    attack.as_ref(),
                    method.as_ref(),
                    &graph,
                    &config,
                    clean.as_deref(),
                )
            });
            memo.attacks.insert(id, outcome.clone());
            outcome
        }
    };
    let artifacts = match outcome {
        Ok(artifacts) => artifacts,
        Err(err) if err.is_oom() => return Ok(oom_result()),
        Err(err) => return Err(err),
    };

    if key.eval != EvalKind::Standard {
        let wave = t.span("defense", "defense.eval", &label, |_| {
            defended.run_cells(std::slice::from_ref(key))
        });
        if let Some(err) = wave.error() {
            return Err(err);
        }
        return defended.result(key);
    }
    let Some(clean) = clean else {
        return Err(BgcError::MissingCleanReference {
            attack: key.attack.as_str().to_string(),
        });
    };
    let provider = artifacts.provider.as_ref();
    let backdoored = t.span("core", "core.eval", &label, |_| {
        evaluate_backdoor(
            &graph,
            &artifacts.condensed,
            provider,
            &config,
            &victim,
            &options,
        )
    });
    let reference = t.span("core", "core.eval", &label, |_| {
        evaluate_backdoor(&graph, &clean, provider, &config, &victim, &options)
    });
    Ok(CellResult {
        c_cta: reference.cta,
        cta: backdoored.cta,
        c_asr: reference.asr,
        asr: backdoored.asr,
        asr_nodes: backdoored.asr_nodes,
        oom: false,
    })
}

fn same_result(a: &CellResult, b: &CellResult) -> bool {
    a.c_cta.to_bits() == b.c_cta.to_bits()
        && a.cta.to_bits() == b.cta.to_bits()
        && a.c_asr.to_bits() == b.c_asr.to_bits()
        && a.asr.to_bits() == b.asr.to_bits()
        && a.asr_nodes == b.asr_nodes
        && a.oom == b.oom
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let workload = ctx.workload;
    let scale = workload.scale();
    let args = workload.bgc_args(ctx.seed);
    let mut report = Report::default();
    let process_start = probes::process_start_s(ctx, &mut report)?;

    // 1. The workload's command, untraced.
    let dir = ctx.work.join("grid");
    fresh_dir(&dir)?;
    let mut digest = None;
    report.attempted += 1;
    let (cold, cold_doc) = invoke(ctx, &dir, &args)?;
    same_digest(&mut digest, &cold_doc)?;
    let bytes_cold = dir_bytes(&dir.join("store"));
    report.attempted += 1;
    let (warm, warm_doc) = invoke(ctx, &dir, &args)?;
    same_digest(&mut digest, &warm_doc)?;
    let bytes_warm = dir_bytes(&dir.join("store")).saturating_sub(bytes_cold);
    let mut serial_args = args.clone();
    serial_args.push("--serial".into());
    let (own, own_doc, bytes_written) = if workload.is_warm() {
        (&warm, &warm_doc, bytes_warm)
    } else {
        (&cold, &cold_doc, bytes_cold)
    };
    let serial_s = if workload.is_warm() {
        report.attempted += 1;
        invoke(ctx, &dir, &serial_args)?.0.in_process_s
    } else if cold_doc.cells > 1 {
        let serial_dir = ctx.work.join("serial");
        fresh_dir(&serial_dir)?;
        report.attempted += 1;
        let (serial, serial_doc) = invoke(ctx, &serial_dir, &serial_args)?;
        same_digest(&mut digest, &serial_doc)?;
        let _ = std::fs::remove_dir_all(&serial_dir);
        serial.in_process_s
    } else {
        // One pending cell always runs on the calling thread.
        cold.in_process_s
    };

    // 2. The workload's cells, read back from the cold invocation's files.
    let cells_dir = dir
        .join("target/experiments")
        .join(scale.name())
        .join("cells");
    let store = Store::open(dir.join("store"));
    let collect = Runner::with_cache_dir(scale, Some(cells_dir.clone()))
        .with_store(Some(Arc::clone(&store)))
        .serial();
    let keys = collect_keys(workload, &collect, ctx.seed)?;
    if collect.stats().cells_computed != 0 {
        report.fail("key collection", "cells were computed instead of read back");
    }

    // 3. The traced replay.
    let mut tracer = Tracer::new();
    let defended = Runner::with_cache_dir(scale, None)
        .with_store(Some(Arc::clone(&store)))
        .serial();
    let replay_started = Instant::now();
    if workload != Workload::LargeFlickr {
        tracer
            .span("eval", "eval.table1", "table1", |_| {
                experiments::table1(scale)
            })
            .map_err(|err| format!("table1: {err}"))?;
    }
    if workload.is_warm() {
        let reader = Runner::with_cache_dir(scale, Some(cells_dir))
            .with_store(Some(Arc::clone(&store)))
            .serial();
        for key in &keys {
            let label = key.canon();
            report.attempted += 1;
            let wave = tracer.span("cell", "cell", &label, |t| {
                t.span("eval", "eval.cell_read", &label, |_| {
                    reader.run_cells(std::slice::from_ref(key))
                })
            });
            if let Some(err) = wave.error() {
                report.fail(&label, &err.to_string());
            }
        }
        for (name, regenerate) in QUICK_REPORTS {
            report.attempted += 1;
            if let Err(err) = tracer.span("eval", "eval.report", name, |_| regenerate(&reader)) {
                report.fail(name, &err.to_string());
            }
        }
    } else {
        let mut memo = Memo::default();
        for key in &keys {
            let label = key.canon();
            report.attempted += 1;
            let replayed = tracer.span("cell", "cell", &label, |t| {
                replay_cell(t, &mut memo, scale, key, &defended)
            });
            match (replayed, collect.result(key)) {
                (Ok(replayed), Ok(expected)) if same_result(&replayed, &expected) => {}
                (Ok(_), Ok(_)) => report.fail(&label, "replayed result differs from the runner's"),
                (Err(err), _) | (_, Err(err)) => report.fail(&label, &err.to_string()),
            }
        }
    }
    let replay_s = replay_started.elapsed().as_secs_f64();
    eprintln!(
        "bgcbench: untraced {}: parallel {:.3}s, serial {serial_s:.3}s, warm {:.3}s",
        workload.name(),
        own.in_process_s,
        warm.in_process_s
    );
    let table = tracer.write(&ctx.trace_dir, workload.name())?;
    eprintln!(
        "bgcbench: traced replay of {} cells in {replay_s:.3}s\n{table}",
        keys.len()
    );

    let spans = tracer.by_name();
    let total = |name: &str| spans.get(name).copied().unwrap_or_default();
    let attack_total: Vec<_> = spans
        .iter()
        .filter(|(name, _)| name.starts_with("core.attack."))
        .map(|(_, total)| *total)
        .collect();
    if !workload.is_warm() {
        let computed = |stat_key: &str| stat(&own_doc.stats, stat_key) as usize;
        if total("condense.clean").calls != computed("clean_stages_computed")
            || attack_total.iter().map(|t| t.calls).sum::<usize>()
                != computed("attack_stages_computed")
        {
            report.fail(
                "replay",
                "replayed stage counts differ from the runner's computed stages",
            );
        }
    }

    // 4. Probes.
    let first = keys.first().ok_or("the workload resolved no cells")?;
    let select_s = probes::select_s(scale, first.dataset, &cell_inputs(scale, first).0);

    // Per-layer metrics.
    let stats = &own_doc.stats;
    let shared = stat(stats, "attack_stage_hits") + stat(stats, "clean_stage_hits");
    let lookups =
        shared + stat(stats, "attack_stages_computed") + stat(stats, "clean_stages_computed");
    report.metric("bench.process_start_s", process_start, "s");
    report.metric(
        "eval.cells_computed",
        stat(stats, "cells_computed"),
        "count",
    );
    report.metric(
        "eval.cell_disk_hits",
        stat(stats, "cell_disk_hits"),
        "count",
    );
    report.metric(
        "eval.stage_shared_frac",
        if lookups > 0.0 { shared / lookups } else { 0.0 },
        "fraction",
    );
    report.metric(
        "eval.cell_parallel_speedup",
        serial_s / own.in_process_s,
        "ratio",
    );
    report.metric("eval.warm_grid_s", warm.in_process_s, "s");
    report.metric(
        "store.artifacts_written",
        stat(stats, "store_computed"),
        "count",
    );
    report.metric("store.bytes_written", bytes_written as f64, "B");
    report.metric("store.hits", defended.stats().store_hits as f64, "count");
    report.metric("store.degraded", stat(stats, "store_degraded"), "count");
    report.metric("graph.load_s", total("graph.load").total_s, "s");
    report.metric(
        "graph.load_calls",
        total("graph.load").calls as f64,
        "count",
    );
    report.metric(
        "nn.prefetch_batches",
        stat(stats, "prefetch_consumed"),
        "count",
    );
    report.metric(
        "nn.prefetch_stall_ms",
        stat(stats, "prefetch_trainer_stall_ms"),
        "ms",
    );
    report.metric(
        "nn.prefetch_idle_ms",
        stat(stats, "prefetch_sampler_idle_ms"),
        "ms",
    );
    report.metric("condense.clean_s", total("condense.clean").total_s, "s");
    report.metric(
        "condense.clean_calls",
        total("condense.clean").calls as f64,
        "count",
    );
    let attack_s = attack_total.iter().fold(0.0, |sum, t| sum + t.total_s);
    report.metric("core.attack_s", attack_s, "s");
    report.metric(
        "core.attack_calls",
        attack_total.iter().map(|t| t.calls).sum::<usize>() as f64,
        "count",
    );
    for (_, span) in ATTACK_SPANS {
        let metric = span.replacen("core.attack.", "core.attack_s.", 1);
        report.metric(&metric, total(span).total_s, "s");
    }
    report.metric("core.select_s", select_s, "s");
    report.metric("core.eval_s", total("core.eval").total_s, "s");
    report.metric("core.eval_calls", total("core.eval").calls as f64, "count");
    report.metric("defense.eval_s", total("defense.eval").total_s, "s");
    // The runners' graph memos are not needed by the probes below, which
    // load the full Flickr graph.
    drop(collect);
    drop(defended);
    let quick = ExperimentScale::Quick.load(DatasetKind::Cora, ctx.seed);
    let flickr = ExperimentScale::Large.load(DatasetKind::Flickr, ctx.seed);
    probes::kernels_and_sampler(&mut report, &quick, &flickr, ctx.seed);
    report.metric(
        "trace.coverage_frac",
        tracer.covered_s("cell") / replay_s,
        "fraction",
    );
    report.metric("trace.gap_s", replay_s - serial_s, "s");
    Ok(report)
}
