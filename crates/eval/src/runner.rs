//! The experiment-grid engine.
//!
//! Every table/figure cell of the paper's evaluation is a [`CellKey`]: the
//! full coordinates of one repetition of one experiment (scale, dataset,
//! attack, condensation method, ratio, repetition, evaluation mode, config
//! overrides).  The [`Runner`] executes cells:
//!
//! * **in parallel** on the workspace thread pool — every cell derives its
//!   RNG streams from its own key, so parallel results are bit-identical to
//!   serial execution;
//! * **sharing expensive stages** — the attack outcome and the clean
//!   condensed reference are memoized in a concurrent in-memory cache keyed
//!   by their [`StoreKey`]s, so overlapping tables/figures (e.g. the
//!   GCond/Cora/BGC cell appearing in Table II, Fig. 1, Fig. 4 and
//!   Table VI) pay for each attack once.  The runner is also the only owner
//!   of graph-derived state: each `(dataset, seed)` slot holds the generated
//!   graph, on which victims are evaluated, and its working graph (the
//!   training subgraph of an inductive dataset), which the clean and attack
//!   stages condense; and the select stage trains the poisoned-node
//!   selector once per working graph and selector inputs, on the first
//!   attack that selects representative nodes;
//! * **resumably** — the content-addressed artifact store
//!   ([`bgc_store`]) is the only persistence layer: clean condensations,
//!   attack outputs and cell results are `clean`, `attack` and `eval`
//!   artifacts (atomic writes, integrity-checked reads, quarantine of
//!   corrupt files, cross-process single-flight).  A cell's `eval` key is
//!   its canon alone, so a re-run reads each finished cell without
//!   generating its dataset;
//! * **fault-tolerantly** — every cell executes behind an unwind boundary,
//!   so a panic becomes a typed [`CellStatus::Panicked`] outcome instead of
//!   a poisoned-mutex cascade; a per-cell deadline ([`Runner::with_cell_timeout`])
//!   cooperatively cancels stuck cells through the `bgc_runtime` checkpoints
//!   in the trainer and condensation loops; and [`Runner::keep_going`]
//!   completes the rest of the grid around failed cells, returning a
//!   [`GridReport`] that records every per-cell status rather than the
//!   first error;
//! * **openly** — attacks, condensation methods and defenses are resolved by
//!   name from their registries and driven through trait objects, so a newly
//!   registered attack/method/defense runs through the grid without touching
//!   this crate.
//!
//! The regenerators in [`crate::experiments`] declare their cell lists with
//! [`Runner::group`] and render from [`Runner::metrics`]; they never loop
//! over attacks inline.
//!
//! Fault injection for tests and CI goes through [`bgc_runtime::fault`]: the
//! runner arms a [`FaultPlan`] ([`Runner::with_fault_plan`]) and enters it
//! around each cell with the cell's canonical key as context, so the named
//! fault points (`trainer.epoch`, `condense.outer`, `stage.clean`,
//! `stage.attack`, `store.read`, `store.write`) fire deterministically in
//! exactly the targeted cell.

// Deterministic-by-construction collections: every map and set of this
// module keyed by cells or stage keys is a `BTreeMap`/`BTreeSet`, so no
// iteration order in the persist/report path can ever depend on hash-seed
// or insertion order (`crates/clippy.toml` disallows the std hash
// collections).
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use rayon::prelude::*;
use serde::Serialize;

use bgc_runtime::{fault, relock, CancelToken, CancelUnwind, FaultPlan};
use bgc_store::{KeyBuilder, Store, StoreKey, StoreRole};

use bgc_condense::{working_graph, MethodId};
use bgc_core::{
    evaluate_victims, selector_representations, AttackArtifacts, AttackId, BgcConfig, BgcError,
    EvaluationOptions, SelectorOutput, VictimSpec,
};
use bgc_defense::{resolve_defense, DefenseId};
use bgc_graph::{CondensedGraph, DatasetKind, Graph};
use bgc_nn::TrainingPlan;

use crate::artifact_codec;
use crate::overrides::CellOverrides;
use crate::protocol::{clean_stage, lookup_attack, lookup_method, AttackKind, RunMetrics};
use crate::scale::ExperimentScale;

/// Base seed of the experiment grid; repetition `i` of a cell runs with
/// `DEFAULT_BASE_SEED + i`.
pub const DEFAULT_BASE_SEED: u64 = 17;

/// Version tag of the cell canon grammar (its `v3|` prefix); bump it only
/// when [`CellKey::canon`] changes shape.  Behaviour changes of the
/// evaluation bump [`EVAL_CODE_EPOCH`] instead.  v2: defended cells train
/// their victim from the shared defended init stream regardless of the
/// defense kind.  v3: the cell canon carries the code epochs of every stage.
const CELL_FILE_VERSION: u64 = 3;

/// Code epoch of the evaluation protocol (victim training, CTA/ASR
/// estimation, defended evaluation).  The artifact store and the cell canon
/// mix this into their keys; bump it when the evaluation changes numerical
/// behaviour so stale results are invalidated precisely.
pub const EVAL_CODE_EPOCH: u32 = 1;

/// The per-stage code epochs a runner keys its caches with.  The defaults
/// are the workspace's current epoch constants; tests override single
/// epochs via [`Runner::with_code_epochs`] to prove that bumping one
/// invalidates exactly that stage and its downstreams.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CodeEpochs {
    /// Dataset synthesis/loading ([`bgc_graph::DATASET_CODE_EPOCH`]).
    pub dataset: u32,
    /// Condensation methods ([`bgc_condense::CONDENSE_CODE_EPOCH`]).
    pub condense: u32,
    /// Attack implementations ([`bgc_core::ATTACK_CODE_EPOCH`]).
    pub attack: u32,
    /// Evaluation protocol ([`EVAL_CODE_EPOCH`]).
    pub eval: u32,
}

impl Default for CodeEpochs {
    fn default() -> Self {
        Self {
            dataset: bgc_graph::DATASET_CODE_EPOCH,
            condense: bgc_condense::CONDENSE_CODE_EPOCH,
            attack: bgc_core::ATTACK_CODE_EPOCH,
            eval: EVAL_CODE_EPOCH,
        }
    }
}

impl CodeEpochs {
    /// Fixed-order canonical encoding (part of [`CellKey::canon`]).
    fn canon(&self) -> String {
        format!(
            "d{}c{}a{}e{}",
            self.dataset, self.condense, self.attack, self.eval
        )
    }
}

/// How the victim is evaluated in a cell: undefended, or through a named
/// defense from the defense registry.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EvalKind {
    /// Undefended victim: CTA/ASR plus the clean-reference C-CTA/C-ASR.
    Standard,
    /// Victim trained and evaluated through a registered defense (Table IV).
    Defended(DefenseId),
}

impl EvalKind {
    /// The built-in Prune defense (Table IV).
    pub fn prune() -> Self {
        EvalKind::Defended(DefenseId::from("prune"))
    }

    /// The built-in Randsmooth defense (Table IV).
    pub fn randsmooth() -> Self {
        EvalKind::Defended(DefenseId::from("randsmooth"))
    }

    /// Stable name used in tables and the CLI.
    pub fn name(&self) -> &str {
        match self {
            EvalKind::Standard => "standard",
            EvalKind::Defended(id) => id.as_str(),
        }
    }

    /// Collision-free encoding used inside canonical cache keys: a defense
    /// that somehow carries the reserved name `standard` must never share a
    /// cache identity with the undefended mode.
    fn canon_tag(&self) -> String {
        match self {
            EvalKind::Standard => "standard".to_string(),
            EvalKind::Defended(id) => format!("defended:{}", id),
        }
    }

    /// Re-canonicalizes a defended mode's spelling against the registry
    /// (no-op for `Standard` and unregistered names).
    fn canonicalized(&self) -> EvalKind {
        match self {
            EvalKind::Standard => EvalKind::Standard,
            EvalKind::Defended(id) => EvalKind::Defended(DefenseId::from(id.as_str())),
        }
    }
}

impl fmt::Display for EvalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EvalKind {
    type Err = std::convert::Infallible;

    /// `"standard"` parses to the undefended mode; anything else names a
    /// defense (resolved against the registry at run time).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("standard") {
            Ok(EvalKind::Standard)
        } else {
            Ok(EvalKind::Defended(DefenseId::from(s)))
        }
    }
}

/// Full coordinates of one experiment cell (one repetition of one
/// configuration).  Hashable and canonically encodable: the key *is* the
/// cache identity, in memory and on disk, and every RNG stream of the cell
/// derives from [`CellKey::seed`], so results are independent of execution
/// order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// Experiment scale.
    pub scale: ExperimentScale,
    /// Dataset under attack.
    pub dataset: DatasetKind,
    /// Condensation method under attack (registry name).
    pub method: MethodId,
    /// Attack to run (registry name).
    pub attack: AttackId,
    /// Condensation ratio as `f32::to_bits` (hashable, exact).
    pub ratio_bits: u32,
    /// Base seed of the grid.
    pub base_seed: u64,
    /// Repetition index; the cell seed is `base_seed + rep`.
    pub rep: usize,
    /// Victim evaluation mode.
    pub eval: EvalKind,
    /// Deviations from the scale's baseline configuration.
    pub overrides: CellOverrides,
    /// Per-stage code epochs of the runner that built the key.  Part of the
    /// canon, so bumping any stage's epoch retires persisted cell results;
    /// this is conservative (a dataset bump also retires eval-only work) —
    /// cells are cheap relative to their stages, and the stage artifacts in
    /// the content-addressed store invalidate precisely.
    pub epochs: CodeEpochs,
}

impl CellKey {
    /// The condensation ratio.
    pub fn ratio(&self) -> f32 {
        f32::from_bits(self.ratio_bits)
    }

    /// The seed every RNG stream of this cell derives from.
    pub fn seed(&self) -> u64 {
        self.base_seed + self.rep as u64
    }

    /// Canonical, stable encoding of the key: the `cell` field of JSON
    /// reports, the fault-injection context, and the only input of the
    /// cell's `eval` store key (the store verifies the full key on read, so
    /// a hash collision never serves another cell's result).
    pub fn canon(&self) -> String {
        format!(
            "v{}|{}|{}|{}|{}|r={:08x}|seed={}|rep={}|eval={}|{}|ce={}",
            CELL_FILE_VERSION,
            self.scale.name(),
            self.dataset.name(),
            self.method,
            self.attack,
            self.ratio_bits,
            self.base_seed,
            self.rep,
            self.eval.canon_tag(),
            self.overrides.canon(),
            self.epochs.canon(),
        )
    }
}

/// Raw measurements of one cell.  For [`EvalKind::Standard`] cells the
/// `c_*` fields hold the clean-reference (C-CTA/C-ASR) columns; defense
/// cells skip the reference victim and report zeros there.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct CellResult {
    /// Clean-reference victim CTA (C-CTA).
    pub c_cta: f32,
    /// Backdoored/defended victim CTA.
    pub cta: f32,
    /// Clean-reference victim ASR (C-ASR).
    pub c_asr: f32,
    /// Backdoored/defended victim ASR.
    pub asr: f32,
    /// Number of test nodes in the ASR estimate.
    pub asr_nodes: usize,
    /// Whether the condensation method reported out-of-memory.
    pub oom: bool,
}

impl CellResult {
    fn oom() -> Self {
        Self {
            c_cta: 0.0,
            cta: 0.0,
            c_asr: 0.0,
            asr: 0.0,
            asr_nodes: 0,
            oom: true,
        }
    }
}

/// All repetitions of one experiment configuration — what one table row or
/// figure point aggregates over.
#[derive(Clone, Debug)]
pub struct CellGroup {
    /// Dataset under attack.
    pub dataset: DatasetKind,
    /// Condensation method under attack.
    pub method: MethodId,
    /// Attack being evaluated.
    pub attack: AttackId,
    /// Condensation ratio.
    pub ratio: f32,
    /// Victim evaluation mode.
    pub eval: EvalKind,
    /// One key per repetition.
    pub keys: Vec<CellKey>,
}

/// A memoized computation stage shared between cells.  The first cell to
/// need a stage computes it inside the slot's `OnceLock`; concurrent cells
/// needing the same stage block on the lock and share the value.
struct StageCache<K, T> {
    slots: Mutex<BTreeMap<K, Arc<OnceLock<T>>>>,
    hits: AtomicUsize,
    computed: AtomicUsize,
}

impl<K: Ord + Clone, T: Clone> StageCache<K, T> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
            hits: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
        }
    }

    fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> T) -> T {
        let slot = {
            let mut slots = relock(&self.slots);
            slots.entry(key.clone()).or_default().clone()
        };
        let mut ran = false;
        let value = slot.get_or_init(|| {
            ran = true;
            compute()
        });
        if ran {
            self.computed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value.clone()
    }
}

/// Cache-hit and execution counters of a [`Runner`].
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RunnerStats {
    /// Cells computed from scratch in this process.
    pub cells_computed: usize,
    /// Cells served from the in-memory result map (overlap between reports).
    pub cell_memory_hits: usize,
    /// Cells served from their `eval` artifact in the store (resumed runs).
    pub cell_disk_hits: usize,
    /// Attack stages computed from scratch.
    pub attack_stages_computed: usize,
    /// Attack stages shared between cells (e.g. across victims/defenses).
    pub attack_stage_hits: usize,
    /// Clean condensations computed from scratch.
    pub clean_stages_computed: usize,
    /// Clean condensations shared between cells (e.g. across attacks).
    pub clean_stage_hits: usize,
    /// Selector trainings computed from scratch.
    pub select_stages_computed: usize,
    /// Selector outputs shared between attack stages (e.g. across methods).
    pub select_stage_hits: usize,
    /// Store requests (cell results and stages) served from the artifact
    /// store (computed by an earlier process or another concurrent process).
    pub store_hits: usize,
    /// Store requests computed in this process and published to the
    /// artifact store.
    pub store_computed: usize,
    /// Store requests computed in-process but not published, because the
    /// artifact store was unavailable, timed out or failed to write
    /// (graceful degradation).
    pub store_degraded: usize,
    /// Sampled-training prefetch: batches produced by sampler threads (0
    /// when nothing trained sampled).  The four prefetch counts are
    /// process-wide since process start ([`bgc_nn::prefetch_stats`]), not
    /// per runner.
    pub prefetch_produced: u64,
    /// Sampled-training prefetch: batches consumed by trainers.
    pub prefetch_consumed: u64,
    /// Milliseconds trainers spent stalled waiting on the prefetch channel.
    pub prefetch_trainer_stall_ms: u64,
    /// Milliseconds sampler threads spent idle with a full prefetch channel.
    pub prefetch_sampler_idle_ms: u64,
}

impl RunnerStats {
    /// Total hits across every cache layer.
    pub fn total_hits(&self) -> usize {
        self.cell_memory_hits
            + self.cell_disk_hits
            + self.attack_stage_hits
            + self.clean_stage_hits
            + self.select_stage_hits
    }

    /// One-line human-readable summary.  Store and prefetch counts only
    /// appear when nonzero.
    pub fn summary(&self) -> String {
        let mut summary = format!(
            "cells: {} computed, {} memory hits, {} disk hits | attack stages: {} computed, {} shared | clean stages: {} computed, {} shared | select stages: {} computed, {} shared",
            self.cells_computed,
            self.cell_memory_hits,
            self.cell_disk_hits,
            self.attack_stages_computed,
            self.attack_stage_hits,
            self.clean_stages_computed,
            self.clean_stage_hits,
            self.select_stages_computed,
            self.select_stage_hits,
        );
        if self.store_hits + self.store_computed + self.store_degraded > 0 {
            summary.push_str(&format!(
                " | store: {} hits, {} computed, {} degraded",
                self.store_hits, self.store_computed, self.store_degraded
            ));
        }
        if self.prefetch_produced > 0 {
            summary.push_str(&format!(
                " | prefetch: {} produced, {} consumed, trainer stalled {} ms, sampler idle {} ms",
                self.prefetch_produced,
                self.prefetch_consumed,
                self.prefetch_trainer_stall_ms,
                self.prefetch_sampler_idle_ms
            ));
        }
        summary
    }
}

// Poison recovery for the runner's locks goes through the workspace-shared
// `bgc_runtime::relock`: cells execute behind an unwind boundary and none of
// the runner's locks is ever held across cell compute, so the protected maps
// cannot be observed mid-update; recovering keeps one panicked cell from
// wedging the rest of the grid behind `PoisonError`.

/// Best-effort extraction of a panic payload's message (`panic!` produces
/// `&'static str` or `String` payloads; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The outcome of `key` with `status`.
fn cell_outcome(key: &CellKey, status: CellStatus) -> CellOutcome {
    CellOutcome {
        key: key.clone(),
        status,
    }
}

// ---------------------------------------------------------------------------
// Ambient wave context
// ---------------------------------------------------------------------------

/// Per-outcome progress callback of a wave scope.  Called from the pool
/// threads as cells resolve, so implementations must synchronize their own
/// state.
pub type WaveObserver = Arc<dyn Fn(&CellOutcome) + Send + Sync>;

/// Ambient per-invocation execution context for [`Runner::run_cells`]
/// waves.
///
/// A caller that owns a whole unit of work spanning many waves — a CLI
/// invocation with a `--deadline` — enters a `WaveCtx` via [`enter_wave`]
/// on its thread; every wave the runner starts on that thread (including
/// nested ones from [`Runner::metrics`] read-back) picks it up:
///
/// * `deadline` — an invocation-level [`CancelToken`]; cells compose it
///   with the per-cell timeout via [`CancelToken::child_with_timeout`], so
///   whichever fires first cancels the cell;
/// * `observer` — streamed per-cell progress (the CLI's outcome collector
///   behind exit codes and `--format json`).
///
/// Scopes nest: every active observer receives events and the innermost
/// deadline applies.
#[derive(Clone, Default)]
pub struct WaveCtx {
    /// Invocation-level cancellation/deadline token.
    pub deadline: Option<CancelToken>,
    /// Streamed per-outcome progress callback.
    pub observer: Option<WaveObserver>,
}

thread_local! {
    static WAVES: RefCell<Vec<WaveCtx>> = const { RefCell::new(Vec::new()) };
}

/// Makes `ctx` ambient on the calling thread until the returned guard drops
/// (see [`WaveCtx`]).
#[must_use = "the wave context is only ambient while the returned guard lives"]
pub fn enter_wave(ctx: WaveCtx) -> WaveScope {
    WAVES.with(|stack| stack.borrow_mut().push(ctx));
    WaveScope { _private: () }
}

/// RAII guard of an entered wave context (see [`enter_wave`]).
#[derive(Debug)]
pub struct WaveScope {
    _private: (),
}

impl Drop for WaveScope {
    fn drop(&mut self) {
        WAVES.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The merged view of every entered wave scope, captured once per wave on
/// the submitting thread (cells execute on pool threads, where the
/// thread-local stack is not visible).
struct MergedWave {
    deadline: Option<CancelToken>,
    observers: Vec<WaveObserver>,
}

impl MergedWave {
    fn current() -> Self {
        WAVES.with(|stack| {
            let stack = stack.borrow();
            Self {
                deadline: stack.iter().rev().find_map(|ctx| ctx.deadline.clone()),
                observers: stack
                    .iter()
                    .filter_map(|ctx| ctx.observer.clone())
                    .collect(),
            }
        })
    }

    fn notify(&self, outcome: &CellOutcome) {
        for observer in &self.observers {
            observer(outcome);
        }
    }
}

/// Terminal status of one cell in a [`GridReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// The cell completed; its result is readable via [`Runner::result`].
    Ok,
    /// The cell completed as the paper's out-of-memory condition (rendered
    /// as an `OOM` table row, not a failure).
    Oom,
    /// The cell failed with a typed error (registry lookup, condensation,
    /// I/O).
    Failed(BgcError),
    /// The cell exceeded the per-cell deadline and was cooperatively
    /// cancelled at a `bgc_runtime` checkpoint.
    TimedOut {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The cell panicked; the panic was caught at the cell boundary.
    Panicked {
        /// The panic payload's message.
        message: String,
    },
    /// The cell never started: an earlier cell failed and the runner is not
    /// in [`Runner::keep_going`] mode.
    Skipped,
}

impl CellStatus {
    /// Whether the cell produced a usable result (`Ok` or `Oom`).
    pub fn is_success(&self) -> bool {
        matches!(self, CellStatus::Ok | CellStatus::Oom)
    }

    /// The status as a typed error (`None` for successes and skipped cells).
    pub fn to_error(&self, canon: &str) -> Option<BgcError> {
        match self {
            CellStatus::Ok | CellStatus::Oom | CellStatus::Skipped => None,
            CellStatus::Failed(err) => Some(err.clone()),
            CellStatus::TimedOut { limit_ms } => Some(BgcError::CellTimedOut {
                canon: canon.to_string(),
                limit_ms: *limit_ms,
            }),
            CellStatus::Panicked { message } => Some(BgcError::CellPanicked {
                canon: canon.to_string(),
                message: message.clone(),
            }),
        }
    }

    /// Short human-readable label (grid summaries, CLI output).
    pub fn label(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Oom => "oom",
            CellStatus::Failed(_) => "failed",
            CellStatus::TimedOut { .. } => "timed out",
            CellStatus::Panicked { .. } => "panicked",
            CellStatus::Skipped => "skipped",
        }
    }
}

/// Per-cell record of one [`Runner::run_cells`] wave.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's coordinates.
    pub key: CellKey,
    /// Terminal status of the cell in this wave.
    pub status: CellStatus,
}

/// Per-cell statuses of one [`Runner::run_cells`] wave, in submission order
/// (deduplicated).  This replaces the old first-error-wins return: a
/// ten-cell failure reports ten statuses, and [`Runner::keep_going`] callers
/// can render the cells that did complete.
#[derive(Clone, Debug)]
pub struct GridReport {
    /// One outcome per distinct submitted cell, in submission order.
    pub outcomes: Vec<CellOutcome>,
}

impl GridReport {
    /// Whether every cell completed (`Ok` or `Oom`).
    pub fn is_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.status.is_success())
    }

    /// Outcomes that failed (errored, timed out or panicked; skipped cells
    /// are not failures).
    pub fn failures(&self) -> Vec<&CellOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.status.is_success() && o.status != CellStatus::Skipped)
            .collect()
    }

    /// Cells that never started because the wave aborted on a failure.
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == CellStatus::Skipped)
            .count()
    }

    /// Every failure aggregated into one typed error (`None` when the wave
    /// succeeded).  A multi-cell failure retains every per-cell error.
    pub fn error(&self) -> Option<BgcError> {
        BgcError::aggregate(
            self.failures()
                .iter()
                .filter_map(|o| o.status.to_error(&o.key.canon()))
                .collect(),
        )
    }

    /// One-line summary, e.g. `121 cells: 119 ok, 1 oom, 1 panicked`.
    pub fn summary(&self) -> String {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for outcome in &self.outcomes {
            let label = outcome.status.label();
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        let parts: Vec<String> = counts
            .iter()
            .map(|(label, n)| format!("{} {}", n, label))
            .collect();
        format!("{} cells: {}", self.outcomes.len(), parts.join(", "))
    }
}

type StageResult<T> = Result<T, BgcError>;

/// Key of the select stage, every input of the selector's training: the
/// dataset and the cell seed (which generate the graph and seed the
/// selector), the hidden width, the selector epochs and the training plan.
type SelectKey = (DatasetKind, u64, usize, usize, TrainingPlan);

/// A `(dataset, seed)` slot: the generated graph, its working graph and the
/// generated graph's content fingerprint.
type LoadedGraph = (Arc<Graph>, Arc<Graph>, u64);

/// The experiment-grid engine.  See the module docs for the execution model.
pub struct Runner {
    scale: ExperimentScale,
    base_seed: u64,
    parallel: bool,
    keep_going: bool,
    cell_timeout: Option<Duration>,
    fault_plan: Option<FaultPlan>,
    /// Content-addressed artifact store, the runner's only persistence
    /// layer: every stage and cell result reads through it (`None`: all of
    /// them stay in process).
    store: Option<Arc<Store>>,
    /// Per-stage code epochs mixed into every cache key.
    epochs: CodeEpochs,
    results: Mutex<BTreeMap<CellKey, CellResult>>,
    /// Cells that failed terminally in an earlier wave.  A failed cell stays
    /// failed for the lifetime of the runner (so overlapping reports are
    /// deterministic); a fresh process re-runs it.
    failures: Mutex<BTreeMap<CellKey, CellStatus>>,
    clean_cache: StageCache<StoreKey, StageResult<Arc<CondensedGraph>>>,
    attack_cache: StageCache<StoreKey, StageResult<AttackArtifacts>>,
    /// The select stage: selector outputs on working graphs, kept in
    /// memory only.
    select_cache: StageCache<SelectKey, Arc<SelectorOutput>>,
    /// Generated datasets with their working graphs and content
    /// fingerprints, shared across cells: `(dataset, seed)` fully
    /// determines the graph, so overlapping cells reuse one instance
    /// instead of re-generating or re-deriving it.
    graphs: StageCache<(DatasetKind, u64), LoadedGraph>,
    cells_computed: AtomicUsize,
    cell_memory_hits: AtomicUsize,
    cell_disk_hits: AtomicUsize,
    store_hits: AtomicUsize,
    store_computed: AtomicUsize,
    store_degraded: AtomicUsize,
}

impl Runner {
    /// A runner over the shared artifact store under
    /// [`bgc_store::default_store_root`].
    pub fn new(scale: ExperimentScale) -> Self {
        Self::with_cache_dir(scale, Some(bgc_store::default_store_root()))
    }

    /// A runner without on-disk persistence (unit tests, library use).
    pub fn in_memory(scale: ExperimentScale) -> Self {
        Self::with_cache_dir(scale, None)
    }

    /// A runner over the artifact store rooted at `root`; `None` keeps
    /// every stage and cell result in memory.  Opening the store sweeps the
    /// leftovers of killed processes.
    pub fn with_cache_dir(scale: ExperimentScale, root: Option<PathBuf>) -> Self {
        Self {
            scale,
            base_seed: DEFAULT_BASE_SEED,
            parallel: true,
            keep_going: false,
            cell_timeout: None,
            fault_plan: None,
            store: root.map(Store::open),
            epochs: CodeEpochs::default(),
            results: Mutex::new(BTreeMap::new()),
            failures: Mutex::new(BTreeMap::new()),
            clean_cache: StageCache::new(),
            attack_cache: StageCache::new(),
            select_cache: StageCache::new(),
            graphs: StageCache::new(),
            cells_computed: AtomicUsize::new(0),
            cell_memory_hits: AtomicUsize::new(0),
            cell_disk_hits: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            store_computed: AtomicUsize::new(0),
            store_degraded: AtomicUsize::new(0),
        }
    }

    /// Attaches (or detaches) the content-addressed artifact store every
    /// stage and cell result reads through.  `None` keeps them purely
    /// in-process.  The store is shared: multiple runners and processes can
    /// point at one root and each artifact is computed once.
    pub fn with_store(mut self, store: Option<Arc<Store>>) -> Self {
        self.store = store;
        self
    }

    /// Overrides the per-stage code epochs (tests prove precise
    /// invalidation by bumping one stage's epoch).
    pub fn with_code_epochs(mut self, epochs: CodeEpochs) -> Self {
        self.epochs = epochs;
        self
    }

    /// The artifact store this runner reads through, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Disables the thread pool: cells run serially on the calling thread
    /// (results are bit-identical either way; this exists for the
    /// determinism test and for debugging).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Completes the rest of the grid around failed cells instead of
    /// aborting the wave at the first failure; every failure is recorded in
    /// the [`GridReport`].
    pub fn keep_going(mut self, keep_going: bool) -> Self {
        self.keep_going = keep_going;
        self
    }

    /// Sets a per-cell deadline.  Cells past the deadline are cooperatively
    /// cancelled at the next `bgc_runtime` checkpoint (trainer epochs,
    /// condensation outer epochs) and reported as [`CellStatus::TimedOut`].
    pub fn with_cell_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cell_timeout = timeout;
        self
    }

    /// Arms a deterministic fault-injection plan: it is entered around every
    /// cell with the cell's canonical key as context, so context filters
    /// target exact cells (see [`bgc_runtime::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Overrides the base seed of the grid (repetition `i` of a cell runs
    /// with `base_seed + i`).
    pub fn with_base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// The runner's experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The base seed of the grid.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Declares one experiment configuration as a group of per-repetition
    /// cells.  Overrides equal to the scale's baseline are normalized to
    /// `None` ([`CellOverrides::normalized`]) so identical cells from
    /// different tables share cache entries.
    pub fn group(
        &self,
        dataset: DatasetKind,
        method: impl Into<MethodId>,
        attack: impl Into<AttackId>,
        ratio: f32,
        eval: EvalKind,
        overrides: CellOverrides,
    ) -> CellGroup {
        self.group_seeded(
            dataset,
            method.into(),
            attack.into(),
            ratio,
            eval,
            overrides,
            self.base_seed,
        )
    }

    /// [`Runner::group`] with an explicit base seed (used by the experiment
    /// builder, whose specs carry their own seed).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per coordinate of a cell group"
    )]
    pub(crate) fn group_seeded(
        &self,
        dataset: DatasetKind,
        method: MethodId,
        attack: AttackId,
        ratio: f32,
        eval: EvalKind,
        overrides: CellOverrides,
        base_seed: u64,
    ) -> CellGroup {
        // Re-canonicalize the spellings against the registries at lowering
        // time: ids created before their entry was registered (or via
        // `::new`) must not occupy a second cache identity.
        let method = MethodId::from(method.as_str());
        let attack = AttackId::from(attack.as_str());
        let eval = eval.canonicalized();
        let overrides = overrides.normalized(self.scale, dataset, ratio);
        let keys = (0..self.scale.repetitions())
            .map(|rep| CellKey {
                scale: self.scale,
                dataset,
                method: method.clone(),
                attack: attack.clone(),
                ratio_bits: ratio.to_bits(),
                base_seed,
                rep,
                eval: eval.clone(),
                overrides: overrides.clone(),
                epochs: self.epochs,
            })
            .collect();
        CellGroup {
            dataset,
            method,
            attack,
            ratio,
            eval,
            keys,
        }
    }

    /// The default BGC group of Table II: standard evaluation, no overrides.
    pub fn bgc_group(
        &self,
        dataset: DatasetKind,
        method: impl Into<MethodId>,
        ratio: f32,
    ) -> CellGroup {
        self.group(
            dataset,
            method,
            AttackKind::Bgc,
            ratio,
            EvalKind::Standard,
            CellOverrides::default(),
        )
    }

    /// Executes every not-yet-known cell of `keys` (deduplicated), in
    /// parallel unless [`Runner::serial`], and reports one [`CellOutcome`]
    /// per distinct cell in submission order.
    ///
    /// Every cell runs behind an unwind boundary: a panic becomes
    /// [`CellStatus::Panicked`], a deadline overrun [`CellStatus::TimedOut`]
    /// and a typed error [`CellStatus::Failed`] — OOM cells stay ordinary
    /// OOM *results*.  Without [`Runner::keep_going`] the first failure
    /// stops cells that have not started yet (recorded as
    /// [`CellStatus::Skipped`]); with it the whole grid completes.
    pub fn run_cells(&self, keys: &[CellKey]) -> GridReport {
        let wave = MergedWave::current();
        let mut order: Vec<CellKey> = Vec::new();
        let mut resolved: BTreeMap<CellKey, CellOutcome> = BTreeMap::new();
        let mut pending: Vec<CellKey> = Vec::new();
        {
            let results = relock(&self.results);
            let failures = relock(&self.failures);
            let mut seen = BTreeSet::new();
            for key in keys {
                if !seen.insert(key.clone()) {
                    continue;
                }
                order.push(key.clone());
                if let Some(result) = results.get(key) {
                    self.cell_memory_hits.fetch_add(1, Ordering::Relaxed);
                    let status = if result.oom {
                        CellStatus::Oom
                    } else {
                        CellStatus::Ok
                    };
                    resolved.insert(key.clone(), cell_outcome(key, status));
                } else if let Some(status) = failures.get(key) {
                    resolved.insert(key.clone(), cell_outcome(key, status.clone()));
                } else {
                    pending.push(key.clone());
                }
            }
        }
        // Notify outside the lock scope: observers may do slow I/O.
        for key in &order {
            if let Some(outcome) = resolved.get(key) {
                wave.notify(outcome);
            }
        }
        let aborted = AtomicBool::new(false);
        let computed: Mutex<BTreeMap<CellKey, CellOutcome>> = Mutex::new(BTreeMap::new());
        let execute = |key: CellKey| {
            let outcome = if aborted.load(Ordering::Relaxed) {
                cell_outcome(&key, CellStatus::Skipped)
            } else {
                let outcome = self.execute_cell(&key, &wave);
                if !outcome.status.is_success() {
                    relock(&self.failures).insert(key.clone(), outcome.status.clone());
                    if !self.keep_going {
                        aborted.store(true, Ordering::Relaxed);
                    }
                }
                outcome
            };
            wave.notify(&outcome);
            relock(&computed).insert(key, outcome);
        };
        if self.parallel && pending.len() > 1 {
            pending.into_par_iter().for_each(execute);
        } else {
            for key in pending {
                execute(key);
            }
        }
        let mut computed = computed
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        GridReport {
            outcomes: order
                .into_iter()
                .map(|key| {
                    // Every submitted cell resolves from the pre-wave maps or
                    // the wave itself; if that invariant ever breaks, report
                    // the cell as unexecuted instead of panicking mid-grid.
                    resolved
                        .remove(&key)
                        .or_else(|| computed.remove(&key))
                        .unwrap_or_else(|| {
                            let canon = key.canon();
                            cell_outcome(
                                &key,
                                CellStatus::Failed(BgcError::CellNotExecuted { canon }),
                            )
                        })
                })
                .collect(),
        }
    }

    /// Executes one cell behind the unwind boundary, with the deadline
    /// token and the fault-injection scope.  The cell's result reads
    /// through the store as an `eval` artifact before anything is computed,
    /// so a stored cell loads no graph.
    fn execute_cell(&self, key: &CellKey, wave: &MergedWave) -> CellOutcome {
        let canon = key.canon();
        let eval_key = self.eval_store_key(&canon);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _faults = self.fault_plan.as_ref().map(|plan| plan.enter(&canon));
            // The per-cell timeout composes with the ambient invocation
            // deadline: the child token cancels on whichever fires first.
            let deadline = match (&wave.deadline, self.cell_timeout) {
                (Some(outer), Some(timeout)) => Some(outer.child_with_timeout(timeout)),
                (Some(outer), None) => Some(outer.clone()),
                (None, Some(timeout)) => Some(CancelToken::with_timeout(timeout)),
                (None, None) => None,
            };
            let _scope = deadline.as_ref().map(CancelToken::enter);
            let (result, role) = self.through_store(
                &eval_key,
                |bytes| artifact_codec::decode_cell(bytes).map(Ok),
                |result| result.as_ref().ok().map(artifact_codec::encode_cell),
                || self.compute_cell(key),
            );
            result.map(|result| (result, role == Some(StoreRole::Hit)))
        }));
        let status = match unwound {
            Ok(Ok((result, stored))) => {
                let counter = if stored {
                    &self.cell_disk_hits
                } else {
                    &self.cells_computed
                };
                counter.fetch_add(1, Ordering::Relaxed);
                relock(&self.results).insert(key.clone(), result);
                if result.oom {
                    CellStatus::Oom
                } else {
                    CellStatus::Ok
                }
            }
            Ok(Err(err)) => CellStatus::Failed(err),
            Err(payload) if payload.downcast_ref::<CancelUnwind>().is_some() => {
                CellStatus::TimedOut {
                    limit_ms: self
                        .cell_timeout
                        .or_else(|| wave.deadline.as_ref().and_then(CancelToken::timeout))
                        .map_or(0, |t| t.as_millis() as u64),
                }
            }
            Err(payload) => CellStatus::Panicked {
                message: panic_message(payload.as_ref()),
            },
        };
        cell_outcome(key, status)
    }

    /// Runs every cell of the given groups (one call per report keeps the
    /// whole report's grid in flight at once).
    ///
    /// Without [`Runner::keep_going`] any failure returns as a typed error
    /// aggregating *every* failed cell (a ten-cell failure reports ten
    /// errors, not one).  With it the [`GridReport`] is returned regardless
    /// and the caller decides how to proceed.
    pub fn run_groups(&self, groups: &[&CellGroup]) -> Result<GridReport, BgcError> {
        let keys: Vec<CellKey> = groups.iter().flat_map(|g| g.keys.iter().cloned()).collect();
        let report = self.run_cells(&keys);
        if !self.keep_going {
            if let Some(err) = report.error() {
                return Err(err);
            }
        }
        Ok(report)
    }

    /// The completed result of a cell; the cell's failure if it failed, and
    /// [`BgcError::CellNotExecuted`] if it was never run.
    pub fn result(&self, key: &CellKey) -> Result<CellResult, BgcError> {
        if let Some(result) = relock(&self.results).get(key) {
            return Ok(*result);
        }
        let failed = relock(&self.failures)
            .get(key)
            .and_then(|status| status.to_error(&key.canon()));
        Err(failed.unwrap_or_else(|| BgcError::CellNotExecuted { canon: key.canon() }))
    }

    /// Aggregates a group's repetitions into a Table II-style row (runs any
    /// missing cells first).  A group with an OOM repetition reports the
    /// paper's `OOM` row.
    pub fn metrics(&self, group: &CellGroup) -> Result<RunMetrics, BgcError> {
        // Read-back path: only submit cells that were never executed, so
        // rendering a report after its `run_groups` wave does not inflate
        // the memory-hit counter (that stat measures overlap between
        // reports, not result lookups).
        let missing: Vec<CellKey> = {
            let results = relock(&self.results);
            group
                .keys
                .iter()
                .filter(|k| !results.contains_key(*k))
                .cloned()
                .collect()
        };
        if !missing.is_empty() {
            // Cells that failed in an earlier wave resolve from the failure
            // map without re-executing, so a failed group renders the same
            // error every time it is asked for.
            if let Some(err) = self.run_cells(&missing).error() {
                return Err(err);
            }
        }
        let results: Vec<CellResult> = group
            .keys
            .iter()
            .map(|k| self.result(k))
            .collect::<Result<_, _>>()?;
        Ok(RunMetrics::aggregate(group, &results))
    }

    /// Snapshot of the cache/execution counters.
    pub fn stats(&self) -> RunnerStats {
        let prefetch = bgc_nn::prefetch_stats();
        RunnerStats {
            cells_computed: self.cells_computed.load(Ordering::Relaxed),
            cell_memory_hits: self.cell_memory_hits.load(Ordering::Relaxed),
            cell_disk_hits: self.cell_disk_hits.load(Ordering::Relaxed),
            attack_stages_computed: self.attack_cache.computed.load(Ordering::Relaxed),
            attack_stage_hits: self.attack_cache.hits.load(Ordering::Relaxed),
            clean_stages_computed: self.clean_cache.computed.load(Ordering::Relaxed),
            clean_stage_hits: self.clean_cache.hits.load(Ordering::Relaxed),
            select_stages_computed: self.select_cache.computed.load(Ordering::Relaxed),
            select_stage_hits: self.select_cache.hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_computed: self.store_computed.load(Ordering::Relaxed),
            store_degraded: self.store_degraded.load(Ordering::Relaxed),
            prefetch_produced: prefetch.batches_produced,
            prefetch_consumed: prefetch.batches_consumed,
            prefetch_trainer_stall_ms: prefetch.trainer_stall_ms,
            prefetch_sampler_idle_ms: prefetch.sampler_idle_ms,
        }
    }

    // ------------------------------------------------------------------
    // Cell execution
    // ------------------------------------------------------------------

    fn compute_cell(&self, key: &CellKey) -> Result<CellResult, BgcError> {
        let attack = lookup_attack(&key.attack)?;
        let method = lookup_method(&key.method)?;
        let defense = match &key.eval {
            EvalKind::Standard => None,
            EvalKind::Defended(id) => Some(
                resolve_defense(id.as_str())
                    .ok_or_else(|| BgcError::UnknownDefense(id.to_string()))?,
            ),
        };

        // The content fingerprint is the dataset's process-independent
        // identity in the stage keys; it and the working graph the stages
        // condense are derived once per generated graph.
        let (graph, work, graph_fp) =
            self.graphs.get_or_compute(&(key.dataset, key.seed()), || {
                let graph = self.scale.load(key.dataset, key.seed());
                let fingerprint = graph.content_fingerprint();
                let work = working_graph(&graph);
                (Arc::new(graph), Arc::new(work), fingerprint)
            });
        let (config, victim, options) = self.cell_inputs(key);

        // Clean reference condensation — needed by the Standard evaluation
        // (C-CTA/C-ASR columns) and by attacks that inject into the clean
        // condensed graph (Naive Poison); defense cells of other attacks
        // skip it.
        let needs_clean = key.eval == EvalKind::Standard || attack.needs_clean_reference();
        let clean = if needs_clean {
            let clean_key = self.clean_store_key(key, graph_fp, &config);
            let outcome = self.clean_cache.get_or_compute(&clean_key, || {
                // The fault point fires before the store read-through, so an
                // injected `stage.clean` fault hits every computing cell,
                // even when the clean artifact is stored.
                fault::fire("stage.clean");
                self.through_store(
                    &clean_key,
                    |bytes| artifact_codec::decode_condensed(bytes).map(|g| Ok(Arc::new(g))),
                    |result| {
                        result
                            .as_ref()
                            .ok()
                            .map(|g| artifact_codec::encode_condensed(g))
                    },
                    || clean_stage(&work, method.as_ref(), &config).map(Arc::new),
                )
                .0
            });
            match outcome {
                Ok(clean) => Some(clean),
                Err(err) if err.is_oom() => return Ok(CellResult::oom()),
                Err(err) => return Err(err),
            }
        } else {
            None
        };

        // Called by attacks that select representative nodes, after their
        // capacity check.
        let selector = || {
            let select_key = (
                key.dataset,
                key.seed(),
                config.hidden_dim,
                config.selector_epochs,
                config.training_plan.clone(),
            );
            self.select_cache.get_or_compute(&select_key, || {
                Arc::new(selector_representations(&work, &config))
            })
        };
        let artifacts = {
            let attack_key =
                self.attack_store_key(key, graph_fp, &config, attack.needs_clean_reference());
            let outcome = self.attack_cache.get_or_compute(&attack_key, || {
                fault::fire("stage.attack");
                // Artifacts whose trigger provider is not snapshottable
                // (third-party registry attacks) stay process-local.
                self.through_store(
                    &attack_key,
                    |bytes| artifact_codec::decode_attack(bytes).map(Ok),
                    |result| result.as_ref().ok().and_then(artifact_codec::encode_attack),
                    || {
                        attack.run(
                            &work,
                            method.as_ref(),
                            &config,
                            clean.as_deref(),
                            Some(&selector),
                        )
                    },
                )
                .0
            });
            match outcome {
                Ok(artifacts) => artifacts,
                Err(err) if err.is_oom() => return Ok(CellResult::oom()),
                Err(err) => return Err(err),
            }
        };

        // A standard cell's victims train on the poisoned and the clean
        // condensed graph and read one set of ASR inputs; a defended cell
        // trains one victim, on the poisoned graph, through its defense.
        let condensed = match (&defense, &clean) {
            (Some(_), _) => vec![artifacts.condensed.as_ref()],
            (None, Some(clean)) => vec![artifacts.condensed.as_ref(), clean.as_ref()],
            // Standard cells condense the clean reference above
            // (`needs_clean` is true for `EvalKind::Standard`); a missing
            // reference is a typed failure, not a panic.
            (None, None) => {
                return Err(BgcError::MissingCleanReference {
                    attack: key.attack.as_str().to_string(),
                })
            }
        };
        let evaluations = evaluate_victims(
            &graph,
            &condensed,
            artifacts.provider.as_ref(),
            &config,
            &victim,
            &options,
            defense.as_deref(),
        );
        let (poisoned, reference) = (evaluations[0], evaluations.get(1));
        Ok(CellResult {
            c_cta: reference.map_or(0.0, |r| r.cta),
            cta: poisoned.cta,
            c_asr: reference.map_or(0.0, |r| r.asr),
            asr: poisoned.asr,
            asr_nodes: poisoned.asr_nodes,
            oom: false,
        })
    }

    /// A cell's attack configuration, victim and evaluation options: the
    /// scale's defaults with the cell's overrides applied.
    fn cell_inputs(&self, key: &CellKey) -> (BgcConfig, VictimSpec, EvaluationOptions) {
        let mut config = self.scale.bgc_config(key.dataset, key.ratio(), key.seed());
        let mut victim = self.scale.victim_spec_for(key.dataset);
        let mut options = self.scale.evaluation_options_for(key.dataset, key.seed());
        key.overrides.apply(&mut config, &mut victim, &mut options);
        (config, victim, options)
    }

    // ------------------------------------------------------------------
    // Content-addressed artifacts
    // ------------------------------------------------------------------

    /// Reads one request through the artifact store (plain `compute` when
    /// no store is attached) and counts how the store served it.  Values
    /// `encode` rejects, failed computations among them, are returned but
    /// never persisted.
    fn through_store<T>(
        &self,
        key: &StoreKey,
        decode: impl Fn(&[u8]) -> Option<T>,
        encode: impl Fn(&T) -> Option<Vec<u8>>,
        compute: impl FnOnce() -> T,
    ) -> (T, Option<StoreRole>) {
        let Some(store) = &self.store else {
            return (compute(), None);
        };
        let (value, role) = store.get_or_compute(key, decode, encode, compute);
        let counter = match role {
            StoreRole::Hit => &self.store_hits,
            StoreRole::Computed => &self.store_computed,
            StoreRole::Degraded => &self.store_degraded,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        (value, Some(role))
    }

    /// Store key of a cell's result: the evaluation code epoch and the cell
    /// canon, which already carries every stage's code epoch.  It has no
    /// graph fingerprint and no upstream hash, so a cell is looked up before
    /// anything about it is computed.
    fn eval_store_key(&self, canon: &str) -> StoreKey {
        KeyBuilder::new("eval", self.epochs.eval)
            .field("cell", canon)
            .build()
    }

    /// Store key of a clean condensation: the dataset and condensation code
    /// epochs, the graph's content fingerprint, the method, and the full
    /// condensation canon (ratio and seed included).
    fn clean_store_key(&self, key: &CellKey, graph_fp: u64, config: &BgcConfig) -> StoreKey {
        KeyBuilder::new("clean", self.epochs.condense)
            .field("dsep", self.epochs.dataset)
            .field("scale", self.scale.name())
            .field("dataset", key.dataset.name())
            .hash_field("graph", graph_fp)
            .field("method", &key.method)
            .field("cond", config.condensation.canon())
            .build()
    }

    /// Store key of an attack stage: the clean key's inputs plus the attack
    /// code epoch, the attack name and the full attack-config canon.
    /// Attacks that consume the clean reference chain the clean artifact's
    /// key hash as an upstream field, so invalidating the clean stage
    /// (e.g. a condensation epoch bump) invalidates them too.
    fn attack_store_key(
        &self,
        key: &CellKey,
        graph_fp: u64,
        config: &BgcConfig,
        needs_clean: bool,
    ) -> StoreKey {
        let mut builder = KeyBuilder::new("attack", self.epochs.attack)
            .field("dsep", self.epochs.dataset)
            .field("cdep", self.epochs.condense)
            .field("scale", self.scale.name())
            .field("dataset", key.dataset.name())
            .hash_field("graph", graph_fp)
            .field("method", &key.method)
            .field("attack", &key.attack)
            .field("cfg", config.canon());
        if needs_clean {
            builder = builder.upstream("clean", &self.clean_store_key(key, graph_fp, config));
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_condense::CondensationKind;
    use bgc_nn::GnnArchitecture;
    use std::fs;
    use std::path::Path;

    /// The live artifacts of a store root, by file name.
    fn artifacts(root: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(root)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".art"))
                    .map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        (name, fs::read(e.path()).expect("artifact readable"))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A tiny two-cell grid that shares the clean stage between two attacks.
    fn tiny_groups(runner: &Runner) -> Vec<CellGroup> {
        let overrides = CellOverrides {
            outer_epochs: Some(4),
            ..CellOverrides::default()
        };
        vec![
            runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.026,
                EvalKind::Standard,
                overrides.clone(),
            ),
            runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::NaivePoison,
                0.026,
                EvalKind::Standard,
                overrides,
            ),
        ]
    }

    #[test]
    fn keys_are_canonical_and_normalized() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        // Overrides equal to the quick baseline collapse to the default key.
        let baseline = runner.scale.bgc_config(DatasetKind::Cora, 0.026, 17);
        let explicit = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCond,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides {
                generator: Some(baseline.generator),
                trigger_size: Some(baseline.trigger_size),
                outer_epochs: Some(baseline.condensation.outer_epochs),
                architecture: Some(GnnArchitecture::Gcn),
                num_layers: Some(2),
                ..CellOverrides::default()
            },
        );
        let default = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCond, 0.026);
        assert_eq!(explicit.keys, default.keys);

        // Distinct coordinates produce distinct canonical encodings.
        let other = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCond,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides {
                num_layers: Some(3),
                ..CellOverrides::default()
            },
        );
        assert_ne!(default.keys[0].canon(), other.keys[0].canon());
        let eval_key = |key: &CellKey| runner.eval_store_key(&key.canon());
        assert_ne!(eval_key(&default.keys[0]), eval_key(&other.keys[0]));
        // The victim-side override leaves the attack stage shareable.
        let attack_key =
            |key: &CellKey| runner.attack_store_key(key, 0, &runner.cell_inputs(key).0, true);
        assert_eq!(attack_key(&default.keys[0]), attack_key(&other.keys[0]));
        assert_eq!(default.keys[0].seed(), 17);
    }

    #[test]
    fn string_spellings_share_keys_with_typed_kinds() {
        // The CLI parses names; the regenerators pass enum kinds — both must
        // produce identical cell keys (one spelling, one cache entry).
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let typed = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCond,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides::default(),
        );
        let spelled = runner.group(
            DatasetKind::Cora,
            "gcond",
            "bgc",
            0.026,
            "standard".parse().unwrap(),
            CellOverrides::default(),
        );
        assert_eq!(typed.keys, spelled.keys);
        assert_eq!(EvalKind::prune().name(), "prune");
        assert_eq!("PRUNE".parse::<EvalKind>().unwrap(), EvalKind::prune());
        assert_eq!(
            "randsmooth".parse::<EvalKind>().unwrap(),
            EvalKind::randsmooth()
        );
    }

    #[test]
    fn parallel_and_serial_execution_are_bit_identical() {
        let serial = Runner::in_memory(ExperimentScale::Quick).serial();
        let parallel = Runner::in_memory(ExperimentScale::Quick);
        let groups = tiny_groups(&serial);
        let keys: Vec<CellKey> = groups.iter().flat_map(|g| g.keys.clone()).collect();
        assert!(serial.run_cells(&keys).is_ok());
        assert!(parallel.run_cells(&keys).is_ok());
        for key in &keys {
            let a = serial.result(key).unwrap();
            let b = parallel.result(key).unwrap();
            assert_eq!(a.c_cta.to_bits(), b.c_cta.to_bits(), "{}", key.canon());
            assert_eq!(a.cta.to_bits(), b.cta.to_bits(), "{}", key.canon());
            assert_eq!(a.c_asr.to_bits(), b.c_asr.to_bits(), "{}", key.canon());
            assert_eq!(a.asr.to_bits(), b.asr.to_bits(), "{}", key.canon());
            assert_eq!(a.asr_nodes, b.asr_nodes);
        }
        // The two attacks on the same coordinates share one clean
        // condensation in both execution modes.
        assert_eq!(serial.stats().clean_stages_computed, 1);
        assert_eq!(parallel.stats().clean_stages_computed, 1);
        assert!(serial.stats().clean_stage_hits >= 1);
    }

    #[test]
    fn concurrent_cells_train_one_selector_per_working_graph() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let short = CellOverrides {
            outer_epochs: Some(4),
            ..CellOverrides::default()
        };
        let cell = |method: CondensationKind, attack: AttackKind, overrides: &CellOverrides| {
            runner
                .group(
                    DatasetKind::Cora,
                    method,
                    attack,
                    0.026,
                    EvalKind::Standard,
                    overrides.clone(),
                )
                .keys
        };
        let directed = CellOverrides {
            source_class: Some(1),
            ..short.clone()
        };
        let keys = [
            cell(CondensationKind::GCondX, AttackKind::Bgc, &short),
            cell(CondensationKind::DcGraph, AttackKind::Bgc, &short),
            cell(CondensationKind::GCondX, AttackKind::Bgc, &directed),
            cell(CondensationKind::GCondX, AttackKind::BgcRand, &short),
            cell(CondensationKind::GCondX, AttackKind::NaivePoison, &short),
        ]
        .concat();
        assert!(runner.run_cells(&keys).is_ok());
        // Three attack stages select representative nodes and share one
        // training; BGC_Rand and NaivePoison request none.
        let stats = runner.stats();
        assert_eq!(stats.attack_stages_computed, 5);
        assert_eq!(
            (stats.select_stages_computed, stats.select_stage_hits),
            (1, 2)
        );
        assert!(stats
            .summary()
            .contains("select stages: 1 computed, 2 shared"));

        // Another training plan trains another selector.
        let sampled = CellOverrides {
            plan: Some(TrainingPlan::Sampled(bgc_nn::SampledPlan {
                fanouts: vec![5, 5],
                batch_size: 64,
            })),
            ..short
        };
        let keys = cell(CondensationKind::GCondX, AttackKind::Bgc, &sampled);
        assert!(runner.run_cells(&keys).is_ok());
        let stats = runner.stats();
        assert_eq!(
            (stats.select_stages_computed, stats.select_stage_hits),
            (2, 2)
        );
    }

    #[test]
    fn disk_cache_resumes_with_identical_results() {
        let dir = std::env::temp_dir().join(format!("bgc-runner-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let first = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone()));
        let groups = tiny_groups(&first);
        let keys: Vec<CellKey> = groups.iter().flat_map(|g| g.keys.clone()).collect();
        assert!(first.run_cells(&keys).is_ok());
        assert_eq!(first.stats().cells_computed, keys.len());
        assert_eq!(first.stats().cell_disk_hits, 0);

        // A fresh runner (fresh process, conceptually) is served entirely
        // from the cells' `eval` artifacts, bit-identically, without
        // generating a dataset or requesting a stage.
        let second = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone()));
        assert!(second.run_cells(&keys).is_ok());
        let stats = second.stats();
        assert_eq!(stats.cell_disk_hits, keys.len());
        assert_eq!(stats.cells_computed, 0);
        assert_eq!((stats.store_hits, stats.store_computed), (keys.len(), 0));
        assert_eq!(second.graphs.computed.load(Ordering::Relaxed), 0);
        assert_eq!(stats.clean_stages_computed + stats.clean_stage_hits, 0);
        assert_eq!(stats.attack_stages_computed + stats.attack_stage_hits, 0);
        assert_eq!(stats.select_stages_computed + stats.select_stage_hits, 0);
        for key in &keys {
            let a = first.result(key).unwrap();
            let b = second.result(key).unwrap();
            assert_eq!(a.cta.to_bits(), b.cta.to_bits());
            assert_eq!(a.asr.to_bits(), b.asr.to_bits());
            assert_eq!(a.c_cta.to_bits(), b.c_cta.to_bits());
            assert_eq!(a.c_asr.to_bits(), b.c_asr.to_bits());
        }

        // Re-running on the same runner hits the in-memory map, and the
        // report still carries per-cell outcomes.
        let report = second.run_cells(&keys);
        assert!(report.is_ok());
        assert_eq!(report.outcomes.len(), keys.len());
        assert_eq!(second.stats().cell_memory_hits, keys.len());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_aggregate_and_match_the_protocol_shape() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides {
                outer_epochs: Some(4),
                ..CellOverrides::default()
            },
        );
        let metrics = runner.metrics(&group).unwrap();
        assert_eq!(metrics.dataset, "cora");
        assert_eq!(metrics.method, "GCond-X");
        assert!(!metrics.oom);
        assert!(metrics.cta > 0.0 && metrics.cta <= 1.0);
        // Quick scale has one repetition: the sample std collapses to zero.
        assert_eq!(metrics.asr_std, 0.0);
    }

    #[test]
    fn unknown_registry_names_fail_with_typed_errors() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            "GhostAttack",
            0.026,
            EvalKind::Standard,
            CellOverrides::default(),
        );
        assert!(matches!(
            runner.metrics(&group),
            Err(BgcError::UnknownAttack(name)) if name == "GhostAttack"
        ));
        let group = runner.group(
            DatasetKind::Cora,
            "Vapour",
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides::default(),
        );
        assert!(matches!(
            runner.metrics(&group),
            Err(BgcError::UnknownMethod(name)) if name == "Vapour"
        ));
        let group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            AttackKind::Bgc,
            0.026,
            EvalKind::Defended(DefenseId::new("moat")),
            CellOverrides {
                outer_epochs: Some(2),
                ..CellOverrides::default()
            },
        );
        assert!(matches!(
            runner.metrics(&group),
            Err(BgcError::UnknownDefense(name)) if name == "moat"
        ));
        // An unexecuted cell reads back as a typed error, not a panic.
        let group = runner.bgc_group(DatasetKind::Citeseer, CondensationKind::GCond, 0.018);
        assert!(matches!(
            runner.result(&group.keys[0]),
            Err(BgcError::CellNotExecuted { .. })
        ));
    }

    #[test]
    fn oom_cells_render_as_oom_rows() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let group = runner.group(
            DatasetKind::Reddit,
            CondensationKind::GcSntk,
            AttackKind::Bgc,
            0.0005,
            EvalKind::Standard,
            CellOverrides::default(),
        );
        // Inject an OOM cell directly (running GC-SNTK to an actual OOM
        // needs a paper-scale Reddit load); `metrics` must aggregate it into
        // the paper's OOM row.
        {
            let mut results = relock(&runner.results);
            for key in &group.keys {
                results.insert(key.clone(), CellResult::oom());
            }
        }
        let metrics = runner.metrics(&group).unwrap();
        assert!(metrics.oom);
        assert!(metrics.table_row().contains("OOM"));
    }

    #[test]
    fn keep_going_completes_the_grid_around_failures() {
        let overrides = CellOverrides {
            outer_epochs: Some(4),
            ..CellOverrides::default()
        };
        let bad_then_good = |runner: &Runner| -> Vec<CellKey> {
            let bad = runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                "GhostAttack",
                0.026,
                EvalKind::Standard,
                overrides.clone(),
            );
            let good = runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.026,
                EvalKind::Standard,
                overrides.clone(),
            );
            bad.keys.into_iter().chain(good.keys).collect()
        };

        // keep-going: the failure is recorded, the other cell completes.
        let runner = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .keep_going(true);
        let keys = bad_then_good(&runner);
        let report = runner.run_cells(&keys);
        assert!(!report.is_ok());
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.skipped(), 0);
        assert!(matches!(
            &report.outcomes[0].status,
            CellStatus::Failed(BgcError::UnknownAttack(name)) if name == "GhostAttack"
        ));
        assert_eq!(report.outcomes[1].status, CellStatus::Ok);
        assert!(runner.result(&keys[1]).is_ok());
        assert!(report.summary().contains("1 failed"));
        // The failed cell reads back as its failure, not CellNotExecuted.
        assert!(matches!(
            runner.result(&keys[0]),
            Err(BgcError::UnknownAttack(_))
        ));
        // Re-submitting resolves the failed cell from the failure map with
        // the same status.
        let again = runner.run_cells(&keys);
        assert!(matches!(
            &again.outcomes[0].status,
            CellStatus::Failed(BgcError::UnknownAttack(_))
        ));

        // Without keep-going (serial, so the order is deterministic), the
        // failure aborts the wave and the second cell is skipped.
        let runner = Runner::in_memory(ExperimentScale::Quick).serial();
        let keys = bad_then_good(&runner);
        let report = runner.run_cells(&keys);
        assert!(matches!(
            &report.outcomes[0].status,
            CellStatus::Failed(BgcError::UnknownAttack(_))
        ));
        assert_eq!(report.outcomes[1].status, CellStatus::Skipped);
        assert_eq!(report.skipped(), 1);
        // Skipped cells are not failures: the aggregated error names only
        // the cell that actually failed.
        assert!(matches!(report.error(), Some(BgcError::UnknownAttack(_))));
    }

    #[test]
    fn injected_panic_is_isolated_and_a_rerun_recovers() {
        use bgc_runtime::{FaultAction, FaultSpec};

        let overrides = CellOverrides {
            outer_epochs: Some(4),
            ..CellOverrides::default()
        };
        let groups = |runner: &Runner| -> Vec<CellKey> {
            let cora = runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.026,
                EvalKind::Standard,
                overrides.clone(),
            );
            let citeseer = runner.group(
                DatasetKind::Citeseer,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.018,
                EvalKind::Standard,
                overrides.clone(),
            );
            cora.keys.into_iter().chain(citeseer.keys).collect()
        };
        let plan = FaultPlan::new()
            .with(FaultSpec::new("stage.clean", FaultAction::Panic).in_context("citeseer"));

        // The injected panic is caught at the cell boundary: the cora cell
        // completes, the citeseer cell reports Panicked.
        let faulted = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .keep_going(true)
            .with_fault_plan(plan.clone());
        let keys = groups(&faulted);
        let report = faulted.run_cells(&keys);
        assert_eq!(report.outcomes[0].status, CellStatus::Ok);
        assert!(matches!(
            &report.outcomes[1].status,
            CellStatus::Panicked { message } if message.contains("stage.clean")
        ));
        assert!(matches!(
            faulted.result(&keys[1]),
            Err(BgcError::CellPanicked { .. })
        ));

        // The failed cell stays failed on its runner, although the fault
        // is spent now.
        assert!(matches!(
            &faulted.run_cells(&keys).outcomes[1].status,
            CellStatus::Panicked { .. }
        ));

        // Faults fire exactly once, so a re-run on the same, now spent,
        // plan heals the cell — bit-identically to a fault-free run.
        let rerun = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_fault_plan(plan);
        assert!(rerun.run_cells(&keys).is_ok());

        let plain = Runner::in_memory(ExperimentScale::Quick).serial();
        assert!(plain.run_cells(&keys).is_ok());
        for key in &keys {
            let a = rerun.result(key).unwrap();
            let b = plain.result(key).unwrap();
            assert_eq!(a.cta.to_bits(), b.cta.to_bits(), "{}", key.canon());
            assert_eq!(a.asr.to_bits(), b.asr.to_bits(), "{}", key.canon());
        }
    }

    #[test]
    fn cell_deadline_times_out_cooperatively() {
        let runner = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .keep_going(true)
            .with_cell_timeout(Some(Duration::ZERO));
        let group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides {
                outer_epochs: Some(4),
                ..CellOverrides::default()
            },
        );
        let report = runner.run_cells(&group.keys);
        assert_eq!(
            report.outcomes[0].status,
            CellStatus::TimedOut { limit_ms: 0 }
        );
        assert!(matches!(
            runner.result(&group.keys[0]),
            Err(BgcError::CellTimedOut { limit_ms: 0, .. })
        ));
    }

    #[test]
    fn stages_read_through_the_store_and_epoch_bumps_invalidate() {
        use bgc_store::Store;

        let root = std::env::temp_dir().join(format!("bgc-store-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let group_of = |runner: &Runner| {
            runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.026,
                EvalKind::Standard,
                CellOverrides {
                    outer_epochs: Some(4),
                    ..CellOverrides::default()
                },
            )
        };

        // Cold: both stages and the cell compute and publish artifacts.
        let cold = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)));
        let group = group_of(&cold);
        assert!(cold.run_cells(&group.keys).is_ok());
        let stats = cold.stats();
        assert_eq!(stats.store_computed, 3, "clean + attack + eval published");
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_degraded, 0);
        assert!(stats.summary().contains("store: 0 hits, 3 computed"));
        assert_eq!(artifacts(&root).len(), 3);

        // Warm (a fresh runner, conceptually a fresh process): the cell's
        // `eval` artifact serves it bit-identically, and no stage is asked.
        let warm = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)));
        let group_warm = group_of(&warm);
        assert_eq!(group.keys, group_warm.keys);
        assert!(warm.run_cells(&group_warm.keys).is_ok());
        let stats = warm.stats();
        assert_eq!(stats.store_hits, 1, "the cell is served");
        assert_eq!(stats.store_computed, 0);
        for key in &group.keys {
            let a = cold.result(key).unwrap();
            let b = warm.result(key).unwrap();
            assert_eq!(a.c_cta.to_bits(), b.c_cta.to_bits());
            assert_eq!(a.cta.to_bits(), b.cta.to_bits());
            assert_eq!(a.c_asr.to_bits(), b.c_asr.to_bits());
            assert_eq!(a.asr.to_bits(), b.asr.to_bits());
            assert_eq!(a.asr_nodes, b.asr_nodes);
        }

        // Bumping the condensation epoch invalidates the clean stage AND
        // the downstream attack stage (the attack key chains the epoch),
        // and the cell canon carries it, so this runner recomputes all
        // three.
        let bumped_epochs = CodeEpochs {
            condense: CodeEpochs::default().condense + 1,
            ..CodeEpochs::default()
        };
        let bumped = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)))
            .with_code_epochs(bumped_epochs);
        let group_bumped = group_of(&bumped);
        assert_ne!(group.keys[0].canon(), group_bumped.keys[0].canon());
        assert!(bumped.run_cells(&group_bumped.keys).is_ok());
        let stats = bumped.stats();
        assert_eq!(stats.store_hits, 0, "old artifacts must not be served");
        assert_eq!(
            stats.store_computed, 3,
            "both stages and the cell recomputed"
        );

        // Bumping only the attack epoch leaves the clean artifact valid:
        // exactly the attack stage and the cell (nothing upstream)
        // recompute.
        let attack_bumped = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)))
            .with_code_epochs(CodeEpochs {
                attack: CodeEpochs::default().attack + 1,
                ..CodeEpochs::default()
            });
        let group_attack = group_of(&attack_bumped);
        assert!(attack_bumped.run_cells(&group_attack.keys).is_ok());
        let stats = attack_bumped.stats();
        assert_eq!(stats.store_hits, 1, "clean artifact still serves");
        assert_eq!(
            stats.store_computed, 2,
            "only the attack and the cell recomputed"
        );

        // A read-only/unusable store degrades to in-process compute without
        // failing the grid.
        let file_as_root =
            std::env::temp_dir().join(format!("bgc-store-rt-file-{}", std::process::id()));
        fs::write(&file_as_root, b"not a directory").unwrap();
        let degraded = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&file_as_root)));
        let group_degraded = group_of(&degraded);
        assert!(degraded.run_cells(&group_degraded.keys).is_ok());
        let stats = degraded.stats();
        assert_eq!(stats.store_degraded, 3, "both stages and the cell degraded");
        assert_eq!(stats.store_hits + stats.store_computed, 0);
        let a = cold.result(&group.keys[0]).unwrap();
        let b = degraded.result(&group_degraded.keys[0]).unwrap();
        assert_eq!(a.cta.to_bits(), b.cta.to_bits(), "degraded == computed");
        assert_eq!(a.asr.to_bits(), b.asr.to_bits());

        let _ = fs::remove_file(&file_as_root);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_store_artifacts_are_quarantined_and_recomputed() {
        use bgc_store::Store;

        let root = std::env::temp_dir().join(format!("bgc-store-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let group_of = |runner: &Runner| {
            runner.group(
                DatasetKind::Cora,
                CondensationKind::GCondX,
                AttackKind::Bgc,
                0.026,
                EvalKind::Standard,
                CellOverrides {
                    outer_epochs: Some(4),
                    ..CellOverrides::default()
                },
            )
        };
        let seed = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)));
        let group = group_of(&seed);
        assert!(seed.run_cells(&group.keys).is_ok());

        // Truncate every artifact mid-payload: the cell's `eval` artifact
        // and both stages.
        let originals = artifacts(&root);
        assert_eq!(originals.len(), 3);
        for (name, bytes) in &originals {
            fs::write(root.join(name), &bytes[..bytes.len() / 2]).unwrap();
        }

        let healed = Runner::in_memory(ExperimentScale::Quick)
            .serial()
            .with_store(Some(Store::open(&root)));
        let group_healed = group_of(&healed);
        assert!(healed.run_cells(&group_healed.keys).is_ok());
        let stats = healed.stats();
        assert_eq!(stats.store_computed, 3, "corrupt artifacts recomputed");
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.cells_computed, 1, "the cell recomputed, not loaded");
        assert_eq!(healed.store().map(|s| s.counters().quarantined), Some(3));
        for key in &group.keys {
            let a = seed.result(key).unwrap();
            let b = healed.result(key).unwrap();
            assert_eq!(a.cta.to_bits(), b.cta.to_bits());
            assert_eq!(a.asr.to_bits(), b.asr.to_bits());
        }
        // The re-published artifacts are byte-identical to the originals and
        // the corrupt bytes were kept for inspection.
        for (name, bytes) in &originals {
            assert_eq!(&fs::read(root.join(name)).unwrap(), bytes, "{}", name);
            assert!(root.join(format!("{}.corrupt", name)).exists(), "{}", name);
        }

        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_cell_publish_degrades_without_failing_the_cell() {
        use bgc_runtime::{FaultAction, FaultSpec};

        let dir = std::env::temp_dir().join(format!("bgc-persist-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        // The third store write of the cell is its own `eval` publish (after
        // the clean and attack stages).
        let runner = Runner::with_cache_dir(ExperimentScale::Quick, Some(dir.clone()))
            .serial()
            .with_fault_plan(
                FaultPlan::new()
                    .with(FaultSpec::new("store.write", FaultAction::IoError).on_hit(3)),
            );
        let group = runner.group(
            DatasetKind::Cora,
            CondensationKind::GCondX,
            AttackKind::Bgc,
            0.026,
            EvalKind::Standard,
            CellOverrides {
                outer_epochs: Some(4),
                ..CellOverrides::default()
            },
        );
        let report = runner.run_cells(&group.keys);
        // The cell itself succeeded; only its publish failed, and the store
        // reports the unpersisted result as degraded.
        assert!(report.is_ok());
        assert_eq!(report.outcomes[0].status, CellStatus::Ok);
        assert!(runner.result(&group.keys[0]).is_ok());
        let stats = runner.stats();
        assert_eq!((stats.store_computed, stats.store_degraded), (2, 1));
        assert_eq!(stats.cells_computed, 1);
        // The atomic-rename protocol left neither a live file nor a temp
        // file of the cell behind.
        let eval = runner.eval_store_key(&group.keys[0].canon()).file_name();
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|name| name.starts_with(&eval) || name.contains(".tmp-"))
                    .collect()
            })
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "no live, partial or tmp file of the cell: {:?}",
            leftovers
        );
        assert_eq!(artifacts(&dir).len(), 2, "both stages were published");

        let _ = fs::remove_dir_all(&dir);
    }
}
