//! The `bgc` command-line interface — the single entry point of the
//! reproduction.
//!
//! Each subcommand is one function: it parses its flags, builds an
//! experiment-grid [`Runner`] and drives it in-process, through the typed
//! [`Experiment`] builder (`run`, `grid`) or the paper's report
//! regenerators (`table`, `fig`, `all`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bgc_condense::condenser_names;
use bgc_core::{attack_names, BgcError, GeneratorKind};
use bgc_defense::defense_names;
use bgc_eval::report_json::{self, OutcomeCollector};
use bgc_eval::{
    enter_wave, experiments, CancelToken, CellOverrides, Experiment, ExperimentReport,
    ExperimentScale, FaultPlan, RunMetrics, Runner, WaveCtx,
};
use bgc_graph::{DatasetKind, PoisonBudget};
use bgc_nn::GnnArchitecture;
use bgc_store::{Store, StoreReport};
use serde::Value;

/// The `bgc --help` text.  Snapshotted in `docs/cli-help.txt` (checked by a
/// unit test and by CI), so help drift is caught at review time.
pub const HELP: &str = "\
bgc - Backdoor Graph Condensation reproduction (ICDE 2025)

USAGE:
    bgc <COMMAND> [OPTIONS]

COMMANDS:
    run             Run one experiment cell through the typed builder
    grid            Run a cross-product grid of experiments
    table <1-8>     Regenerate a paper table (II, III, ... as numbered)
    fig <1|4|5|6|8> Regenerate a paper figure
    all             Regenerate every table and figure through one shared grid
    list <WHAT>     List registered attacks|methods|defenses|datasets|
                    architectures|generators|scales
    store <stats|gc|doctor|clear>
                    Inspect or maintain the content-addressed artifact
                    store; see docs/store.md
    help            Show this message

RUNNER OPTIONS (run, grid, table, fig, all; list takes no option):
    --scale quick|paper|large
                          Experiment scale (default: quick; large restores
                          the paper's full node counts with sampled plans)
    --full                table/fig/all: include all four datasets in sweeps
                          at quick scale
    --serial              Disable the cell thread pool (bit-identical output)
    --no-cache            Run in memory, without the artifact store
    --keep-going          Complete the rest of the grid around failed cells
                          (every failure is reported; exit code 3)
    --cell-timeout <s>    Per-cell deadline in seconds; cells past it are
                          cooperatively cancelled and reported as timed out
    --format human|json   run/grid/all output format (default: human); json
                          emits the machine-readable grid report document
    --deadline <s>        Whole-invocation deadline in seconds; cells past it
                          are cancelled and reported as timed out

EXPERIMENT OPTIONS (run; repeatable in grid):
    --dataset <name>      cora|citeseer|flickr|reddit|arxiv (required for run)
    --method <name>       Condensation method (default: GCond)
    --attack <name>       Attack (default: BGC)
    --ratio <r>           Condensation ratio (default: the dataset's middle
                          paper ratio)
    --defense <name>      Evaluate the victim through a registered defense
    --victim <arch>       Victim GNN architecture (Table III)
    --layers <n>          Victim layer count (Table VIII)
    --generator <name>    Trigger-generator encoder MLP|GCN|Transformer
    --trigger-size <n>    Trigger size (Figure 8)
    --epochs <n>          Condensation outer epochs (Figure 6)
    --budget-ratio <r>    Poisoning budget as a training-set fraction
    --budget-count <n>    Poisoning budget as an absolute node count
    --source-class <c>    Directed attack from this class (Table VI)
    --plan full|sampled[:b<batch>][:f<f1>x<f2>...]
                          Training plan of full-graph stages (default: the
                          scale's per-dataset choice)
    --seed <n>            Base seed (default: 17); the only experiment
                          option that table, fig and all accept

STORE OPTIONS (store):
    --store-dir <dir>     Store root (default: target/store, or
                          BGC_STORE_DIR when set); --format json renders
                          the report through the shared JSON codec

EXIT CODES:
    0  success                  3  cell failure(s) (panic/timeout/error)
    1  error                    4  every executed cell was OOM
    2  usage error

FAULT INJECTION (testing and CI):
    BGC_FAULTS=\"point[@ctx][#n]=panic|io|delay:<ms>[;...]\" arms
    deterministic faults at named points: trainer.epoch, condense.outer,
    stage.clean, stage.attack, store.read, store.write, store.lock,
    sampler.produce.
    @ctx fires only in cells whose canonical key contains ctx; #n fires on
    the nth matching hit (default 1).  Each fault fires exactly once, so a
    clean re-run heals: it reads every finished cell from the store and
    recomputes the failed ones.
    Example: BGC_FAULTS=\"stage.clean@citeseer=panic\"

EXAMPLES:
    bgc run --dataset cora --method GCond --attack BGC --ratio 0.026
    bgc run --dataset citeseer --defense prune
    bgc run --dataset reddit --scale large --method GCond-X
        (structure-free methods fit the large tier's trimmed epoch budget;
        GCond's structure generator needs paper-scale epochs)
    bgc grid --dataset cora --dataset citeseer --attack BGC --attack GTA
    bgc table 2 --scale quick
    bgc list attacks
    bgc all --scale quick    (a second run is served from the store)
    bgc store stats
";

/// A CLI failure: either a usage error (bad flag/operand, reported with a
/// hint to `bgc help`) or a typed error from the experiment stack.
#[derive(Debug)]
pub enum CliError {
    /// Malformed invocation.
    Usage(String),
    /// The experiment stack reported a typed error.
    Bgc(BgcError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{}\n(run `bgc help` for usage)", msg),
            CliError::Bgc(err) => write!(f, "{}", err),
        }
    }
}

impl From<BgcError> for CliError {
    fn from(err: BgcError) -> Self {
        CliError::Bgc(err)
    }
}

/// Exit code: success.
pub const EXIT_OK: i32 = 0;
/// Exit code: generic error (unknown registry names, invalid experiments).
pub const EXIT_ERROR: i32 = 1;
/// Exit code: malformed invocation (bad flag/operand, malformed
/// `BGC_FAULTS`).
pub const EXIT_USAGE: i32 = 2;
/// Exit code: one or more cells failed during execution (panic, timeout,
/// condensation/I-O failure).
pub const EXIT_CELL_FAILURE: i32 = 3;
/// Exit code: the run completed but every executed cell was the paper's OOM
/// condition — nothing usable was measured.
pub const EXIT_OOM_ONLY: i32 = 4;

/// What a successful subcommand observed, used to pick the exit code.
#[derive(Clone, Copy, Debug, Default)]
pub struct CliOutcome {
    /// Cells that failed terminally (nonzero only under `--keep-going`).
    pub cell_failures: usize,
    /// Cells with a completed result.
    pub completed: usize,
    /// Completed cells that were OOM.
    pub oom: usize,
}

/// Maps a finished invocation to its exit code (see `EXIT_*`).
pub fn exit_code(result: &Result<CliOutcome, CliError>) -> i32 {
    match result {
        Ok(outcome) if outcome.cell_failures > 0 => EXIT_CELL_FAILURE,
        Ok(outcome) if outcome.completed > 0 && outcome.completed == outcome.oom => EXIT_OOM_ONLY,
        Ok(_) => EXIT_OK,
        Err(CliError::Usage(_)) => EXIT_USAGE,
        Err(CliError::Bgc(err)) if err.is_cell_failure() => EXIT_CELL_FAILURE,
        Err(CliError::Bgc(_)) => EXIT_ERROR,
    }
}

/// Entry point of the `bgc` binary: parses `std::env::args`, runs, exits
/// with the code class of the outcome (see `EXIT_*`).
pub fn main() -> ! {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = run(&args);
    if let Err(err) = &result {
        eprintln!("error: {}", err);
    }
    std::process::exit(exit_code(&result))
}

/// Runs one CLI invocation (exposed for tests).
pub fn run(args: &[String]) -> Result<CliOutcome, CliError> {
    let mut args = args.iter().map(String::as_str);
    let command = args.next().unwrap_or("help");
    let rest: Vec<&str> = args.collect();
    match command {
        "run" => cmd_run(&rest),
        "grid" => cmd_grid(&rest),
        "table" | "fig" => cmd_report(&rest, command),
        "all" => cmd_all(&rest),
        "list" => cmd_list(&rest),
        "store" => cmd_store(&rest),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(CliOutcome::default())
        }
        other => Err(CliError::Usage(format!("unknown command '{}'", other))),
    }
}

// ---------------------------------------------------------------------------
// Option parsing
// ---------------------------------------------------------------------------

/// Output format of `run`/`grid`/`all` (`--format`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutputFormat {
    /// Table rows plus the grid/wall-clock footer.
    Human,
    /// One machine-readable grid-report document (shared report codec).
    Json,
}

/// Parsed flags of a subcommand, which accepts only the flags
/// [`accepted_flags`] lists for it.  `run` reads the singular experiment
/// fields; `grid` reads the repeated ones.
struct Options {
    scale: ExperimentScale,
    full: bool,
    serial: bool,
    no_cache: bool,
    keep_going: bool,
    cell_timeout: Option<Duration>,
    format: OutputFormat,
    deadline: Option<Duration>,
    datasets: Vec<DatasetKind>,
    methods: Vec<String>,
    attacks: Vec<String>,
    ratios: Vec<f32>,
    defense: Option<String>,
    /// The overrides every experiment of the invocation shares.
    overrides: CellOverrides,
    seed: Option<u64>,
    store_dir: Option<String>,
    operands: Vec<String>,
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The flags that describe a cell: `run` takes each once, `grid` repeats
/// them.
const EXPERIMENT_FLAGS: [&str; 14] = [
    "--dataset",
    "--method",
    "--attack",
    "--ratio",
    "--defense",
    "--victim",
    "--layers",
    "--generator",
    "--trigger-size",
    "--epochs",
    "--budget-ratio",
    "--budget-count",
    "--source-class",
    "--plan",
];

/// The flags of the cell runner that every command computing cells builds.
const RUNNER_FLAGS: [&str; 6] = [
    "--scale",
    "--serial",
    "--no-cache",
    "--keep-going",
    "--cell-timeout",
    "--deadline",
];

/// The one list of flags `command` accepts; [`parse_options`] rejects every
/// other flag rather than silently ignoring it.
fn accepted_flags(command: &str) -> Vec<&'static str> {
    let mut flags = Vec::new();
    match command {
        "run" | "grid" => {
            flags.extend(RUNNER_FLAGS);
            flags.extend(EXPERIMENT_FLAGS);
            flags.extend(["--seed", "--format"]);
        }
        "table" | "fig" => {
            flags.extend(RUNNER_FLAGS);
            flags.extend(["--full", "--seed"]);
        }
        "all" => {
            flags.extend(RUNNER_FLAGS);
            flags.extend(["--full", "--seed", "--format"]);
        }
        "store" => flags.extend(["--store-dir", "--format"]),
        _ => {}
    }
    flags
}

/// The usage error of a `flag` that `command` does not accept.
fn rejected_flag(command: &str, flag: &str) -> CliError {
    let known = RUNNER_FLAGS.contains(&flag)
        || EXPERIMENT_FLAGS.contains(&flag)
        || ["--full", "--seed", "--format", "--store-dir"].contains(&flag);
    if !known {
        return usage(format!("unknown option '{}'", flag));
    }
    if flag == "--store-dir" {
        return usage(format!(
            "--store-dir only applies to `bgc store`; set {} to move the store of other commands",
            bgc_store::STORE_DIR_ENV
        ));
    }
    let accepted = accepted_flags(command);
    let takes = if accepted.is_empty() {
        "no option".to_string()
    } else {
        accepted.join(", ")
    };
    let hint = if EXPERIMENT_FLAGS.contains(&flag) || flag == "--seed" {
        "; experiment options vary a cell of `bgc run` or `bgc grid`, and `table`, `fig` and \
         `all` take only --seed of them"
    } else {
        ""
    };
    usage(format!(
        "`bgc {}` does not take {} (it takes {}){}",
        command, flag, takes, hint
    ))
}

/// Parses the flags and operands of `bgc <command>`, rejecting a flag the
/// command does not accept.
fn parse_options(command: &str, args: &[&str]) -> Result<Options, CliError> {
    let accepted = accepted_flags(command);
    let mut options = Options {
        scale: ExperimentScale::Quick,
        full: false,
        serial: false,
        no_cache: false,
        keep_going: false,
        cell_timeout: None,
        format: OutputFormat::Human,
        deadline: None,
        datasets: Vec::new(),
        methods: Vec::new(),
        attacks: Vec::new(),
        ratios: Vec::new(),
        defense: None,
        overrides: CellOverrides::default(),
        seed: None,
        store_dir: None,
        operands: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(&arg) = iter.next() {
        if arg.starts_with("--") && !accepted.contains(&arg) {
            return Err(rejected_flag(command, arg));
        }
        let mut value = |flag: &str| -> Result<&str, CliError> {
            iter.next()
                .copied()
                .ok_or_else(|| usage(format!("{} expects a value", flag)))
        };
        match arg {
            "--scale" => {
                options.scale = value("--scale")?.parse().map_err(|e: String| usage(e))?;
            }
            "--full" => options.full = true,
            "--serial" => options.serial = true,
            "--no-cache" => options.no_cache = true,
            "--keep-going" => options.keep_going = true,
            "--cell-timeout" => {
                let seconds: f64 = parse_num(value("--cell-timeout")?, "--cell-timeout")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(usage("--cell-timeout expects a positive number of seconds"));
                }
                options.cell_timeout = Some(Duration::from_secs_f64(seconds));
            }
            "--format" => {
                options.format = match value("--format")? {
                    "human" => OutputFormat::Human,
                    "json" => OutputFormat::Json,
                    other => {
                        return Err(usage(format!(
                            "unknown format '{}' (expected human or json)",
                            other
                        )))
                    }
                };
            }
            "--deadline" => {
                let seconds: f64 = parse_num(value("--deadline")?, "--deadline")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(usage("--deadline expects a positive number of seconds"));
                }
                options.deadline = Some(Duration::from_secs_f64(seconds));
            }
            "--dataset" => options
                .datasets
                .push(value("--dataset")?.parse().map_err(|e: String| usage(e))?),
            "--method" => options.methods.push(value("--method")?.to_string()),
            "--attack" => options.attacks.push(value("--attack")?.to_string()),
            "--ratio" => options
                .ratios
                .push(parse_num(value("--ratio")?, "--ratio")?),
            "--defense" => options.defense = Some(value("--defense")?.to_string()),
            "--victim" => {
                options.overrides.architecture =
                    Some(value("--victim")?.parse().map_err(|e: String| usage(e))?)
            }
            "--layers" => {
                options.overrides.num_layers = Some(parse_num(value("--layers")?, "--layers")?)
            }
            "--generator" => {
                options.overrides.generator = Some(
                    value("--generator")?
                        .parse()
                        .map_err(|e: String| usage(e))?,
                )
            }
            "--trigger-size" => {
                options.overrides.trigger_size =
                    Some(parse_num(value("--trigger-size")?, "--trigger-size")?)
            }
            "--epochs" => {
                options.overrides.outer_epochs = Some(parse_num(value("--epochs")?, "--epochs")?)
            }
            "--budget-ratio" => {
                let ratio = parse_num(value("--budget-ratio")?, "--budget-ratio")?;
                options.overrides.poison_budget = Some(PoisonBudget::Ratio(ratio).into())
            }
            "--budget-count" => {
                let count = parse_num(value("--budget-count")?, "--budget-count")?;
                options.overrides.poison_budget = Some(PoisonBudget::Count(count).into())
            }
            "--source-class" => {
                options.overrides.source_class =
                    Some(parse_num(value("--source-class")?, "--source-class")?)
            }
            "--plan" => {
                options.overrides.plan =
                    Some(value("--plan")?.parse().map_err(|e: String| usage(e))?)
            }
            "--seed" => options.seed = Some(parse_num(value("--seed")?, "--seed")?),
            "--store-dir" => options.store_dir = Some(value("--store-dir")?.to_string()),
            flag if flag.starts_with("--") => {
                return Err(usage(format!("unknown option '{}'", flag)))
            }
            operand => options.operands.push(operand.to_string()),
        }
    }
    Ok(options)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| usage(format!("{} got a malformed value '{}'", flag, text)))
}

/// Builds the invocation's runner from the parsed runner-level flags and
/// the `BGC_FAULTS` plan.  The runner's store lives at
/// [`bgc_store::default_store_root`].
fn build_runner(options: &Options) -> Result<Runner, CliError> {
    let fault_plan =
        FaultPlan::from_env().map_err(|err| usage(format!("malformed BGC_FAULTS: {}", err)))?;
    let mut runner = if options.no_cache {
        Runner::in_memory(options.scale)
    } else {
        Runner::new(options.scale)
    };
    if options.serial {
        runner = runner.serial();
    }
    if options.keep_going {
        runner = runner.keep_going(true);
    }
    if options.cell_timeout.is_some() {
        runner = runner.with_cell_timeout(options.cell_timeout);
    }
    if let Some(plan) = fault_plan {
        runner = runner.with_fault_plan(plan);
    }
    Ok(runner)
}

/// Rejects stray positional operands of the subcommands that take none.
fn no_operands(options: &Options) -> Result<(), CliError> {
    match options.operands.first() {
        Some(operand) => Err(usage(format!("unexpected operand '{}'", operand))),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// run / grid
// ---------------------------------------------------------------------------

fn experiment_for(
    options: &Options,
    dataset: DatasetKind,
    method: Option<&str>,
    attack: Option<&str>,
    ratio: Option<f32>,
) -> Result<Experiment, BgcError> {
    let mut builder = Experiment::builder()
        .scale(options.scale)
        .dataset(dataset)
        .overrides(options.overrides.clone());
    if let Some(method) = method {
        builder = builder.method(method);
    }
    if let Some(attack) = attack {
        builder = builder.attack(attack);
    }
    if let Some(ratio) = ratio {
        builder = builder.ratio(ratio);
    }
    if let Some(defense) = &options.defense {
        builder = builder.defense(defense.as_str());
    }
    if let Some(seed) = options.seed {
        builder = builder.seed(seed);
    }
    builder.build()
}

/// The one experiment `bgc run` runs.
fn run_experiment(options: &Options) -> Result<Experiment, CliError> {
    no_operands(options)?;
    if options.datasets.len() != 1 {
        return Err(usage("run expects exactly one --dataset"));
    }
    if options.methods.len() > 1 || options.attacks.len() > 1 || options.ratios.len() > 1 {
        return Err(usage(
            "run takes one --method/--attack/--ratio; use `bgc grid` for sweeps",
        ));
    }
    Ok(experiment_for(
        options,
        options.datasets[0],
        options.methods.first().map(String::as_str),
        options.attacks.first().map(String::as_str),
        options.ratios.first().copied(),
    )?)
}

fn print_rows(rows: &[RunMetrics]) {
    for row in rows {
        println!("{}", row.table_row());
    }
}

/// Builds the invocation's wave context: the per-invocation outcome
/// collector (always installed — it drives exit codes and `--format json`)
/// plus the optional `--deadline` token.
fn invocation_wave(options: &Options, collector: &Arc<OutcomeCollector>) -> WaveCtx {
    WaveCtx {
        deadline: options.deadline.map(CancelToken::with_timeout),
        observer: Some(collector.observer()),
    }
}

/// Exit-code classification from the cells this invocation observed.
fn outcome_from(collector: &OutcomeCollector) -> CliOutcome {
    let (completed, oom, failures) = collector.counts();
    CliOutcome {
        cell_failures: failures,
        completed,
        oom,
    }
}

/// Emits the machine-readable grid-report document of `--format json`:
/// per-cell status and results (deterministic), the runner's cache
/// counters and the invocation outcome (execution metadata).
fn emit_json(command: &str, runner: &Runner, collector: &OutcomeCollector, started: Instant) {
    let (completed, oom, failures) = collector.counts();
    let doc = Value::Object(vec![
        ("command".to_string(), Value::String(command.to_string())),
        (
            "scale".to_string(),
            Value::String(runner.scale().name().to_string()),
        ),
        ("cells".to_string(), collector.cells_value(runner)),
        (
            "outcome".to_string(),
            Value::Object(vec![
                ("completed".to_string(), Value::Number(completed as f64)),
                ("oom".to_string(), Value::Number(oom as f64)),
                ("cell_failures".to_string(), Value::Number(failures as f64)),
            ]),
        ),
        (
            "stats".to_string(),
            report_json::stats_value(&runner.stats()),
        ),
        (
            "wall_clock_s".to_string(),
            Value::Number(started.elapsed().as_secs_f64()),
        ),
    ]);
    println!("{}", doc.to_json_string_pretty());
}

fn cmd_run(args: &[&str]) -> Result<CliOutcome, CliError> {
    let options = parse_options("run", args)?;
    let runner = build_runner(&options)?;
    let experiment = run_experiment(&options)?;
    let started = Instant::now();
    let collector = OutcomeCollector::new();
    let group = experiment.group(&runner)?;
    let metrics = {
        let _wave = enter_wave(invocation_wave(&options, &collector));
        runner.metrics(&group)?
    };
    match options.format {
        OutputFormat::Human => {
            print_rows(std::slice::from_ref(&metrics));
            report_runner_stats(&runner, started);
        }
        OutputFormat::Json => emit_json("run", &runner, &collector, started),
    }
    Ok(outcome_from(&collector))
}

fn cmd_grid(args: &[&str]) -> Result<CliOutcome, CliError> {
    let options = parse_options("grid", args)?;
    let runner = build_runner(&options)?;
    no_operands(&options)?;
    if options.datasets.is_empty() {
        return Err(usage("grid expects at least one --dataset"));
    }
    let methods: Vec<Option<&str>> = if options.methods.is_empty() {
        vec![None]
    } else {
        options.methods.iter().map(|m| Some(m.as_str())).collect()
    };
    let attacks: Vec<Option<&str>> = if options.attacks.is_empty() {
        vec![None]
    } else {
        options.attacks.iter().map(|a| Some(a.as_str())).collect()
    };
    let ratios: Vec<Option<f32>> = if options.ratios.is_empty() {
        vec![None]
    } else {
        options.ratios.iter().copied().map(Some).collect()
    };
    // Validate the whole grid up front, then submit every cell in one wave
    // so independent cells run in parallel and overlapping stages are shared.
    let mut experiments = Vec::new();
    for &dataset in &options.datasets {
        for method in &methods {
            for attack in &attacks {
                for ratio in &ratios {
                    experiments.push(experiment_for(&options, dataset, *method, *attack, *ratio)?);
                }
            }
        }
    }
    let started = Instant::now();
    let collector = OutcomeCollector::new();
    let (report, rows) = {
        let _wave = enter_wave(invocation_wave(&options, &collector));
        let groups = experiments
            .iter()
            .map(|e| e.group(&runner))
            .collect::<Result<Vec<_>, _>>()?;
        let report = runner.run_groups(&groups.iter().collect::<Vec<_>>())?;
        // Under --keep-going, render every group that completed and report
        // the failed ones; otherwise any failure already aborted above.
        let mut rows = Vec::new();
        for group in &groups {
            match runner.metrics(group) {
                Ok(row) => rows.push(row),
                Err(err) if options.keep_going => eprintln!("error: {}", err),
                Err(err) => return Err(CliError::Bgc(err)),
            }
        }
        (report, rows)
    };
    if options.format == OutputFormat::Human {
        print_rows(&rows);
    }
    if !report.is_ok() {
        eprintln!("-- grid outcome: {}", report.summary());
    }
    match options.format {
        OutputFormat::Human => report_runner_stats(&runner, started),
        OutputFormat::Json => emit_json("grid", &runner, &collector, started),
    }
    Ok(outcome_from(&collector))
}

// ---------------------------------------------------------------------------
// table / fig / all
// ---------------------------------------------------------------------------

/// A paper report regenerator; the flag is `--full`.
type Regenerate = fn(&Runner, bool) -> Result<ExperimentReport, BgcError>;

/// Every paper report as `(family, number, regenerator)`, in `bgc all`
/// order.
const REPORTS: [(&str, u32, Regenerate); 13] = [
    ("table", 1, |runner, _| experiments::table1(runner.scale())),
    ("fig", 1, |runner, _| experiments::fig1(runner)),
    ("table", 2, experiments::table2),
    ("fig", 4, experiments::fig4),
    ("table", 3, experiments::table3),
    ("table", 4, experiments::table4),
    ("fig", 5, |runner, _| experiments::fig5(runner)),
    ("table", 5, |runner, _| experiments::table5(runner)),
    ("table", 6, |runner, _| experiments::table6(runner)),
    ("fig", 6, experiments::fig6),
    ("table", 7, experiments::table7),
    ("table", 8, experiments::table8),
    ("fig", 8, |runner, _| experiments::fig8(runner)),
];

/// `bgc table <n>` / `bgc fig <n>`.
fn cmd_report(args: &[&str], family: &str) -> Result<CliOutcome, CliError> {
    let options = parse_options(family, args)?;
    let numbers = if family == "table" {
        "1-8"
    } else {
        "1, 4, 5, 6 or 8"
    };
    if options.operands.len() != 1 {
        return Err(usage(format!(
            "{} expects one number ({})",
            family, numbers
        )));
    }
    let number: u32 = parse_num(&options.operands[0], family)?;
    let Some(&(_, _, regenerate)) = REPORTS
        .iter()
        .find(|(f, n, _)| *f == family && *n == number)
    else {
        return Err(usage(format!(
            "no such {}: {} (expected {})",
            family, number, numbers
        )));
    };
    let runner = build_runner(&options)?;
    let started = Instant::now();
    let collector = OutcomeCollector::new();
    let report = {
        let _wave = enter_wave(invocation_wave(&options, &collector));
        regenerate(&runner, options.full)?
    };
    report.print_and_save();
    report_runner_stats(&runner, started);
    Ok(outcome_from(&collector))
}

fn cmd_all(args: &[&str]) -> Result<CliOutcome, CliError> {
    let options = parse_options("all", args)?;
    let runner = build_runner(&options)?;
    no_operands(&options)?;
    let started = Instant::now();
    let collector = OutcomeCollector::new();
    let _wave = enter_wave(invocation_wave(&options, &collector));

    // Under --keep-going a failed report is announced and the remaining
    // reports still regenerate (cells that failed stay failed on this
    // runner, so reports sharing them fail fast instead of re-running).
    for (family, number, regenerate) in REPORTS {
        match regenerate(&runner, options.full) {
            Ok(report) if options.format == OutputFormat::Human => report.print_and_save(),
            Ok(report) => report.save(),
            Err(err) if options.keep_going => {
                eprintln!("error: {} {} failed: {}", family, number, err);
            }
            Err(err) => return Err(CliError::Bgc(err)),
        }
    }

    match options.format {
        OutputFormat::Human => report_runner_stats(&runner, started),
        OutputFormat::Json => emit_json("all", &runner, &collector, started),
    }
    Ok(outcome_from(&collector))
}

// ---------------------------------------------------------------------------
// list
// ---------------------------------------------------------------------------

fn cmd_list(args: &[&str]) -> Result<CliOutcome, CliError> {
    let options = parse_options("list", args)?;
    if options.operands.len() != 1 {
        return Err(usage(
            "list expects one of: attacks, methods, defenses, datasets, architectures, generators, scales",
        ));
    }
    for line in list_lines(&options.operands[0])? {
        println!("{}", line);
    }
    Ok(CliOutcome::default())
}

/// The lines `bgc list <what>` prints (exposed for tests).
pub fn list_lines(what: &str) -> Result<Vec<String>, CliError> {
    let lines = match what {
        "attacks" => attack_names(),
        "methods" => condenser_names(),
        "defenses" => defense_names(),
        "datasets" => DatasetKind::extended()
            .iter()
            .map(|d| d.to_string())
            .collect(),
        "architectures" => GnnArchitecture::all()
            .iter()
            .map(|a| a.to_string())
            .collect(),
        "generators" => GeneratorKind::all().iter().map(|g| g.to_string()).collect(),
        "scales" => vec![
            "quick".to_string(),
            "paper".to_string(),
            "large".to_string(),
        ],
        other => {
            return Err(usage(format!(
                "cannot list '{}' (expected attacks, methods, defenses, datasets, architectures, generators or scales)",
                other
            )))
        }
    };
    Ok(lines)
}

// ---------------------------------------------------------------------------
// store
// ---------------------------------------------------------------------------

/// `bgc store <stats|gc|doctor|clear>`.  Administrative scans iterate in
/// sorted name order, so the rendered report is deterministic for a given
/// store state.
fn cmd_store(args: &[&str]) -> Result<CliOutcome, CliError> {
    let options = parse_options("store", args)?;
    if options.operands.len() != 1 {
        return Err(usage("store expects one of: stats, gc, doctor, clear"));
    }
    let root = match &options.store_dir {
        Some(dir) => std::path::PathBuf::from(dir),
        None => bgc_store::default_store_root(),
    };
    let store = Store::open(root);
    let report = match options.operands[0].as_str() {
        "stats" => store.stats(),
        "gc" => store.gc(),
        "doctor" => store.doctor(),
        "clear" => store.clear(),
        other => {
            return Err(usage(format!(
                "unknown store action '{}' (expected stats, gc, doctor or clear)",
                other
            )))
        }
    }
    .map_err(|err| CliError::Bgc(BgcError::invalid(format!("bgc store: {}", err))))?;
    match options.format {
        OutputFormat::Human => println!("{}", render_store_report(&report)),
        OutputFormat::Json => println!(
            "{}",
            report_json::store_report_value(&report).to_json_string_pretty()
        ),
    }
    Ok(CliOutcome::default())
}

/// The human rendering of a [`StoreReport`]: fixed field order, stages and
/// file lists pre-sorted by the store.
fn render_store_report(report: &StoreReport) -> String {
    let mut lines = vec![
        format!("store {}: {}", report.action, report.root),
        format!("  artifacts: {} ({} bytes)", report.artifacts, report.bytes),
    ];
    for (stage, count) in &report.stages {
        lines.push(format!("    {}: {}", stage, count));
    }
    lines.push(format!(
        "  locks: {}  tmp: {}  corrupt: {}",
        report.locks, report.tmp_files, report.corrupt
    ));
    if report.action == "doctor" {
        lines.push(format!("  verified: {}", report.verified));
    }
    for name in &report.removed {
        lines.push(format!("  removed {}", name));
    }
    for name in &report.quarantined {
        lines.push(format!("  quarantined {}", name));
    }
    lines.push(format!(
        "  health: {}",
        if report.healthy() { "ok" } else { "attention" }
    ));
    lines.join("\n")
}

/// Prints the runner's cache-hit counters and the wall-clock time of the
/// invocation (stdout only — the per-report JSON dumps stay byte-identical
/// across cached re-runs).
fn report_runner_stats(runner: &Runner, started: Instant) {
    let stats = runner.stats();
    println!("-- grid: {}", stats.summary());
    println!(
        "-- wall clock: {:.2}s ({} total cache hits)",
        started.elapsed().as_secs_f64(),
        stats.total_hits()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_condense::CondensationKind;
    use bgc_core::AttackKind;
    use bgc_eval::{CellKey, EvalKind};
    use bgc_nn::{SampledPlan, TrainingPlan};

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_builtin_is_listed() {
        for kind in AttackKind::all() {
            assert!(list_lines("attacks")
                .unwrap()
                .contains(&kind.name().to_string()));
        }
        for kind in CondensationKind::all() {
            assert!(list_lines("methods")
                .unwrap()
                .contains(&kind.name().to_string()));
        }
        for name in ["prune", "randsmooth"] {
            assert!(list_lines("defenses").unwrap().contains(&name.to_string()));
        }
        for dataset in DatasetKind::all() {
            assert!(list_lines("datasets")
                .unwrap()
                .contains(&dataset.to_string()));
        }
        assert!(list_lines("nonsense").is_err());
    }

    #[test]
    fn usage_errors_are_reported_not_panicked() {
        assert!(matches!(
            run(&["frobnicate".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&["run".to_string()]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["table".to_string(), "9".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "run".to_string(),
                "--dataset".to_string(),
                "mnist".to_string()
            ]),
            Err(CliError::Usage(_))
        ));
        // The prefetch depth is a constant, a sampled plan is spelled only
        // through `--plan`, and the runner never retries a cell.
        for flag in ["--prefetch-depth", "--batch-size", "--fanouts", "--retries"] {
            assert!(
                matches!(
                    run(&argv(&["run", "--dataset", "cora", flag, "1"])),
                    Err(CliError::Usage(message)) if message.contains(flag)
                ),
                "{} must be an unknown option",
                flag
            );
        }
        // Unknown registry names surface as typed experiment errors.
        let err = run(&[
            "run".to_string(),
            "--dataset".to_string(),
            "cora".to_string(),
            "--attack".to_string(),
            "Ghost".to_string(),
        ]);
        assert!(matches!(
            err,
            Err(CliError::Bgc(BgcError::UnknownAttack(_)))
        ));
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(exit_code(&Ok(CliOutcome::default())), EXIT_OK);
        assert_eq!(
            exit_code(&Ok(CliOutcome {
                cell_failures: 1,
                completed: 120,
                oom: 3,
            })),
            EXIT_CELL_FAILURE
        );
        assert_eq!(
            exit_code(&Ok(CliOutcome {
                cell_failures: 0,
                completed: 2,
                oom: 2,
            })),
            EXIT_OOM_ONLY
        );
        assert_eq!(
            exit_code(&Ok(CliOutcome {
                cell_failures: 0,
                completed: 3,
                oom: 2,
            })),
            EXIT_OK,
            "a mixed grid with some OOM rows is a success"
        );
        assert_eq!(
            exit_code(&Err(CliError::Usage("bad flag".into()))),
            EXIT_USAGE
        );
        assert_eq!(
            exit_code(&Err(CliError::Bgc(BgcError::UnknownAttack("x".into())))),
            EXIT_ERROR
        );
        assert_eq!(
            exit_code(&Err(CliError::Bgc(BgcError::CellPanicked {
                canon: "c".into(),
                message: "m".into(),
            }))),
            EXIT_CELL_FAILURE
        );
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let options = parse_options("all", &["--keep-going", "--cell-timeout", "2.5"]).unwrap();
        assert!(options.keep_going);
        assert_eq!(options.cell_timeout, Some(Duration::from_millis(2500)));
        assert!(matches!(
            parse_options("all", &["--cell-timeout", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_options("all", &["--cell-timeout", "soon"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_text_matches_the_snapshot() {
        let snapshot = include_str!("../../../docs/cli-help.txt");
        assert_eq!(
            HELP, snapshot,
            "docs/cli-help.txt is stale; regenerate it from cli::HELP"
        );
    }

    #[test]
    fn store_reports_render_in_fixed_order() {
        let mut report = StoreReport {
            action: "gc".to_string(),
            root: "target/store".to_string(),
            artifacts: 1,
            bytes: 64,
            ..StoreReport::default()
        };
        report.stages.insert("clean".to_string(), 1);
        report.removed.push("0000000000000004.lock".to_string());
        assert_eq!(
            render_store_report(&report),
            "store gc: target/store\n  artifacts: 1 (64 bytes)\n    clean: 1\n  \
             locks: 0  tmp: 0  corrupt: 0\n  removed 0000000000000004.lock\n  health: ok"
        );
    }

    #[test]
    fn store_subcommand_runs_and_rejects_bad_actions() {
        let dir = std::env::temp_dir().join(format!("bgc-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = |argv: &[&str]| -> Vec<String> { argv.iter().map(|s| s.to_string()).collect() };
        let dir_str = dir.to_str().expect("utf-8 temp dir");
        let outcome = run(&args(&["store", "stats", "--store-dir", dir_str])).expect("stats");
        assert_eq!(exit_code(&Ok(outcome)), EXIT_OK);
        let outcome = run(&args(&[
            "store",
            "doctor",
            "--store-dir",
            dir_str,
            "--format",
            "json",
        ]))
        .expect("doctor");
        assert_eq!(exit_code(&Ok(outcome)), EXIT_OK);
        assert!(matches!(run(&args(&["store"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["store", "frobnicate", "--store-dir", dir_str])),
            Err(CliError::Usage(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_dir_is_rejected_outside_the_store_subcommand() {
        for command in [&["run", "--dataset", "cora"][..], &["table", "2"], &["all"]] {
            let mut argv: Vec<String> = command.iter().map(|s| s.to_string()).collect();
            argv.extend(["--store-dir".to_string(), "elsewhere".to_string()]);
            let Err(CliError::Usage(message)) = run(&argv) else {
                panic!("{:?} must be a usage error", argv);
            };
            assert!(message.contains("BGC_STORE_DIR"), "{}", message);
        }
    }

    #[test]
    fn override_flags_lower_to_the_keys_of_their_overrides() {
        let runner = Runner::in_memory(ExperimentScale::Quick);
        let lowered = |flags: &[&str]| -> Vec<CellKey> {
            let mut args = vec!["--dataset", "cora"];
            args.extend(flags);
            let options = parse_options("run", &args).expect("flags parse");
            let experiment = run_experiment(&options).expect("experiment validates");
            experiment.group(&runner).expect("scales match").keys
        };
        let literal = |overrides: CellOverrides| -> Vec<CellKey> {
            let ratio = DatasetKind::Cora.paper_condensation_ratios()[1];
            let group = runner.group(
                DatasetKind::Cora,
                CondensationKind::GCond,
                AttackKind::Bgc,
                ratio,
                EvalKind::Standard,
                overrides,
            );
            group.keys
        };
        let none = CellOverrides::default;
        let cases: [(&[&str], CellOverrides); 9] = [
            (
                &["--victim", "SAGE"],
                CellOverrides {
                    architecture: Some(GnnArchitecture::Sage),
                    ..none()
                },
            ),
            (
                &["--layers", "3"],
                CellOverrides {
                    num_layers: Some(3),
                    ..none()
                },
            ),
            (
                &["--generator", "GCN"],
                CellOverrides {
                    generator: Some(GeneratorKind::Gcn),
                    ..none()
                },
            ),
            (
                &["--trigger-size", "2"],
                CellOverrides {
                    trigger_size: Some(2),
                    ..none()
                },
            ),
            (
                &["--epochs", "5"],
                CellOverrides {
                    outer_epochs: Some(5),
                    ..none()
                },
            ),
            (
                &["--budget-ratio", "0.25"],
                CellOverrides {
                    poison_budget: Some(PoisonBudget::Ratio(0.25).into()),
                    ..none()
                },
            ),
            (
                &["--budget-count", "5"],
                CellOverrides {
                    poison_budget: Some(PoisonBudget::Count(5).into()),
                    ..none()
                },
            ),
            (
                &["--source-class", "1"],
                CellOverrides {
                    source_class: Some(1),
                    ..none()
                },
            ),
            (
                &["--plan", "sampled:b32:f5x5"],
                CellOverrides {
                    plan: Some(TrainingPlan::Sampled(SampledPlan {
                        fanouts: vec![5, 5],
                        batch_size: 32,
                    })),
                    ..none()
                },
            ),
        ];
        let baseline = literal(none());
        assert_eq!(lowered(&[]), baseline);
        for (flags, overrides) in cases {
            let keys = lowered(flags);
            assert_eq!(keys, literal(overrides), "{:?}", flags);
            assert_ne!(keys, baseline, "{:?} reaches the cell key", flags);
        }
    }

    #[test]
    fn reports_reject_the_experiment_options_they_ignore() {
        let flags: [&[&str]; 14] = [
            &["--dataset", "reddit"],
            &["--method", "GCond-X"],
            &["--attack", "GTA"],
            &["--ratio", "0.05"],
            &["--defense", "prune"],
            &["--victim", "SAGE"],
            &["--layers", "3"],
            &["--generator", "GCN"],
            &["--trigger-size", "2"],
            &["--epochs", "5"],
            &["--budget-ratio", "0.25"],
            &["--budget-count", "5"],
            &["--source-class", "1"],
            &["--plan", "sampled:b32:f5x5"],
        ];
        for command in [
            &["table", "1"][..],
            &["fig", "1"],
            &["all"],
            &["list", "scales"],
            &["store", "stats"],
        ] {
            for flag in flags {
                let mut args = argv(command);
                args.extend(argv(flag));
                args.push("--no-cache".to_string());
                let result = run(&args);
                assert!(
                    matches!(&result, Err(CliError::Usage(message)) if message.contains("--seed")),
                    "{:?} must be a usage error",
                    args
                );
                assert_eq!(exit_code(&result), EXIT_USAGE);
            }
        }
        // `--seed` is the one experiment option the reports accept.
        for command in ["table", "fig", "all"] {
            let options = parse_options(command, &["--seed", "5"]).expect("seed parses");
            assert_eq!(options.seed, Some(5));
        }
    }

    #[test]
    fn list_and_store_reject_the_flags_they_ignore() {
        let runner_flags: [&[&str]; 7] = [
            &["--scale", "quick"],
            &["--full"],
            &["--serial"],
            &["--no-cache"],
            &["--keep-going"],
            &["--cell-timeout", "3"],
            &["--deadline", "5"],
        ];
        let cases = runner_flags
            .iter()
            .flat_map(|&flag| [(&["list", "scales"][..], flag), (&["store", "stats"], flag)])
            .chain([
                (&["list", "scales"][..], &["--seed", "5"][..]),
                (&["list", "scales"], &["--format", "json"]),
                (&["list", "scales"], &["--store-dir", "elsewhere"]),
                (&["store", "stats"], &["--seed", "5"]),
            ]);
        for (command, flag) in cases {
            let mut args = argv(command);
            args.extend(argv(flag));
            let result = run(&args);
            assert!(
                matches!(&result, Err(CliError::Usage(message)) if message.contains(flag[0])),
                "{:?} must be a usage error",
                args
            );
            assert_eq!(exit_code(&result), EXIT_USAGE);
        }
        // `store` keeps its own options.
        let options = parse_options("store", &["--store-dir", "elsewhere", "--format", "json"])
            .expect("parses");
        assert_eq!(options.store_dir.as_deref(), Some("elsewhere"));
    }

    #[test]
    fn every_command_accepts_the_flags_it_uses() {
        // bgcbench's workloads and CI's invocations, among others.
        let cases = [
            ("all", "--scale quick --format json --seed 17 --serial"),
            (
                "run",
                "--dataset flickr --scale large --method GCond-X --format json --seed 17 --no-cache",
            ),
            ("grid", "--dataset cora --method GCond --keep-going"),
            ("table", "2 --full --deadline 5 --cell-timeout 1"),
            ("store", "doctor --format json"),
        ];
        for (command, args) in cases {
            let args: Vec<&str> = args.split_whitespace().collect();
            assert!(
                parse_options(command, &args).is_ok(),
                "{} {:?}",
                command,
                args
            );
        }
    }
}
