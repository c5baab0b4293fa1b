//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s, each naming a *fault point*
//! (a stable string like `trainer.epoch` or `store.write`), an optional
//! context filter (a substring of the executing cell's canonical key), the
//! 1-based hit index it fires on, and an action: panic, I/O error, or delay.
//! The experiment runner enters a [`FaultScope`] around each cell it
//! executes; instrumented code calls [`fire`] / [`fire_io`] at its fault
//! points.  Outside a scope both are no-ops, so production runs pay one
//! thread-local read per fault point.
//!
//! Every spec fires exactly once — on its `nth` matching hit — which makes
//! the injected failure *transient by construction*: a re-run on the same
//! plan (clones share their hit counts) observes the fault already spent
//! and succeeds.  Plans are configured programmatically (tests) or parsed
//! from the `BGC_FAULTS` environment variable (CLI, CI):
//!
//! ```text
//! BGC_FAULTS="point[@ctx][#n]=action[;point=action...]"
//!     point   fault-point name (trainer.epoch, condense.outer,
//!             stage.clean, stage.attack, store.read, store.write, ...;
//!             a name missing from FAULT_POINTS is rejected)
//!     @ctx    only fire when the scope context contains this substring
//!             (cell canonical keys make good filters)
//!     #n      fire on the nth matching hit (default 1)
//!     action  panic | io | delay:<millis>
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Central registry of every named fault point in the workspace.
///
/// Instrumenting a new site means adding its name here *first*: the
/// `fault_points` test of this crate asserts that the registry exactly
/// matches the `fault::fire("…")` / `fault::fire_io("…")` literals of the
/// workspace's library code, [`FaultPlan::parse`] rejects any other name,
/// and the CLI help (`docs/cli-help.txt`) documents each point.
pub const FAULT_POINTS: &[&str] = &[
    // One trainer epoch (bgc-nn trainer, full-batch and sampled loops).
    "trainer.epoch",
    // One condensation outer epoch (gradient matching and GC-SNTK).
    "condense.outer",
    // The memoized clean-reference condensation stage (eval runner).
    "stage.clean",
    // The memoized attack stage (eval runner).
    "stage.attack",
    // Artifact-store read: before a stored artifact is read and verified.
    "store.read",
    // Artifact-store write: between the temp-file write and the atomic
    // rename that publishes an artifact.
    "store.write",
    // Artifact-store single-flight: before a lock-file acquisition attempt.
    "store.lock",
    // Prefetch producer: before each sampled batch is produced (bgc-nn
    // sampled-training pipeline; fires on the sampler thread).
    "sampler.produce",
];

/// Whether `point` is a registered fault point (see [`FAULT_POINTS`]).
pub fn is_registered(point: &str) -> bool {
    FAULT_POINTS.contains(&point)
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an "injected panic" message (exercises unwind isolation).
    Panic,
    /// Report an I/O error from [`fire_io`] points; panics at plain [`fire`]
    /// points (which cannot express errors).
    IoError,
    /// Sleep for the given duration (exercises deadlines and kill windows).
    Delay(Duration),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::IoError => write!(f, "io"),
            FaultAction::Delay(d) => write!(f, "delay:{}", d.as_millis()),
        }
    }
}

/// One armed fault of a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultSpec {
    /// Fault-point name this spec arms.
    pub point: String,
    /// Only fire inside scopes whose context contains this substring.
    pub context: Option<String>,
    /// 1-based index of the matching hit the spec fires on.
    pub nth: usize,
    /// Action taken when the spec fires.
    pub action: FaultAction,
    hits: AtomicUsize,
}

impl FaultSpec {
    /// A spec firing `action` on the first hit of `point` in any context.
    pub fn new(point: impl Into<String>, action: FaultAction) -> Self {
        Self {
            point: point.into(),
            context: None,
            nth: 1,
            action,
            hits: AtomicUsize::new(0),
        }
    }

    /// Restricts the spec to scopes whose context contains `needle`.
    pub fn in_context(mut self, needle: impl Into<String>) -> Self {
        self.context = Some(needle.into());
        self
    }

    /// Fires on the `nth` (1-based) matching hit instead of the first.
    pub fn on_hit(mut self, nth: usize) -> Self {
        self.nth = nth.max(1);
        self
    }

    /// Counts a matching hit; returns the action exactly when this hit is
    /// the spec's `nth`.
    fn arm(&self, point: &str, context: &str) -> Option<FaultAction> {
        if self.point != point {
            return None;
        }
        if let Some(needle) = &self.context {
            if !context.contains(needle.as_str()) {
                return None;
            }
        }
        let hit = self.hits.fetch_add(1, Ordering::AcqRel) + 1;
        (hit == self.nth).then_some(self.action)
    }
}

/// A set of armed faults, entered per unit of work via [`FaultPlan::enter`].
///
/// Clones share hit counters, so a plan entered for many cells of a grid
/// still fires each spec exactly once across the whole run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<Arc<FaultSpec>>,
}

impl FaultPlan {
    /// An empty plan (fires nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a spec to the plan.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(Arc::new(spec));
        self
    }

    /// Whether the plan arms any fault at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parses the `BGC_FAULTS` spec syntax (see the module docs).  A point
    /// missing from [`FAULT_POINTS`] is an error: it would arm nothing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in text.split(';').filter(|p| !p.trim().is_empty()) {
            let (head, action) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec '{}' is missing '=action'", part))?;
            let action = match action.trim() {
                "panic" => FaultAction::Panic,
                "io" => FaultAction::IoError,
                delay if delay.starts_with("delay:") => {
                    let millis: u64 = delay["delay:".len()..]
                        .parse()
                        .map_err(|_| format!("malformed delay in fault spec '{}'", part))?;
                    FaultAction::Delay(Duration::from_millis(millis))
                }
                other => {
                    return Err(format!(
                        "unknown fault action '{}' (expected panic, io or delay:<ms>)",
                        other
                    ))
                }
            };
            let (head, nth) = match head.rsplit_once('#') {
                Some((rest, nth)) => (
                    rest,
                    nth.parse::<usize>()
                        .map_err(|_| format!("malformed hit index in fault spec '{}'", part))?,
                ),
                None => (head, 1),
            };
            let (point, context) = match head.split_once('@') {
                Some((point, ctx)) => (point, Some(ctx.to_string())),
                None => (head, None),
            };
            let point = point.trim();
            if point.is_empty() {
                return Err(format!("fault spec '{}' is missing a point name", part));
            }
            if !is_registered(point) {
                return Err(format!(
                    "unknown fault point '{}' (expected one of: {})",
                    point,
                    FAULT_POINTS.join(", ")
                ));
            }
            let mut spec = FaultSpec::new(point, action).on_hit(nth);
            spec.context = context;
            plan = plan.with(spec);
        }
        Ok(plan)
    }

    /// The plan armed by the `BGC_FAULTS` environment variable; `None` when
    /// unset or empty, `Err` when set but malformed.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("BGC_FAULTS") {
            Ok(text) if !text.trim().is_empty() => Self::parse(&text).map(Some),
            _ => Ok(None),
        }
    }

    /// Makes this plan current on the calling thread (with the given scope
    /// context, e.g. the executing cell's canonical key) until the returned
    /// guard drops.
    #[must_use = "the plan is only armed while the returned scope guard lives"]
    pub fn enter(&self, context: &str) -> FaultScope {
        SCOPE.with(|stack| stack.borrow_mut().push((self.clone(), context.to_string())));
        FaultScope { _private: () }
    }

    fn fire_action(&self, point: &str, context: &str) -> Option<FaultAction> {
        self.specs.iter().find_map(|spec| spec.arm(point, context))
    }
}

thread_local! {
    static SCOPE: RefCell<Vec<(FaultPlan, String)>> = const { RefCell::new(Vec::new()) };
}

/// Owned snapshot of the calling thread's innermost fault scope.
///
/// Scopes are thread-local, so worker threads spawned inside a scope (the
/// sampled-training prefetch producer, for instance) start unarmed.  A
/// snapshot captures the innermost plan and context so the worker can
/// [`ScopeSnapshot::enter`] the same scope; hit counters stay shared, so a
/// spec still fires exactly once across all threads.
#[derive(Clone, Debug)]
pub struct ScopeSnapshot {
    plan: FaultPlan,
    context: String,
}

impl ScopeSnapshot {
    /// Captures the calling thread's innermost scope; `None` outside one.
    pub fn capture() -> Option<Self> {
        SCOPE.with(|stack| {
            stack.borrow().last().map(|(plan, context)| Self {
                plan: plan.clone(),
                context: context.clone(),
            })
        })
    }

    /// Re-arms the captured scope on the calling thread until the returned
    /// guard drops.
    #[must_use = "the plan is only armed while the returned scope guard lives"]
    pub fn enter(&self) -> FaultScope {
        self.plan.enter(&self.context)
    }
}

/// RAII guard of an entered plan (see [`FaultPlan::enter`]).
#[derive(Debug)]
pub struct FaultScope {
    _private: (),
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        SCOPE.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

fn armed(point: &str) -> Option<FaultAction> {
    SCOPE.with(|stack| {
        let stack = stack.borrow();
        let (plan, context) = stack.last()?;
        plan.fire_action(point, context)
    })
}

/// Fault point for sites that cannot report errors (loops, stage bodies).
///
/// No-op outside a scope.  A `panic` (or `io`) fault panics with a message
/// naming the point; a `delay` fault sleeps.
pub fn fire(point: &str) {
    match armed(point) {
        None => {}
        Some(FaultAction::Delay(duration)) => std::thread::sleep(duration),
        #[expect(
            clippy::panic,
            reason = "injecting a panic is this fault point's contract"
        )]
        Some(FaultAction::Panic) | Some(FaultAction::IoError) => {
            panic!("injected panic at fault point '{}'", point)
        }
    }
}

/// Fault point for I/O sites.  Like [`fire`], but an `io` fault returns an
/// injected [`std::io::Error`] instead of panicking.
pub fn fire_io(point: &str) -> std::io::Result<()> {
    match armed(point) {
        None => Ok(()),
        Some(FaultAction::Delay(duration)) => {
            std::thread::sleep(duration);
            Ok(())
        }
        #[expect(
            clippy::panic,
            reason = "injecting a panic is this fault point's contract"
        )]
        Some(FaultAction::Panic) => panic!("injected panic at fault point '{}'", point),
        Some(FaultAction::IoError) => Err(std::io::Error::other(format!(
            "injected i/o error at fault point '{}'",
            point
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn fire_is_a_noop_without_a_scope() {
        fire("trainer.epoch");
        assert!(fire_io("store.write").is_ok());
    }

    #[test]
    fn parse_roundtrips_every_action() {
        let plan =
            FaultPlan::parse("trainer.epoch=panic;store.write@cora#3=io;store.lock=delay:250")
                .expect("plan parses");
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.specs[0].point, "trainer.epoch");
        assert_eq!(plan.specs[0].action, FaultAction::Panic);
        assert_eq!(plan.specs[1].context.as_deref(), Some("cora"));
        assert_eq!(plan.specs[1].nth, 3);
        assert_eq!(plan.specs[1].action, FaultAction::IoError);
        assert_eq!(
            plan.specs[2].action,
            FaultAction::Delay(Duration::from_millis(250))
        );
        assert!(FaultPlan::parse("no-action").is_err());
        assert!(FaultPlan::parse("p=explode").is_err());
        assert!(FaultPlan::parse("p#x=panic").is_err());
        assert!(FaultPlan::parse("=panic").is_err());
        let unknown = FaultPlan::parse("stage.clean=panic;stage.clen=panic")
            .expect_err("an unknown point name arms nothing, so it must not parse");
        assert!(unknown.contains("stage.clen"), "{}", unknown);
    }

    #[test]
    fn specs_fire_once_on_their_nth_matching_hit() {
        let plan = FaultPlan::new().with(FaultSpec::new("p", FaultAction::IoError).on_hit(2));
        let _scope = plan.enter("ctx");
        assert!(fire_io("p").is_ok(), "first hit passes");
        assert!(fire_io("p").is_err(), "second hit fires");
        assert!(fire_io("p").is_ok(), "spent spec never fires again");
        assert!(fire_io("other").is_ok(), "other points are unaffected");
    }

    #[test]
    fn context_filters_gate_firing() {
        let plan =
            FaultPlan::new().with(FaultSpec::new("p", FaultAction::IoError).in_context("citeseer"));
        {
            let _scope = plan.enter("v2|quick|cora|GCond");
            assert!(fire_io("p").is_ok(), "non-matching context never counts");
        }
        let _scope = plan.enter("v2|quick|citeseer|GCond");
        assert!(fire_io("p").is_err());
    }

    #[test]
    fn hit_counters_are_shared_across_scopes() {
        // One plan entered per cell (as the runner does) still fires exactly
        // once across the whole grid.
        let plan = FaultPlan::new().with(FaultSpec::new("p", FaultAction::IoError));
        {
            let _scope = plan.enter("cell-a");
            assert!(fire_io("p").is_err());
        }
        let _scope = plan.enter("cell-b");
        assert!(fire_io("p").is_ok());
    }

    #[test]
    fn snapshot_rearms_scope_on_another_thread_with_shared_counters() {
        let plan = FaultPlan::new().with(FaultSpec::new("sampler.produce", FaultAction::IoError));
        let _scope = plan.enter("v2|quick|cora|GCond");
        let snapshot = ScopeSnapshot::capture().expect("inside a scope");
        let fired_on_worker = std::thread::spawn(move || {
            let _scope = snapshot.enter();
            fire_io("sampler.produce").is_err()
        })
        .join()
        .expect("worker does not panic");
        assert!(fired_on_worker, "snapshot arms the plan on the worker");
        // Hit counters are shared: the spec is spent for this thread too.
        assert!(fire_io("sampler.produce").is_ok());
        assert!(ScopeSnapshot::capture().is_some());
    }

    #[test]
    fn panic_faults_name_the_point() {
        let plan = FaultPlan::new().with(FaultSpec::new("trainer.epoch", FaultAction::Panic));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _scope = plan.enter("ctx");
            fire("trainer.epoch");
        }));
        let payload = result.expect_err("must panic");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("trainer.epoch"), "{}", message);
    }
}
