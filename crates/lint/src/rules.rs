//! The lint rules: token-sequence matchers over the [`crate::lexer`] output.
//!
//! Every rule skips test scope (`#[test]`, `#[cfg(test)]`, inline
//! `mod tests`) — the invariants guard library behaviour, and tests are
//! free to unwrap, poison locks and use toy fault points.  Waivers and the
//! baseline are applied by the driver in `lib.rs`, not here: rules report
//! every raw match.

use crate::lexer::{use_scope, Token, TokenKind};

/// A single raw rule match before waiver/baseline filtering.
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based line of the match.
    pub line: usize,
    /// Human-readable explanation with the matched construct.
    pub message: String,
}

/// The workspace invariant rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `.lock()/.read()/.write()` followed by `.unwrap()/.expect(` — a
    /// poisoned lock aborts every later caller instead of recovering via
    /// `bgc_runtime::relock`.
    PoisonUnsafeLock,
    /// `unwrap`/`expect`/`panic!` in non-test library code.  The only
    /// baselineable rule: pre-existing sites live in `lint-baseline.json`
    /// and may only be removed, never added.
    UncheckedPanic,
    /// `HashMap`/`HashSet` in a designated order-sensitive file
    /// (canonicalization, persistence, report assembly): iteration order
    /// would leak into bytes that must be deterministic.
    NondetIteration,
    /// `Instant::now`/`SystemTime` outside the bench/runtime allowlist:
    /// wall-clock reads in compute paths break run-to-run determinism.
    WallClockInCompute,
    /// `fault::fire("…")` with a point literal missing from
    /// `bgc_runtime::FAULT_POINTS`.
    UnregisteredFaultPoint,
    /// A `// bgc-lint: allow(...)` comment that names an unknown rule or
    /// gives no reason.
    MalformedWaiver,
    /// A well-formed waiver that suppressed nothing.
    UnusedWaiver,
}

impl Rule {
    /// The stable kebab-case name used in waivers, the baseline and output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PoisonUnsafeLock => "poison-unsafe-lock",
            Rule::UncheckedPanic => "unchecked-panic",
            Rule::NondetIteration => "nondet-iteration",
            Rule::WallClockInCompute => "wall-clock-in-compute",
            Rule::UnregisteredFaultPoint => "unregistered-fault-point",
            Rule::MalformedWaiver => "malformed-waiver",
            Rule::UnusedWaiver => "unused-waiver",
        }
    }

    /// Parses a rule name as written in a waiver comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Whether pre-existing findings of this rule may live in the
    /// committed baseline.  Only `unchecked-panic` ratchets; every other
    /// rule must be fixed or waived at the site.
    pub fn baselineable(self) -> bool {
        matches!(self, Rule::UncheckedPanic)
    }
}

/// Every rule, in severity/reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::PoisonUnsafeLock,
    Rule::UncheckedPanic,
    Rule::NondetIteration,
    Rule::WallClockInCompute,
    Rule::UnregisteredFaultPoint,
    Rule::MalformedWaiver,
    Rule::UnusedWaiver,
];

/// Workspace-relative path fragments of files whose map iteration order
/// reaches persisted bytes, canonical keys or report rows.  The
/// `nondet-iteration` rule only fires inside these files; everywhere else
/// `HashMap` is fine.  Extend this list when a new file starts writing
/// order-sensitive output (see docs/lint.md).
pub const ORDER_SENSITIVE_FILES: &[&str] = &[
    "crates/condense/src/methods.rs",
    "crates/eval/src/runner.rs",
    "crates/core/src/attack.rs",
    "crates/core/src/selector.rs",
    "crates/core/src/baselines/gta.rs",
    "crates/core/src/baselines/doorping.rs",
    "crates/store/src/admin.rs",
];

/// Workspace-relative path prefixes allowed to read the wall clock:
/// the fault-tolerance runtime (cell deadlines), the bench/CLI crate
/// (timing reports), the artifact store (lock leases, wait deadlines,
/// tmp-file age) and the sampled-training prefetch pipeline (trainer-stall /
/// sampler-idle instrumentation).  Compute crates must stay clock-free.
pub const WALL_CLOCK_ALLOWLIST: &[&str] = &[
    "crates/runtime/",
    "crates/bench/",
    "crates/store/",
    "crates/nn/src/pipeline.rs",
];

/// The file providing poison recovery itself — the one place allowed to
/// call `.lock()`/`.read()`/`.write()` directly.
pub const RELOCK_HOME: &str = "crates/runtime/src/lock.rs";

/// Runs every applicable rule over one file's tokens.
///
/// * `rel_path` — path relative to the workspace root with `/` separators.
/// * `tokens` / `in_test` — lexer output and test-scope flags.
/// * `fault_points` — the registered fault-point names
///   (`bgc_runtime::FAULT_POINTS`).
pub fn run_rules(
    rel_path: &str,
    tokens: &[Token],
    in_test: &[bool],
    fault_points: &[&str],
) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let in_use = use_scope(tokens);
    // Indices of non-comment tokens, so sequence matchers see code only.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let text = |k: usize| tokens[code[k]].text.as_str();
    let kind = |k: usize| tokens[code[k]].kind;
    let line = |k: usize| tokens[code[k]].line;

    let order_sensitive = ORDER_SENSITIVE_FILES.iter().any(|f| rel_path.ends_with(f));
    let clock_allowed = WALL_CLOCK_ALLOWLIST
        .iter()
        .any(|prefix| rel_path.starts_with(prefix));
    let is_relock_home = rel_path.ends_with(RELOCK_HOME);

    for k in 0..code.len() {
        if in_test[code[k]] {
            continue;
        }
        let tok_kind = kind(k);
        let tok_text = text(k);

        // poison-unsafe-lock: `.` lock|read|write `(` `)` `.` unwrap|expect `(`
        if !is_relock_home
            && tok_kind == TokenKind::Ident
            && matches!(tok_text, "lock" | "read" | "write")
            && k >= 1
            && text(k - 1) == "."
            && k + 5 < code.len()
            && text(k + 1) == "("
            && text(k + 2) == ")"
            && text(k + 3) == "."
            && matches!(text(k + 4), "unwrap" | "expect")
            && text(k + 5) == "("
        {
            findings.push(RawFinding {
                rule: Rule::PoisonUnsafeLock,
                line: line(k),
                message: format!(
                    ".{}().{}() panics on a poisoned lock; use bgc_runtime::relock{}",
                    tok_text,
                    text(k + 4),
                    match tok_text {
                        "read" => "_read",
                        "write" => "_write",
                        _ => "",
                    }
                ),
            });
        }

        // unchecked-panic: `.unwrap(` / `.expect(` / `panic!(`.
        // The `#[expect(...)]` lint attribute is not a method call: skip
        // when the previous token is `#` or `[`.
        if tok_kind == TokenKind::Ident && matches!(tok_text, "unwrap" | "expect") {
            let after_dot = k >= 1 && text(k - 1) == ".";
            let called = k + 1 < code.len() && text(k + 1) == "(";
            if after_dot && called {
                findings.push(RawFinding {
                    rule: Rule::UncheckedPanic,
                    line: line(k),
                    message: format!(
                        ".{tok_text}() in library code; return a typed BgcError instead"
                    ),
                });
            }
        }
        if tok_kind == TokenKind::Ident
            && tok_text == "panic"
            && k + 1 < code.len()
            && text(k + 1) == "!"
        {
            findings.push(RawFinding {
                rule: Rule::UncheckedPanic,
                line: line(k),
                message: "panic! in library code; return a typed BgcError instead".to_string(),
            });
        }

        // nondet-iteration: HashMap/HashSet in an order-sensitive file,
        // outside `use` declarations (imports alone don't iterate).
        if order_sensitive
            && tok_kind == TokenKind::Ident
            && matches!(tok_text, "HashMap" | "HashSet")
            && !in_use[code[k]]
        {
            findings.push(RawFinding {
                rule: Rule::NondetIteration,
                line: line(k),
                message: format!(
                    "{tok_text} in an order-sensitive file; use BTreeMap/BTreeSet or sorted iteration"
                ),
            });
        }

        // wall-clock-in-compute: Instant::now / SystemTime outside
        // WALL_CLOCK_ALLOWLIST (bench, runtime, store, and the prefetch
        // pipeline's trainer-stall / sampler-idle timers).
        if !clock_allowed && tok_kind == TokenKind::Ident && !in_use[code[k]] {
            if tok_text == "Instant"
                && k + 2 < code.len()
                && text(k + 1) == ":"
                && text(k + 2) == ":"
            {
                // Find the ident after the `::` path segment(s).
                if code
                    .get(k + 3)
                    .is_some_and(|&idx| tokens[idx].text == "now")
                {
                    findings.push(RawFinding {
                        rule: Rule::WallClockInCompute,
                        line: line(k),
                        message: "Instant::now() in a compute crate; thread timing through the bench/runtime layer".to_string(),
                    });
                }
            }
            if tok_text == "SystemTime" {
                findings.push(RawFinding {
                    rule: Rule::WallClockInCompute,
                    line: line(k),
                    message: "SystemTime in a compute crate; wall-clock reads break determinism"
                        .to_string(),
                });
            }
        }

        // unregistered-fault-point: fire|fire_io `(` "literal" — the
        // literal must be in the central registry.
        if tok_kind == TokenKind::Ident
            && matches!(tok_text, "fire" | "fire_io")
            && k + 2 < code.len()
            && text(k + 1) == "("
            && kind(k + 2) == TokenKind::Str
        {
            let point = text(k + 2);
            if !fault_points.contains(&point) {
                findings.push(RawFinding {
                    rule: Rule::UnregisteredFaultPoint,
                    line: line(k),
                    message: format!(
                        "fault point \"{point}\" is not in bgc_runtime::FAULT_POINTS; register it there and in the CLI help's fault-injection section"
                    ),
                });
            }
        }
    }
    findings
}

/// A parsed `// bgc-lint: allow(rule) — reason` waiver.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// The waived rule.
    pub rule: Rule,
    /// 1-based line of the waiver comment; the waiver covers this line and
    /// the next.
    pub line: usize,
    /// The justification text (non-empty by construction).
    pub reason: String,
}

/// Extracts waivers from comment tokens.  Malformed waivers (unknown rule,
/// missing reason, bad syntax after the `bgc-lint:` marker) are reported as
/// findings so they can't silently fail to suppress.
pub fn parse_waivers(tokens: &[Token]) -> (Vec<Waiver>, Vec<RawFinding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if !tok.is_comment() {
            continue;
        }
        let body = tok.text.trim();
        let Some(rest) = body.strip_prefix("bgc-lint:") else {
            continue;
        };
        match parse_waiver_body(rest.trim()) {
            Ok((rule, reason)) => waivers.push(Waiver {
                rule,
                line: tok.line,
                reason,
            }),
            Err(why) => findings.push(RawFinding {
                rule: Rule::MalformedWaiver,
                line: tok.line,
                message: format!("malformed waiver: {why}"),
            }),
        }
    }
    (waivers, findings)
}

/// Parses the part after `bgc-lint:` — `allow(rule) — reason` (the
/// separator may be an em-dash, hyphen or colon, or absent).
fn parse_waiver_body(body: &str) -> Result<(Rule, String), String> {
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err("expected `allow(rule) — reason`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(`".to_string());
    };
    let rule_name = rest[..close].trim();
    let Some(rule) = Rule::from_name(rule_name) else {
        return Err(format!("unknown rule `{rule_name}`"));
    };
    if matches!(rule, Rule::MalformedWaiver | Rule::UnusedWaiver) {
        return Err(format!("rule `{rule_name}` cannot be waived"));
    }
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\u{2014}', '-', ':'])
        .trim();
    if reason.is_empty() {
        return Err("missing reason (write `allow(rule) — why it is safe`)".to_string());
    }
    Ok((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{test_scope, tokenize};

    fn lint(path: &str, src: &str) -> Vec<RawFinding> {
        let tokens = tokenize(src);
        let scope = test_scope(&tokens);
        run_rules(path, &tokens, &scope, &["trainer.epoch"])
    }

    #[test]
    fn poison_unsafe_lock_fires_on_lock_unwrap() {
        let src = "fn f() { let g = MEMO.lock().unwrap(); g.insert(1); }";
        let findings = lint("crates/x/src/a.rs", src);
        assert_eq!(
            findings.len(),
            2,
            "lock rule + unchecked-panic: {findings:?}"
        );
        assert_eq!(findings[0].rule, Rule::PoisonUnsafeLock);
        assert_eq!(findings[1].rule, Rule::UncheckedPanic);
    }

    #[test]
    fn relock_does_not_fire_lock_rule() {
        let src = "fn f() { let g = bgc_runtime::relock(&MEMO); g.insert(1); }";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn expect_attribute_is_not_a_panic() {
        let src = "#[expect(dead_code)]\nfn f() {}";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn nondet_iteration_only_in_designated_files() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }";
        assert_eq!(lint("crates/eval/src/runner.rs", src).len(), 2);
        assert!(lint("crates/eval/src/report.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_respects_allowlist() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }";
        assert_eq!(lint("crates/core/src/trainer.rs", src).len(), 1);
        assert!(lint("crates/bench/src/cli.rs", src).is_empty());
        assert!(lint("crates/runtime/src/cancel.rs", src).is_empty());
    }

    #[test]
    fn fault_points_check_the_registry() {
        let good = "fn f() { fault::fire(\"trainer.epoch\"); }";
        assert!(lint("crates/x/src/a.rs", good).is_empty());
        let bad = "fn f() { fault::fire(\"bogus.point\"); }";
        let findings = lint("crates/x/src/a.rs", bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::UnregisteredFaultPoint);
    }

    #[test]
    fn test_scope_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); y.lock().unwrap(); }\n}";
        assert!(lint("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn waivers_parse_and_reject_garbage() {
        let src = "\
// bgc-lint: allow(unchecked-panic) — invariant: always Some here
// bgc-lint: allow(no-such-rule) — whatever
// bgc-lint: allow(unchecked-panic)
fn f() {}";
        let tokens = tokenize(src);
        let (waivers, bad) = parse_waivers(&tokens);
        assert_eq!(waivers.len(), 1);
        assert_eq!(waivers[0].rule, Rule::UncheckedPanic);
        assert_eq!(waivers[0].reason, "invariant: always Some here");
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.rule == Rule::MalformedWaiver));
    }
}
