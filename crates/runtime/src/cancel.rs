//! Cooperative cancellation with deadlines.
//!
//! A [`CancelToken`] carries an optional deadline and a manual cancel flag.
//! The owner of a unit of work (the experiment runner) creates a token and
//! [`CancelToken::enter`]s it for the duration of the work on the executing
//! thread; the long loops beneath — trainer epochs, condensation outer
//! epochs — call [`checkpoint`] once per iteration.  When the token is cancelled or past its deadline, the
//! checkpoint unwinds with a [`CancelUnwind`] payload, which the scope owner
//! catches at the work boundary (`std::panic::catch_unwind`) and converts
//! into a typed timed-out outcome.
//!
//! Unwinding (rather than threading `Result` through every training and
//! condensation signature) keeps cancellation invisible to code that does
//! not opt in: outside a scope, [`checkpoint`] is a thread-local read.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared cancellation state of one unit of work.
///
/// Cloning shares the state: a clone handed to another thread can
/// [`CancelToken::cancel`] the work while the executing thread polls
/// [`CancelToken::is_cancelled`] through its [`checkpoint`]s.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// The timeout this token was created with (reporting only; the live
    /// deadline is `deadline`).
    timeout: Option<Duration>,
    /// Parent token: cancelling the parent cancels every descendant, so a
    /// whole-invocation deadline composes with per-cell timeouts (see
    /// [`CancelToken::child_with_timeout`]).
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            || self.parent.as_deref().is_some_and(Inner::is_cancelled)
    }

    fn timeout(&self) -> Option<Duration> {
        self.timeout
            .or_else(|| self.parent.as_deref().and_then(Inner::timeout))
    }
}

/// The unwind payload raised by [`checkpoint`] when the current scope's
/// token is cancelled or past its deadline.  Catch handlers downcast to this
/// type to distinguish cooperative cancellation from a genuine panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelUnwind;

impl CancelToken {
    /// A token that never cancels on its own (cancel it manually).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token whose [`checkpoint`]s start unwinding once `timeout` has
    /// elapsed from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                timeout: Some(timeout),
                parent: None,
            }),
        }
    }

    /// A child token with its own deadline that is *also* cancelled whenever
    /// this (or any ancestor) token cancels or times out.  The experiment
    /// runner uses this to compose a whole-invocation `--deadline` with the
    /// per-cell timeout: the cell's checkpoints observe whichever fires
    /// first.
    pub fn child_with_timeout(&self, timeout: Duration) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
                timeout: Some(timeout),
                parent: Some(self.inner.clone()),
            }),
        }
    }

    /// Requests cancellation; the executing thread observes it at its next
    /// [`checkpoint`].  Cancelling a token also cancels every child derived
    /// from it via [`CancelToken::child_with_timeout`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been cancelled, its deadline has passed, or any
    /// ancestor token is cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// The timeout this token (or, when it has none, its nearest ancestor)
    /// was created with — `None` for manual-cancel tokens.  Reporting only:
    /// the value does not change as the deadline approaches.
    pub fn timeout(&self) -> Option<Duration> {
        self.inner.timeout()
    }

    /// Makes this token the current one on the calling thread until the
    /// returned guard drops.  Scopes nest; the innermost token wins.
    #[must_use = "the token is only current while the returned scope guard lives"]
    pub fn enter(&self) -> CancelScope {
        CURRENT.with(|stack| stack.borrow_mut().push(self.clone()));
        CancelScope { _private: () }
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of an entered token (see [`CancelToken::enter`]).
#[derive(Debug)]
pub struct CancelScope {
    _private: (),
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// Cancellation checkpoint for long-running loops.
///
/// No-op when no token is entered on this thread or the current token is
/// live; unwinds with a [`CancelUnwind`] payload otherwise.  Place one per
/// epoch / outer iteration — the granularity bounds how late a deadline is
/// observed.
///
/// The unwind starts with [`resume_unwind`], which skips the panic hook: a
/// cancellation is an expected outcome, so it prints no panic report.
pub fn checkpoint() {
    let cancelled =
        CURRENT.with(|stack| stack.borrow().last().is_some_and(CancelToken::is_cancelled));
    if cancelled {
        resume_unwind(Box::new(CancelUnwind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn checkpoint_is_a_noop_without_a_scope() {
        checkpoint();
    }

    #[test]
    fn live_token_does_not_unwind() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        let _scope = token.enter();
        checkpoint();
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancelled_token_unwinds_with_the_typed_payload() {
        let token = CancelToken::new();
        token.cancel();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _scope = token.enter();
            checkpoint();
        }));
        let payload = result.expect_err("checkpoint must unwind");
        assert!(payload.downcast_ref::<CancelUnwind>().is_some());
        // The scope guard popped during unwinding: later checkpoints on this
        // thread are no-ops again.
        checkpoint();
    }

    #[test]
    fn elapsed_deadline_cancels() {
        let token = CancelToken::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(token.is_cancelled());
    }

    #[test]
    fn child_tokens_inherit_parent_cancellation() {
        let parent = CancelToken::new();
        let child = parent.child_with_timeout(Duration::from_secs(3600));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled(), "parent cancel reaches the child");
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn child_deadline_fires_independently_of_the_parent() {
        let parent = CancelToken::with_timeout(Duration::from_secs(3600));
        let child = parent.child_with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(child.is_cancelled(), "child deadline elapsed");
        assert!(!parent.is_cancelled(), "parent is unaffected by the child");
    }

    #[test]
    fn timeout_reports_the_creation_value() {
        assert_eq!(CancelToken::new().timeout(), None);
        let token = CancelToken::with_timeout(Duration::from_millis(250));
        assert_eq!(token.timeout(), Some(Duration::from_millis(250)));
        let child = token.child_with_timeout(Duration::from_millis(50));
        assert_eq!(child.timeout(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn scopes_nest_innermost_wins() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        outer.cancel();
        let _outer_scope = outer.enter();
        {
            let _inner_scope = inner.enter();
            // The inner token is live, so the checkpoint passes even though
            // the outer one is cancelled.
            checkpoint();
        }
        let result = catch_unwind(AssertUnwindSafe(checkpoint));
        assert!(result.is_err(), "outer scope is current again");
    }
}
