//! Cooperative execution budgets: deadlines and cancellation.
//!
//! The serving scenario (paper Section 4.1.1) is online QA under
//! multi-tenant load: a single slow question must not stall the pool, and a
//! caller that has given up must be able to reclaim the worker. Both needs
//! are met with one cooperative mechanism threaded through the
//! [`crate::PlanExecutor`] entry:
//!
//! * [`Budget`] — an optional wall-clock deadline plus an optional
//!   [`CancelToken`], checked **once per chunk** on every walk (inline,
//!   scale-out, batched). The chunk is the
//!   natural quantum: it bounds the response latency of a check by one
//!   chunk's work (micro­seconds at serving shapes) while keeping the
//!   fault-free overhead to one clock read per chunk — measured ≤ 2% in
//!   `BENCH_robustness.json`.
//! * [`CancelToken`] — a cheaply clonable flag a caller can trip from
//!   another thread to abandon an in-flight question.
//!
//! An exceeded deadline surfaces as
//! [`EngineError::DeadlineExceeded`],
//! a tripped token as [`EngineError::Cancelled`].
//! Both are *clean* exits: no partial output escapes, scratch buffers are
//! reset on the next pass, and the session's cumulative statistics are
//! untouched.
//!
//! [`Budget::unlimited`] is the hot-path default: its check is two
//! predictable branches and never reads the clock, so an unbudgeted
//! [`crate::PlanExecutor::forward`] pays nothing.

use crate::engine::EngineError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply clonable cancellation flag.
///
/// Clones share the same underlying flag: cancel any clone and every
/// in-flight forward pass holding one observes it at its next per-chunk
/// check.
///
/// ```
/// use mnnfast::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; every clone observes the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A per-request execution budget: optional deadline, optional cancellation.
///
/// Engines call [`Budget::check`] once per chunk. The unlimited budget's
/// check never reads the clock; an armed deadline costs one `Instant::now()`
/// per chunk.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    limit: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget that never expires and cannot be cancelled — the hot-path
    /// default ("unbudgeted" is this value, not a separate entry point).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Instant::now().checked_add(limit),
            limit: Some(limit),
            ..Budget::default()
        }
    }

    /// Attaches a cancellation token (builder-style).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured time limit, if any.
    pub fn limit(&self) -> Option<Duration> {
        self.limit
    }

    /// Whether this budget can ever fail a check.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Time left before the deadline (`None` when no deadline is armed;
    /// zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The per-chunk check: cancellation first (no clock read), then the
    /// deadline.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] if the token tripped,
    /// [`EngineError::DeadlineExceeded`] if the deadline passed.
    #[inline]
    pub fn check(&self) -> Result<(), EngineError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(EngineError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(EngineError::DeadlineExceeded {
                    budget: self.limit.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check().is_ok());
        assert_eq!(b.limit(), None);
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn expired_deadline_fails_check() {
        let b = Budget::with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        assert!(matches!(
            b.check(),
            Err(EngineError::DeadlineExceeded { .. })
        ));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert!(!b.is_unlimited());
        assert!(b.check().is_ok());
        assert_eq!(b.limit(), Some(Duration::from_secs(3600)));
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancellation_is_observed_by_clones() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check().is_ok());
        token.cancel();
        assert_eq!(b.check(), Err(EngineError::Cancelled));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::with_deadline(Duration::ZERO).with_cancel(token);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(b.check(), Err(EngineError::Cancelled));
    }
}
