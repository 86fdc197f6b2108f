//! Fleet-wide result cache for the [`Pipeline`](crate::Pipeline).
//!
//! Requests are keyed by a content hash of (source text, run
//! configuration, mode) — the same "exact content ⇒ exact reuse"
//! discipline as the PR-2 `PassContext` tiers, lifted from one function
//! inside one compile to whole requests across the fleet: a source or
//! configuration edit changes the key, which *is* the invalidation (the
//! old entry simply stops being addressed), while a hit skips parse,
//! optimize, certify, and both measurement runs outright.
//!
//! The cache is a [`nascent_obs::memo::Memo`], so concurrent identical
//! requests coalesce: the first computes, the rest wait for and share
//! its `Arc<Outcome>` — two simultaneous identical requests compute
//! exactly once (see `tests/cache.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nascent_obs::memo::{content_hash, MemoStats};

use crate::{Outcome, PipelineError, Request};

/// Cache traffic counters (hits, misses, coalesced waits, entries).
pub type CacheStats = MemoStats;

/// Cache key: the program text's content hash and length, the
/// configuration fingerprint (kept verbatim, it is tiny) and the mode.
/// The cache does not retain request bodies.
pub(crate) type Key = ((u64, u64), usize, String, &'static str);

/// A cached computation: the outcome, or why there is none.
pub(crate) type Computed = Result<Arc<Outcome>, PipelineError>;

pub(crate) fn key(req: &Request) -> Key {
    (
        content_hash(req.program.as_bytes()),
        req.program.len(),
        req.config.fingerprint(),
        req.mode.name(),
    )
}

/// Runs `compute` with a panic turned into [`PipelineError::Panic`], so
/// the cache stores and replays it like any other error instead of
/// leaving the key empty for the next request to run again.
pub(crate) fn isolated(compute: impl FnOnce() -> Result<Outcome, PipelineError>) -> Computed {
    match catch_unwind(AssertUnwindSafe(compute)) {
        Ok(r) => r.map(Arc::new),
        Err(payload) => Err(PipelineError::Panic(panic_message(payload.as_ref()))),
    }
}

/// Renders a panic payload the way the default hook would.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, RunConfig};
    use nascent_obs::memo::{Memo, Role};

    fn req(src: &str) -> Request {
        Request {
            program: src.into(),
            config: RunConfig::default(),
            mode: Mode::Optimize,
        }
    }

    #[test]
    fn keys_separate_source_config_and_mode() {
        let a = key(&req("program p\nend\n"));
        let b = key(&req("program q\nend\n"));
        assert_ne!(a, b);
        let mut r = req("program p\nend\n");
        r.config.classic = true;
        assert_ne!(a, key(&r));
        let mut r = req("program p\nend\n");
        r.mode = Mode::Certify;
        assert_ne!(a, key(&r));
    }

    #[test]
    fn a_panicking_computation_is_isolated_and_cached() {
        let cache: Memo<Key, Computed> = Memo::new();
        let r = req("program p\nend\n");
        let (first, role) = cache.get_or_compute(key(&r), || isolated(|| panic!("boom")));
        assert_eq!(role, Role::Miss);
        let err = first.expect_err("panic becomes error");
        assert_eq!(err, PipelineError::Panic("boom".into()));
        // later requests observe the same isolated error without rerunning
        let (again, role) = cache.get_or_compute(key(&r), || unreachable!("must not recompute"));
        assert_eq!(role, Role::Hit);
        assert_eq!(again.expect_err("cached error"), err);
    }
}
