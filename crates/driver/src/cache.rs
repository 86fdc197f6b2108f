//! Fleet-wide result cache for the [`Pipeline`](crate::Pipeline).
//!
//! Requests are keyed by a content hash of (source text, run
//! configuration, mode) — the same "exact content ⇒ exact reuse"
//! discipline as the PR-2 `PassContext` tiers, lifted from one function
//! inside one compile to whole requests across the fleet: a source or
//! configuration edit changes the key, which *is* the invalidation (the
//! old entry stops being addressed until eviction drops it), while a
//! hit skips parse, optimize, certify, and both measurement runs
//! outright.
//!
//! The cache is a [`nascent_obs::memo::Memo`], so concurrent identical
//! requests coalesce: the first computes, the rest wait for and share
//! its `Arc<Outcome>` — two simultaneous identical requests compute
//! exactly once (see `tests/cache.rs`). It holds at most
//! [`CAPACITY`] outcomes and evicts the oldest first; a request whose
//! outcome was evicted is computed again, to the same bytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use nascent_obs::memo::{content_hash, MemoStats};

use crate::{Mode, Outcome, PipelineError, Request, RunConfig};

/// Outcomes the result cache holds before it evicts its oldest: far
/// above the 840 distinct requests of one perfbench `service-mix` pass,
/// so a request repeated within a pass is still a hit.
pub const CAPACITY: usize = 4096;

/// Cache traffic counters: the memo's [`MemoStats`] without its
/// eviction count, which [`Pipeline::cache_evictions`](crate::Pipeline::cache_evictions)
/// reports (perfbench builds this struct from these four fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from a computed entry.
    pub hits: u64,
    /// Calls that computed, counted when the computation starts.
    pub misses: u64,
    /// Calls that waited for an identical request's computation.
    pub coalesced: u64,
    /// Outcomes held, in-flight computations included.
    pub entries: usize,
}

impl CacheStats {
    /// hits / (hits + misses + coalesced), in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            coalesced: self.coalesced,
            evictions: 0,
            entries: self.entries,
        }
        .hit_rate()
    }
}

impl From<MemoStats> for CacheStats {
    fn from(m: MemoStats) -> CacheStats {
        CacheStats {
            hits: m.hits,
            misses: m.misses,
            coalesced: m.coalesced,
            entries: m.entries,
        }
    }
}

/// Cache key: the program text's content hash and length, the
/// configuration and the mode, all plain values, so a key owns no heap
/// memory. The cache does not retain request bodies.
pub(crate) type Key = ((u64, u64), usize, RunConfig, Mode);

/// A cached computation: the outcome, or why there is none.
pub(crate) type Computed = Result<Arc<Outcome>, PipelineError>;

pub(crate) fn key(req: &Request) -> Key {
    (
        content_hash(req.program.as_bytes()),
        req.program.len(),
        req.config,
        req.mode,
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
        let cache: Memo<Key, Computed> = Memo::new(CAPACITY);
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
