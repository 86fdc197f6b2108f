//! `nascent-obs` — structured observability for the nascent-rc pipeline.
//!
//! Std-only (the build must succeed without registry access), four
//! cooperating subsystems shared by every layer of the workspace:
//!
//! * [`trace`] — span-based tracing: RAII guards ([`trace::span`] /
//!   [`trace::timed_span`], or the [`span!`] macro) with nesting, wall
//!   time, and typed key-value attributes, recorded into a per-thread
//!   buffer and exported as Chrome `chrome://tracing` JSON
//!   ([`trace::chrome_trace_json`]). Two recorders compose: a
//!   process-wide one (`nascentc --trace out.json`) and a per-thread
//!   scoped collector (`nascentd` per-request `?trace=1`). Both are
//!   **off by default**; a disabled [`trace::span`] is one relaxed
//!   atomic load plus one thread-local flag read — the overhead test in
//!   `tests/overhead.rs` holds the whole layer to ≤1% of suite total.
//! * [`metrics`] — a registry of named counters, gauges, and
//!   fixed-bucket histograms with Prometheus text-format rendering
//!   ([`metrics::Registry::render_prom`], the one `/metrics` exposition)
//!   and an exposition-format validator ([`metrics::validate_prom`]). A
//!   histogram's memory is fixed however many requests flow through it.
//! * request ids ([`mint_request_id`] / [`trace::set_request_id`]) —
//!   minted per service request, carried in a thread-local so every span
//!   recorded while handling the request is tagged with it, and echoed
//!   in responses and error diagnostics.
//! * [`memo`] — the one content-hash memo: [`memo::Memo`] computes each
//!   key once however many threads ask, makes concurrent callers wait
//!   for the first, and answers each call with its [`memo::Role`] (hit,
//!   miss or coalesced) and the [`memo::MemoStats`] counters that
//!   `/metrics` reports; [`memo::content_hash`] is the double-FNV hash
//!   its callers key content by. The driver's result cache and the
//!   native tier's compile cache are both this memo.

pub mod memo;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique request-id sequence.
static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn process_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        mix64(t ^ (u64::from(std::process::id()) << 32))
    })
}

/// Mints a request id: unique within the process (a sequence number runs
/// through the mix), collision-resistant across processes (the sequence
/// is XORed with a per-process time+pid seed before mixing).
pub fn mint_request_id() -> String {
    let n = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("r{:016x}", mix64(process_seed() ^ n))
}

/// Creates a recorded span with typed attributes:
/// `span!("lcm", "pass", fn = name, inserted = 3)`. Attribute values go
/// through [`trace::AttrValue::from`], so strings and integers both work.
/// Returns the RAII [`trace::Span`] guard; the span is recorded when the
/// guard drops (or [`trace::Span::finish`] is called).
#[macro_export]
macro_rules! span {
    ($name:expr, $cat:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut s = $crate::trace::span($name, $cat);
        $(s.attr(stringify!($key), $value);)*
        s
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_ids_are_unique_across_threads() {
        let ids: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..500).map(|_| mint_request_id()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let set: HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), ids.len(), "request ids collided");
        for id in &ids {
            assert!(id.starts_with('r') && id.len() == 17, "bad id format {id}");
        }
    }
}
