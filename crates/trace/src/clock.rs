//! Injectable monotonic clock shared by every timing site in the trace
//! layer (spans, stage timers, profiler spans).
//!
//! Two modes:
//!
//! - **Real** (default): nanoseconds since a process-wide [`Instant`]
//!   anchor. Monotonic, cheap (one `Instant::elapsed`), and what every
//!   production binary uses.
//! - **Virtual**: a global atomic counter that advances by a fixed
//!   [`VIRTUAL_TICK_NS`] on every read. Successive reads are strictly
//!   increasing and fully deterministic, which makes profiler and span
//!   golden tests byte-stable — including under
//!   [`RecordCapture`](crate::RecordCapture) replay, where the recorded
//!   timestamps travel with the records.
//!
//! The virtual clock is process-global; tests that enable it must not run
//! concurrently with tests asserting on timed output (keep them in their
//! own integration-test binary, or serialize on a lock).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How far the virtual clock advances per read, in nanoseconds. One
/// microsecond keeps virtual timestamps integral after the ns→µs
/// conversions in the exporters.
pub const VIRTUAL_TICK_NS: u64 = 1_000;

static VIRTUAL: AtomicBool = AtomicBool::new(false);
static VIRTUAL_NOW: AtomicU64 = AtomicU64::new(0);

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Current monotonic time in nanoseconds. In virtual mode every call
/// advances the clock by [`VIRTUAL_TICK_NS`], so two consecutive reads
/// never return the same value.
#[inline]
pub fn now_ns() -> u64 {
    if VIRTUAL.load(Ordering::Relaxed) {
        VIRTUAL_NOW.fetch_add(VIRTUAL_TICK_NS, Ordering::SeqCst) + VIRTUAL_TICK_NS
    } else {
        anchor().elapsed().as_nanos() as u64
    }
}

/// Switch between the real clock (`false`) and the deterministic virtual
/// clock (`true`). Entering virtual mode resets the virtual counter to
/// zero so every test starts from the same origin.
pub fn set_virtual(enabled: bool) {
    VIRTUAL_NOW.store(0, Ordering::SeqCst);
    VIRTUAL.store(enabled, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
