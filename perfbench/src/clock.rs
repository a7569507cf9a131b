//! Wall-clock reads. The benchmark times the library from outside, so it
//! is the one place besides `rl_obs` that reads the clock.

use std::sync::OnceLock;
use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // rl-lint: allow(wall-clock) — the benchmark measures elapsed real time
    Instant::now()
}

/// Nanoseconds since the first call in this process: the time base of
/// trace spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(now);
    now().duration_since(epoch).as_nanos() as u64
}
