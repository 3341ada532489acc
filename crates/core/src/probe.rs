//! Wall-clocking one closure.
//!
//! [`time_secs`] is what the `mlmd-exasim` calibration harness fits its
//! cost terms from: a driver construction, or a whole `Engine::run`
//! divided by its step count.

use std::time::Instant;

/// Wall-clock one closure; returns its value and the elapsed seconds.
pub fn time_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_secs_returns_value_and_duration() {
        let (v, secs) = time_secs(|| 40 + 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
