//! Client-side retry policy: capped, jittered exponential backoff.
//!
//! Both clients ([`crate::client::Client`] over the wire protocol and
//! [`crate::http::HttpClient`]) retry *transient* failures — a shed
//! job (`busy` frame / HTTP 429), a cancelled run (HTTP 503), a dropped
//! connection — under one policy. Retrying is safe because a job
//! response is a pure function of its spec (the byte-identity
//! contract): a resubmission can only return the same bytes.
//!
//! The backoff schedule is `min(cap, base * 2^attempt)`, scaled by a
//! jitter factor in `[0.5, 1.0)` derived deterministically from the
//! policy seed and the attempt number — so a fleet of clients with
//! distinct seeds de-synchronizes (no thundering herd), while a test
//! replaying one seed sees one schedule. When the server supplied a
//! `Retry-After` hint, the sleep is at least that long: the hint
//! already accounts for queue depth and observed service time.

use std::time::Duration;

use crate::job::JobError;

/// What one attempt of a retried call came to. Each surface classifies
/// its own failures; [`RetryPolicy::run`] owns the loop.
pub(crate) enum Attempt<T> {
    /// Final: a result, or an error a resubmission would repeat.
    Done(Result<T, JobError>),
    /// A transient failure, retried after the backoff — at least the
    /// server's hint (milliseconds) when it sent one.
    Retry(JobError, Option<u64>),
}

/// A capped, jittered exponential backoff schedule for client retries.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try once, never retry).
    pub max_retries: u32,
    /// Backoff before the first retry (pre-jitter).
    pub base: Duration,
    /// Upper bound on any single backoff sleep (pre-hint).
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and the default schedule:
    /// 50 ms base doubling up to a 5 s cap, seed 0.
    pub fn new(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
            seed: 0,
        }
    }

    /// The sleep before retry number `attempt` (0-based), given the
    /// server's `Retry-After` hint (milliseconds) when one was sent.
    pub fn backoff(&self, attempt: u32, server_hint_ms: Option<u64>) -> Duration {
        // min(cap, base << attempt), saturating: attempt 60+ must not
        // overflow, it just pins to the cap.
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.cap);
        // Jitter in [0.5, 1.0): half the schedule is always honored,
        // the rest is spread so concurrent clients de-synchronize.
        let h = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let jitter = 0.5 + (h >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        let jittered = exp.mul_f64(jitter);
        match server_hint_ms {
            Some(ms) => jittered.max(Duration::from_millis(ms)),
            None => jittered,
        }
    }
}

impl RetryPolicy {
    /// Calls `attempt` until it is done, sleeping the backoff between
    /// transient failures; after `max_retries` retries the last
    /// transient error is returned.
    pub(crate) fn run<T>(&self, mut attempt: impl FnMut() -> Attempt<T>) -> Result<T, JobError> {
        let mut retries = 0u32;
        loop {
            match attempt() {
                Attempt::Done(result) => return result,
                Attempt::Retry(e, _) if retries >= self.max_retries => return Err(e),
                Attempt::Retry(_, hint) => std::thread::sleep(self.backoff(retries, hint)),
            }
            retries += 1;
        }
    }
}

/// SplitMix64 finalizer — the same mixer the fault injector uses for
/// its per-site decision stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_stays_deterministic() {
        let p = RetryPolicy::new(8);
        // Deterministic: same (seed, attempt) -> same sleep.
        assert_eq!(p.backoff(3, None), p.backoff(3, None));
        // Jitter keeps every sleep within [half, full] of the schedule.
        for attempt in 0..10 {
            let exp = p
                .base
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(p.cap);
            let b = p.backoff(attempt, None);
            assert!(b >= exp / 2 && b <= exp, "attempt {attempt}: {b:?}");
        }
        // Deep attempts pin to the cap instead of overflowing.
        assert!(p.backoff(200, None) <= p.cap);
        // Distinct seeds de-synchronize.
        let q = RetryPolicy {
            seed: 1,
            ..p.clone()
        };
        assert_ne!(p.backoff(2, None), q.backoff(2, None));
    }

    #[test]
    fn server_hint_is_a_floor() {
        let p = RetryPolicy::new(3);
        assert!(p.backoff(0, Some(2_000)) >= Duration::from_secs(2));
        // A tiny hint never shrinks the schedule.
        assert!(p.backoff(0, Some(1)) >= p.base / 2);
    }
}
