//! Gateway admission control: per-workload token buckets plus a global
//! concurrency cap.
//!
//! Under overload the best place to reject a request is the earliest
//! one: before it occupies the proxy, the wire, or a worker queue. The
//! gateway consults an [`Admission`] gate on every submit and sheds with
//! a typed `Overloaded` reply (`RC_OVERLOADED`) instead of letting the
//! request join a queue it can only time out of. Deadline-aware shedding
//! (rejecting requests whose deadline would expire before the proxy
//! backlog drains) stays in the gateway, which owns the backlog clock.

use lnic_sim::hash::FastMap;
use lnic_sim::time::SimTime;

/// A token bucket refilled continuously at `rate_per_sec`, holding at
/// most `burst` tokens. Admitting a request costs one token.
///
/// Over any window `w` starting from a full bucket, the number of admits
/// is bounded by `rate_per_sec * w + burst` — the classic arrival-curve
/// guarantee (property-tested below).
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(rate_per_sec > 0.0, "token rate must be positive");
        assert!(burst >= 1.0, "burst must admit at least one request");
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// Refills for the time elapsed since the last call, then tries to
    /// take one token. `now` must not move backwards (sim time never
    /// does).
    pub fn try_take(&mut self, now: SimTime) -> bool {
        let elapsed = (now - self.last).as_nanos() as f64 / 1e9;
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Admission-control configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionParams {
    /// Sustained per-workload admit rate (requests/s). `0.0` disables
    /// rate limiting.
    pub rate_per_sec: f64,
    /// Token-bucket depth (burst size), in requests.
    pub burst: f64,
    /// Global cap on requests in flight through the gateway. `0`
    /// disables the cap.
    pub max_in_flight: usize,
}

impl Default for AdmissionParams {
    fn default() -> Self {
        AdmissionParams {
            rate_per_sec: 0.0,
            burst: 32.0,
            max_in_flight: 0,
        }
    }
}

/// The admission gate: one token bucket per workload plus a global
/// concurrency check. Rejection reasons are the stable strings used in
/// `TraceEvent::AdmissionReject` ("rate" / "concurrency").
#[derive(Debug)]
pub struct Admission {
    params: AdmissionParams,
    buckets: FastMap<u32, TokenBucket>,
    admitted: u64,
    rejected: u64,
}

impl Admission {
    /// Creates the gate.
    pub fn new(params: AdmissionParams) -> Self {
        Admission {
            params,
            buckets: FastMap::default(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Decides whether to admit one request for `workload_id` given
    /// `in_flight` requests currently outstanding through the gateway.
    /// Returns `Err(reason)` on rejection.
    pub fn check(
        &mut self,
        now: SimTime,
        workload_id: u32,
        in_flight: usize,
    ) -> Result<(), &'static str> {
        if self.params.max_in_flight > 0 && in_flight >= self.params.max_in_flight {
            self.rejected += 1;
            return Err("concurrency");
        }
        if self.params.rate_per_sec > 0.0 {
            let bucket = self
                .buckets
                .entry(workload_id)
                .or_insert_with(|| TokenBucket::new(self.params.rate_per_sec, self.params.burst));
            if !bucket.try_take(now) {
                self.rejected += 1;
                return Err("rate");
            }
        }
        self.admitted += 1;
        Ok(())
    }

    /// Re-targets the per-workload rate limit, e.g. when the tier
    /// controller rebalances a global budget across the surviving
    /// shards. Existing buckets are dropped so the new slice takes
    /// effect immediately; each rebalance therefore refills at most one
    /// fresh burst per workload, which bounds the transient over-admit
    /// to `rebalances * burst` per workload.
    pub fn set_rate(&mut self, rate_per_sec: f64, burst: f64) {
        self.params.rate_per_sec = rate_per_sec;
        self.params.burst = burst;
        self.buckets.clear();
    }

    /// The sustained per-workload admit rate currently in force.
    pub fn rate_per_sec(&self) -> f64 {
        self.params.rate_per_sec
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnic_sim::time::SimDuration;
    use proptest::prelude::*;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn bucket_admits_burst_then_refills_at_rate() {
        // 1000 rps, burst 4: four immediate admits, then one per ms.
        let mut b = TokenBucket::new(1000.0, 4.0);
        for _ in 0..4 {
            assert!(b.try_take(SimTime::ZERO));
        }
        assert!(!b.try_take(SimTime::ZERO));
        assert!(!b.try_take(at(500)));
        assert!(b.try_take(at(1_100)));
        assert!(!b.try_take(at(1_200)));
    }

    #[test]
    fn refill_boundary_is_exact() {
        // 2 rps, burst 1: one token every 500 ms — a duration whose
        // seconds value (0.5) is exactly representable in f64, so the
        // boundary admit/reject flip is bit-exact, not approximate.
        let mut b = TokenBucket::new(2.0, 1.0);
        assert!(b.try_take(SimTime::ZERO), "bucket starts full");
        assert!(
            !b.try_take(SimTime::ZERO + SimDuration::from_nanos(499_999_999)),
            "one nanosecond before the refill boundary must reject"
        );
        assert!(
            b.try_take(SimTime::ZERO + SimDuration::from_millis(500)),
            "exactly at the refill boundary the token is whole"
        );
        assert!(
            !b.try_take(SimTime::ZERO + SimDuration::from_millis(500)),
            "the boundary token spends once"
        );
    }

    #[test]
    fn fractional_refills_accumulate_exactly() {
        // 4 rps probed every 125 ms: each probe refills exactly 0.5
        // tokens (0.125 and 0.5 are exact in binary), so the admit
        // lands on the second probe with no floating-point drift.
        let mut b = TokenBucket::new(4.0, 1.0);
        assert!(b.try_take(SimTime::ZERO));
        assert!(!b.try_take(SimTime::ZERO + SimDuration::from_millis(125)));
        assert_eq!(b.tokens(), 0.5, "partial refill must be exact");
        assert!(b.try_take(SimTime::ZERO + SimDuration::from_millis(250)));
        assert_eq!(b.tokens(), 0.0, "the spend consumes the whole token");
    }

    #[test]
    fn refill_clamps_at_burst_after_long_idle() {
        let mut b = TokenBucket::new(1000.0, 4.0);
        // Hours of idle time must not bank more than `burst` tokens.
        let later = SimTime::ZERO + SimDuration::from_secs(3600);
        assert!(b.try_take(later));
        assert_eq!(b.tokens(), 3.0, "idle refill clamps at burst");
        for _ in 0..3 {
            assert!(b.try_take(later));
        }
        assert!(!b.try_take(later), "burst is a hard ceiling");
    }

    #[test]
    fn zero_elapsed_calls_do_not_refill() {
        let mut b = TokenBucket::new(1_000_000.0, 2.0);
        let now = SimTime::ZERO + SimDuration::from_millis(1);
        assert!(b.try_take(now));
        assert!(b.try_take(now));
        // Same timestamp again: elapsed is zero, no token materializes
        // no matter how high the rate is.
        assert!(!b.try_take(now), "same-instant retry must not refill");
    }

    #[test]
    fn concurrency_cap_rejects_at_limit() {
        let mut a = Admission::new(AdmissionParams {
            rate_per_sec: 0.0,
            burst: 1.0,
            max_in_flight: 8,
        });
        assert!(a.check(SimTime::ZERO, 1, 7).is_ok());
        assert_eq!(a.check(SimTime::ZERO, 1, 8), Err("concurrency"));
        assert_eq!(a.check(SimTime::ZERO, 1, 100), Err("concurrency"));
        assert_eq!(a.admitted(), 1);
        assert_eq!(a.rejected(), 2);
    }

    #[test]
    fn buckets_are_per_workload() {
        let mut a = Admission::new(AdmissionParams {
            rate_per_sec: 1000.0,
            burst: 1.0,
            max_in_flight: 0,
        });
        assert!(a.check(SimTime::ZERO, 1, 0).is_ok());
        assert_eq!(a.check(SimTime::ZERO, 1, 0), Err("rate"));
        // A different workload has its own bucket.
        assert!(a.check(SimTime::ZERO, 2, 0).is_ok());
    }

    #[test]
    fn set_rate_applies_immediately_and_resets_buckets() {
        let mut a = Admission::new(AdmissionParams {
            rate_per_sec: 1000.0,
            burst: 1.0,
            max_in_flight: 0,
        });
        assert!(a.check(SimTime::ZERO, 1, 0).is_ok());
        assert_eq!(a.check(SimTime::ZERO, 1, 0), Err("rate"));
        // Rebalance to a wider slice: the fresh bucket admits a new
        // burst at once, then enforces the new rate.
        a.set_rate(2000.0, 2.0);
        assert_eq!(a.rate_per_sec(), 2000.0);
        assert!(a.check(SimTime::ZERO, 1, 0).is_ok());
        assert!(a.check(SimTime::ZERO, 1, 0).is_ok());
        assert_eq!(a.check(SimTime::ZERO, 1, 0), Err("rate"));
        // Rebalance to zero disables rate limiting entirely.
        a.set_rate(0.0, 1.0);
        assert!(a.check(SimTime::ZERO, 1, 0).is_ok());
    }

    proptest! {
        /// Over any observation window starting from a full bucket, the
        /// admitted count never exceeds `rate * window + burst`, no
        /// matter how the arrivals are spaced.
        #[test]
        fn bucket_never_admits_above_rate_times_window_plus_burst(
            rate in 1.0f64..100_000.0,
            burst in 1.0f64..64.0,
            gaps_us in proptest::collection::vec(0u64..10_000, 1..200),
        ) {
            let mut bucket = TokenBucket::new(rate, burst);
            let mut now_us = 0u64;
            let mut admitted = 0u64;
            for gap in &gaps_us {
                now_us += gap;
                if bucket.try_take(at(now_us)) {
                    admitted += 1;
                }
            }
            let window_s = now_us as f64 / 1e6;
            let bound = rate * window_s + burst;
            // Allow one request of slack for floating-point refill error.
            prop_assert!(
                (admitted as f64) <= bound + 1.0,
                "admitted {} > bound {} (rate {}, burst {}, window {}s)",
                admitted, bound, rate, burst, window_s
            );
        }
    }
}
