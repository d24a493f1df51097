//! The weakly-consistent request-response transport (§4.2-D3).
//!
//! λ-NIC deliberately avoids TCP: serverless RPCs are independent,
//! mutually-exclusive request-response pairs, so the *sender* (gateway or
//! external service) tracks outstanding requests and retransmits on timeout
//! or loss, and duplicate responses are ignored. The gateway keeps that
//! sender-side state in one in-flight record per request.
//!
//! Retransmission timing and the give-up rule are governed by a
//! [`RetryPolicy`]: a fixed timeout for latency-critical in-cluster RPCs,
//! or exponential backoff with seeded jitter and a per-request deadline
//! for paths that must survive worker failures without synchronized
//! retry storms. The policy's decisions are pure functions of the clock
//! and the request's first-send instant and attempt count.

use lnic_sim::time::{SimDuration, SimTime};
use rand::Rng;

use crate::addr::{MacAddr, SocketAddr};

/// Control message: repoint one entry of a worker's service table.
///
/// Worker-side lambda RPCs resolve their target through a local service
/// table on *every* attempt, so retransmissions follow this update
/// instead of hammering an endpoint the failover controller has already
/// evicted. Both worker backends (SmartNIC and host) handle the same
/// message, which is why it lives in the shared transport layer rather
/// than either backend crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateService {
    /// The logical service id being re-pointed.
    pub service: u16,
    /// L2 address of the new serving node.
    pub mac: MacAddr,
    /// UDP endpoint of the new serving node.
    pub addr: SocketAddr,
}

/// Returns whether a sender that has already transmitted `attempts_sent`
/// copies of a request has exhausted a total budget of `max_attempts`.
///
/// The budget counts *total* attempts, so `max_attempts = 3` means one
/// original send plus two retransmissions; the third timer fires into
/// give-up. Every retry loop in the workspace (gateway, NIC lambda RPCs,
/// host lambda RPCs) shares this helper so the off-by-one semantics
/// cannot drift between backends.
#[inline]
pub fn retries_exhausted(attempts_sent: u32, max_attempts: u32) -> bool {
    attempts_sent >= max_attempts
}

/// When to retransmit and when to give up.
///
/// `timeout_for_attempt(n)` is the timer armed after the `n`-th send
/// (1-based): `base_timeout * multiplier^(n-1)`, capped at
/// `max_timeout`. When `jitter_frac > 0` each armed timer is scaled by a
/// uniform factor in `[1 - jitter_frac, 1 + jitter_frac]` drawn from the
/// caller's seeded RNG, de-synchronizing retry storms without breaking
/// determinism. An optional `deadline` bounds the whole request: once it
/// has been outstanding that long, the next timer gives up regardless of
/// remaining attempts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Timer after the first send.
    pub base_timeout: SimDuration,
    /// Upper bound on any single timer.
    pub max_timeout: SimDuration,
    /// Growth factor per retransmission (1.0 = fixed timeout).
    pub multiplier: f64,
    /// Uniform jitter fraction applied to each armed timer (0 = none).
    pub jitter_frac: f64,
    /// Total attempt budget (>= 1), original send included.
    pub max_attempts: u32,
    /// Give up once a request has been outstanding this long.
    pub deadline: Option<SimDuration>,
}

impl RetryPolicy {
    /// The legacy fixed-timeout policy: every timer is `timeout`, no
    /// jitter, no deadline.
    pub fn fixed(timeout: SimDuration, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        RetryPolicy {
            base_timeout: timeout,
            max_timeout: timeout,
            multiplier: 1.0,
            jitter_frac: 0.0,
            max_attempts,
            deadline: None,
        }
    }

    /// Exponential backoff: timers double per retransmission from
    /// `base_timeout` up to `16 * base_timeout`, with ±10% seeded jitter
    /// and a deadline equal to twice the sum of the un-jittered timers.
    pub fn exponential(base_timeout: SimDuration, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        let mut policy = RetryPolicy {
            base_timeout,
            max_timeout: base_timeout * 16,
            multiplier: 2.0,
            jitter_frac: 0.1,
            max_attempts,
            deadline: None,
        };
        let budget: SimDuration = (1..=max_attempts)
            .map(|n| policy.timeout_for_attempt(n))
            .sum();
        policy.deadline = Some(budget * 2);
        policy
    }

    /// The deterministic (pre-jitter) timer armed after the `attempt`-th
    /// send, 1-based.
    pub fn timeout_for_attempt(&self, attempt: u32) -> SimDuration {
        let growth = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        self.base_timeout.mul_f64(growth).min(self.max_timeout)
    }

    /// The timer to arm after the `attempt`-th send, with jitter drawn
    /// from `rng` when the policy uses any.
    ///
    /// A policy with `jitter_frac == 0` never touches the RNG, so fixed
    /// policies leave the caller's random stream untouched.
    pub fn arm_timeout(&self, attempt: u32, rng: &mut impl Rng) -> SimDuration {
        let base = self.timeout_for_attempt(attempt);
        if self.jitter_frac <= 0.0 {
            return base;
        }
        let scale = 1.0 + rng.gen_range(-self.jitter_frac..=self.jitter_frac);
        base.mul_f64(scale.max(0.0))
    }

    /// The timer to arm at `now` after the `attempts`-th send of a
    /// request first sent at `first_sent_at`: [`Self::arm_timeout`],
    /// clamped when the policy carries a deadline so it never fires past
    /// `first_sent_at + deadline`. A retry is never scheduled beyond the
    /// request's deadline; the request gives up at the deadline instant
    /// instead.
    pub fn retry_timer(
        &self,
        now: SimTime,
        first_sent_at: SimTime,
        attempts: u32,
        rng: &mut impl Rng,
    ) -> SimDuration {
        let timer = self.arm_timeout(attempts, rng);
        match self.deadline {
            Some(d) => timer.min((first_sent_at + d).saturating_duration_since(now)),
            None => timer,
        }
    }

    /// Whether a request first sent at `first_sent_at`, with `attempts`
    /// copies sent so far, gives up when its timer fires at `now`
    /// instead of resending: the attempt budget is spent, the deadline
    /// has passed, or the next timer would only fire past the deadline
    /// (a retransmission whose follow-up cannot complete inside the
    /// deadline is pure wasted load).
    pub fn gives_up(&self, now: SimTime, first_sent_at: SimTime, attempts: u32) -> bool {
        let over_deadline = self.deadline.is_some_and(|d| {
            let outstanding_for = now.saturating_duration_since(first_sent_at);
            outstanding_for >= d || outstanding_for + self.timeout_for_attempt(attempts + 1) > d
        });
        over_deadline || retries_exhausted(attempts, self.max_attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    #[test]
    fn timeout_resends_until_budget_then_gives_up() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(1), 3);
        // Timers after the first and second sends resend; the third
        // gives up with the budget spent.
        assert!(!p.gives_up(SimTime::ZERO, SimTime::ZERO, 1));
        assert!(!p.gives_up(SimTime::ZERO, SimTime::ZERO, 2));
        assert!(p.gives_up(SimTime::ZERO, SimTime::ZERO, 3));
    }

    #[test]
    fn attempts_budget_means_one_send_plus_n_minus_one_resends() {
        // The shared helper pins the semantics every retry loop relies
        // on: a budget of 3 is 1 original + 2 retransmissions.
        assert!(!retries_exhausted(1, 3));
        assert!(!retries_exhausted(2, 3));
        assert!(retries_exhausted(3, 3));
        assert!(retries_exhausted(4, 3));
        // A budget of 1 permits no retransmission at all.
        assert!(retries_exhausted(1, 1));

        // And the policy gives up on exactly the max_attempts-th timer.
        let p = RetryPolicy::fixed(SimDuration::from_millis(1), 3);
        let mut attempts = 1;
        while !p.gives_up(SimTime::ZERO, SimTime::ZERO, attempts) {
            attempts += 1;
        }
        assert_eq!(attempts, 3, "attempts=3 means 1 send + 2 resends");
    }

    #[test]
    fn exponential_backoff_grows_then_caps() {
        let p = RetryPolicy::exponential(SimDuration::from_millis(1), 8);
        let seq: Vec<u64> = (1..=8)
            .map(|n| p.timeout_for_attempt(n).as_nanos())
            .collect();
        // Doubles each attempt: 1, 2, 4, 8, 16, then capped at 16 ms.
        assert_eq!(seq[0], 1_000_000);
        assert_eq!(seq[1], 2_000_000);
        assert_eq!(seq[4], 16_000_000);
        assert_eq!(seq[5], 16_000_000, "capped at max_timeout");
        for w in seq.windows(2) {
            assert!(w[0] <= w[1], "pre-jitter backoff is monotone");
        }
    }

    #[test]
    fn jittered_backoff_stays_near_schedule_and_is_seed_deterministic() {
        let p = RetryPolicy::exponential(SimDuration::from_millis(1), 5);
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        for attempt in 1..=5 {
            let a = p.arm_timeout(attempt, &mut rng_a);
            let b = p.arm_timeout(attempt, &mut rng_b);
            assert_eq!(a, b, "same seed, same jitter");
            let base = p.timeout_for_attempt(attempt).as_nanos() as f64;
            let got = a.as_nanos() as f64;
            assert!(
                (got - base).abs() <= base * p.jitter_frac + 1.0,
                "attempt {attempt}: {got} vs base {base}"
            );
        }
        // Jitter never turns backoff decreasing by more than the jitter
        // band: the *floor* of attempt n+1 clears the *ceiling* of
        // attempt n whenever the schedule doubles below the cap.
        let floor2 = p.timeout_for_attempt(2).mul_f64(1.0 - p.jitter_frac);
        let ceil1 = p.timeout_for_attempt(1).mul_f64(1.0 + p.jitter_frac);
        assert!(floor2 > ceil1);
    }

    #[test]
    fn fixed_policy_never_draws_from_the_rng() {
        let p = RetryPolicy::fixed(SimDuration::from_millis(2), 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut witness = SmallRng::seed_from_u64(3);
        for attempt in 1..=3 {
            assert_eq!(
                p.arm_timeout(attempt, &mut rng),
                SimDuration::from_millis(2)
            );
            assert_eq!(
                p.retry_timer(SimTime::ZERO, SimTime::ZERO, attempt, &mut rng),
                SimDuration::from_millis(2)
            );
        }
        use rand::Rng as _;
        assert_eq!(
            rng.gen_range(0..u64::MAX),
            witness.gen_range(0..u64::MAX),
            "rng stream untouched by fixed policy"
        );
    }

    #[test]
    fn deadline_gives_up_even_with_attempts_remaining() {
        let mut p = RetryPolicy::fixed(SimDuration::from_millis(1), 100);
        p.deadline = Some(SimDuration::from_millis(3));
        // Timers at 1 ms and 2 ms resend; the 3 ms timer hits the
        // deadline with 97 attempts unspent.
        assert!(!p.gives_up(ms(1), SimTime::ZERO, 1));
        assert!(!p.gives_up(ms(2), SimTime::ZERO, 2));
        assert!(p.gives_up(ms(3), SimTime::ZERO, 3));
        // The deadline runs from the first send, not from time zero.
        assert!(!p.gives_up(ms(3), ms(1), 3));
    }

    #[test]
    fn no_retry_is_scheduled_past_the_deadline() {
        // Boundary case: a retransmission is allowed when its follow-up
        // timer lands *exactly on* the deadline, and refused when it
        // would land one nanosecond past it.
        let mut p = RetryPolicy::fixed(SimDuration::from_millis(1), 100);
        p.deadline = Some(SimDuration::from_millis(3));
        assert!(!p.gives_up(ms(2), SimTime::ZERO, 1));
        assert!(p.gives_up(ms(2) + SimDuration::from_nanos(1), SimTime::ZERO, 2));

        // And the armed timer itself is clamped to the deadline: with
        // ±10% jitter a raw timer could overshoot, but it is truncated
        // to the remaining deadline budget.
        let mut p = RetryPolicy::exponential(SimDuration::from_millis(1), 8);
        p.deadline = Some(SimDuration::from_micros(1_500));
        let now = SimTime::ZERO + SimDuration::from_micros(600);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..64 {
            let timer = p.retry_timer(now, SimTime::ZERO, 1, &mut rng);
            assert!(
                timer <= SimDuration::from_micros(900),
                "timer {timer} fires past the deadline"
            );
        }
        // Past the deadline the timer fires at once.
        assert_eq!(
            p.retry_timer(ms(2), SimTime::ZERO, 1, &mut rng),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RetryPolicy::fixed(SimDuration::ZERO, 0);
    }
}
