//! The weakly-consistent request-response transport (§4.2-D3).
//!
//! λ-NIC deliberately avoids TCP: serverless RPCs are independent,
//! mutually-exclusive request-response pairs, so the *sender* (gateway or
//! external service) tracks outstanding requests and retransmits on timeout
//! or loss, and duplicate responses are ignored. [`RpcTracker`] implements
//! that sender-side state machine as a plain library type so both the
//! gateway component and tests can drive it deterministically.
//!
//! Retransmission timing is governed by a [`RetryPolicy`]: a fixed
//! timeout for latency-critical in-cluster RPCs, or exponential backoff
//! with seeded jitter and a per-request deadline for paths that must
//! survive worker failures without synchronized retry storms.

use bytes::Bytes;
use lnic_sim::hash::FastMap;
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
}

/// Sender-side record of one in-flight RPC.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outstanding {
    /// The targeted lambda.
    pub workload_id: u32,
    /// Where the request was sent (updated when a retransmission is
    /// redirected to a re-placed worker).
    pub dst: SocketAddr,
    /// Request payload, kept for retransmission.
    pub payload: Bytes,
    /// When the *first* attempt was sent (latency is measured from here).
    pub first_sent_at: SimTime,
    /// Attempts sent so far (1 = original only).
    pub attempts: u32,
}

/// What the caller should do when a retransmission timer fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TimeoutAction {
    /// Resend the recorded payload and arm another timer.
    Resend(Outstanding),
    /// Retry budget (attempts or deadline) exhausted: report failure
    /// upstream.
    GiveUp(Outstanding),
    /// The RPC already completed; ignore the stale timer.
    Ignore,
}

/// Sender-side tracker for the weakly-consistent transport.
///
/// # Examples
///
/// ```
/// use lnic_net::transport::{RpcTracker, TimeoutAction};
/// use lnic_net::addr::{Ipv4Addr, SocketAddr};
/// use lnic_sim::time::{SimDuration, SimTime};
/// use bytes::Bytes;
///
/// let mut t = RpcTracker::new(SimDuration::from_millis(1), 3);
/// let dst = SocketAddr::new(Ipv4Addr::node(2), 9000);
/// let id = t.register(SimTime::ZERO, 7, dst, Bytes::from_static(b"req"));
///
/// // The response arrives before the timer: completion returns the record.
/// let done = t.on_response(id).expect("first response completes the RPC");
/// assert_eq!(done.workload_id, 7);
/// // A duplicate response is ignored.
/// assert!(t.on_response(id).is_none());
/// // The stale timer is ignored too.
/// assert_eq!(t.on_timeout(SimTime::ZERO, id), TimeoutAction::Ignore);
/// ```
#[derive(Debug)]
pub struct RpcTracker {
    policy: RetryPolicy,
    next_id: u64,
    outstanding: FastMap<u64, Outstanding>,
    completed: u64,
    retransmitted: u64,
    failed: u64,
    duplicates: u64,
}

impl RpcTracker {
    /// Creates a tracker with a fixed retransmission `timeout` and a
    /// total attempt budget of `max_attempts` (>= 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(timeout: SimDuration, max_attempts: u32) -> Self {
        RpcTracker::with_policy(RetryPolicy::fixed(timeout, max_attempts))
    }

    /// Creates a tracker governed by `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the policy's `max_attempts` is zero.
    pub fn with_policy(policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "at least one attempt is required");
        RpcTracker {
            policy,
            next_id: 1,
            outstanding: FastMap::default(),
            completed: 0,
            retransmitted: 0,
            failed: 0,
            duplicates: 0,
        }
    }

    /// Offsets the id space: ids issued after this call start at
    /// `base + 1`. Multi-gateway deployments stamp the gateway's index
    /// into the high bits (`(gateway as u64) << 48`) so every request id
    /// on a shared trace stream is attributable to the gateway that
    /// issued it; a base of 0 leaves the id sequence unchanged.
    ///
    /// # Panics
    ///
    /// Panics if ids were already issued (the base must be set before
    /// first use, or attribution would be ambiguous).
    #[must_use]
    pub fn with_id_base(mut self, base: u64) -> Self {
        assert_eq!(
            self.next_id, 1,
            "id base must be set before any id is issued"
        );
        self.next_id = base + 1;
        self
    }

    /// The retransmission policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The in-flight record for `request_id`, if still outstanding.
    pub fn get(&self, request_id: u64) -> Option<&Outstanding> {
        self.outstanding.get(&request_id)
    }

    /// The timer armed after the first send (pre-jitter). Kept for
    /// callers that only need the fixed-policy value.
    pub fn timeout(&self) -> SimDuration {
        self.policy.base_timeout
    }

    /// The timer to arm at `now` for `request_id`'s most recent send,
    /// honoring backoff and jitter. When the policy carries a deadline
    /// the timer is clamped so it never fires past
    /// `first_sent_at + deadline`: a retry is never scheduled beyond the
    /// request's deadline, it gives up at the deadline instant instead.
    /// Falls back to the base timeout for unknown ids (the request may
    /// already have completed).
    pub fn arm_timeout(&self, now: SimTime, request_id: u64, rng: &mut impl Rng) -> SimDuration {
        let rec = self.outstanding.get(&request_id);
        let attempt = rec.map(|rec| rec.attempts).unwrap_or(1);
        let timer = self.policy.arm_timeout(attempt, rng);
        match (rec, self.policy.deadline) {
            (Some(rec), Some(deadline)) => {
                let remaining = (rec.first_sent_at + deadline).saturating_duration_since(now);
                timer.min(remaining)
            }
            _ => timer,
        }
    }

    /// Registers a new RPC and returns its request id.
    pub fn register(
        &mut self,
        now: SimTime,
        workload_id: u32,
        dst: SocketAddr,
        payload: Bytes,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.outstanding.insert(
            id,
            Outstanding {
                workload_id,
                dst,
                payload,
                first_sent_at: now,
                attempts: 1,
            },
        );
        id
    }

    /// Redirects a pending RPC to a new destination, so retransmissions
    /// (and deadline accounting) follow a re-placed worker.
    pub fn redirect(&mut self, request_id: u64, dst: SocketAddr) {
        if let Some(rec) = self.outstanding.get_mut(&request_id) {
            rec.dst = dst;
        }
    }

    /// Retires a pending RPC *without* recording a completion — handoff
    /// semantics: the caller surrenders the in-flight record (e.g. to a
    /// peer adopting the request), but the id sequence and completion
    /// counters are untouched, so ids are never reused and a late reply
    /// for the retired id still counts as a duplicate.
    pub fn abandon(&mut self, request_id: u64) -> Option<Outstanding> {
        self.outstanding.remove(&request_id)
    }

    /// Drops every pending RPC — crash semantics: all in-flight state is
    /// lost, but the id sequence survives so post-restart requests never
    /// collide with pre-crash ones. Returns the abandoned ids, sorted.
    pub fn abandon_all(&mut self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.outstanding.keys().copied().collect();
        ids.sort_unstable();
        self.outstanding.clear();
        ids
    }

    /// Records a response. Returns the completed record for the first
    /// response of each request and `None` for duplicates or unknown ids.
    pub fn on_response(&mut self, request_id: u64) -> Option<Outstanding> {
        match self.outstanding.remove(&request_id) {
            Some(rec) => {
                self.completed += 1;
                Some(rec)
            }
            None => {
                self.duplicates += 1;
                None
            }
        }
    }

    /// Handles a retransmission timer for `request_id` firing at `now`.
    ///
    /// Gives up when the attempt budget is exhausted, the policy
    /// deadline has passed, or the *next* timer would only fire past
    /// the deadline (a retransmission whose follow-up cannot complete
    /// inside the deadline is pure wasted load); otherwise returns the
    /// record to resend with its attempt count already incremented.
    pub fn on_timeout(&mut self, now: SimTime, request_id: u64) -> TimeoutAction {
        let Some(rec) = self.outstanding.get_mut(&request_id) else {
            return TimeoutAction::Ignore;
        };
        let over_deadline = self.policy.deadline.is_some_and(|d| {
            let outstanding_for = now.saturating_duration_since(rec.first_sent_at);
            outstanding_for >= d
                || outstanding_for + self.policy.timeout_for_attempt(rec.attempts + 1) > d
        });
        if over_deadline || retries_exhausted(rec.attempts, self.policy.max_attempts) {
            let rec = self.outstanding.remove(&request_id).expect("checked above");
            self.failed += 1;
            TimeoutAction::GiveUp(rec)
        } else {
            rec.attempts += 1;
            self.retransmitted += 1;
            TimeoutAction::Resend(rec.clone())
        }
    }

    /// Number of RPCs currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Successfully completed RPCs.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Retransmissions sent.
    pub fn retransmitted(&self) -> u64 {
        self.retransmitted
    }

    /// RPCs that exhausted their attempt budget.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Duplicate or unsolicited responses observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dst() -> SocketAddr {
        SocketAddr::new(Ipv4Addr::node(2), 9000)
    }

    fn tracker() -> RpcTracker {
        RpcTracker::new(SimDuration::from_millis(1), 3)
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut t = tracker();
        let a = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let b = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        assert!(b > a);
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    fn id_base_offsets_the_sequence() {
        let base = 3u64 << 48;
        let mut t = tracker().with_id_base(base);
        let a = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let b = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        assert_eq!(a, base + 1);
        assert_eq!(b, base + 2);
        assert_eq!(a >> 48, 3, "gateway index recoverable from the id");
    }

    #[test]
    #[should_panic(expected = "before any id is issued")]
    fn id_base_after_first_issue_panics() {
        let mut t = tracker();
        let _ = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let _ = t.with_id_base(1 << 48);
    }

    #[test]
    fn timeout_resends_until_budget_then_gives_up() {
        let mut t = tracker();
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::from_static(b"p"));

        match t.on_timeout(SimTime::ZERO, id) {
            TimeoutAction::Resend(rec) => assert_eq!(rec.attempts, 2),
            other => panic!("expected resend, got {other:?}"),
        }
        match t.on_timeout(SimTime::ZERO, id) {
            TimeoutAction::Resend(rec) => assert_eq!(rec.attempts, 3),
            other => panic!("expected resend, got {other:?}"),
        }
        match t.on_timeout(SimTime::ZERO, id) {
            TimeoutAction::GiveUp(rec) => {
                assert_eq!(rec.attempts, 3);
                assert_eq!(rec.payload, Bytes::from_static(b"p"));
            }
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(t.failed(), 1);
        assert_eq!(t.retransmitted(), 2);
        assert_eq!(t.in_flight(), 0);
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

        // And the tracker gives up on exactly the max_attempts-th timer.
        let mut t = RpcTracker::new(SimDuration::from_millis(1), 3);
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let mut resends = 0;
        loop {
            match t.on_timeout(SimTime::ZERO, id) {
                TimeoutAction::Resend(_) => resends += 1,
                TimeoutAction::GiveUp(rec) => {
                    assert_eq!(rec.attempts, 3, "gave up at the attempt budget");
                    break;
                }
                TimeoutAction::Ignore => panic!("pending request cannot be ignored"),
            }
        }
        assert_eq!(resends, 2, "attempts=3 means 1 send + 2 resends");
    }

    #[test]
    fn late_response_after_giveup_counts_as_duplicate() {
        let mut t = RpcTracker::new(SimDuration::from_millis(1), 1);
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        assert!(matches!(
            t.on_timeout(SimTime::ZERO, id),
            TimeoutAction::GiveUp(_)
        ));
        assert!(t.on_response(id).is_none());
        assert_eq!(t.duplicates(), 1);
    }

    #[test]
    fn duplicate_response_after_completion_is_counted_not_replayed() {
        let mut t = tracker();
        let id = t.register(SimTime::ZERO, 4, dst(), Bytes::from_static(b"q"));
        assert!(t.on_response(id).is_some());
        // The retransmitted copy's response lands later: ignored.
        assert!(t.on_response(id).is_none());
        assert!(t.on_response(id).is_none());
        assert_eq!(t.completed(), 1);
        assert_eq!(t.duplicates(), 2);
    }

    #[test]
    fn response_then_timeout_is_ignored() {
        let mut t = tracker();
        let id = t.register(SimTime::from_nanos(5), 9, dst(), Bytes::new());
        let rec = t.on_response(id).unwrap();
        assert_eq!(rec.first_sent_at, SimTime::from_nanos(5));
        assert_eq!(
            t.on_timeout(SimTime::from_nanos(5), id),
            TimeoutAction::Ignore
        );
        assert_eq!(t.completed(), 1);
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
        let mut policy = RetryPolicy::fixed(SimDuration::from_millis(1), 100);
        policy.deadline = Some(SimDuration::from_millis(3));
        let mut t = RpcTracker::with_policy(policy);
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        // Timers at 1 ms and 2 ms resend; the 3 ms timer hits the
        // deadline with 97 attempts unspent.
        assert!(matches!(
            t.on_timeout(SimTime::ZERO + SimDuration::from_millis(1), id),
            TimeoutAction::Resend(_)
        ));
        assert!(matches!(
            t.on_timeout(SimTime::ZERO + SimDuration::from_millis(2), id),
            TimeoutAction::Resend(_)
        ));
        match t.on_timeout(SimTime::ZERO + SimDuration::from_millis(3), id) {
            TimeoutAction::GiveUp(rec) => assert_eq!(rec.attempts, 3),
            other => panic!("expected deadline give-up, got {other:?}"),
        }
        assert_eq!(t.failed(), 1);
    }

    #[test]
    fn no_retry_is_scheduled_past_the_deadline() {
        // Boundary case: a retransmission is allowed when its follow-up
        // timer lands *exactly on* the deadline, and refused when it
        // would land one nanosecond past it.
        let mut policy = RetryPolicy::fixed(SimDuration::from_millis(1), 100);
        policy.deadline = Some(SimDuration::from_millis(3));
        let mut t = RpcTracker::with_policy(policy);
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        // Fires at 2 ms: next timer lands exactly at the 3 ms deadline.
        assert!(matches!(
            t.on_timeout(SimTime::ZERO + SimDuration::from_millis(2), id),
            TimeoutAction::Resend(_)
        ));
        // Fires 1 ns later than 2 ms: the next timer would land at
        // 3 ms + 1 ns, past the deadline — give up instead of resending.
        match t.on_timeout(
            SimTime::ZERO + SimDuration::from_millis(2) + SimDuration::from_nanos(1),
            id,
        ) {
            TimeoutAction::GiveUp(rec) => assert_eq!(rec.attempts, 2),
            other => panic!("expected give-up, got {other:?}"),
        }

        // And the armed timer itself is clamped to the deadline: with
        // ±10% jitter a raw timer could overshoot, but the tracker
        // truncates it to the remaining deadline budget.
        let mut policy = RetryPolicy::exponential(SimDuration::from_millis(1), 8);
        policy.deadline = Some(SimDuration::from_micros(1_500));
        let t2 = RpcTracker::with_policy(policy);
        let mut t2 = {
            let mut t2 = t2;
            let _ = t2.register(SimTime::ZERO, 1, dst(), Bytes::new());
            t2
        };
        let id2 = t2.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..64 {
            let timer =
                t2.arm_timeout(SimTime::ZERO + SimDuration::from_micros(600), id2, &mut rng);
            assert!(
                timer <= SimDuration::from_micros(900),
                "timer {timer} fires past the deadline"
            );
        }
    }

    #[test]
    fn redirect_retargets_future_resends() {
        let mut t = tracker();
        let id = t.register(SimTime::ZERO, 1, dst(), Bytes::new());
        let new_dst = SocketAddr::new(Ipv4Addr::node(9), 8000);
        t.redirect(id, new_dst);
        match t.on_timeout(SimTime::ZERO, id) {
            TimeoutAction::Resend(rec) => assert_eq!(rec.dst, new_dst),
            other => panic!("expected resend, got {other:?}"),
        }
        // Redirecting a completed id is a no-op.
        assert!(t.on_response(id).is_some());
        t.redirect(id, dst());
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = RpcTracker::new(SimDuration::ZERO, 0);
    }
}
