//! The benchmark's load generator.
//!
//! One in-simulation component issues every request of a run, open-loop
//! (a Poisson process) or closed-loop (clients with exponential think
//! times), to the gateway or the gateway tier's router. It records for
//! each request the simulated instant it was scheduled to be sent, so a
//! sojourn is measured from the schedule: the driver always sends on
//! schedule, so generator lateness is zero by construction. Unlike the
//! library drivers it also sees requests the tier re-routes, whose
//! gateway-side sojourn restarts at every re-submission.

use bytes::Bytes;
use lnic::driver::{JobSpec, StartDriver};
use lnic::gateway::{RequestDone, SubmitRequest};
use lnic_sim::prelude::*;
use rand::Rng;

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Poisson arrivals at `rate_rps`, independent of completions.
    Open {
        /// Mean arrival rate (requests per simulated second).
        rate_rps: f64,
    },
    /// `clients` callers, each sending its next request an exponentially
    /// distributed think time (mean `think`) after the previous reply.
    Closed {
        /// Concurrent callers.
        clients: usize,
        /// Mean think time.
        think: SimDuration,
    },
}

/// The fate of one request, indexed by its token.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// When the request was scheduled to be sent (and was sent).
    pub sent: SimTime,
    /// When the client heard back, if it did.
    pub done: Option<SimTime>,
    /// Gateway-measured wire-to-wire latency of the final attempt.
    pub latency: SimDuration,
    /// The gateway or tier gave up on the request.
    pub failed: bool,
    /// The lambda's return code, when one came back.
    pub return_code: Option<u16>,
}

/// Checks a sampled response against a reference implementation.
pub type Verifier = Box<dyn Fn(u32, &[u8], &[u8]) -> bool + Send>;

/// Every `VERIFY_EVERY`-th request has its response bytes compared with
/// the reference; all of them have their return code checked.
const VERIFY_EVERY: u64 = 16;

#[derive(Debug)]
struct Arrival;

#[derive(Debug)]
struct Think {
    client: usize,
}

/// The load generator component.
pub struct LoadDriver {
    target: ComponentId,
    jobs: Vec<JobSpec>,
    pacing: Pacing,
    budget: u64,
    outcomes: Vec<Outcome>,
    /// Closed loop: which client sent each token.
    client_of: Vec<u32>,
    completed: u64,
    started: Option<SimTime>,
    verifier: Option<Verifier>,
    /// Payloads of in-flight sampled requests, by token.
    sampled: Vec<(u64, u32, Bytes)>,
    verified: u64,
    mismatches: u64,
}

impl LoadDriver {
    /// A driver issuing `budget` requests to `target`, rotating over `jobs`.
    pub fn new(target: ComponentId, jobs: Vec<JobSpec>, pacing: Pacing, budget: u64) -> Self {
        assert!(!jobs.is_empty(), "at least one job");
        LoadDriver {
            target,
            jobs,
            pacing,
            budget,
            outcomes: Vec::with_capacity(budget as usize),
            client_of: Vec::new(),
            completed: 0,
            started: None,
            verifier: None,
            sampled: Vec::new(),
            verified: 0,
            mismatches: 0,
        }
    }

    /// Compares sampled response bytes with `verifier(workload, payload,
    /// response)`.
    pub fn with_verifier(mut self, verifier: Verifier) -> Self {
        self.verifier = Some(verifier);
        self
    }

    /// Per-request outcomes, by token (send order).
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Requests issued.
    pub fn issued(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// When the driver started sending.
    pub fn started(&self) -> Option<SimTime> {
        self.started
    }

    /// Requests answered, successfully or not.
    pub fn answered(&self) -> u64 {
        self.completed
    }

    /// Whether every budgeted request has been issued and answered.
    pub fn is_done(&self) -> bool {
        self.issued() == self.budget && self.completed == self.budget
    }

    /// Sampled responses compared, and how many differed from the
    /// reference.
    pub fn verification(&self) -> (u64, u64) {
        (self.verified, self.mismatches)
    }

    fn send(&mut self, ctx: &mut Ctx<'_>) {
        let token = self.issued();
        let job = &self.jobs[(token % self.jobs.len() as u64) as usize];
        let workload_id = job.workload_id;
        let payload = job.payload.generate(ctx.rng());
        if self.verifier.is_some() && token.is_multiple_of(VERIFY_EVERY) {
            self.sampled.push((token, workload_id, payload.clone()));
        }
        self.outcomes.push(Outcome {
            sent: ctx.now(),
            done: None,
            latency: SimDuration::ZERO,
            failed: false,
            return_code: None,
        });
        let reply_to = ctx.self_id();
        ctx.send(
            self.target,
            SimDuration::ZERO,
            SubmitRequest {
                workload_id,
                payload,
                reply_to,
                token,
            },
        );
    }

    fn next_arrival(&self, ctx: &mut Ctx<'_>, rate_rps: f64) {
        let u: f64 = ctx.rng().gen_range(f64::MIN_POSITIVE..1.0);
        ctx.send_self(SimDuration::from_secs_f64(-u.ln() / rate_rps), Arrival);
    }

    fn think(&self, ctx: &mut Ctx<'_>, client: usize, mean: SimDuration) {
        let u: f64 = ctx.rng().gen_range(f64::MIN_POSITIVE..1.0);
        ctx.send_self(mean.mul_f64(-u.ln()), Think { client });
    }

    fn closed_send(&mut self, ctx: &mut Ctx<'_>, client: usize) {
        if self.issued() < self.budget {
            self.send(ctx);
            self.client_of.push(client as u32);
        }
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_>, done: &RequestDone) {
        let token = done.token;
        let outcome = &mut self.outcomes[token as usize];
        assert!(outcome.done.is_none(), "request {token} completed twice");
        outcome.done = Some(ctx.now());
        outcome.latency = done.latency;
        outcome.failed = done.failed;
        outcome.return_code = done.return_code;
        self.completed += 1;
        if let Some(pos) = self.sampled.iter().position(|s| s.0 == token) {
            let (_, workload_id, payload) = self.sampled.swap_remove(pos);
            if !done.failed {
                let verify = self.verifier.as_ref().expect("sampled implies verifier");
                self.verified += 1;
                if !verify(workload_id, &payload, &done.response) {
                    self.mismatches += 1;
                }
            }
        }
        if let Pacing::Closed { think, .. } = self.pacing {
            let client = self.client_of[token as usize] as usize;
            self.think(ctx, client, think);
        }
    }
}

impl Component for LoadDriver {
    fn name(&self) -> &str {
        "benchmark-driver"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<RequestDone>() {
            Ok(done) => return self.on_done(ctx, &done),
            Err(other) => other,
        };
        if msg.is::<Arrival>() {
            if let Pacing::Open { rate_rps } = self.pacing {
                self.send(ctx);
                if self.issued() < self.budget {
                    self.next_arrival(ctx, rate_rps);
                }
            }
            return;
        }
        let msg = match msg.downcast::<Think>() {
            Ok(t) => return self.closed_send(ctx, t.client),
            Err(other) => other,
        };
        if msg.is::<StartDriver>() {
            self.started = Some(ctx.now());
            match self.pacing {
                Pacing::Open { rate_rps } => {
                    if self.budget > 0 {
                        self.next_arrival(ctx, rate_rps);
                    }
                }
                Pacing::Closed { clients, .. } => {
                    for client in 0..clients {
                        self.closed_send(ctx, client);
                    }
                }
            }
            return;
        }
        panic!("benchmark driver received an unknown message {msg:?}");
    }
}
