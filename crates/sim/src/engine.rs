//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of [`Component`]s and a time-ordered event
//! queue. Each event delivers one [`AnyMessage`] to one component; handling
//! an event may schedule further events. Runs are fully deterministic given
//! the RNG seed: ties in delivery time are broken by scheduling order.
//!
//! The queue is a two-tier [`EventQueue`]: a small binary heap for events
//! due in the current ~1 ms time slice and unsorted per-slice buckets for
//! everything later (mostly retransmission, election and lease timers that
//! will fire as no-ops), so each event sifts only through its near
//! neighbours. Pop order is exactly `(time, origin shard, origin
//! sequence)` either way.
//!
//! # Sharded parallel execution
//!
//! By default a simulation runs as a single serialized event loop. A
//! [`ShardPlan`] partitions the components into *shards* — per-rack or
//! per-worker islands — each with its own event queue, its own send-sequence
//! counter, and its own `SmallRng` stream derived from the master seed.
//! Shards advance together in conservative rounds (classic null-message-free
//! barrier PDES): every round processes the window `[T, T + lookahead)`
//! where `T` is the global minimum next-event time and the lookahead is the
//! minimum cross-shard propagation delay. A message crossing shards is
//! floored to at least one lookahead of delay, so nothing generated inside a
//! window can land inside that same window — shards never observe each
//! other mid-round and no rollback is ever needed.
//!
//! Determinism is a function of the *shard plan*, not the thread count:
//!
//! * Events are ordered by `(time, origin shard, origin sequence)`. With a
//!   single shard this is exactly the legacy `(time, sequence)` order, so an
//!   unsharded run and a one-shard run are bit-identical.
//! * Round inputs are fixed at the barrier and each shard is processed by
//!   exactly one thread, so running the same plan on 1, 2, 4, or 8 threads
//!   yields byte-identical event orders, RNG draws, and trace hashes.
//! * Trace records are buffered per shard and merged once per round in
//!   `(time, shard, emission index)` order before the global sequence stamp
//!   is applied, so every [`crate::trace::TraceSink`] — including the
//!   [`crate::check::InvariantChecker`] — observes one monotone stream and
//!   runs unmodified.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::message::{AnyMessage, Message};
use crate::queue::{EventQueue, Timed};
use crate::time::{SimDuration, SimTime};
use crate::trace::{PendingRecord, TraceEvent, TraceSink, Tracer};

/// Identifies a component registered with a [`Simulation`].
///
/// Ids are dense indices assigned in registration order, so they are stable
/// across runs of the same setup code.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Returns the raw index of this component.
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds an id from a raw index, for tests that fabricate trace
    /// records without a full [`Simulation`]. Real ids come from
    /// [`Simulation::add`].
    #[doc(hidden)]
    pub fn from_index_for_tests(index: usize) -> Self {
        ComponentId(index)
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid#{}", self.0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid#{}", self.0)
    }
}

/// An active entity in the simulation: a NIC, a host, a switch port, a load
/// generator, and so on.
///
/// Components receive messages through [`Component::handle`] and interact
/// with the world exclusively through the passed [`Ctx`]. Components must be
/// `Send` so a [`ShardPlan`] can hand whole shards to worker threads; they
/// are never shared (`Sync` is not required) — exactly one thread touches a
/// shard at any instant.
pub trait Component: Any + Send {
    /// Handles one message delivered at the current virtual time.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage);

    /// A short human-readable name used in traces.
    fn name(&self) -> &str {
        "component"
    }
}

/// One scheduled delivery.
///
/// Orders by `(at, src, seq)`: `src` is the shard that issued the send and
/// `seq` that shard's monotone counter, so keys are unique and the order is
/// independent of queue insertion interleaving. Unsharded simulations stamp
/// `src = 0`, which reduces the key to the legacy `(at, seq)` order.
struct Scheduled {
    at: SimTime,
    src: u32,
    seq: u64,
    dst: ComponentId,
    msg: AnyMessage,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.src == other.src && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.src, self.seq).cmp(&(other.at, other.src, other.seq))
    }
}
impl Timed for Scheduled {
    fn at(&self) -> SimTime {
        self.at
    }
}

/// Where [`Ctx::emit`] records go: straight to the tracer (serialized
/// engine) or into the shard's round buffer (sharded engine), to be merged
/// and sequence-stamped at the round barrier.
enum EmitDest<'a> {
    Tracer(&'a mut Tracer),
    Buffer(&'a mut Vec<PendingRecord>),
}

/// Cross-shard routing state handed to a [`Ctx`] in sharded mode.
struct RouteCtx<'a> {
    shard_of: &'a [u32],
    lookahead: SimDuration,
    outbox: &'a mut Vec<Scheduled>,
}

/// The execution context handed to a component while it handles a message.
///
/// # Examples
///
/// ```
/// use lnic_sim::prelude::*;
///
/// #[derive(Debug)]
/// struct Tick;
///
/// struct Clock {
///     ticks: u32,
/// }
///
/// impl Component for Clock {
///     fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
///         self.ticks += 1;
///         if self.ticks < 3 {
///             ctx.send_self(SimDuration::from_micros(10), Tick);
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(42);
/// let clock = sim.add(Clock { ticks: 0 });
/// sim.post(clock, SimDuration::ZERO, Tick);
/// sim.run();
/// assert_eq!(sim.get::<Clock>(clock).unwrap().ticks, 3);
/// ```
pub struct Ctx<'a> {
    now: SimTime,
    self_id: ComponentId,
    shard: u32,
    queue: &'a mut EventQueue<Scheduled>,
    seq: &'a mut u64,
    rng: &'a mut SmallRng,
    stop: &'a mut bool,
    trace: Option<&'a mut Vec<(SimTime, String)>>,
    emit: Option<EmitDest<'a>>,
    route: Option<RouteCtx<'a>>,
}

impl Ctx<'_> {
    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the id of the component currently handling the message.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Returns the shard executing this component (0 when unsharded).
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// Schedules `msg` for delivery to `dst` after `delay`.
    pub fn send<M: Message>(&mut self, dst: ComponentId, delay: SimDuration, msg: M) {
        self.send_boxed(dst, delay, Box::new(msg));
    }

    /// Schedules an already-boxed message for delivery to `dst` after
    /// `delay`.
    ///
    /// In sharded mode a message bound for another shard is floored to at
    /// least one lookahead of delay — the conservative horizon below which
    /// no cross-shard signal can travel. Intra-shard sends (including all
    /// sends in an unsharded simulation) are delivered verbatim.
    pub fn send_boxed(&mut self, dst: ComponentId, delay: SimDuration, msg: AnyMessage) {
        let seq = *self.seq;
        *self.seq += 1;
        let src = self.shard;
        match self.route.as_mut() {
            None => self.queue.push(Scheduled {
                at: self.now + delay,
                src,
                seq,
                dst,
                msg,
            }),
            Some(route) => {
                let dshard = *route
                    .shard_of
                    .get(dst.0)
                    .unwrap_or_else(|| panic!("message addressed to unknown component {dst}"));
                if dshard == src {
                    self.queue.push(Scheduled {
                        at: self.now + delay,
                        src,
                        seq,
                        dst,
                        msg,
                    });
                } else {
                    let eff = if delay < route.lookahead {
                        route.lookahead
                    } else {
                        delay
                    };
                    route.outbox.push(Scheduled {
                        at: self.now + eff,
                        src,
                        seq,
                        dst,
                        msg,
                    });
                }
            }
        }
    }

    /// Schedules `msg` back to the current component after `delay` (a timer).
    pub fn send_self<M: Message>(&mut self, delay: SimDuration, msg: M) {
        self.send(self.self_id, delay, msg);
    }

    /// Returns the deterministic random number generator for this shard
    /// (the simulation-wide stream when unsharded).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Requests that the run loop stop after the current event. In sharded
    /// mode the calling shard halts its window immediately and the run ends
    /// once the other shards finish the current round.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Records a trace line when tracing is enabled; a no-op otherwise.
    pub fn trace(&mut self, line: impl FnOnce() -> String) {
        let now = self.now;
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.push((now, line()));
        }
    }

    /// Emits a structured [`TraceEvent`] when a tracer is attached; a no-op
    /// otherwise. The closure runs only when at least one sink is listening,
    /// so hot paths pay one branch when tracing is off.
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        let (now, src) = (self.now, self.self_id);
        match self.emit.as_mut() {
            None => {}
            Some(EmitDest::Tracer(tracer)) => tracer.record(now, src, event()),
            Some(EmitDest::Buffer(buf)) => buf.push(PendingRecord {
                at: now,
                src,
                event: event(),
            }),
        }
    }
}

/// A partition of a simulation's components into parallel shards.
///
/// Build the plan after registering every component, assign each component
/// to a shard (unassigned components land on shard 0, the conventional
/// "hub"), and install it with [`Simulation::set_shard_plan`]. The plan
/// freezes when the first event is processed.
///
/// `lookahead` must be a lower bound on the delay of every message that
/// crosses a shard boundary; the engine *enforces* the bound by flooring
/// faster cross-shard sends up to it, so picking the minimum physical
/// propagation delay of any cross-shard link keeps the model exact.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: usize,
    lookahead: SimDuration,
    assignment: Vec<(ComponentId, usize)>,
}

impl ShardPlan {
    /// Creates a plan with `shards` shards and the given conservative
    /// lookahead.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, or when `shards > 1` and the lookahead
    /// is zero (a zero horizon admits no parallelism and would livelock the
    /// round loop).
    pub fn new(shards: usize, lookahead: SimDuration) -> Self {
        assert!(shards > 0, "a shard plan needs at least one shard");
        assert!(
            shards == 1 || !lookahead.is_zero(),
            "multi-shard plans require a positive lookahead"
        );
        ShardPlan {
            shards,
            lookahead,
            assignment: Vec::new(),
        }
    }

    /// Assigns `id` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn assign(&mut self, id: ComponentId, shard: usize) {
        assert!(shard < self.shards, "shard {shard} out of range");
        self.assignment.push((id, shard));
    }

    /// Number of shards in this plan.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The conservative lookahead window.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }
}

/// One shard: an island of components with a private event queue, RNG
/// stream, and send-sequence counter.
struct Shard {
    id: u32,
    /// Sparse, full-length component table: `components[i]` is `Some` iff
    /// component `i` lives on this shard.
    components: Vec<Option<Box<dyn Component>>>,
    queue: EventQueue<Scheduled>,
    rng: SmallRng,
    seq: u64,
    now: SimTime,
    processed: u64,
    stopped: bool,
    outbox: Vec<Scheduled>,
    tbuf: Vec<PendingRecord>,
    lbuf: Vec<(SimTime, String)>,
}

impl Shard {
    /// Processes every event with `at < end` in `(at, src, seq)` order,
    /// including events generated intra-shard inside the window. Cross-shard
    /// sends accumulate in the outbox for the coordinator to route at the
    /// round barrier.
    fn run_window(
        &mut self,
        end: SimTime,
        shard_of: &[u32],
        lookahead: SimDuration,
        trace_on: bool,
        emit_on: bool,
    ) {
        while !self.stopped {
            match self.queue.peek_at() {
                Some(at) if at < end => {}
                _ => break,
            }
            let Some(ev) = self.queue.pop() else {
                break;
            };
            debug_assert!(ev.at >= self.now, "shard event queue went backwards");
            self.now = ev.at;
            self.processed += 1;

            let slot = self
                .components
                .get_mut(ev.dst.0)
                .unwrap_or_else(|| panic!("event addressed to unknown component {}", ev.dst));
            let mut component = slot
                .take()
                .expect("component re-entered during dispatch or routed to the wrong shard");

            let mut stop = false;
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: ev.dst,
                    shard: self.id,
                    queue: &mut self.queue,
                    seq: &mut self.seq,
                    rng: &mut self.rng,
                    stop: &mut stop,
                    trace: trace_on.then_some(&mut self.lbuf),
                    emit: emit_on.then_some(EmitDest::Buffer(&mut self.tbuf)),
                    route: Some(RouteCtx {
                        shard_of,
                        lookahead,
                        outbox: &mut self.outbox,
                    }),
                };
                component.handle(&mut ctx, ev.msg);
            }
            self.components[ev.dst.0] = Some(component);
            if stop {
                self.stopped = true;
            }
        }
    }

    /// Earliest pending event time, as nanoseconds (`u64::MAX` when idle).
    fn next_ns(&self) -> u64 {
        self.queue.peek_at().map_or(u64::MAX, SimTime::as_nanos)
    }
}

/// The frozen sharded state of a [`Simulation`].
struct Sharded {
    lookahead: SimDuration,
    shard_of: Vec<u32>,
    shards: Vec<Shard>,
}

impl Sharded {
    fn min_next(&self) -> Option<SimTime> {
        let ns = self.shards.iter().map(Shard::next_ns).min()?;
        (ns != u64::MAX).then(|| SimTime::from_nanos(ns))
    }
}

/// Outcome of one conservative round.
enum Round {
    /// The round processed a window; more work may remain.
    Ran,
    /// Every shard queue is empty.
    Drained,
    /// The next event lies beyond the caller's deadline.
    Deadline,
    /// A component called [`Ctx::stop`] during the round.
    Stopped,
}

/// Mixes a shard index into the master seed (SplitMix64 increment), so each
/// shard draws from an independent deterministic stream. Shard 0 keeps the
/// master seed verbatim: a one-shard plan reproduces the unsharded RNG
/// stream bit for bit.
fn shard_seed(master: u64, shard: usize) -> u64 {
    master ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Exclusive end of the round window starting at `t`: one lookahead wide
/// (at least 1 ns so zero-lookahead single-shard plans still make
/// progress), clipped so no event beyond `cap` is delivered.
fn window_end(t: SimTime, lookahead: SimDuration, cap: Option<SimTime>) -> SimTime {
    let span = if lookahead.is_zero() {
        SimDuration::from_nanos(1)
    } else {
        lookahead
    };
    let end = t.saturating_add(span);
    match cap {
        Some(d) => end.min(d.saturating_add(SimDuration::from_nanos(1))),
        None => end,
    }
}

/// `done`-flag sentinel published by a worker lane whose round panicked.
const LANE_POISONED: u64 = u64::MAX;

/// Per-worker-lane synchronization block for the parallel round loop.
struct LaneSync {
    /// Round number the lane should execute (coordinator-written).
    epoch: AtomicU64,
    /// Exclusive window end for that round, in nanoseconds.
    end_ns: AtomicU64,
    /// Last round the lane completed, or [`LANE_POISONED`].
    done: AtomicU64,
    /// Earliest pending event across the lane's shards after its round.
    next_ns: AtomicU64,
    /// Latched when any of the lane's shards called [`Ctx::stop`].
    stopped: AtomicBool,
    mail: Mutex<LaneMail>,
    /// Parking lot for the spin-then-park handshake: on oversubscribed
    /// hosts (more lanes than cores) pure spinning burns the very
    /// quantum the other side needs, so both sides fall back to a
    /// condvar after a short spin. The predicate is always the atomic
    /// (`epoch`/`done`), re-checked under `park` before sleeping, and
    /// waits carry a timeout so a missed wakeup can only cost a
    /// millisecond, never liveness.
    park: Mutex<()>,
    /// Worker-side wakeup: a new round was opened, or shutdown.
    work_cv: Condvar,
    /// Coordinator-side wakeup: the lane finished its round.
    done_cv: Condvar,
}

/// The coordinator⇄worker exchange buffer; locked only while the owning
/// side holds the round (never contended).
#[derive(Default)]
struct LaneMail {
    /// Cross-shard events routed *to* this lane's shards.
    inbound: Vec<Scheduled>,
    /// Cross-shard events leaving this lane's shards this round.
    outbox: Vec<Scheduled>,
    /// Shard-buffered structured trace records: `(shard, emission index,
    /// record)`.
    tbuf: Vec<(u32, u32, PendingRecord)>,
    /// Shard-buffered string trace lines.
    lbuf: Vec<(u32, u32, SimTime, String)>,
}

impl LaneSync {
    fn new(next_ns: u64) -> Self {
        LaneSync {
            epoch: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            done: AtomicU64::new(0),
            next_ns: AtomicU64::new(next_ns),
            stopped: AtomicBool::new(false),
            mail: Mutex::new(LaneMail::default()),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Wakes the lane's worker thread (new round opened, or shutdown).
    fn wake_worker(&self) {
        let _g = self.park.lock().unwrap();
        self.work_cv.notify_all();
    }

    /// Wakes the coordinator (the lane published its round results).
    fn wake_coordinator(&self) {
        let _g = self.park.lock().unwrap();
        self.done_cv.notify_all();
    }

    /// Parks on `cv` unless `pred` already holds under the lock. The
    /// 1 ms timeout bounds the cost of any missed wakeup.
    fn park_unless(&self, cv: &Condvar, pred: impl Fn() -> bool) {
        let guard = self.park.lock().unwrap();
        if !pred() {
            let _ = cv
                .wait_timeout(guard, std::time::Duration::from_millis(1))
                .unwrap();
        }
    }
}

/// How long each side spins before parking on the condvar. Spins
/// resolve in nanoseconds when a core is free; parking is the
/// oversubscription path.
const SPIN_LIMIT: u32 = 256;

/// Spin-waits with escalating politeness; returns `false` once the
/// caller should park instead.
fn relax(spins: &mut u32) -> bool {
    *spins += 1;
    if *spins < SPIN_LIMIT {
        std::hint::spin_loop();
        true
    } else if *spins < SPIN_LIMIT + 16 {
        std::thread::yield_now();
        true
    } else {
        *spins = SPIN_LIMIT;
        false
    }
}

/// Body of one worker lane: waits for the coordinator to open a round,
/// drains inbound cross-shard events, runs each owned shard's window, and
/// publishes results. Returns the shards at shutdown.
#[allow(clippy::too_many_arguments)]
fn lane_loop(
    sync: &LaneSync,
    mut shards: Vec<Shard>,
    shard_of: &[u32],
    lookahead: SimDuration,
    trace_on: bool,
    emit_on: bool,
    shutdown: &AtomicBool,
) -> Vec<Shard> {
    let mut epoch = 0u64;
    loop {
        let mut spins = 0u32;
        loop {
            let e = sync.epoch.load(Ordering::Acquire);
            if e != epoch {
                epoch = e;
                break;
            }
            if shutdown.load(Ordering::Acquire) && sync.epoch.load(Ordering::Acquire) == epoch {
                // Deliver any events routed here after our last round so the
                // queues are complete when ownership returns to the
                // coordinator.
                let mut mail = sync.mail.lock().unwrap();
                for ev in mail.inbound.drain(..) {
                    let sid = shard_of[ev.dst.0];
                    shards
                        .iter_mut()
                        .find(|s| s.id == sid)
                        .expect("event routed to a shard outside its lane")
                        .queue
                        .push(ev);
                }
                return shards;
            }
            if !relax(&mut spins) {
                sync.park_unless(&sync.work_cv, || {
                    sync.epoch.load(Ordering::Acquire) != epoch || shutdown.load(Ordering::Acquire)
                });
            }
        }

        let end = SimTime::from_nanos(sync.end_ns.load(Ordering::Acquire));
        let mut mail = sync.mail.lock().unwrap();
        for ev in mail.inbound.drain(..) {
            let sid = shard_of[ev.dst.0];
            shards
                .iter_mut()
                .find(|s| s.id == sid)
                .expect("event routed to a shard outside its lane")
                .queue
                .push(ev);
        }
        for shard in shards.iter_mut() {
            if shard.queue.peek_at().is_some_and(|at| at < end) {
                shard.run_window(end, shard_of, lookahead, trace_on, emit_on);
            }
            mail.outbox.append(&mut shard.outbox);
            let sid = shard.id;
            for (i, rec) in shard.tbuf.drain(..).enumerate() {
                mail.tbuf.push((sid, i as u32, rec));
            }
            for (i, (at, line)) in shard.lbuf.drain(..).enumerate() {
                mail.lbuf.push((sid, i as u32, at, line));
            }
        }
        let next = shards.iter().map(Shard::next_ns).min().unwrap_or(u64::MAX);
        sync.next_ns.store(next, Ordering::Relaxed);
        if shards.iter().any(|s| s.stopped) {
            sync.stopped.store(true, Ordering::Relaxed);
        }
        drop(mail);
        sync.done.store(epoch, Ordering::Release);
        sync.wake_coordinator();
    }
}

/// A deterministic discrete-event simulation.
///
/// See [`Ctx`] for a complete usage example and the module docs for the
/// sharded parallel execution model.
pub struct Simulation {
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    queue: EventQueue<Scheduled>,
    now: SimTime,
    seq: u64,
    seed: u64,
    rng: SmallRng,
    processed: u64,
    trace: Option<Vec<(SimTime, String)>>,
    tracer: Option<Tracer>,
    threads: usize,
    pending_plan: Option<ShardPlan>,
    sharded: Option<Sharded>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("components", &self.names.len())
            .field("pending_events", &self.events_pending())
            .field("processed", &self.processed)
            .field("shards", &self.shard_count())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            components: Vec::new(),
            names: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            processed: 0,
            trace: None,
            tracer: None,
            threads: 1,
            pending_plan: None,
            sharded: None,
        }
    }

    /// Registers a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics once a shard plan has frozen (components must be registered —
    /// and assigned — before the first sharded event is processed).
    pub fn add<C: Component>(&mut self, component: C) -> ComponentId {
        assert!(
            self.sharded.is_none(),
            "components must be registered before the shard plan freezes"
        );
        let id = ComponentId(self.components.len());
        self.names.push(component.name().to_owned());
        self.components.push(Some(Box::new(component)));
        id
    }

    /// Installs a shard plan. The plan freezes — components migrate onto
    /// their shards and the pending queue is distributed — when the first
    /// event is processed.
    ///
    /// # Panics
    ///
    /// Panics when events have already been processed or a plan is already
    /// installed.
    pub fn set_shard_plan(&mut self, plan: ShardPlan) {
        assert!(
            self.processed == 0,
            "a shard plan must be installed before the first event"
        );
        assert!(
            self.pending_plan.is_none() && self.sharded.is_none(),
            "a shard plan is already installed"
        );
        self.pending_plan = Some(plan);
    }

    /// Assigns a late-registered component to a shard of the pending plan.
    ///
    /// # Panics
    ///
    /// Panics when no plan is pending (either none was installed or it has
    /// already frozen) or `shard` is out of range.
    pub fn assign_shard(&mut self, id: ComponentId, shard: usize) {
        let plan = self
            .pending_plan
            .as_mut()
            .expect("assign_shard requires a pending (unfrozen) shard plan");
        plan.assign(id, shard);
    }

    /// Sets the number of OS threads used by sharded runs (ignored by the
    /// serialized engine; values are clamped to at least 1). The thread
    /// count never affects results — only wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Number of OS threads sharded runs will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a shard plan is installed (pending or frozen).
    pub fn is_sharded(&self) -> bool {
        self.pending_plan.is_some() || self.sharded.is_some()
    }

    /// Number of shards (1 for the serialized engine).
    pub fn shard_count(&self) -> usize {
        if let Some(sh) = &self.sharded {
            sh.shards.len()
        } else if let Some(plan) = &self.pending_plan {
            plan.shards
        } else {
            1
        }
    }

    /// The shard a component is assigned to (0 when unsharded).
    pub fn shard_of(&self, id: ComponentId) -> usize {
        if let Some(sh) = &self.sharded {
            sh.shard_of.get(id.0).map_or(0, |&s| s as usize)
        } else if let Some(plan) = &self.pending_plan {
            plan.assignment
                .iter()
                .rev()
                .find(|(c, _)| *c == id)
                .map_or(0, |&(_, s)| s)
        } else {
            0
        }
    }

    /// Enables or disables trace capture (see [`Ctx::trace`]).
    pub fn set_tracing(&mut self, on: bool) {
        if on && self.trace.is_none() {
            self.trace = Some(Vec::new());
        } else if !on {
            self.trace = None;
        }
    }

    /// Returns the captured trace lines, if tracing is enabled.
    pub fn trace_lines(&self) -> &[(SimTime, String)] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Attaches a structured-trace sink; components emit to it through
    /// [`Ctx::emit`]. Multiple sinks may be attached and each sees every
    /// record.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.tracer.get_or_insert_with(Tracer::new).add_sink(sink);
    }

    /// Borrows an attached sink by concrete type, if one is present.
    pub fn trace_sink<S: TraceSink>(&self) -> Option<&S> {
        self.tracer.as_ref()?.sink::<S>()
    }

    /// Mutably borrows an attached sink by concrete type, if one is present.
    pub fn trace_sink_mut<S: TraceSink>(&mut self) -> Option<&mut S> {
        self.tracer.as_mut()?.sink_mut::<S>()
    }

    /// Signals end-of-run to every attached sink (flush files, run final
    /// conservation checks). Idempotent per sink implementation; safe to
    /// call when no tracer is attached.
    pub fn finish_tracing(&mut self) {
        let now = self.now;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.finish(now);
        }
    }

    /// Total structured trace records emitted so far.
    pub fn trace_records(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::emitted)
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Returns the number of events still pending delivery.
    pub fn events_pending(&self) -> usize {
        match &self.sharded {
            Some(sh) => sh.shards.iter().map(|s| s.queue.len()).sum(),
            None => self.queue.len(),
        }
    }

    /// Schedules a message from outside any component (e.g. test or
    /// experiment setup code).
    pub fn post<M: Message>(&mut self, dst: ComponentId, delay: SimDuration, msg: M) {
        self.post_boxed(dst, delay, Box::new(msg));
    }

    /// Schedules an already-boxed message from outside any component.
    pub fn post_boxed(&mut self, dst: ComponentId, delay: SimDuration, msg: AnyMessage) {
        let at = self.now + delay;
        match self.sharded.as_mut() {
            Some(sh) => {
                let sid = *sh
                    .shard_of
                    .get(dst.0)
                    .unwrap_or_else(|| panic!("message posted to unknown component {dst}"));
                let shard = &mut sh.shards[sid as usize];
                let seq = shard.seq;
                shard.seq += 1;
                shard.queue.push(Scheduled {
                    at,
                    src: sid,
                    seq,
                    dst,
                    msg,
                });
            }
            None => {
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Scheduled {
                    at,
                    src: 0,
                    seq,
                    dst,
                    msg,
                });
            }
        }
    }

    /// Borrows a registered component, downcast to its concrete type.
    ///
    /// Returns `None` when `id` is out of range or the type does not match.
    pub fn get<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let slot = match &self.sharded {
            Some(sh) => {
                let sid = *sh.shard_of.get(id.0)?;
                sh.shards[sid as usize].components.get(id.0)?.as_deref()?
            }
            None => self.components.get(id.0)?.as_deref()?,
        };
        (slot as &dyn Any).downcast_ref::<C>()
    }

    /// Mutably borrows a registered component, downcast to its concrete type.
    pub fn get_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        let slot = match &mut self.sharded {
            Some(sh) => {
                let sid = *sh.shard_of.get(id.0)?;
                sh.shards[sid as usize]
                    .components
                    .get_mut(id.0)?
                    .as_deref_mut()?
            }
            None => self.components.get_mut(id.0)?.as_deref_mut()?,
        };
        (slot as &mut dyn Any).downcast_mut::<C>()
    }

    /// Freezes a pending shard plan: moves components onto their shards,
    /// derives per-shard RNG streams from the master seed, and distributes
    /// the pending event queue.
    fn maybe_freeze(&mut self) {
        let Some(plan) = self.pending_plan.take() else {
            return;
        };
        let nshards = plan.shards;
        let mut shard_of = vec![0u32; self.components.len()];
        for (id, shard) in &plan.assignment {
            let slot = shard_of
                .get_mut(id.0)
                .unwrap_or_else(|| panic!("shard plan names unknown component {id}"));
            *slot = *shard as u32;
        }
        let mut shards: Vec<Shard> = (0..nshards)
            .map(|k| Shard {
                id: k as u32,
                components: (0..self.components.len()).map(|_| None).collect(),
                queue: EventQueue::new(),
                rng: SmallRng::seed_from_u64(shard_seed(self.seed, k)),
                // Continue from the pre-freeze counter so keys never collide
                // with already-queued `(src = 0, seq)` events.
                seq: self.seq,
                now: self.now,
                processed: 0,
                stopped: false,
                outbox: Vec::new(),
                tbuf: Vec::new(),
                lbuf: Vec::new(),
            })
            .collect();
        for (idx, slot) in self.components.iter_mut().enumerate() {
            if let Some(component) = slot.take() {
                shards[shard_of[idx] as usize].components[idx] = Some(component);
            }
        }
        for ev in self.queue.drain() {
            let sid = shard_of[ev.dst.0] as usize;
            shards[sid].queue.push(ev);
        }
        self.sharded = Some(Sharded {
            lookahead: plan.lookahead,
            shard_of,
            shards,
        });
    }

    /// Delivers the next pending event, if any. Returns `false` when the
    /// queue is empty.
    ///
    /// With a shard plan installed, one "step" is one conservative round
    /// (a full `[T, T + lookahead)` window across every shard), executed
    /// sequentially.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unknown component (a wiring bug).
    pub fn step(&mut self) -> bool {
        self.maybe_freeze();
        if self.sharded.is_some() {
            matches!(self.round(None), Round::Ran)
        } else {
            self.step_serial()
        }
    }

    /// The serialized (unsharded) engine: pop, dispatch, reinsert.
    fn step_serial(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;

        let slot = self
            .components
            .get_mut(ev.dst.0)
            .unwrap_or_else(|| panic!("event addressed to unknown component {}", ev.dst));
        let mut component = slot.take().expect("component re-entered during dispatch");

        let mut stop = false;
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: ev.dst,
                shard: 0,
                queue: &mut self.queue,
                seq: &mut self.seq,
                rng: &mut self.rng,
                stop: &mut stop,
                trace: self.trace.as_mut(),
                emit: self.tracer.as_mut().map(EmitDest::Tracer),
                route: None,
            };
            component.handle(&mut ctx, ev.msg);
        }
        self.components[ev.dst.0] = Some(component);
        !stop
    }

    /// Executes one conservative round sequentially: picks the global
    /// window, runs every active shard's slice of it, then merges outboxes
    /// and trace buffers at the barrier.
    fn round(&mut self, cap: Option<SimTime>) -> Round {
        let trace_on = self.trace.is_some();
        let emit_on = self.tracer.is_some();
        let sh = self.sharded.as_mut().expect("round requires a shard plan");
        let lookahead = sh.lookahead;
        let Some(t) = sh.min_next() else {
            return Round::Drained;
        };
        if let Some(d) = cap {
            if t > d {
                return Round::Deadline;
            }
        }
        let end = window_end(t, lookahead, cap);
        let shard_of = std::mem::take(&mut sh.shard_of);
        for shard in sh.shards.iter_mut() {
            shard.stopped = false;
            if shard.queue.peek_at().is_some_and(|at| at < end) {
                shard.run_window(end, &shard_of, lookahead, trace_on, emit_on);
            }
        }
        // Barrier: route cross-shard events. Arrivals below the window end
        // would mean a shard already ran past them — the exact causality
        // violation the lookahead floor makes impossible.
        let mut moved: Vec<Scheduled> = Vec::new();
        for shard in sh.shards.iter_mut() {
            moved.append(&mut shard.outbox);
        }
        for ev in moved {
            assert!(
                ev.at >= end,
                "conservative sync violated: cross-shard event at {} inside window ending {}",
                ev.at,
                end
            );
            let sid = shard_of[ev.dst.0] as usize;
            sh.shards[sid].queue.push(ev);
        }
        // Merge shard-buffered trace output in (at, shard, index) order.
        let mut tbuf: Vec<(u32, u32, PendingRecord)> = Vec::new();
        let mut lbuf: Vec<(u32, u32, SimTime, String)> = Vec::new();
        for shard in sh.shards.iter_mut() {
            let sid = shard.id;
            for (i, rec) in shard.tbuf.drain(..).enumerate() {
                tbuf.push((sid, i as u32, rec));
            }
            for (i, (at, line)) in shard.lbuf.drain(..).enumerate() {
                lbuf.push((sid, i as u32, at, line));
            }
        }
        sh.shard_of = shard_of;
        self.processed = sh.shards.iter().map(|s| s.processed).sum();
        let max_now = sh.shards.iter().map(|s| s.now).max().unwrap_or(self.now);
        let stopped = sh.shards.iter().any(|s| s.stopped);
        if max_now > self.now {
            self.now = max_now;
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record_merged(tbuf);
        }
        if let Some(lines) = self.trace.as_mut() {
            lbuf.sort_by_key(|&(sid, idx, at, _)| (at, sid, idx));
            lines.extend(lbuf.into_iter().map(|(_, _, at, line)| (at, line)));
        }
        if stopped {
            Round::Stopped
        } else {
            Round::Ran
        }
    }

    /// Runs conservative rounds on a pool of worker lanes until the queues
    /// drain, a shard stops the run, or the next window would start past
    /// `cap`. Shard → lane assignment is round-robin by shard id; results
    /// are identical to [`Simulation::round`] by construction.
    fn run_rounds_parallel(&mut self, cap: Option<SimTime>) {
        let trace_on = self.trace.is_some();
        let emit_on = self.tracer.is_some();
        let mut sharded = self.sharded.take().expect("parallel run requires shards");
        let lookahead = sharded.lookahead;
        let shard_of = std::mem::take(&mut sharded.shard_of);
        let nlanes = self.threads.min(sharded.shards.len()).max(1);

        // Partition shards across lanes; lane 0 is the coordinator itself.
        let mut lane_shards: Vec<Vec<Shard>> = (0..nlanes).map(|_| Vec::new()).collect();
        let mut lane_of_shard: Vec<usize> = Vec::with_capacity(sharded.shards.len());
        for (i, shard) in sharded.shards.drain(..).enumerate() {
            lane_of_shard.push(i % nlanes);
            lane_shards[i % nlanes].push(shard);
        }
        let mut lane_next: Vec<u64> = lane_shards
            .iter()
            .map(|shards| shards.iter().map(Shard::next_ns).min().unwrap_or(u64::MAX))
            .collect();
        let mut own = lane_shards.remove(0);
        for shard in own.iter_mut() {
            shard.stopped = false;
        }
        for shard in lane_shards.iter_mut().flatten() {
            shard.stopped = false;
        }

        let lanes: Vec<LaneSync> = lane_next[1..]
            .iter()
            .map(|&next| LaneSync::new(next))
            .collect();
        let shutdown = AtomicBool::new(false);
        let so: &[u32] = &shard_of;
        let lanes_ref: &[LaneSync] = &lanes;
        let shutdown_ref = &shutdown;

        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes_ref
                .iter()
                .zip(lane_shards)
                .map(|(sync, shards)| {
                    scope.spawn(move || {
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            lane_loop(sync, shards, so, lookahead, trace_on, emit_on, shutdown_ref)
                        }));
                        match out {
                            Ok(shards) => shards,
                            Err(payload) => {
                                sync.done.store(LANE_POISONED, Ordering::Release);
                                std::panic::resume_unwind(payload);
                            }
                        }
                    })
                })
                .collect();

            let tracer = self.tracer.as_mut();
            let lines = self.trace.as_mut();
            let mut tracer = tracer;
            let mut lines = lines;
            let mut epoch = 0u64;
            let mut stopped = false;
            loop {
                let t_ns = lane_next.iter().copied().min().unwrap_or(u64::MAX);
                if t_ns == u64::MAX || stopped {
                    break;
                }
                let t = SimTime::from_nanos(t_ns);
                if let Some(d) = cap {
                    if t > d {
                        break;
                    }
                }
                let end = window_end(t, lookahead, cap);
                let end_ns = end.as_nanos();
                epoch += 1;
                let mut active: Vec<usize> = Vec::new();
                for (w, sync) in lanes_ref.iter().enumerate() {
                    if lane_next[w + 1] < end_ns {
                        sync.end_ns.store(end_ns, Ordering::Relaxed);
                        sync.epoch.store(epoch, Ordering::Release);
                        sync.wake_worker();
                        active.push(w);
                    }
                }

                let mut round_out: Vec<Scheduled> = Vec::new();
                let mut tbuf: Vec<(u32, u32, PendingRecord)> = Vec::new();
                let mut lbuf: Vec<(u32, u32, SimTime, String)> = Vec::new();
                if lane_next[0] < end_ns {
                    for shard in own.iter_mut() {
                        if shard.queue.peek_at().is_some_and(|at| at < end) {
                            shard.run_window(end, so, lookahead, trace_on, emit_on);
                        }
                        round_out.append(&mut shard.outbox);
                        let sid = shard.id;
                        for (i, rec) in shard.tbuf.drain(..).enumerate() {
                            tbuf.push((sid, i as u32, rec));
                        }
                        for (i, (at, line)) in shard.lbuf.drain(..).enumerate() {
                            lbuf.push((sid, i as u32, at, line));
                        }
                        if shard.stopped {
                            stopped = true;
                            shard.stopped = false;
                        }
                    }
                    lane_next[0] = own.iter().map(Shard::next_ns).min().unwrap_or(u64::MAX);
                }

                let mut poisoned = false;
                for &w in &active {
                    let sync = &lanes_ref[w];
                    let mut spins = 0u32;
                    loop {
                        let d = sync.done.load(Ordering::Acquire);
                        if d == epoch {
                            break;
                        }
                        if d == LANE_POISONED {
                            poisoned = true;
                            break;
                        }
                        if !relax(&mut spins) {
                            sync.park_unless(&sync.done_cv, || {
                                sync.done.load(Ordering::Acquire) >= epoch
                            });
                        }
                    }
                    if poisoned {
                        break;
                    }
                    let mut mail = sync.mail.lock().unwrap();
                    round_out.append(&mut mail.outbox);
                    tbuf.append(&mut mail.tbuf);
                    lbuf.append(&mut mail.lbuf);
                    drop(mail);
                    lane_next[w + 1] = sync.next_ns.load(Ordering::Relaxed);
                    if sync.stopped.swap(false, Ordering::Relaxed) {
                        stopped = true;
                    }
                }
                if poisoned {
                    shutdown.store(true, Ordering::Release);
                    for sync in lanes_ref {
                        sync.wake_worker();
                    }
                    panic!("a simulation worker lane panicked; original panic above");
                }

                for ev in round_out {
                    assert!(
                        ev.at >= end,
                        "conservative sync violated: cross-shard event at {} inside window \
                         ending {}",
                        ev.at,
                        end
                    );
                    let sid = shard_of[ev.dst.0] as usize;
                    let lane = lane_of_shard[sid];
                    let at_ns = ev.at.as_nanos();
                    if lane == 0 {
                        own.iter_mut()
                            .find(|s| s.id as usize == sid)
                            .expect("event routed to a shard outside its lane")
                            .queue
                            .push(ev);
                    } else {
                        lanes_ref[lane - 1].mail.lock().unwrap().inbound.push(ev);
                    }
                    if at_ns < lane_next[lane] {
                        lane_next[lane] = at_ns;
                    }
                }
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.record_merged(tbuf);
                }
                if let Some(lines) = lines.as_deref_mut() {
                    lbuf.sort_by_key(|&(sid, idx, at, _)| (at, sid, idx));
                    lines.extend(lbuf.into_iter().map(|(_, _, at, line)| (at, line)));
                }
            }

            shutdown.store(true, Ordering::Release);
            for sync in lanes_ref {
                sync.wake_worker();
            }
            let mut shards: Vec<Shard> = own;
            for handle in handles {
                match handle.join() {
                    Ok(lane) => shards.extend(lane),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            shards.sort_by_key(|s| s.id);
            sharded.shards = shards;
        });

        self.processed = sharded.shards.iter().map(|s| s.processed).sum();
        let max_now = sharded
            .shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(self.now);
        if max_now > self.now {
            self.now = max_now;
        }
        sharded.shard_of = shard_of;
        self.sharded = Some(sharded);
    }

    /// Runs sharded rounds to completion under `cap`, choosing the parallel
    /// executor when more than one thread and shard are available.
    fn run_rounds(&mut self, cap: Option<SimTime>) {
        let multi = self.threads > 1 && self.sharded.as_ref().is_some_and(|sh| sh.shards.len() > 1);
        if multi {
            self.run_rounds_parallel(cap);
        } else {
            while matches!(self.round(cap), Round::Ran) {}
        }
    }

    /// Runs until the event queue drains or a component calls [`Ctx::stop`].
    pub fn run(&mut self) {
        self.maybe_freeze();
        if self.sharded.is_some() {
            self.run_rounds(None);
        } else {
            while self.step_serial() {}
        }
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` are delivered), the queue drains, or a component stops the
    /// run.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.maybe_freeze();
        if self.sharded.is_some() {
            self.run_rounds(Some(deadline));
        } else {
            while let Some(at) = self.queue.peek_at() {
                if at > deadline {
                    break;
                }
                if !self.step_serial() {
                    return;
                }
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Runs until the queue drains, panicking after `limit` events as a
    /// guard against livelock in tests. Sharded simulations execute rounds
    /// sequentially here so the limit is checked at round granularity.
    ///
    /// # Panics
    ///
    /// Panics when more than `limit` events are processed.
    pub fn run_with_limit(&mut self, limit: u64) {
        self.maybe_freeze();
        let start = self.processed;
        if self.sharded.is_some() {
            while matches!(self.round(None), Round::Ran) {
                assert!(
                    self.processed - start <= limit,
                    "simulation exceeded {limit} events; possible livelock"
                );
            }
        } else {
            while self.step_serial() {
                assert!(
                    self.processed - start <= limit,
                    "simulation exceeded {limit} events; possible livelock"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Ping(u32);

    /// Forwards each `Ping` to a peer after a fixed delay, recording arrival
    /// times.
    struct Relay {
        peer: Option<ComponentId>,
        delay: SimDuration,
        seen: Vec<(SimTime, u32)>,
    }

    impl Component for Relay {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let ping = msg.downcast::<Ping>().expect("relay only accepts Ping");
            self.seen.push((ctx.now(), ping.0));
            if let Some(peer) = self.peer {
                if ping.0 > 0 {
                    ctx.send(peer, self.delay, Ping(ping.0 - 1));
                }
            }
        }
    }

    fn relay(delay_ns: u64) -> Relay {
        Relay {
            peer: None,
            delay: SimDuration::from_nanos(delay_ns),
            seen: Vec::new(),
        }
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Simulation::new(1);
        let a = sim.add(relay(10));
        let b = sim.add(relay(5));
        sim.get_mut::<Relay>(a).unwrap().peer = Some(b);
        sim.get_mut::<Relay>(b).unwrap().peer = Some(a);

        sim.post(a, SimDuration::ZERO, Ping(4));
        sim.run();

        // a sees 4 (t=0) then 2 (t=15); b sees 3 (t=10) then 1 (t=25).
        let a_seen = &sim.get::<Relay>(a).unwrap().seen;
        let b_seen = &sim.get::<Relay>(b).unwrap().seen;
        assert_eq!(
            a_seen,
            &vec![
                (SimTime::from_nanos(0), 4),
                (SimTime::from_nanos(15), 2),
                (SimTime::from_nanos(30), 0)
            ]
        );
        assert_eq!(
            b_seen,
            &vec![(SimTime::from_nanos(10), 3), (SimTime::from_nanos(25), 1)]
        );
        assert_eq!(sim.now(), SimTime::from_nanos(30));
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        struct Collector {
            order: Vec<u32>,
        }
        impl Component for Collector {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
                self.order.push(msg.downcast::<Ping>().unwrap().0);
            }
        }
        let mut sim = Simulation::new(7);
        let c = sim.add(Collector { order: Vec::new() });
        for i in 0..10 {
            sim.post(c, SimDuration::from_nanos(100), Ping(i));
        }
        sim.run();
        assert_eq!(
            sim.get::<Collector>(c).unwrap().order,
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(1);
        let a = sim.add(relay(1_000));
        let b = sim.add(relay(1_000));
        sim.get_mut::<Relay>(a).unwrap().peer = Some(b);
        sim.get_mut::<Relay>(b).unwrap().peer = Some(a);
        sim.post(a, SimDuration::ZERO, Ping(100));

        sim.run_until(SimTime::from_nanos(3_500));
        assert_eq!(sim.now(), SimTime::from_nanos(3_500));
        // Events at t=0,1000,2000,3000 delivered; rest pending.
        assert_eq!(sim.events_processed(), 4);
        assert!(sim.events_pending() > 0);

        // Idle run_until advances the clock even with a far deadline.
        let mut idle = Simulation::new(1);
        idle.run_until(SimTime::from_nanos(42));
        assert_eq!(idle.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn stop_halts_the_run() {
        struct Stopper;
        impl Component for Stopper {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(1);
        let s = sim.add(Stopper);
        sim.post(s, SimDuration::ZERO, Ping(0));
        sim.post(s, SimDuration::from_nanos(5), Ping(1));
        sim.run();
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        fn run_once(seed: u64) -> Vec<(SimTime, u32)> {
            use rand::Rng;
            struct Jitter {
                seen: Vec<(SimTime, u32)>,
            }
            impl Component for Jitter {
                fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
                    let p = msg.downcast::<Ping>().unwrap();
                    self.seen.push((ctx.now(), p.0));
                    if p.0 > 0 {
                        let jitter = ctx.rng().gen_range(1..100);
                        ctx.send_self(SimDuration::from_nanos(jitter), Ping(p.0 - 1));
                    }
                }
            }
            let mut sim = Simulation::new(seed);
            let j = sim.add(Jitter { seen: Vec::new() });
            sim.post(j, SimDuration::ZERO, Ping(20));
            sim.run();
            sim.get::<Jitter>(j).unwrap().seen.clone()
        }
        assert_eq!(run_once(99), run_once(99));
        assert_ne!(run_once(99), run_once(100));
    }

    #[test]
    fn get_rejects_wrong_type() {
        let mut sim = Simulation::new(1);
        let a = sim.add(relay(1));
        struct Other;
        impl Component for Other {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: AnyMessage) {}
        }
        assert!(sim.get::<Relay>(a).is_some());
        assert!(sim.get::<Other>(a).is_none());
    }

    #[test]
    fn tracing_captures_lines() {
        struct Tracer;
        impl Component for Tracer {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                ctx.trace(|| "handled".to_owned());
            }
        }
        let mut sim = Simulation::new(1);
        sim.set_tracing(true);
        let t = sim.add(Tracer);
        sim.post(t, SimDuration::from_nanos(3), Ping(0));
        sim.run();
        assert_eq!(
            sim.trace_lines(),
            &[(SimTime::from_nanos(3), "handled".to_owned())]
        );
    }

    #[test]
    fn run_with_limit_panics_on_livelock() {
        struct Loop;
        impl Component for Loop {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                ctx.send_self(SimDuration::from_nanos(1), Ping(0));
            }
        }
        let mut sim = Simulation::new(1);
        let l = sim.add(Loop);
        sim.post(l, SimDuration::ZERO, Ping(0));
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run_with_limit(1_000)));
        assert!(result.is_err());
    }

    // ------------------------------------------------------------------
    // Sharded engine tests.
    // ------------------------------------------------------------------

    use rand::Rng;

    /// A relay that also draws RNG jitter, exercising per-shard streams.
    struct JitterRelay {
        peer: Option<ComponentId>,
        delay: SimDuration,
        hops: u32,
        seen: Vec<(SimTime, u32, u64)>,
    }

    impl Component for JitterRelay {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let ping = msg.downcast::<Ping>().unwrap();
            let draw = ctx.rng().gen_range(0..1_000_000u64);
            self.seen.push((ctx.now(), ping.0, draw));
            self.hops += 1;
            if let Some(peer) = self.peer {
                if ping.0 > 0 {
                    ctx.send(peer, self.delay, Ping(ping.0 - 1));
                }
            }
        }
    }

    /// Builds a ring of `n` jitter relays, one per shard, with `delay_ns`
    /// hop latency, and runs `rounds` pings around the ring.
    fn ring_trace(seed: u64, n: usize, delay_ns: u64, threads: usize, shards: usize) -> String {
        let mut sim = Simulation::new(seed);
        let ids: Vec<ComponentId> = (0..n)
            .map(|_| {
                sim.add(JitterRelay {
                    peer: None,
                    delay: SimDuration::from_nanos(delay_ns),
                    hops: 0,
                    seen: Vec::new(),
                })
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            sim.get_mut::<JitterRelay>(id).unwrap().peer = Some(ids[(i + 1) % n]);
        }
        let mut plan = ShardPlan::new(shards, SimDuration::from_nanos(delay_ns));
        for (i, &id) in ids.iter().enumerate() {
            plan.assign(id, i % shards);
        }
        sim.set_shard_plan(plan);
        sim.set_threads(threads);
        for (i, &id) in ids.iter().enumerate() {
            sim.post(id, SimDuration::from_nanos(i as u64), Ping(200));
        }
        sim.run();
        let mut out = String::new();
        for &id in &ids {
            let r = sim.get::<JitterRelay>(id).unwrap();
            out.push_str(&format!("{:?}\n", r.seen));
        }
        out.push_str(&format!(
            "processed={} now={}",
            sim.events_processed(),
            sim.now()
        ));
        out
    }

    #[test]
    fn one_shard_plan_matches_unsharded_run() {
        // The same workload, unsharded vs a one-shard plan: identical event
        // order, RNG draws, clock, and counts.
        fn workload(plan: bool, threads: usize) -> String {
            let mut sim = Simulation::new(42);
            let a = sim.add(JitterRelay {
                peer: None,
                delay: SimDuration::from_nanos(7),
                hops: 0,
                seen: Vec::new(),
            });
            let b = sim.add(JitterRelay {
                peer: Some(a),
                delay: SimDuration::from_nanos(3),
                hops: 0,
                seen: Vec::new(),
            });
            sim.get_mut::<JitterRelay>(a).unwrap().peer = Some(b);
            if plan {
                sim.set_shard_plan(ShardPlan::new(1, SimDuration::ZERO));
                sim.set_threads(threads);
            }
            sim.post(a, SimDuration::ZERO, Ping(50));
            sim.run();
            format!(
                "{:?} {:?} {} {}",
                sim.get::<JitterRelay>(a).unwrap().seen,
                sim.get::<JitterRelay>(b).unwrap().seen,
                sim.events_processed(),
                sim.now()
            )
        }
        let serial = workload(false, 1);
        assert_eq!(serial, workload(true, 1));
        assert_eq!(serial, workload(true, 4));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let reference = ring_trace(7, 6, 40, 1, 3);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                reference,
                ring_trace(7, 6, 40, threads, 3),
                "divergence at {threads} threads"
            );
        }
        // Repeated runs at the same thread count are also identical.
        assert_eq!(ring_trace(7, 6, 40, 4, 3), ring_trace(7, 6, 40, 4, 3));
    }

    #[test]
    fn cross_shard_sends_are_floored_to_lookahead() {
        struct Echo {
            got: Vec<SimTime>,
        }
        impl Component for Echo {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                self.got.push(ctx.now());
            }
        }
        struct Sender {
            peer: ComponentId,
        }
        impl Component for Sender {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                // Zero-delay cross-shard send: must arrive one lookahead out.
                ctx.send(self.peer, SimDuration::ZERO, Ping(0));
            }
        }
        let mut sim = Simulation::new(1);
        let echo = sim.add(Echo { got: Vec::new() });
        let sender = sim.add(Sender { peer: echo });
        let mut plan = ShardPlan::new(2, SimDuration::from_nanos(100));
        plan.assign(sender, 0);
        plan.assign(echo, 1);
        sim.set_shard_plan(plan);
        sim.post(sender, SimDuration::from_nanos(10), Ping(0));
        sim.run();
        assert_eq!(
            sim.get::<Echo>(echo).unwrap().got,
            vec![SimTime::from_nanos(110)]
        );
    }

    #[test]
    fn sharded_stop_ends_run_at_round_boundary() {
        struct Stopper;
        impl Component for Stopper {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                ctx.stop();
            }
        }
        let mut sim = Simulation::new(1);
        let s = sim.add(Stopper);
        sim.set_shard_plan(ShardPlan::new(1, SimDuration::ZERO));
        sim.post(s, SimDuration::ZERO, Ping(0));
        sim.post(s, SimDuration::from_nanos(5), Ping(1));
        sim.run();
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.events_pending(), 1);
    }

    #[test]
    fn sharded_run_until_caps_the_window() {
        let mut sim = Simulation::new(1);
        let a = sim.add(relay(1_000));
        let b = sim.add(relay(1_000));
        sim.get_mut::<Relay>(a).unwrap().peer = Some(b);
        sim.get_mut::<Relay>(b).unwrap().peer = Some(a);
        let mut plan = ShardPlan::new(2, SimDuration::from_nanos(500));
        plan.assign(a, 0);
        plan.assign(b, 1);
        sim.set_shard_plan(plan);
        sim.post(a, SimDuration::ZERO, Ping(100));

        // Rounds advance in 500 ns windows; the deadline must still stop
        // delivery at exactly 3.5 µs and advance the clock there.
        sim.run_until(SimTime::from_nanos(3_500));
        assert_eq!(sim.now(), SimTime::from_nanos(3_500));
        assert_eq!(sim.events_processed(), 4);
        assert!(sim.events_pending() > 0);
    }

    #[test]
    fn sharded_trace_lines_merge_in_time_order() {
        struct Talker {
            tag: &'static str,
        }
        impl Component for Talker {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                let tag = self.tag;
                ctx.trace(|| tag.to_owned());
            }
        }
        let mut sim = Simulation::new(1);
        sim.set_tracing(true);
        let a = sim.add(Talker { tag: "a" });
        let b = sim.add(Talker { tag: "b" });
        let mut plan = ShardPlan::new(2, SimDuration::from_nanos(50));
        plan.assign(a, 0);
        plan.assign(b, 1);
        sim.set_shard_plan(plan);
        // b fires before a within one window; merge must order by time.
        sim.post(a, SimDuration::from_nanos(30), Ping(0));
        sim.post(b, SimDuration::from_nanos(10), Ping(0));
        sim.run();
        assert_eq!(
            sim.trace_lines(),
            &[
                (SimTime::from_nanos(10), "b".to_owned()),
                (SimTime::from_nanos(30), "a".to_owned())
            ]
        );
    }

    #[test]
    fn per_shard_rng_streams_are_independent_of_foreign_draws() {
        // Shard 1's draws must not shift when shard 0 draws more: streams
        // are per-shard, not interleaved through a global RNG.
        fn shard1_draws(extra_shard0_events: u32) -> Vec<u64> {
            struct Drawer {
                draws: Vec<u64>,
            }
            impl Component for Drawer {
                fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                    self.draws.push(ctx.rng().gen_range(0..1_000_000u64));
                }
            }
            let mut sim = Simulation::new(5);
            let d0 = sim.add(Drawer { draws: Vec::new() });
            let d1 = sim.add(Drawer { draws: Vec::new() });
            let mut plan = ShardPlan::new(2, SimDuration::from_nanos(10));
            plan.assign(d0, 0);
            plan.assign(d1, 1);
            sim.set_shard_plan(plan);
            for i in 0..extra_shard0_events {
                sim.post(d0, SimDuration::from_nanos(i as u64), Ping(0));
            }
            for i in 0..4 {
                sim.post(d1, SimDuration::from_nanos(i), Ping(0));
            }
            sim.run();
            sim.get::<Drawer>(d1).unwrap().draws.clone()
        }
        assert_eq!(shard1_draws(1), shard1_draws(9));
    }
}
