//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns a set of [`Component`]s and a time-ordered event
//! queue. Each event delivers one [`AnyMessage`] to one component; handling
//! an event may schedule further events.
//!
//! The queue is a two-tier [`EventQueue`]: a small binary heap for events
//! due in the current ~1 ms time slice and unsorted per-slice buckets for
//! everything later (mostly retransmission, election and lease timers), so
//! each event sifts only through its near neighbours. Pop order is exactly
//! `(time, sequence)` either way. A timer armed with [`Ctx::send_timer`]
//! can be withdrawn with [`Ctx::cancel`] once it is settled; a withdrawn
//! timer is never delivered, in whichever tier it waits.
//!
//! # Determinism
//!
//! One event loop on one thread delivers every event in `(time, sequence)`
//! order, where the sequence is a simulation-wide counter stamped at send
//! time, so ties in delivery time break in scheduling order. Every random
//! draw comes from one `SmallRng` seeded by [`Simulation::new`], and trace
//! records are sequence-stamped in emission order. The same seed and the
//! same setup therefore give the same run: the same event order, RNG
//! draws, clock and trace hash.

use std::any::Any;
use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::message::{AnyMessage, Message};
use crate::queue::{EventQueue, Timed};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceSink, Tracer};

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
/// with the world exclusively through the passed [`Ctx`].
pub trait Component: Any {
    /// Handles one message delivered at the current virtual time.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage);

    /// A short human-readable name used in traces.
    fn name(&self) -> &str {
        "component"
    }
}

/// One scheduled delivery.
///
/// Orders by `(at, seq)`: `seq` is the simulation's monotone send counter,
/// so keys are unique and the order is independent of queue insertion
/// interleaving.
struct Scheduled {
    at: SimTime,
    seq: u64,
    dst: ComponentId,
    /// The sending component, or [`NO_SENDER`] for [`Simulation::post`].
    src: ComponentId,
    msg: AnyMessage,
}

/// The sender recorded for events posted from outside any component.
const NO_SENDER: ComponentId = ComponentId(usize::MAX);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl Timed for Scheduled {
    fn at(&self) -> SimTime {
        self.at
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// Names a timer armed with [`Ctx::send_timer`], for [`Ctx::cancel`].
///
/// Neither `Copy` nor `Clone`: cancelling consumes it, so a timer cannot
/// be cancelled twice.
#[derive(Debug, PartialEq, Eq)]
pub struct TimerId {
    at: SimTime,
    seq: u64,
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
    event_seq: u64,
    self_id: ComponentId,
    sender: ComponentId,
    queue: &'a mut EventQueue<Scheduled>,
    seq: &'a mut u64,
    rng: &'a mut SmallRng,
    stop: &'a mut bool,
    tracer: Option<&'a mut Tracer>,
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

    /// Returns the component that sent the message being handled: the
    /// one whose handler scheduled it, or `None` when it was posted with
    /// [`Simulation::post`].
    pub fn sender(&self) -> Option<ComponentId> {
        (self.sender != NO_SENDER).then_some(self.sender)
    }

    /// Returns the sequence number of the event being handled. Events at
    /// one instant are delivered in sequence order.
    pub fn event_seq(&self) -> u64 {
        self.event_seq
    }

    /// Returns the sequence number the next send will take. A component
    /// that keeps a pending instant to itself instead of scheduling it
    /// records this number, and treats the instant as passed once the
    /// clock is beyond it, or at it with [`Self::event_seq`] at least
    /// this number: exactly when the event would have been delivered.
    pub fn next_seq(&self) -> u64 {
        *self.seq
    }

    /// Schedules `msg` for delivery to `dst` after `delay`.
    pub fn send<M: Message>(&mut self, dst: ComponentId, delay: SimDuration, msg: M) {
        self.send_boxed(dst, delay, Box::new(msg));
    }

    /// Schedules an already-boxed message for delivery to `dst` after
    /// `delay`.
    pub fn send_boxed(&mut self, dst: ComponentId, delay: SimDuration, msg: AnyMessage) {
        let seq = *self.seq;
        *self.seq += 1;
        self.queue.push(Scheduled {
            at: self.now + delay,
            seq,
            dst,
            src: self.self_id,
            msg,
        });
    }

    /// Schedules `msg` back to the current component after `delay` (a timer).
    pub fn send_self<M: Message>(&mut self, delay: SimDuration, msg: M) {
        self.send(self.self_id, delay, msg);
    }

    /// Schedules `msg` back to the current component after `delay`, like
    /// [`Self::send_self`], and returns a [`TimerId`] that can cancel it.
    pub fn send_timer<M: Message>(&mut self, delay: SimDuration, msg: M) -> TimerId {
        let id = TimerId {
            at: self.now + delay,
            seq: *self.seq,
        };
        self.send_self(delay, msg);
        id
    }

    /// Withdraws a timer armed with [`Self::send_timer`] and reports
    /// whether it did. Every timer still pending is withdrawn: it is
    /// never delivered and not counted in
    /// [`Simulation::events_processed`]. A timer already delivered,
    /// including the one being handled, is refused.
    pub fn cancel(&mut self, timer: TimerId) -> bool {
        self.queue.cancel(timer.at, timer.seq)
    }

    /// Returns the simulation's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Requests that the run loop stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Emits a structured [`TraceEvent`] when a tracer is attached; a no-op
    /// otherwise. The closure runs only when at least one sink is listening,
    /// so hot paths pay one branch when tracing is off.
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.record(self.now, self.self_id, event());
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// See [`Ctx`] for a complete usage example and the module docs for the
/// determinism guarantee.
pub struct Simulation {
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    queue: EventQueue<Scheduled>,
    now: SimTime,
    seq: u64,
    rng: SmallRng,
    processed: u64,
    tracer: Option<Tracer>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("components", &self.names.len())
            .field("pending_events", &self.events_pending())
            .field("processed", &self.processed)
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
            rng: SmallRng::seed_from_u64(seed),
            processed: 0,
            tracer: None,
        }
    }

    /// Registers a component and returns its id.
    pub fn add<C: Component>(&mut self, component: C) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.names.push(component.name().to_owned());
        self.components.push(Some(Box::new(component)));
        id
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

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Returns the number of events still pending delivery; cancelled
    /// timers are not counted.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a message from outside any component (e.g. test or
    /// experiment setup code).
    pub fn post<M: Message>(&mut self, dst: ComponentId, delay: SimDuration, msg: M) {
        self.post_boxed(dst, delay, Box::new(msg));
    }

    /// Schedules an already-boxed message from outside any component.
    pub fn post_boxed(&mut self, dst: ComponentId, delay: SimDuration, msg: AnyMessage) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at: self.now + delay,
            seq,
            dst,
            src: NO_SENDER,
            msg,
        });
    }

    /// Borrows a registered component, downcast to its concrete type.
    ///
    /// Returns `None` when `id` is out of range or the type does not match.
    pub fn get<C: Component>(&self, id: ComponentId) -> Option<&C> {
        let slot = self.components.get(id.0)?.as_deref()?;
        (slot as &dyn Any).downcast_ref::<C>()
    }

    /// Mutably borrows a registered component, downcast to its concrete type.
    pub fn get_mut<C: Component>(&mut self, id: ComponentId) -> Option<&mut C> {
        let slot = self.components.get_mut(id.0)?.as_deref_mut()?;
        (slot as &mut dyn Any).downcast_mut::<C>()
    }

    /// Delivers the next pending event, if any: pop, dispatch, reinsert the
    /// component. Returns `false` when the queue is empty or the handler
    /// called [`Ctx::stop`].
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unknown component (a wiring bug).
    pub fn step(&mut self) -> bool {
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
                event_seq: ev.seq,
                self_id: ev.dst,
                sender: ev.src,
                queue: &mut self.queue,
                seq: &mut self.seq,
                rng: &mut self.rng,
                stop: &mut stop,
                tracer: self.tracer.as_mut(),
            };
            component.handle(&mut ctx, ev.msg);
        }
        self.components[ev.dst.0] = Some(component);
        !stop
    }

    /// Runs until the event queue drains or a component calls [`Ctx::stop`].
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` are delivered), the queue drains, or a component stops the
    /// run.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            if !self.step() {
                return;
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
    /// guard against livelock in tests.
    ///
    /// # Panics
    ///
    /// Panics when more than `limit` events are processed.
    pub fn run_with_limit(&mut self, limit: u64) {
        let start = self.processed;
        while self.step() {
            assert!(
                self.processed - start <= limit,
                "simulation exceeded {limit} events; possible livelock"
            );
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
    fn sender_names_the_scheduling_component_and_none_for_posts() {
        struct Echo {
            peer: Option<ComponentId>,
            senders: Vec<Option<ComponentId>>,
        }
        impl Component for Echo {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                self.senders.push(ctx.sender());
                if let Some(peer) = self.peer.take() {
                    ctx.send(peer, SimDuration::from_nanos(1), Ping(0));
                    ctx.send_self(SimDuration::from_nanos(2), Ping(0));
                }
            }
        }
        let mut sim = Simulation::new(1);
        let b = sim.add(Echo {
            peer: None,
            senders: Vec::new(),
        });
        let a = sim.add(Echo {
            peer: Some(b),
            senders: Vec::new(),
        });
        sim.post(a, SimDuration::ZERO, Ping(0));
        sim.run();
        assert_eq!(sim.get::<Echo>(a).unwrap().senders, vec![None, Some(a)]);
        assert_eq!(sim.get::<Echo>(b).unwrap().senders, vec![Some(a)]);
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
    fn a_cancelled_far_timer_is_never_delivered_or_counted() {
        /// Arms a far timer, a near one and a third on `Ping(0)`, cancels
        /// the first two on `Ping(1)` a microsecond later, and the third
        /// while it is being delivered.
        struct Arming {
            far: Option<TimerId>,
            near: Option<TimerId>,
            own: Option<TimerId>,
            cancelled: Vec<bool>,
            seen: Vec<(SimTime, u32)>,
        }
        impl Component for Arming {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
                let Ping(n) = *msg.downcast::<Ping>().unwrap();
                self.seen.push((ctx.now(), n));
                match n {
                    0 => {
                        self.far = Some(ctx.send_timer(SimDuration::from_millis(200), Ping(7)));
                        self.near = Some(ctx.send_timer(SimDuration::from_micros(5), Ping(8)));
                        self.own = Some(ctx.send_timer(SimDuration::from_micros(3), Ping(6)));
                        ctx.send_self(SimDuration::from_micros(1), Ping(1));
                    }
                    1 => {
                        for timer in [self.far.take(), self.near.take()] {
                            let cancelled = ctx.cancel(timer.unwrap());
                            self.cancelled.push(cancelled);
                        }
                    }
                    6 => {
                        let cancelled = ctx.cancel(self.own.take().unwrap());
                        self.cancelled.push(cancelled);
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(1);
        let a = sim.add(Arming {
            far: None,
            near: None,
            own: None,
            cancelled: Vec::new(),
            seen: Vec::new(),
        });
        sim.post(a, SimDuration::ZERO, Ping(0));
        // Keeps the near heap occupied, so the 200 ms timer is parked in
        // a far bucket instead of opening a slice of its own.
        sim.post(a, SimDuration::from_micros(10), Ping(9));
        sim.run_for(SimDuration::from_micros(2));
        assert_eq!(sim.events_pending(), 2, "both timers are withdrawn");
        sim.run();
        let arming = sim.get::<Arming>(a).unwrap();
        // The far and the near timer are withdrawn; the one being
        // delivered is refused.
        assert_eq!(arming.cancelled, vec![true, true, false]);
        assert_eq!(
            arming.seen,
            vec![
                (SimTime::from_nanos(0), 0),
                (SimTime::from_nanos(1_000), 1),
                (SimTime::from_nanos(3_000), 6),
                (SimTime::from_nanos(10_000), 9),
            ]
        );
        assert_eq!(sim.events_processed(), 4);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000));
        assert_eq!(sim.events_pending(), 0);
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
}
