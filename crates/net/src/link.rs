//! Switch ports: serialization, propagation, queueing and fault windows.
//!
//! A [`Port`] is one direction of one cable: frames serialize one at a
//! time at the port's bandwidth (transmission starts when the previous
//! frame's last bit leaves), then propagate for a fixed delay. A bounded
//! transmit queue drops excess frames, which the weakly-consistent
//! transport recovers via retransmission. Ports are not components: the
//! [`crate::switch::Switch`] owns them and runs them inside its events
//! (see the crate example).

use std::collections::VecDeque;

use lnic_sim::prelude::*;
use rand::Rng;

use crate::packet::{Packet, ETH_HDR_LEN};
use crate::params::LinkParams;

/// One simplex port: a transmitter, its queue and the cable behind it.
///
/// A frame's bytes count against `queue_capacity_bytes` from its arrival
/// until its last bit leaves the transmitter. The port schedules no event
/// for that instant: it keeps a FIFO of `(tx_end, seq, bytes)`, one entry
/// per accepted frame, where `seq` is [`Ctx::next_seq`] at transmit, and
/// settles the entries that have passed before each overflow check. An
/// entry has passed when `tx_end` is earlier than the frame's instant, or
/// equal to it with `seq` no later than the frame's sequence number: for
/// an ingress port, run at the sender's event, that is exactly when a
/// self-event sent at transmit would have been delivered before the
/// frame.
///
/// # Examples
///
/// ```
/// use lnic_net::link::Port;
/// use lnic_net::params::LinkParams;
///
/// let port = Port::new(LinkParams::ten_gbps());
/// assert_eq!((port.delivered(), port.dropped()), (0, 0));
/// ```
pub struct Port {
    params: LinkParams,
    /// Virtual time at which the transmitter becomes free.
    tx_free_at: SimTime,
    /// Bytes currently queued or in flight on the transmitter, as of the
    /// last settle of `tx_ends`.
    queued_bytes: usize,
    /// `(tx_end, seq, bytes)` of every frame counted in `queued_bytes`,
    /// in transmit order (see the type docs).
    tx_ends: VecDeque<(SimTime, u64, usize)>,
    /// The port is dark (flapped).
    down: Window<()>,
    /// A loss burst: frames drop with this probability.
    burst: Window<f64>,
    /// Frames get an extra uniform delay up to this spread (reordering).
    reorder: Window<SimDuration>,
    /// Frames are duplicated with this probability.
    duplicate: Window<f64>,
    /// Frames get one bit flipped with this probability.
    corrupt: Window<f64>,
    delivered: Counter,
    dropped: Counter,
    fault_drops: Counter,
    duplicated: Counter,
    corrupt_detected: Counter,
}

/// A fault window on a [`Port`]: open before `until`, with `value` its
/// parameter while it is.
#[derive(Clone, Copy, Default)]
struct Window<T> {
    until: SimTime,
    value: T,
}

impl<T: Copy> Window<T> {
    /// Keeps the window open until `now + duration` at least, with
    /// `value` from now on.
    fn open(&mut self, now: SimTime, duration: SimDuration, value: T) {
        self.until = self.until.max(now + duration);
        self.value = value;
    }

    /// The window's value at `now`, if it is open then.
    fn at(&self, now: SimTime) -> Option<T> {
        (now < self.until).then_some(self.value)
    }
}

impl Port {
    /// Creates an idle port.
    pub fn new(params: LinkParams) -> Self {
        Port {
            params,
            tx_free_at: SimTime::ZERO,
            queued_bytes: 0,
            tx_ends: VecDeque::new(),
            down: Window::default(),
            burst: Window::default(),
            reorder: Window::default(),
            duplicate: Window::default(),
            corrupt: Window::default(),
            delivered: Counter::new(),
            dropped: Counter::new(),
            fault_drops: Counter::new(),
            duplicated: Counter::new(),
            corrupt_detected: Counter::new(),
        }
    }

    /// Frames delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Frames dropped (loss, queue overflow, or fault windows) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Frames dropped specifically by flap or loss-burst windows.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops.get()
    }

    /// Extra copies delivered by duplication windows.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.get()
    }

    /// Frames mangled by corruption windows and caught by the receiving
    /// NIC's checksum verification (dropped, not executed).
    pub fn corrupt_detected(&self) -> u64 {
        self.corrupt_detected.get()
    }

    /// Attributes a dropped frame to its owning request when it was one
    /// fragment of a multi-packet message. Losing a fragment silently
    /// stalls the whole reassembly at the receiver, so conservation
    /// accounting needs the request id of the loss, not just its bytes.
    fn attribute_frag_drop(ctx: &mut Ctx<'_>, packet: &Packet, reason: &'static str) {
        let Some(hdr) = packet.lambda else {
            return;
        };
        if hdr.frag_count > 1 {
            ctx.emit(|| TraceEvent::FragDrop {
                request_id: hdr.request_id,
                frag_index: hdr.frag_index.into(),
                frag_count: hdr.frag_count.into(),
                reason,
            });
        }
    }

    /// Offers `packet` to the transmitter at `now`, the frame's instant,
    /// and sends it on to `dst` at its arrival unless the port drops it.
    /// `seq` is the frame's sequence number for the hand-back rule (see
    /// the type docs). `now` may be later than the clock: the switch runs
    /// an egress port at the forward, for the instant the frame reaches
    /// the port.
    pub(crate) fn transmit(
        &mut self,
        ctx: &mut Ctx<'_>,
        now: SimTime,
        seq: u64,
        dst: ComponentId,
        packet: Box<Packet>,
    ) {
        let bytes = packet.wire_len();

        if self.down.at(now).is_some() {
            self.dropped.incr();
            self.fault_drops.incr();
            ctx.emit(|| TraceEvent::LinkDrop {
                bytes: bytes as u64,
                reason: "down",
            });
            Self::attribute_frag_drop(ctx, &packet, "down");
            return;
        }
        if self
            .burst
            .at(now)
            .is_some_and(|p| p > 0.0 && ctx.rng().gen_bool(p))
        {
            self.dropped.incr();
            self.fault_drops.incr();
            ctx.emit(|| TraceEvent::LinkDrop {
                bytes: bytes as u64,
                reason: "burst",
            });
            Self::attribute_frag_drop(ctx, &packet, "burst");
            return;
        }
        if self.params.loss_probability > 0.0 && ctx.rng().gen_bool(self.params.loss_probability) {
            self.dropped.incr();
            ctx.emit(|| TraceEvent::LinkDrop {
                bytes: bytes as u64,
                reason: "loss",
            });
            Self::attribute_frag_drop(ctx, &packet, "loss");
            return;
        }
        // Hand back the bytes of every frame whose last bit has left.
        while let Some(&(tx_end, tx_seq, sent)) = self.tx_ends.front() {
            if tx_end > now || (tx_end == now && tx_seq > seq) {
                break;
            }
            self.queued_bytes -= sent;
            self.tx_ends.pop_front();
        }
        if self.queued_bytes + bytes > self.params.queue_capacity_bytes {
            self.dropped.incr();
            ctx.emit(|| TraceEvent::LinkDrop {
                bytes: bytes as u64,
                reason: "overflow",
            });
            Self::attribute_frag_drop(ctx, &packet, "overflow");
            return;
        }
        self.queued_bytes += bytes;

        let start = self.tx_free_at.max(now);
        let tx_end = start + self.params.serialization_delay(bytes);
        self.tx_free_at = tx_end;
        let mut arrival = tx_end + self.params.propagation;

        self.tx_ends.push_back((tx_end, ctx.next_seq(), bytes));

        // Corruption window: the frame still occupies the wire, but one bit
        // arrives flipped. The receiver's checksum verification catches the
        // mangled frame, so it dies on arrival instead of being executed.
        if self
            .corrupt
            .at(now)
            .is_some_and(|p| p > 0.0 && ctx.rng().gen_bool(p))
        {
            let mut wire = packet.encode().to_vec();
            let bit = ctx.rng().gen_range(ETH_HDR_LEN * 8..wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            if Packet::decode(&wire).is_err() {
                self.dropped.incr();
                self.fault_drops.incr();
                self.corrupt_detected.incr();
                ctx.emit(|| TraceEvent::LinkDrop {
                    bytes: bytes as u64,
                    reason: "corrupt",
                });
                Self::attribute_frag_drop(ctx, &packet, "corrupt");
                return;
            }
            // A flip the checksums cannot see (only possible inside the
            // Ethernet header, which is excluded above); deliver as-is.
        }

        // Reorder window: add a uniform extra delay so later frames can
        // overtake this one in flight.
        if let Some(spread) = self.reorder.at(now).filter(|s| !s.is_zero()) {
            let jitter = ctx.rng().gen_range(0..=spread.as_nanos());
            arrival += SimDuration::from_nanos(jitter);
        }

        // Duplication window: deliver a second copy back-to-back behind the
        // first, as a misbehaving switch would. Only this path copies the
        // frame; the original travels on in the box it arrived in.
        let duplicate = self
            .duplicate
            .at(now)
            .is_some_and(|p| p > 0.0 && ctx.rng().gen_bool(p))
            .then(|| Box::new((*packet).clone()));

        ctx.send_boxed(dst, arrival - ctx.now(), packet);
        self.delivered.incr();
        ctx.emit(|| TraceEvent::LinkTx {
            bytes: bytes as u64,
        });

        if let Some(copy) = duplicate {
            let dup_arrival = arrival + self.params.serialization_delay(bytes);
            ctx.send_boxed(dst, dup_arrival - ctx.now(), copy);
            self.duplicated.incr();
        }
    }
}

/// If `msg` is one of the five link faults of [`lnic_sim::fault`], opens
/// its window at `now` on the port it names among `ports`; otherwise
/// hands `msg` back.
pub(crate) fn open_fault(
    ports: &mut [Port],
    now: SimTime,
    msg: AnyMessage,
) -> Result<(), AnyMessage> {
    use lnic_sim::fault::{Corrupt, Duplicate, LinkDown, LossBurst, Reorder};
    let msg = match msg.downcast::<LinkDown>() {
        Ok(f) => {
            ports[f.port].down.open(now, f.duration, ());
            return Ok(());
        }
        Err(other) => other,
    };
    let msg = match msg.downcast::<LossBurst>() {
        Ok(f) => {
            ports[f.port].burst.open(now, f.duration, f.prob);
            return Ok(());
        }
        Err(other) => other,
    };
    let msg = match msg.downcast::<Reorder>() {
        Ok(f) => {
            ports[f.port].reorder.open(now, f.duration, f.spread);
            return Ok(());
        }
        Err(other) => other,
    };
    let msg = match msg.downcast::<Duplicate>() {
        Ok(f) => {
            ports[f.port].duplicate.open(now, f.duration, f.prob);
            return Ok(());
        }
        Err(other) => other,
    };
    let f = msg.downcast::<Corrupt>()?;
    ports[f.port].corrupt.open(now, f.duration, f.prob);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ipv4Addr, MacAddr, SocketAddr};
    use bytes::Bytes;

    /// Drives one [`Port`] as a component of its own: each frame runs
    /// the port at the frame's own event, exactly as an ingress port
    /// runs inside the switch, and a link fault opens its window.
    struct Harness {
        port: Port,
        dst: ComponentId,
    }
    impl Harness {
        fn new(dst: ComponentId, params: LinkParams) -> Self {
            Harness {
                port: Port::new(params),
                dst,
            }
        }
    }
    impl Component for Harness {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let (now, seq) = (ctx.now(), ctx.event_seq());
            match msg.downcast::<Packet>() {
                Ok(p) => self.port.transmit(ctx, now, seq, self.dst, p),
                Err(fault) => {
                    assert!(open_fault(std::slice::from_mut(&mut self.port), now, fault).is_ok())
                }
            }
        }
    }

    /// The port a [`Harness`] drives.
    fn port(sim: &Simulation, harness: ComponentId) -> &Port {
        &sim.get::<Harness>(harness).unwrap().port
    }

    struct Recorder {
        arrivals: Vec<(SimTime, usize)>,
    }
    impl Component for Recorder {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let p = msg.downcast::<Packet>().unwrap();
            self.arrivals.push((ctx.now(), p.wire_len()));
        }
    }

    fn packet_with_payload(len: usize) -> Packet {
        Packet::builder()
            .eth(MacAddr::from_index(1), MacAddr::from_index(2))
            .udp(
                SocketAddr::new(Ipv4Addr::node(1), 1),
                SocketAddr::new(Ipv4Addr::node(2), 2),
            )
            .payload(Bytes::from(vec![0u8; len]))
            .build()
    }

    fn setup(params: LinkParams) -> (Simulation, ComponentId, ComponentId) {
        let mut sim = Simulation::new(1);
        let sink = sim.add(Recorder { arrivals: vec![] });
        let link = sim.add(Harness::new(sink, params));
        (sim, link, sink)
    }

    #[test]
    fn single_frame_sees_serialization_plus_propagation() {
        // 1 Gbps: 8 ns per byte; propagation 100 ns.
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_nanos(100),
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        let p = packet_with_payload(0); // 42-byte wire frame
        let expect = SimDuration::from_nanos(42 * 8 + 100);
        sim.post(link, SimDuration::ZERO, p);
        sim.run();
        let arr = &sim.get::<Recorder>(sink).unwrap().arrivals;
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].0, SimTime::ZERO + expect);
    }

    #[test]
    fn back_to_back_frames_serialize_sequentially() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        for _ in 0..3 {
            sim.post(link, SimDuration::ZERO, packet_with_payload(58)); // 100 B
        }
        sim.run();
        let arr = &sim.get::<Recorder>(sink).unwrap().arrivals;
        let times: Vec<u64> = arr.iter().map(|(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![800, 1_600, 2_400]);
    }

    #[test]
    fn queue_overflow_drops() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 150, // fits one 100 B frame only
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        for _ in 0..5 {
            sim.post(link, SimDuration::ZERO, packet_with_payload(58));
        }
        sim.run();
        assert_eq!(sim.get::<Recorder>(sink).unwrap().arrivals.len(), 1);
        assert_eq!(port(&sim, link).dropped(), 4);
        assert_eq!(port(&sim, link).delivered(), 1);
    }

    #[test]
    fn queue_drains_and_accepts_later_frames() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 150,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        sim.post(link, SimDuration::ZERO, packet_with_payload(58));
        // Arrives after the first frame finished (800 ns): accepted.
        sim.post(
            link,
            SimDuration::from_nanos(1_000),
            packet_with_payload(58),
        );
        sim.run();
        assert_eq!(sim.get::<Recorder>(sink).unwrap().arrivals.len(), 2);
        assert_eq!(port(&sim, link).dropped(), 0);
    }

    /// Tells a [`Sender`] to put one 100-byte frame on the link after
    /// `delay`, so the frame's event is scheduled *during* the run rather
    /// than at set-up.
    #[derive(Debug)]
    struct Emit(SimDuration);

    struct Sender {
        link: ComponentId,
    }
    impl Component for Sender {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let Emit(delay) = *msg.downcast::<Emit>().unwrap();
            ctx.send(self.link, delay, packet_with_payload(58));
        }
    }

    /// A 1 Gbps link (800 ns per 100-byte frame), no propagation, with a
    /// transmit queue of `capacity` bytes, plus a [`Sender`] feeding it.
    fn overflow_bed(capacity: usize) -> (Simulation, ComponentId, ComponentId, ComponentId) {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: capacity,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        let sender = sim.add(Sender { link });
        (sim, link, sink, sender)
    }

    fn arrivals_and_drops(
        sim: &Simulation,
        link: ComponentId,
        sink: ComponentId,
    ) -> (Vec<u64>, u64) {
        let arrivals = sim.get::<Recorder>(sink).unwrap().arrivals.iter();
        (
            arrivals.map(|(t, _)| t.as_nanos()).collect(),
            port(sim, link).dropped(),
        )
    }

    #[test]
    fn overflow_pins_drops_and_arrivals_back_to_back() {
        // Room for two frames: the third and fourth overflow, the fifth
        // fits once the first has left the wire at 800 ns.
        let (mut sim, link, sink, _) = overflow_bed(250);
        for at in [0, 100, 200, 300, 900, 1_000] {
            sim.post(link, SimDuration::from_nanos(at), packet_with_payload(58));
        }
        sim.run();
        assert_eq!(
            arrivals_and_drops(&sim, link, sink),
            (vec![800, 1_600, 2_400], 3)
        );
    }

    #[test]
    fn overflow_pins_drops_and_arrivals_at_one_instant() {
        let (mut sim, link, sink, _) = overflow_bed(350);
        for _ in 0..5 {
            sim.post(link, SimDuration::ZERO, packet_with_payload(58));
        }
        // By 1 us the first frame has left; one more fits.
        for _ in 0..3 {
            sim.post(
                link,
                SimDuration::from_nanos(1_000),
                packet_with_payload(58),
            );
        }
        sim.run();
        assert_eq!(
            arrivals_and_drops(&sim, link, sink),
            (vec![800, 1_600, 2_400, 3_200], 4)
        );
    }

    #[test]
    fn overflow_at_a_predecessors_tx_end_follows_scheduling_order() {
        // Room for one frame. A frame arriving exactly when its
        // predecessor's last bit leaves is dropped if its send was
        // scheduled before the transmitter's hand-back at that instant,
        // and accepted if it was scheduled after.
        let (mut sim, link, sink, sender) = overflow_bed(150);
        // A: on the wire 0..800.
        sim.post(link, SimDuration::ZERO, packet_with_payload(58));
        // B at 800, scheduled before A was transmitted: dropped.
        sim.post(link, SimDuration::from_nanos(800), packet_with_payload(58));
        // C at 800, scheduled at 0 after A was transmitted: accepted,
        // on the wire 800..1600.
        sim.post(
            sender,
            SimDuration::ZERO,
            Emit(SimDuration::from_nanos(800)),
        );
        // D at 1600, scheduled at 0, before C was transmitted: dropped.
        sim.post(
            sender,
            SimDuration::ZERO,
            Emit(SimDuration::from_nanos(1_600)),
        );
        // E at 1600, scheduled at 1000, after C was transmitted: accepted.
        sim.post(
            sender,
            SimDuration::from_nanos(1_000),
            Emit(SimDuration::from_nanos(600)),
        );
        sim.run();
        assert_eq!(
            arrivals_and_drops(&sim, link, sink),
            (vec![800, 1_600, 2_400], 2)
        );
    }

    #[test]
    fn lossy_link_drops_roughly_at_rate() {
        let params = LinkParams::ten_gbps().with_loss(0.3);
        let (mut sim, link, sink) = setup(params);
        for i in 0..1_000 {
            sim.post(
                link,
                SimDuration::from_micros(i * 10),
                packet_with_payload(10),
            );
        }
        sim.run();
        let delivered = sim.get::<Recorder>(sink).unwrap().arrivals.len();
        let dropped = port(&sim, link).dropped() as usize;
        assert_eq!(delivered + dropped, 1_000);
        assert!((200..400).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn flap_window_blackholes_then_recovers() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        sim.post(
            link,
            SimDuration::from_micros(10),
            lnic_sim::fault::LinkDown {
                port: 0,
                duration: SimDuration::from_micros(20),
            },
        );
        // Before, during, and after the flap window.
        sim.post(link, SimDuration::from_micros(5), packet_with_payload(10));
        sim.post(link, SimDuration::from_micros(15), packet_with_payload(10));
        sim.post(link, SimDuration::from_micros(29), packet_with_payload(10));
        sim.post(link, SimDuration::from_micros(31), packet_with_payload(10));
        sim.run();
        assert_eq!(sim.get::<Recorder>(sink).unwrap().arrivals.len(), 2);
        let l = port(&sim, link);
        assert_eq!(l.dropped(), 2);
        assert_eq!(l.fault_drops(), 2);
    }

    #[test]
    fn flapped_fragment_drops_are_attributed_to_their_request() {
        use crate::packet::{LambdaHdr, LambdaKind};
        use lnic_sim::trace::{RingSink, TraceEvent};

        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let mut sim = Simulation::new(1);
        sim.add_trace_sink(Box::new(RingSink::new(64)));
        let sink = sim.add(Recorder { arrivals: vec![] });
        let link = sim.add(Harness::new(sink, params));
        sim.post(
            link,
            SimDuration::ZERO,
            lnic_sim::fault::LinkDown {
                port: 0,
                duration: SimDuration::from_micros(20),
            },
        );
        // One mid-reassembly RDMA fragment and one plain single-packet
        // request, both inside the flap window.
        let frag = Packet::builder()
            .eth(MacAddr::from_index(1), MacAddr::from_index(2))
            .udp(
                SocketAddr::new(Ipv4Addr::node(1), 1),
                SocketAddr::new(Ipv4Addr::node(2), 2),
            )
            .lambda(LambdaHdr {
                workload_id: 4,
                request_id: 77,
                frag_index: 1,
                frag_count: 3,
                kind: LambdaKind::RdmaWrite,
                ..Default::default()
            })
            .payload(Bytes::from(vec![0u8; 64]))
            .build();
        sim.post(link, SimDuration::from_micros(5), frag);
        sim.post(link, SimDuration::from_micros(6), packet_with_payload(10));
        sim.run();
        assert_eq!(port(&sim, link).fault_drops(), 2);
        let ring = sim.trace_sink::<RingSink>().unwrap();
        let frag_drops: Vec<_> = ring
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::FragDrop {
                    request_id,
                    frag_index,
                    frag_count,
                    reason,
                } => Some((request_id, frag_index, frag_count, reason)),
                _ => None,
            })
            .collect();
        // Only the fragment loss is attributed; the single-packet drop
        // already shows up in request conservation via retransmission.
        assert_eq!(frag_drops, vec![(77, 1, 3, "down")]);
    }

    #[test]
    fn loss_burst_elevates_drop_rate_only_within_window() {
        let params = LinkParams {
            bandwidth_bps: 10_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        // Burst covering the first 500 frames (sent 1 us apart).
        sim.post(
            link,
            SimDuration::ZERO,
            lnic_sim::fault::LossBurst {
                port: 0,
                duration: SimDuration::from_micros(500),
                prob: 0.9,
            },
        );
        for i in 0..1_000u64 {
            sim.post(link, SimDuration::from_micros(i), packet_with_payload(10));
        }
        sim.run();
        let l = port(&sim, link);
        let dropped = l.fault_drops();
        assert!((350..=500).contains(&dropped), "burst dropped {dropped}");
        // Everything after the window sailed through.
        let delivered = sim.get::<Recorder>(sink).unwrap().arrivals.len() as u64;
        assert_eq!(delivered + dropped, 1_000);
        assert!(delivered >= 500);
    }

    #[test]
    fn reorder_window_lets_frames_overtake() {
        let params = LinkParams {
            bandwidth_bps: 100_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        sim.post(
            link,
            SimDuration::ZERO,
            lnic_sim::fault::Reorder {
                port: 0,
                duration: SimDuration::from_millis(1),
                spread: SimDuration::from_micros(50),
            },
        );
        // Distinct payload sizes identify each frame at the receiver.
        for i in 0..20usize {
            sim.post(
                link,
                SimDuration::from_micros(i as u64),
                packet_with_payload(i),
            );
        }
        sim.run();
        let arr = &sim.get::<Recorder>(sink).unwrap().arrivals;
        assert_eq!(arr.len(), 20, "reordering must not lose frames");
        let sizes: Vec<usize> = arr.iter().map(|(_, len)| *len).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "expected at least one overtake");
    }

    #[test]
    fn duplicate_window_delivers_each_frame_twice() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        sim.post(
            link,
            SimDuration::ZERO,
            lnic_sim::fault::Duplicate {
                port: 0,
                duration: SimDuration::from_millis(1),
                prob: 1.0,
            },
        );
        for i in 0..5u64 {
            sim.post(
                link,
                SimDuration::from_micros(i * 10),
                packet_with_payload(10),
            );
        }
        sim.run();
        assert_eq!(sim.get::<Recorder>(sink).unwrap().arrivals.len(), 10);
        let l = port(&sim, link);
        assert_eq!(l.delivered(), 5);
        assert_eq!(l.duplicated(), 5);
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn corrupt_window_frames_are_detected_and_dropped() {
        let params = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::ZERO,
            queue_capacity_bytes: 1 << 20,
            loss_probability: 0.0,
        };
        let (mut sim, link, sink) = setup(params);
        sim.post(
            link,
            SimDuration::ZERO,
            lnic_sim::fault::Corrupt {
                port: 0,
                duration: SimDuration::from_millis(10),
                prob: 1.0,
            },
        );
        for i in 0..100u64 {
            sim.post(
                link,
                SimDuration::from_micros(i * 10),
                packet_with_payload(32),
            );
        }
        // One clean frame after the window closes.
        sim.post(link, SimDuration::from_millis(20), packet_with_payload(32));
        sim.run();
        let l = port(&sim, link);
        // Every single-bit flip past the Ethernet header is caught by the
        // IPv4/UDP checksums, so nothing mangled reaches the receiver.
        assert_eq!(l.corrupt_detected(), 100);
        assert_eq!(l.dropped(), 100);
        assert_eq!(sim.get::<Recorder>(sink).unwrap().arrivals.len(), 1);
    }

    #[test]
    fn ten_gbps_preset_rate() {
        let params = LinkParams::ten_gbps();
        // 10 Gbps = 0.8 ns per byte.
        assert_eq!(
            params.serialization_delay(1_000),
            SimDuration::from_nanos(800)
        );
    }
}
