//! Pins a converging path through the switch: two senders feed one
//! sink, so the sink's switch port (its egress) is oversubscribed two to
//! one, and one sender bursts past its own uplink's transmit queue at a
//! single instant. Every port's drops and every arrival instant at the
//! sink are recorded exactly.
//!
//! The schedule keeps exact ties off the egress port: no frame reaches
//! the sink's port at the very nanosecond a predecessor's last bit
//! leaves it. That instant is the one place where the egress port's
//! hand-back rule is allowed to differ from a port driven by its own
//! events (see `lnic_net::switch`). One frame does reach sender a's
//! uplink at such an instant.

use bytes::Bytes;
use lnic_net::addr::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_net::packet::Packet;
use lnic_net::params::{LinkParams, SwitchParams};
use lnic_net::switch::Switch;
use lnic_sim::prelude::*;

const SINK_MAC: u32 = 9;

/// Tells a [`Sender`] to put one frame with `payload` bytes on its
/// uplink now.
#[derive(Debug)]
struct Emit(usize);

struct Sender {
    uplink: ComponentId,
    mac: MacAddr,
}

impl Component for Sender {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let Emit(payload) = *msg.downcast::<Emit>().expect("senders take Emit");
        let frame = Packet::builder()
            .eth(self.mac, MacAddr::from_index(SINK_MAC))
            .udp(
                SocketAddr::new(Ipv4Addr::node(1), 1),
                SocketAddr::new(Ipv4Addr::node(9), 9),
            )
            .payload(Bytes::from(vec![0u8; payload]))
            .build();
        ctx.send(self.uplink, SimDuration::ZERO, frame);
    }
}

/// Records `(instant, source MAC index, wire bytes)` per arrival.
struct Sink(Vec<(u64, u8, usize)>);

impl Component for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let p = msg.downcast::<Packet>().expect("sinks take frames");
        self.0
            .push((ctx.now().as_nanos(), p.eth.src.octets()[5], p.wire_len()));
    }
}

/// Sender uplinks: 10 Gbps (80 ns per 100-byte frame) with room for
/// three 100-byte frames.
fn uplink() -> LinkParams {
    LinkParams {
        bandwidth_bps: 10_000_000_000,
        propagation: SimDuration::from_nanos(37),
        queue_capacity_bytes: 350,
        loss_probability: 0.0,
    }
}

/// The sink's port: 1 Gbps (800 ns per 100-byte frame) with room for
/// six 100-byte frames.
fn sink_port() -> LinkParams {
    LinkParams {
        bandwidth_bps: 1_000_000_000,
        propagation: SimDuration::from_nanos(53),
        queue_capacity_bytes: 650,
        loss_probability: 0.0,
    }
}

/// The wired path: senders `a` and `b`, the sink, and a way to read
/// each port's drops in the order sender a (uplink, port), sender b
/// (uplink, port), sink (uplink, port).
struct Path {
    sim: Simulation,
    a: ComponentId,
    b: ComponentId,
    sink: ComponentId,
    switch: ComponentId,
}

impl Path {
    fn new() -> Self {
        let mut sim = Simulation::new(3);
        let switch = sim.add(Switch::new(SwitchParams {
            forwarding_latency: SimDuration::from_nanos(1_000),
        }));
        let mut senders = Vec::new();
        for i in [1u32, 2] {
            let mac = MacAddr::from_index(i);
            let sender = sim.add(Sender {
                uplink: switch,
                mac,
            });
            sim.get_mut::<Switch>(switch)
                .unwrap()
                .attach(sender, mac, uplink());
            senders.push(sender);
        }
        let sink = sim.add(Sink(Vec::new()));
        sim.get_mut::<Switch>(switch).unwrap().attach(
            sink,
            MacAddr::from_index(SINK_MAC),
            sink_port(),
        );
        Path {
            sim,
            a: senders[0],
            b: senders[1],
            sink,
            switch,
        }
    }

    fn drops(&self) -> Vec<u64> {
        let switch = self.sim.get::<Switch>(self.switch).unwrap();
        (0..switch.port_count())
            .map(|i| switch.port(i).dropped())
            .collect()
    }
}

#[test]
fn converging_senders_pin_port_drops_and_sink_arrivals() {
    let mut path = Path::new();
    let at = SimDuration::from_nanos;
    // Sender a: five 100-byte frames at one instant; its uplink holds
    // three, so two drop there.
    for _ in 0..5 {
        path.sim.post(path.a, at(0), Emit(58));
    }
    // One more at 80 ns, the instant the burst's first frame leaves a's
    // uplink: its bytes are handed back first, so this one fits.
    path.sim.post(path.a, at(80), Emit(58));
    // Sender b: a 100-byte frame every 130 ns, interleaving with a's
    // burst at the sink's port, which drains at 800 ns per frame.
    for k in 0..8 {
        path.sim.post(path.b, at(11 + 130 * k), Emit(58));
    }
    // Both again once the port has drained, with mixed sizes: 200, 100,
    // 50 and 300 bytes, 61 ns apart, so the 300-byte frame overflows
    // each uplink.
    for (k, payload) in [158usize, 58, 8, 258].into_iter().enumerate() {
        path.sim
            .post(path.a, at(20_003 + 61 * k as u64), Emit(payload));
        path.sim
            .post(path.b, at(20_029 + 61 * k as u64), Emit(payload));
    }
    path.sim.run();

    assert_eq!(path.drops(), vec![3, 0, 1, 0, 0, 6]);
    assert_eq!(
        path.sim.get::<Sink>(path.sink).unwrap().0,
        vec![
            (1_970, 1, 100),
            (2_770, 2, 100),
            (3_570, 1, 100),
            (4_370, 2, 100),
            (5_170, 1, 100),
            (5_970, 1, 100),
            (6_770, 2, 100),
            (22_853, 1, 200),
            (24_453, 2, 200),
            (25_253, 1, 100),
            (26_053, 2, 100),
            (26_453, 1, 50),
        ]
    );
}
