//! A store-and-forward Ethernet switch.
//!
//! The testbed's Arista DCS-7124S (§6.1.2) is modeled as a switch with a
//! static forwarding table from destination MAC to output port. Each output
//! port is a [`crate::link::Link`] component, which provides the per-port
//! serialization and queueing behaviour; the switch itself adds a fixed
//! forwarding latency per frame.

use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;

use crate::addr::MacAddr;
use crate::packet::Packet;
use crate::params::SwitchParams;

/// An N-port switch forwarding frames by destination MAC.
///
/// Frames addressed to an unknown MAC are counted and dropped (the testbed
/// uses static addressing, so an unknown MAC indicates a wiring bug in the
/// experiment, not normal flooding).
pub struct Switch {
    params: SwitchParams,
    /// Output port (a simplex `Link` component) per destination MAC.
    fib: FastMap<MacAddr, ComponentId>,
    forwarded: Counter,
    unroutable: Counter,
}

impl Switch {
    /// Creates a switch with the given parameters and an empty forwarding
    /// table.
    pub fn new(params: SwitchParams) -> Self {
        Switch {
            params,
            fib: FastMap::default(),
            forwarded: Counter::new(),
            unroutable: Counter::new(),
        }
    }

    /// Adds a forwarding entry: frames for `mac` leave through `port_link`.
    pub fn connect(&mut self, mac: MacAddr, port_link: ComponentId) {
        self.fib.insert(mac, port_link);
    }

    /// Number of frames forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// Number of frames dropped for lack of a forwarding entry.
    pub fn unroutable(&self) -> u64 {
        self.unroutable.get()
    }
}

impl Component for Switch {
    fn name(&self) -> &str {
        "switch"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let packet = msg
            .downcast::<Packet>()
            .expect("switches forward Packet frames");
        let bytes = packet.wire_len() as u64;
        match self.fib.get(&packet.eth.dst) {
            Some(&port) => {
                self.forwarded.incr();
                ctx.emit(|| TraceEvent::SwitchForward { bytes });
                ctx.send_boxed(port, self.params.forwarding_latency, packet);
            }
            None => {
                self.unroutable.incr();
                ctx.emit(|| TraceEvent::SwitchDrop { bytes });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ipv4Addr, SocketAddr};
    use crate::link::Link;
    use crate::params::LinkParams;

    struct Sink {
        got: Vec<Packet>,
    }
    impl Component for Sink {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
            self.got.push(*msg.downcast::<Packet>().unwrap());
        }
    }

    fn packet_to(dst: MacAddr) -> Packet {
        Packet::builder()
            .eth(MacAddr::from_index(0), dst)
            .udp(
                SocketAddr::new(Ipv4Addr::node(1), 1),
                SocketAddr::new(Ipv4Addr::node(2), 2),
            )
            .build()
    }

    #[test]
    fn forwards_by_destination_mac() {
        let mut sim = Simulation::new(1);
        let sink_a = sim.add(Sink { got: vec![] });
        let sink_b = sim.add(Sink { got: vec![] });
        let link_a = sim.add(Link::new(sink_a, LinkParams::ten_gbps()));
        let link_b = sim.add(Link::new(sink_b, LinkParams::ten_gbps()));
        let mac_a = MacAddr::from_index(10);
        let mac_b = MacAddr::from_index(20);
        let mut sw = Switch::new(SwitchParams::default());
        sw.connect(mac_a, link_a);
        sw.connect(mac_b, link_b);
        let sw = sim.add(sw);

        sim.post(sw, SimDuration::ZERO, packet_to(mac_a));
        sim.post(sw, SimDuration::ZERO, packet_to(mac_b));
        sim.post(sw, SimDuration::ZERO, packet_to(mac_b));
        sim.run();

        assert_eq!(sim.get::<Sink>(sink_a).unwrap().got.len(), 1);
        assert_eq!(sim.get::<Sink>(sink_b).unwrap().got.len(), 2);
        assert_eq!(sim.get::<Switch>(sw).unwrap().forwarded(), 3);
    }

    #[test]
    fn unknown_mac_dropped_and_counted() {
        let mut sim = Simulation::new(1);
        let sw = sim.add(Switch::new(SwitchParams::default()));
        sim.post(sw, SimDuration::ZERO, packet_to(MacAddr::from_index(99)));
        sim.run();
        assert_eq!(sim.get::<Switch>(sw).unwrap().unroutable(), 1);
        assert_eq!(sim.get::<Switch>(sw).unwrap().forwarded(), 0);
    }

    #[test]
    fn forwarding_latency_applied() {
        let mut sim = Simulation::new(1);
        struct Stamp {
            at: Option<SimTime>,
        }
        impl Component for Stamp {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _msg: AnyMessage) {
                self.at = Some(ctx.now());
            }
        }
        let sink = sim.add(Stamp { at: None });
        let mac = MacAddr::from_index(1);
        let mut sw = Switch::new(SwitchParams {
            forwarding_latency: SimDuration::from_nanos(777),
        });
        // Wire the MAC directly to the sink (no link) to isolate the
        // switch's own latency.
        sw.connect(mac, sink);
        let sw = sim.add(sw);
        sim.post(sw, SimDuration::ZERO, packet_to(mac));
        sim.run();
        assert_eq!(
            sim.get::<Stamp>(sink).unwrap().at,
            Some(SimTime::from_nanos(777))
        );
    }
}
