//! A store-and-forward Ethernet switch that owns every port.
//!
//! The testbed's Arista DCS-7124S (§6.1.2) is one switch with a static
//! forwarding table from destination MAC to output port and a FIFO queue
//! per port. [`Switch::attach`] gives an endpoint an ingress [`Port`] (its
//! uplink) and an egress one (the switch's output toward it); the
//! endpoint's uplink is the switch itself. A frame takes three events:
//! *ingress* (a frame whose [`Ctx::sender`] is attached runs that sender's
//! ingress port at the event's instant and sequence number, and comes back
//! to the switch at its arrival), *forward* (a frame the switch sent
//! itself is looked up, and its egress port runs at once for the instant
//! the frame reaches it, `forwarding_latency` later) and *delivery*.
//! Ingress is exact; DESIGN.md ("Network") lists the three points where
//! running the egress port early can differ from running it at its own
//! event. The egress `LinkTx` record is stamped at the forward.

use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;

use crate::addr::MacAddr;
use crate::link::{open_fault, Port};
use crate::packet::Packet;
use crate::params::{LinkParams, SwitchParams};

/// An N-port switch forwarding frames by destination MAC.
///
/// Frames addressed to an unknown MAC, and frames from a sender that is
/// not attached, are counted and dropped (the testbed uses static
/// addressing, so either indicates a wiring bug in the experiment, not
/// normal flooding).
///
/// The link faults of [`lnic_sim::fault`] (`LinkDown`, `LossBurst`,
/// `Reorder`, `Duplicate`, `Corrupt`) are sent to the switch and name
/// the port they open their window on.
pub struct Switch {
    params: SwitchParams,
    /// Every port, in attach order: ingress then egress per
    /// [`Switch::attach`].
    ports: Vec<Port>,
    /// Ingress port per sender, indexed by component index.
    ingress: Vec<Option<usize>>,
    /// Egress port and endpoint per destination MAC.
    fib: FastMap<MacAddr, (usize, ComponentId)>,
    forwarded: Counter,
    unroutable: Counter,
}

impl Switch {
    /// Creates a switch with the given parameters and no ports.
    pub fn new(params: SwitchParams) -> Self {
        Switch {
            params,
            ports: Vec::new(),
            ingress: Vec::new(),
            fib: FastMap::default(),
            forwarded: Counter::new(),
            unroutable: Counter::new(),
        }
    }

    /// Attaches `endpoint`, whose frames come from `mac`'s owner, with an
    /// ingress port for the frames it sends and an egress port for frames
    /// addressed to `mac`, both with `params`. Returns the two port
    /// indices. A later attach of the same MAC takes its frames over.
    pub fn attach(
        &mut self,
        endpoint: ComponentId,
        mac: MacAddr,
        params: LinkParams,
    ) -> (usize, usize) {
        let ingress = self.attach_sender(endpoint, params);
        let egress = self.ports.len();
        self.ports.push(Port::new(params));
        self.fib.insert(mac, (egress, endpoint));
        (ingress, egress)
    }

    /// Attaches `endpoint` as a sender only: an ingress port with
    /// `params` and no forwarding entry. A hybrid worker's host shares its
    /// NIC's MAC but has its own uplink. Returns the port index.
    pub fn attach_sender(&mut self, endpoint: ComponentId, params: LinkParams) -> usize {
        let port = self.ports.len();
        self.ports.push(Port::new(params));
        let slot = endpoint.index();
        if self.ingress.len() <= slot {
            self.ingress.resize(slot + 1, None);
        }
        self.ingress[slot] = Some(port);
        port
    }

    /// The port with index `index`.
    ///
    /// # Panics
    ///
    /// Panics if no such port was attached.
    pub fn port(&self, index: usize) -> &Port {
        &self.ports[index]
    }

    /// Number of ports attached.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Number of frames forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.get()
    }

    /// Number of frames dropped for lack of a forwarding entry or of an
    /// ingress port for their sender.
    pub fn unroutable(&self) -> u64 {
        self.unroutable.get()
    }

    fn drop_unroutable(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        let bytes = packet.wire_len() as u64;
        self.unroutable.incr();
        ctx.emit(|| TraceEvent::SwitchDrop { bytes });
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, packet: Box<Packet>) {
        let me = ctx.self_id();
        let (port, at, seq, dst) = if ctx.sender() == Some(me) {
            let Some(&(port, dst)) = self.fib.get(&packet.eth.dst) else {
                return self.drop_unroutable(ctx, &packet);
            };
            self.forwarded.incr();
            let bytes = packet.wire_len() as u64;
            ctx.emit(|| TraceEvent::SwitchForward { bytes });
            // The frame's instant at the egress port; every hand-back due
            // by then counts.
            let at = ctx.now() + self.params.forwarding_latency;
            (port, at, u64::MAX, dst)
        } else {
            let sender = ctx.sender().map(ComponentId::index);
            let Some(port) = sender.and_then(|s| self.ingress.get(s).copied().flatten()) else {
                return self.drop_unroutable(ctx, &packet);
            };
            (port, ctx.now(), ctx.event_seq(), me)
        };
        self.ports[port].transmit(ctx, at, seq, dst, packet);
    }
}

impl Component for Switch {
    fn name(&self) -> &str {
        "switch"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<Packet>() {
            Ok(packet) => return self.on_frame(ctx, packet),
            Err(other) => other,
        };
        if open_fault(&mut self.ports, ctx.now(), msg).is_err() {
            panic!("switches take Packet frames and link faults");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ipv4Addr, SocketAddr};
    use crate::params::LinkParams;

    /// Tells a [`Host`] to send one frame to a MAC.
    #[derive(Debug)]
    struct SendTo(MacAddr);

    /// An endpoint: sends a frame through `uplink` on [`SendTo`], and
    /// records `(instant, frame)` for every frame it receives.
    struct Host {
        uplink: ComponentId,
        got: Vec<(SimTime, Packet)>,
    }
    impl Component for Host {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            match msg.downcast::<Packet>() {
                Ok(p) => self.got.push((ctx.now(), *p)),
                Err(other) => {
                    let SendTo(dst) = *other.downcast::<SendTo>().unwrap();
                    ctx.send(self.uplink, SimDuration::ZERO, packet_to(dst));
                }
            }
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

    /// A host and its `(ingress, egress)` ports.
    type Attached = (ComponentId, (usize, usize));

    /// A switch with one attached [`Host`] per MAC index in `macs`, all
    /// ports with `link`. Returns the simulation, the switch, and each
    /// host with its `(ingress, egress)` ports.
    fn bed(
        params: SwitchParams,
        link: LinkParams,
        macs: &[u32],
    ) -> (Simulation, ComponentId, Vec<Attached>) {
        let mut sim = Simulation::new(1);
        let switch = sim.add(Switch::new(params));
        let hosts = macs
            .iter()
            .map(|&m| {
                let host = sim.add(Host {
                    uplink: switch,
                    got: vec![],
                });
                let sw = sim.get_mut::<Switch>(switch).unwrap();
                (host, sw.attach(host, MacAddr::from_index(m), link))
            })
            .collect();
        (sim, switch, hosts)
    }

    fn got(sim: &Simulation, host: ComponentId) -> &[(SimTime, Packet)] {
        &sim.get::<Host>(host).unwrap().got
    }

    #[test]
    fn forwards_by_destination_mac() {
        let (mut sim, sw, hosts) = bed(
            SwitchParams::default(),
            LinkParams::ten_gbps(),
            &[10, 20, 30],
        );
        let (a, b, src) = (hosts[0].0, hosts[1].0, hosts[2].0);
        sim.post(src, SimDuration::ZERO, SendTo(MacAddr::from_index(10)));
        sim.post(src, SimDuration::ZERO, SendTo(MacAddr::from_index(20)));
        sim.post(src, SimDuration::ZERO, SendTo(MacAddr::from_index(20)));
        sim.run();

        assert_eq!(got(&sim, a).len(), 1);
        assert_eq!(got(&sim, b).len(), 2);
        let sw = sim.get::<Switch>(sw).unwrap();
        assert_eq!(sw.forwarded(), 3);
        assert_eq!(sw.port_count(), 6);
        assert_eq!(sw.port(hosts[2].1 .0).delivered(), 3);
        assert_eq!(sw.port(hosts[1].1 .1).delivered(), 2);
    }

    #[test]
    fn unknown_mac_dropped_and_counted() {
        let (mut sim, sw, hosts) = bed(SwitchParams::default(), LinkParams::ten_gbps(), &[1]);
        sim.post(
            hosts[0].0,
            SimDuration::ZERO,
            SendTo(MacAddr::from_index(99)),
        );
        sim.run();
        assert_eq!(sim.get::<Switch>(sw).unwrap().unroutable(), 1);
        assert_eq!(sim.get::<Switch>(sw).unwrap().forwarded(), 0);
    }

    #[test]
    fn frames_from_unattached_senders_are_dropped_and_counted() {
        let (mut sim, sw, hosts) = bed(SwitchParams::default(), LinkParams::ten_gbps(), &[1]);
        let stranger = sim.add(Host {
            uplink: sw,
            got: vec![],
        });
        let mac = MacAddr::from_index(1);
        sim.post(stranger, SimDuration::ZERO, SendTo(mac));
        // Posted from outside any component: no sender at all.
        sim.post(sw, SimDuration::ZERO, packet_to(mac));
        sim.run();
        assert!(got(&sim, hosts[0].0).is_empty());
        let sw = sim.get::<Switch>(sw).unwrap();
        assert_eq!(sw.unroutable(), 2);
        assert_eq!(sw.forwarded(), 0);
    }

    #[test]
    fn forwarding_latency_applied() {
        // 1 Gbps: 8 ns per byte, so a 42-byte frame serializes in 336 ns
        // on each port, then propagates for 100 ns.
        let link = LinkParams {
            bandwidth_bps: 1_000_000_000,
            propagation: SimDuration::from_nanos(100),
            ..LinkParams::ten_gbps()
        };
        let params = SwitchParams {
            forwarding_latency: SimDuration::from_nanos(777),
        };
        let (mut sim, _, hosts) = bed(params, link, &[1, 2]);
        sim.post(
            hosts[0].0,
            SimDuration::ZERO,
            SendTo(MacAddr::from_index(2)),
        );
        sim.run();
        let arrivals: Vec<u64> = got(&sim, hosts[1].0)
            .iter()
            .map(|(t, _)| t.as_nanos())
            .collect();
        assert_eq!(arrivals, vec![336 + 100 + 777 + 336 + 100]);
    }

    #[test]
    fn link_faults_open_windows_on_the_named_port() {
        use lnic_sim::fault::{Duplicate, LinkDown};
        let (mut sim, sw, hosts) = bed(SwitchParams::default(), LinkParams::ten_gbps(), &[1, 2]);
        let (a, (a_up, _)) = hosts[0];
        let (b, (_, b_down)) = hosts[1];
        let to_b = || SendTo(MacAddr::from_index(2));
        // a's uplink is dark for the first 10 us; b's port duplicates
        // every frame for the next 10 us.
        sim.post(
            sw,
            SimDuration::ZERO,
            LinkDown {
                port: a_up,
                duration: SimDuration::from_micros(10),
            },
        );
        sim.post(
            sw,
            SimDuration::from_micros(10),
            Duplicate {
                port: b_down,
                duration: SimDuration::from_micros(10),
                prob: 1.0,
            },
        );
        sim.post(a, SimDuration::from_micros(5), to_b());
        sim.post(a, SimDuration::from_micros(12), to_b());
        sim.post(a, SimDuration::from_micros(30), to_b());
        sim.run();
        assert_eq!(got(&sim, b).len(), 3);
        let sw = sim.get::<Switch>(sw).unwrap();
        assert_eq!(sw.port(a_up).fault_drops(), 1);
        assert_eq!(sw.port(b_down).duplicated(), 1);
    }
}
