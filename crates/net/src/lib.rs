//! # lnic-net: the simulated network substrate
//!
//! Models the paper's testbed fabric (§6.1.2): Ethernet/IPv4/UDP packets
//! with a byte-accurate λ-NIC lambda header, one store-and-forward
//! [`switch::Switch`] that owns a 10 Gbps [`link::Port`] each way per
//! attached endpoint, the retry policy of the weakly-consistent
//! sender-tracked RPC transport of §4.2-D3 ([`transport::RetryPolicy`]),
//! and fragmentation/reassembly with reorder-cost accounting for
//! multi-packet RDMA messages ([`frag`]).
//!
//! An endpoint's uplink is the switch: it sends its frames to the switch,
//! which runs the sender's ingress port, forwards by destination MAC and
//! runs the destination's egress port, three events per frame.
//!
//! ## Example: a frame across a switch
//!
//! ```
//! use lnic_sim::prelude::*;
//! use lnic_net::addr::{Ipv4Addr, MacAddr, SocketAddr};
//! use lnic_net::packet::Packet;
//! use lnic_net::params::{LinkParams, SwitchParams};
//! use lnic_net::switch::Switch;
//!
//! /// Counts the frames it receives, and sends one to `peer` when poked.
//! struct Nic {
//!     uplink: ComponentId,
//!     peer: MacAddr,
//!     received: u32,
//! }
//! #[derive(Debug)]
//! struct Poke;
//! impl Component for Nic {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
//!         if msg.downcast::<Packet>().is_ok() {
//!             self.received += 1;
//!             return;
//!         }
//!         let frame = Packet::builder()
//!             .eth(MacAddr::from_index(1), self.peer)
//!             .udp(
//!                 SocketAddr::new(Ipv4Addr::node(1), 1000),
//!                 SocketAddr::new(Ipv4Addr::node(4), 2000),
//!             )
//!             .build();
//!         ctx.send(self.uplink, SimDuration::ZERO, frame);
//!     }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let switch = sim.add(Switch::new(SwitchParams::default()));
//! let (mac_a, mac_b) = (MacAddr::from_index(1), MacAddr::from_index(4));
//! let a = sim.add(Nic { uplink: switch, peer: mac_b, received: 0 });
//! let b = sim.add(Nic { uplink: switch, peer: mac_a, received: 0 });
//! let sw = sim.get_mut::<Switch>(switch).unwrap();
//! sw.attach(a, mac_a, LinkParams::ten_gbps());
//! sw.attach(b, mac_b, LinkParams::ten_gbps());
//!
//! sim.post(a, SimDuration::ZERO, Poke);
//! sim.run();
//! assert_eq!(sim.get::<Nic>(b).unwrap().received, 1);
//! // Ingress, forward and delivery, plus the poke.
//! assert_eq!(sim.events_processed(), 4);
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod frag;
pub mod link;
pub mod packet;
pub mod params;
pub mod switch;
pub mod transport;

pub use addr::{Ipv4Addr, MacAddr, SocketAddr};
pub use packet::{LambdaHdr, LambdaKind, Packet};
