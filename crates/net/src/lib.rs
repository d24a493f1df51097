//! # lnic-net: the simulated network substrate
//!
//! Models the paper's testbed fabric (§6.1.2): Ethernet/IPv4/UDP packets
//! with a byte-accurate λ-NIC lambda header, 10 Gbps point-to-point
//! [`link::Link`]s, a store-and-forward [`switch::Switch`], the
//! retry policy of the weakly-consistent sender-tracked RPC transport of
//! §4.2-D3 ([`transport::RetryPolicy`]), and fragmentation/reassembly with
//! reorder-cost accounting for multi-packet RDMA messages ([`frag`]).
//!
//! ## Example: a frame across a switch
//!
//! ```
//! use lnic_sim::prelude::*;
//! use lnic_net::addr::{Ipv4Addr, MacAddr, SocketAddr};
//! use lnic_net::link::Link;
//! use lnic_net::packet::Packet;
//! use lnic_net::params::{LinkParams, SwitchParams};
//! use lnic_net::switch::Switch;
//!
//! struct Nic {
//!     received: u32,
//! }
//! impl Component for Nic {
//!     fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
//!         msg.downcast::<Packet>().expect("frame");
//!         self.received += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(1);
//! let nic = sim.add(Nic { received: 0 });
//! let port = sim.add(Link::new(nic, LinkParams::ten_gbps()));
//! let mut switch = Switch::new(SwitchParams::default());
//! let mac = MacAddr::from_index(4);
//! switch.connect(mac, port);
//! let switch = sim.add(switch);
//!
//! let frame = Packet::builder()
//!     .eth(MacAddr::from_index(1), mac)
//!     .udp(
//!         SocketAddr::new(Ipv4Addr::node(1), 1000),
//!         SocketAddr::new(Ipv4Addr::node(4), 2000),
//!     )
//!     .build();
//! sim.post(switch, SimDuration::ZERO, frame);
//! sim.run();
//! assert_eq!(sim.get::<Nic>(nic).unwrap().received, 1);
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
