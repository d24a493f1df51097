//! Addressing primitives for the simulated network.

use std::fmt;

/// A 48-bit Ethernet MAC address.
///
/// # Examples
///
/// ```
/// use lnic_net::addr::MacAddr;
///
/// let mac = MacAddr::new([0x02, 0, 0, 0, 0, 0x2a]);
/// assert_eq!(mac.to_string(), "02:00:00:00:00:2a");
/// assert_eq!(MacAddr::from_index(42), mac);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Creates an address from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Creates a locally-administered unicast address from a small index;
    /// convenient for assigning testbed NICs stable addresses.
    pub const fn from_index(index: u32) -> Self {
        let b = index.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns the raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// A 32-bit IPv4 address.
///
/// # Examples
///
/// ```
/// use lnic_net::addr::Ipv4Addr;
///
/// let a = Ipv4Addr::new(10, 0, 0, 1);
/// assert_eq!(a.to_string(), "10.0.0.1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(u32);

impl Ipv4Addr {
    /// Creates an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Creates an address from its 32-bit big-endian value.
    pub const fn from_bits(bits: u32) -> Self {
        Ipv4Addr(bits)
    }

    /// Returns the 32-bit big-endian value.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// A testbed convention: node `i` lives at `10.0.0.i`.
    pub const fn node(i: u8) -> Self {
        Ipv4Addr::new(10, 0, 0, i)
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// A UDP endpoint: IPv4 address plus port.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SocketAddr {
    /// The IPv4 address.
    pub ip: Ipv4Addr,
    /// The UDP port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates an endpoint.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        SocketAddr { ip, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_from_index_is_stable_and_unique() {
        let a = MacAddr::from_index(1);
        let b = MacAddr::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a, MacAddr::from_index(1));
        assert_ne!(a, MacAddr::BROADCAST);
    }

    #[test]
    fn ipv4_bits_roundtrip() {
        let a = Ipv4Addr::new(192, 168, 1, 7);
        assert_eq!(Ipv4Addr::from_bits(a.to_bits()), a);
        assert_eq!(a.to_string(), "192.168.1.7");
        assert_eq!(Ipv4Addr::node(3).to_string(), "10.0.0.3");
    }

    #[test]
    fn socket_addr_display() {
        let s = SocketAddr::new(Ipv4Addr::node(1), 8080);
        assert_eq!(s.to_string(), "10.0.0.1:8080");
    }
}
