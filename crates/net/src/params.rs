//! Tunable parameters of the simulated network fabric.
//!
//! Defaults model the paper's testbed (§6.1.2): 10 Gbps links into an
//! Arista DCS-7124S cut-through-class switch.

use lnic_sim::time::SimDuration;

/// Parameters of one simplex [`crate::link::Port`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay (cable + PHY).
    pub propagation: SimDuration,
    /// Transmit queue capacity in bytes; excess frames are dropped.
    pub queue_capacity_bytes: usize,
    /// Probability of losing a frame in flight (bit errors, pause-frame
    /// corner cases); the weakly-consistent transport recovers via
    /// retransmission.
    pub loss_probability: f64,
}

impl LinkParams {
    /// A 10 Gbps data-center link, as in the paper's testbed.
    pub fn ten_gbps() -> Self {
        LinkParams {
            bandwidth_bps: 10_000_000_000,
            propagation: SimDuration::from_nanos(500),
            queue_capacity_bytes: 512 * 1024,
            loss_probability: 0.0,
        }
    }

    /// Time to clock `bytes` onto the wire, rounded to nanoseconds.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimDuration::from_nanos(ns as u64)
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::ten_gbps()
    }
}

impl LinkParams {
    /// Returns a copy with the given loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.loss_probability = p;
        self
    }
}

/// Parameters of the [`crate::switch::Switch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchParams {
    /// Fixed per-frame forwarding latency (lookup + crossbar).
    pub forwarding_latency: SimDuration,
}

impl Default for SwitchParams {
    fn default() -> Self {
        SwitchParams {
            // A 10 G data-center switch forwards in roughly a microsecond.
            forwarding_latency: SimDuration::from_nanos(1_000),
        }
    }
}

/// The maximum transmission unit used when fragmenting multi-packet
/// messages (standard Ethernet payload).
pub const MTU_PAYLOAD_BYTES: usize = 1_400;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_scales_linearly() {
        let p = LinkParams::ten_gbps();
        assert_eq!(
            p.serialization_delay(2_000).as_nanos(),
            2 * p.serialization_delay(1_000).as_nanos()
        );
        assert_eq!(p.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn one_gbps_is_ten_times_slower() {
        let fast = LinkParams::ten_gbps().serialization_delay(1_000);
        let slow = LinkParams {
            bandwidth_bps: 1_000_000_000,
            ..LinkParams::ten_gbps()
        }
        .serialization_delay(1_000);
        assert_eq!(slow.as_nanos(), 10 * fast.as_nanos());
    }
}
