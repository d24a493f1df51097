//! One membership contract, two tiers: the worker failover controller
//! and the gateway-tier controller run the same lease rounds, so with
//! the same timing the same fault lands on the same round in both.
//!
//! A NIC worker and a gateway shard crash at the same instant and
//! restart together. Both controllers start at time zero on a 50 ms
//! round with 150 ms leases and a 3-round miss threshold, so the
//! worker's fence and the shard's depose must share a sim time, and so
//! must the two rejoins.

use std::sync::Arc;

use lnic::failover::FailoverConfig;
use lnic::gwtier::TierConfig;
use lnic::prelude::*;
use lnic_integration::resilient_nic_config;
use lnic_sim::fault::FaultPlan;
use lnic_sim::prelude::*;
use lnic_workloads::three_web_servers;

/// Records when each membership transition was traced.
#[derive(Default)]
struct Transitions {
    worker_fenced: Vec<SimTime>,
    worker_rejoin: Vec<SimTime>,
    gw_deposed: Vec<SimTime>,
    gw_rejoin: Vec<SimTime>,
}

impl TraceSink for Transitions {
    fn on_record(&mut self, rec: &TraceRecord) {
        let slot = match rec.event {
            TraceEvent::WorkerFenced { .. } => &mut self.worker_fenced,
            TraceEvent::WorkerRejoin { .. } => &mut self.worker_rejoin,
            TraceEvent::GwDeposed { .. } => &mut self.gw_deposed,
            TraceEvent::GwRejoin { .. } => &mut self.gw_rejoin,
            _ => return,
        };
        slot.push(rec.at);
    }
}

#[test]
fn worker_and_shard_controllers_fence_and_rejoin_on_the_same_round() {
    let mut config = resilient_nic_config(42, 4);
    // Re-image a restarted NIC quickly so its rejoin is not held up by
    // the firmware swap.
    config.nic.firmware_swap_time = SimDuration::from_millis(5);
    let gw_params = config.gateway.clone();
    let link = config.link;
    let mut bed = build_testbed(config);
    bed.sim.add_trace_sink(Box::new(Transitions::default()));
    bed.preload(&Arc::new(three_web_servers()));
    let timing = FailoverConfig::default();
    let tier = TierConfig::default();
    assert_eq!(timing.heartbeat_interval, tier.heartbeat);
    assert_eq!(timing.lease_duration, tier.lease);
    assert_eq!(timing.missed_beats, tier.miss_threshold);
    bed.enable_failover(timing.fenced());
    bed.enable_gateway_tier(2, gw_params, link, tier);

    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    bed.inject_faults(
        &FaultPlan::new()
            .nic_crash(1, ms(1_010))
            .gateway_crash(1, ms(1_010))
            .nic_restart(1, ms(1_720))
            .gateway_restart(1, ms(1_720)),
    );
    bed.sim.run_until(ms(2_500));
    bed.finish_tracing();

    let t = bed.sim.trace_sink::<Transitions>().expect("sink attached");
    assert_eq!(t.worker_fenced.len(), 1, "NIC 1 must be fenced once");
    assert_eq!(t.gw_deposed.len(), 1, "shard 1 must be deposed once");
    assert_eq!(t.worker_rejoin.len(), 1, "NIC 1 must rejoin once");
    assert_eq!(t.gw_rejoin.len(), 1, "shard 1 must rejoin once");
    assert_eq!(
        t.worker_fenced, t.gw_deposed,
        "fence and depose must land on the same round"
    );
    assert_eq!(
        t.worker_rejoin, t.gw_rejoin,
        "both rejoins must land on the same round"
    );
    // The last ack lands in the 1 000 ms round. Renewals continue while
    // fewer than three rounds are silent, so the last lease goes out at
    // 1 150 ms and provably expires 150 ms later.
    assert_eq!(t.worker_fenced, vec![ms(1_300)]);
    // The first round after the restart probes both; the zero-delay
    // acks complete both rejoins at that instant.
    assert_eq!(t.worker_rejoin, vec![ms(1_750)]);
}
