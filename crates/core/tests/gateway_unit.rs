//! Unit tests for the gateway component in isolation: header insertion,
//! fragmentation, proxy serialization, retransmission, and accounting.

use bytes::Bytes;

use lnic::gateway::{
    Gateway, GatewayParams, RemoveWorkerEndpoints, RequestDone, SetPlacement, SubmitRequest,
    WorkerEndpoint,
};
use lnic_net::packet::{LambdaKind, Packet};
use lnic_net::params::MTU_PAYLOAD_BYTES;
use lnic_net::transport::RetryPolicy;
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::prelude::*;

/// Captures everything the gateway transmits.
struct Wire {
    sent: Vec<(SimTime, Packet)>,
}

impl Component for Wire {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.sent
            .push((ctx.now(), *msg.downcast::<Packet>().unwrap()));
    }
}

/// Captures completion callbacks.
struct Client {
    done: Vec<(SimTime, RequestDone)>,
}

impl Component for Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.done.push((
            ctx.now(),
            msg.downcast::<RequestDone>().unwrap().as_ref().clone(),
        ));
    }
}

fn worker_endpoint() -> WorkerEndpoint {
    WorkerEndpoint {
        mac: MacAddr::from_index(10),
        addr: SocketAddr::new(Ipv4Addr::node(2), 8000),
    }
}

fn setup(params: GatewayParams) -> (Simulation, ComponentId, ComponentId, ComponentId) {
    let mut sim = Simulation::new(3);
    let wire = sim.add(Wire { sent: vec![] });
    let client = sim.add(Client { done: vec![] });
    let mut gw = Gateway::new(params, wire);
    gw.place(7, worker_endpoint());
    let gw = sim.add(gw);
    (sim, gw, wire, client)
}

fn submit(payload: &[u8], client: ComponentId, token: u64) -> SubmitRequest {
    SubmitRequest {
        workload_id: 7,
        payload: Bytes::copy_from_slice(payload),
        reply_to: client,
        token,
    }
}

#[test]
fn small_payload_becomes_single_request_packet() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    sim.post(gw, SimDuration::ZERO, submit(b"req", client, 1));
    sim.run_for(SimDuration::from_millis(1));
    let sent = &sim.get::<Wire>(wire).unwrap().sent;
    assert_eq!(sent.len(), 1);
    let hdr = sent[0].1.lambda.expect("lambda header inserted");
    assert_eq!(hdr.workload_id, 7);
    assert_eq!(hdr.kind, LambdaKind::Request);
    assert_eq!(hdr.frag_count, 1);
    assert_eq!(&sent[0].1.payload[..], b"req");
    assert_eq!(sent[0].1.eth.dst, worker_endpoint().mac);
}

#[test]
fn large_payload_fragments_into_rdma_writes() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    let payload = vec![9u8; MTU_PAYLOAD_BYTES * 2 + 100];
    sim.post(gw, SimDuration::ZERO, submit(&payload, client, 1));
    sim.run_for(SimDuration::from_millis(1));
    let sent = &sim.get::<Wire>(wire).unwrap().sent;
    assert_eq!(sent.len(), 3);
    for (i, (_, p)) in sent.iter().enumerate() {
        let hdr = p.lambda.unwrap();
        assert_eq!(hdr.kind, LambdaKind::RdmaWrite);
        assert_eq!(hdr.frag_index, i as u16);
        assert_eq!(hdr.frag_count, 3);
    }
    let total: usize = sent.iter().map(|(_, p)| p.payload.len()).sum();
    assert_eq!(total, payload.len());
}

#[test]
fn unplaced_workload_fails_immediately() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    sim.post(
        gw,
        SimDuration::ZERO,
        SubmitRequest {
            workload_id: 99,
            payload: Bytes::new(),
            reply_to: client,
            token: 5,
        },
    );
    sim.run();
    assert!(sim.get::<Wire>(wire).unwrap().sent.is_empty());
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed);
    assert_eq!(done[0].1.token, 5);
    assert_eq!(sim.get::<Gateway>(gw).unwrap().counters().unplaced, 1);
}

#[test]
fn proxy_serializes_concurrent_submissions() {
    let params = GatewayParams {
        proxy_cost: SimDuration::from_micros(10),
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    for i in 0..3 {
        sim.post(gw, SimDuration::ZERO, submit(b"x", client, i));
    }
    sim.run_for(SimDuration::from_millis(1));
    let times: Vec<u64> = sim
        .get::<Wire>(wire)
        .unwrap()
        .sent
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(times, vec![10_000, 20_000, 30_000]);
}

#[test]
fn timeout_resends_then_gives_up() {
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 3,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"lost", client, 9));
    sim.run();
    // Original + 2 retries on the wire, then a failed completion.
    assert_eq!(sim.get::<Wire>(wire).unwrap().sent.len(), 3);
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed);
    let c = sim.get::<Gateway>(gw).unwrap().counters();
    assert_eq!(c.retransmitted, 2);
    assert_eq!(c.failed, 1);
}

#[test]
fn response_completes_and_records_latency() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    sim.post(gw, SimDuration::ZERO, submit(b"ping", client, 2));
    sim.run_for(SimDuration::from_micros(50));

    // Craft the worker's response to the captured request.
    let req = sim.get::<Wire>(wire).unwrap().sent[0].1.clone();
    let resp_hdr = req.lambda.unwrap().response_to(0);
    let resp = req
        .reply_to()
        .lambda(resp_hdr)
        .payload(Bytes::from_static(b"pong"))
        .build();
    sim.post(gw, SimDuration::from_micros(100), resp);
    sim.run();

    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(!done[0].1.failed);
    assert_eq!(&done[0].1.response[..], b"pong");
    assert_eq!(done[0].1.return_code, Some(0));
    // Latency measured from wire time (15us proxy) to response arrival.
    let expected = done[0].1.latency.as_nanos();
    assert_eq!(expected, 150_000 - 15_000);

    // One completion, for workload 7, and nothing else resolved.
    assert_eq!(done[0].1.workload_id, 7);
    let c = sim.get::<Gateway>(gw).unwrap().counters();
    assert_eq!((c.submitted, c.completed, c.failed), (1, 1, 0));
}

#[test]
fn duplicate_response_ignored() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    sim.post(gw, SimDuration::ZERO, submit(b"once", client, 3));
    sim.run_for(SimDuration::from_micros(50));
    let req = sim.get::<Wire>(wire).unwrap().sent[0].1.clone();
    let resp_hdr = req.lambda.unwrap().response_to(0);
    let resp = req.reply_to().lambda(resp_hdr).build();
    sim.post(gw, SimDuration::from_micros(60), resp.clone());
    sim.post(gw, SimDuration::from_micros(70), resp);
    sim.run();
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1, "duplicate must not double-complete");
    let g = sim.get::<Gateway>(gw).unwrap();
    assert_eq!(g.counters().completed, 1);
    assert_eq!(g.duplicate_replies(), 1, "the second reply is counted");
    assert_eq!((g.in_flight(), g.tenant_slots_held()), (0, 0));
}

#[test]
fn duplicate_response_after_completion_is_counted_not_replayed() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    sim.post(gw, SimDuration::ZERO, submit(b"q", client, 4));
    sim.run_for(SimDuration::from_micros(50));
    let resp = reply_to_sent(&sim, wire, 0);
    // The first reply completes; two later copies (say, replies to
    // retransmissions) are counted and never reach the client.
    sim.post(gw, SimDuration::from_micros(10), resp.clone());
    sim.post(gw, SimDuration::from_micros(20), resp.clone());
    sim.post(gw, SimDuration::from_micros(30), resp);
    sim.run();
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(!done[0].1.failed);
    let g = sim.get::<Gateway>(gw).unwrap();
    assert_eq!(g.counters().completed, 1);
    assert_eq!(g.duplicate_replies(), 2);
    assert_eq!((g.in_flight(), g.tenant_slots_held()), (0, 0));
}

/// The worker's reply to the `index`-th packet the gateway sent.
fn reply_to_sent(sim: &Simulation, wire: ComponentId, index: usize) -> Packet {
    let req = sim.get::<Wire>(wire).unwrap().sent[index].1.clone();
    let hdr = req.lambda.unwrap().response_to(0);
    req.reply_to().lambda(hdr).build()
}

#[test]
fn late_response_after_give_up_counts_as_duplicate() {
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 1,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"slow", client, 1));
    // The only timer fires at 115 us and gives up; the reply is late.
    sim.run_for(SimDuration::from_micros(50));
    let resp = reply_to_sent(&sim, wire, 0);
    sim.post(gw, SimDuration::from_micros(150), resp);
    sim.run();
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed, "the give-up is the only completion");
    let g = sim.get::<Gateway>(gw).unwrap();
    assert_eq!((g.counters().completed, g.counters().failed), (0, 1));
    assert_eq!(g.duplicate_replies(), 1);
    assert_eq!((g.in_flight(), g.tenant_slots_held()), (0, 0));
}

#[test]
fn response_then_stale_timer_is_ignored() {
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 3,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"fast", client, 1));
    sim.run_for(SimDuration::from_micros(50));
    let resp = reply_to_sent(&sim, wire, 0);
    sim.post(gw, SimDuration::ZERO, resp);
    // Runs past the armed timer at 115 us.
    sim.run();
    assert_eq!(sim.get::<Wire>(wire).unwrap().sent.len(), 1, "no resend");
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(!done[0].1.failed);
    let c = sim.get::<Gateway>(gw).unwrap().counters();
    assert_eq!((c.completed, c.retransmitted, c.failed), (1, 0, 0));
}

#[test]
fn deadline_gives_up_with_attempts_remaining() {
    let mut retry = RetryPolicy::fixed(SimDuration::from_millis(1), 100);
    retry.deadline = Some(SimDuration::from_millis(3));
    let params = GatewayParams {
        retry: Some(retry),
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"lost", client, 1));
    sim.run();
    // Sends at 15 us, 1.015 ms and 2.015 ms; the timer at 3.015 ms
    // reaches the deadline with 97 attempts unspent.
    let times: Vec<u64> = sim
        .get::<Wire>(wire)
        .unwrap()
        .sent
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(times, [15_000, 1_015_000, 2_015_000]);
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed);
    assert_eq!(done[0].0.as_nanos(), 3_015_000);
    assert_eq!(done[0].1.latency, SimDuration::from_millis(3));
    assert_eq!(sim.get::<Gateway>(gw).unwrap().in_flight(), 0);
}

#[test]
fn gateway_id_moves_the_request_id_space() {
    let ids = |gateway_id: Option<u32>| -> Vec<u64> {
        let mut sim = Simulation::new(3);
        let wire = sim.add(Wire { sent: vec![] });
        let client = sim.add(Client { done: vec![] });
        let mut gw = Gateway::new(GatewayParams::default(), wire);
        if let Some(id) = gateway_id {
            gw = gw.with_gateway_id(id);
        }
        gw.place(7, worker_endpoint());
        let gw = sim.add(gw);
        for token in 0..3 {
            sim.post(gw, SimDuration::ZERO, submit(b"x", client, token));
        }
        sim.run_for(SimDuration::from_millis(1));
        let sent = &sim.get::<Wire>(wire).unwrap().sent;
        sent.iter()
            .map(|(_, p)| p.lambda.unwrap().request_id)
            .collect()
    };
    // A standalone gateway (and shard 0) issues 1, 2, 3, ...
    assert_eq!(ids(None), [1, 2, 3]);
    assert_eq!(ids(Some(0)), [1, 2, 3]);
    // Shard 3's ids carry its index in the high bits.
    let base = 3u64 << 48;
    assert_eq!(ids(Some(3)), [base + 1, base + 2, base + 3]);
}

#[test]
#[should_panic(expected = "at least one attempt")]
fn zero_attempt_policy_is_rejected() {
    let mut retry = RetryPolicy::fixed(SimDuration::from_millis(1), 1);
    retry.max_attempts = 0;
    let params = GatewayParams {
        retry: Some(retry),
        ..Default::default()
    };
    let _ = Gateway::new(params, ComponentId::from_index_for_tests(0));
}

#[test]
fn resend_re_resolves_placement_after_failover() {
    // A worker dies after the original send; the failover controller
    // withdraws its endpoints and installs a survivor. The
    // retransmission must chase the *new* placement, not the endpoint
    // captured at first send.
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 3,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    let survivor = WorkerEndpoint {
        mac: MacAddr::from_index(11),
        addr: SocketAddr::new(Ipv4Addr::node(3), 8000),
    };
    sim.post(gw, SimDuration::ZERO, submit(b"chase", client, 4));
    // Between the original send (15us) and the first timeout (115us),
    // the controller evicts the dead worker and re-places the workload.
    sim.post(
        gw,
        SimDuration::from_micros(50),
        RemoveWorkerEndpoints {
            mac: worker_endpoint().mac,
        },
    );
    sim.post(
        gw,
        SimDuration::from_micros(51),
        SetPlacement {
            workload_id: 7,
            endpoint: survivor,
        },
    );
    sim.run();
    let sent = &sim.get::<Wire>(wire).unwrap().sent;
    assert_eq!(sent.len(), 3, "original + 2 retransmissions");
    assert_eq!(sent[0].1.eth.dst, worker_endpoint().mac);
    assert_eq!(sent[1].1.eth.dst, survivor.mac, "resend follows failover");
    assert_eq!(sent[1].1.dst_addr(), survivor.addr);
    assert_eq!(sent[2].1.eth.dst, survivor.mac);
}

#[test]
fn redirect_retargets_future_resends() {
    // The workload moves to another live worker between the original
    // send (15 us) and the first timeout (115 us): the resend goes to
    // the new placement.
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 2,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    let moved = WorkerEndpoint {
        mac: MacAddr::from_index(12),
        addr: SocketAddr::new(Ipv4Addr::node(4), 8000),
    };
    sim.post(gw, SimDuration::ZERO, submit(b"move", client, 5));
    sim.post(
        gw,
        SimDuration::from_micros(50),
        SetPlacement {
            workload_id: 7,
            endpoint: moved,
        },
    );
    sim.run_for(SimDuration::from_micros(200));
    let sent = &sim.get::<Wire>(wire).unwrap().sent;
    assert_eq!(sent.len(), 2, "original + 1 retransmission");
    assert_eq!(sent[0].1.eth.dst, worker_endpoint().mac);
    assert_eq!(sent[1].1.eth.dst, moved.mac, "resend follows the redirect");
    assert_eq!(sent[1].1.dst_addr(), moved.addr);

    // Once the request completes, moving the workload back sends nothing.
    let resp = reply_to_sent(&sim, wire, 1);
    sim.post(gw, SimDuration::ZERO, resp);
    sim.post(
        gw,
        SimDuration::from_micros(1),
        SetPlacement {
            workload_id: 7,
            endpoint: worker_endpoint(),
        },
    );
    sim.run();
    assert_eq!(sim.get::<Wire>(wire).unwrap().sent.len(), 2);
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(!done[0].1.failed);
    assert_eq!(sim.get::<Gateway>(gw).unwrap().in_flight(), 0);
}

#[test]
fn dead_placement_with_no_survivor_fails_fast() {
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 5,
        ..Default::default()
    };
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"orphan", client, 8));
    sim.post(
        gw,
        SimDuration::from_micros(50),
        RemoveWorkerEndpoints {
            mac: worker_endpoint().mac,
        },
    );
    sim.run();
    // Only the original went out; the first timeout finds no endpoint
    // and fails the request instead of burning the remaining attempts.
    assert_eq!(sim.get::<Wire>(wire).unwrap().sent.len(), 1);
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed);
    assert_eq!(sim.get::<Gateway>(gw).unwrap().counters().failed, 1);
}

#[test]
fn resilient_policy_backs_off_between_retransmissions() {
    let params = GatewayParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 3,
        ..Default::default()
    }
    .resilient();
    let (mut sim, gw, wire, client) = setup(params);
    sim.post(gw, SimDuration::ZERO, submit(b"never-answered", client, 6));
    sim.run();
    let times: Vec<u64> = sim
        .get::<Wire>(wire)
        .unwrap()
        .sent
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(times.len(), 3);
    let gap1 = times[1] - times[0];
    let gap2 = times[2] - times[1];
    // Exponential policy doubles the timer (±10% jitter).
    assert!(
        (90_000..=110_000).contains(&gap1),
        "first gap ~100us, got {gap1}"
    );
    assert!(
        (180_000..=220_000).contains(&gap2),
        "second gap ~200us, got {gap2}"
    );
    // The request still fails upstream after the budget.
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert!(done[0].1.failed);
}

#[test]
fn set_placement_message_updates_routing() {
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    let new_endpoint = WorkerEndpoint {
        mac: MacAddr::from_index(20),
        addr: SocketAddr::new(Ipv4Addr::node(3), 8000),
    };
    sim.post(
        gw,
        SimDuration::ZERO,
        SetPlacement {
            workload_id: 7,
            endpoint: new_endpoint,
        },
    );
    sim.post(gw, SimDuration::from_micros(1), submit(b"x", client, 1));
    sim.run_for(SimDuration::from_millis(1));
    let sent = &sim.get::<Wire>(wire).unwrap().sent;
    assert_eq!(sent[0].1.eth.dst, new_endpoint.mac);
    assert_eq!(sent[0].1.dst_addr(), new_endpoint.addr);
}

/// Stands in for the tier controller: records lease acks and epoch
/// reports.
#[derive(Default)]
struct TierCtl {
    acks: Vec<lnic_sim::fault::LeaseAck>,
    reports: Vec<lnic_sim::fault::EpochReport>,
}

impl Component for TierCtl {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
        match msg.downcast::<lnic_sim::fault::LeaseAck>() {
            Ok(ack) => self.acks.push(*ack),
            Err(other) => self.reports.push(
                *other
                    .downcast::<lnic_sim::fault::EpochReport>()
                    .expect("acks and reports only"),
            ),
        }
    }
}

#[test]
fn restarted_shard_reports_its_epoch_and_bounces_until_re_leased() {
    use lnic_sim::fault::{Crash, EpochQuery, GrantLease, Restart};
    let (mut sim, gw, wire, client) = setup(GatewayParams::default());
    let ctl = sim.add(TierCtl::default());
    let ms = SimDuration::from_millis;
    let grant = |epoch, until: SimDuration| GrantLease {
        epoch,
        until_ns: until.as_nanos(),
        rejoin: false,
        reply_to: ctl,
    };
    sim.post(gw, ms(0), grant(3, ms(100)));
    sim.post(gw, ms(1), Crash);
    sim.post(gw, ms(2), Restart);
    sim.post(gw, ms(3), EpochQuery { reply_to: ctl });
    // Restarted with a lapsed lease: routed work bounces.
    sim.post(gw, ms(4), submit(b"a", client, 1));
    sim.post(gw, ms(5), grant(3, ms(100)));
    sim.post(gw, ms(6), submit(b"b", client, 2));
    sim.run_for(ms(7));

    // The crash lapsed the lease but kept its epoch.
    let reports = &sim.get::<TierCtl>(ctl).unwrap().reports;
    assert_eq!(reports.len(), 1);
    assert_eq!((reports[0].epoch, reports[0].lease_until_ns), (3, 0));
    let done = &sim.get::<Client>(client).unwrap().done;
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1.token, 1);
    assert_eq!(done[0].1.return_code, Some(lnic_net::packet::RC_FENCED));
    assert_eq!(sim.get::<Gateway>(gw).unwrap().counters().bounced, 1);
    // Re-leased: the next submit goes out on the wire.
    assert_eq!(sim.get::<Wire>(wire).unwrap().sent.len(), 1);
    let acks: Vec<u64> = sim
        .get::<TierCtl>(ctl)
        .unwrap()
        .acks
        .iter()
        .map(|a| a.epoch)
        .collect();
    assert_eq!(acks, [3, 3]);
}
