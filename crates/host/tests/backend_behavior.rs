//! Behavioural tests for the host backend: request handling, GIL
//! serialization, context-switch penalties, container overheads, and
//! resource accounting.

use std::sync::Arc;

use bytes::Bytes;

use lnic_host::{DeployProgram, HostBackend, HostParams};
use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::ir::ObjId;
use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet};
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_sim::prelude::*;

const GW_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 1]);
const HOST_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 3]);
const GW_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000);
const HOST_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 3), 8000);

struct GwSink {
    responses: Vec<(SimTime, Packet)>,
}

impl Component for GwSink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let p = msg.downcast::<Packet>().expect("packets only");
        self.responses.push((ctx.now(), *p));
    }
}

fn web_lambda(name: &str, id: u32, content: &[u8]) -> Lambda {
    let entry = FnBuilder::new(name)
        .constant(1, 0)
        .constant(2, content.len() as u64)
        .emit_obj(ObjId(0), 1, 2)
        .ret_const(0)
        .build();
    let mut l = Lambda::new(name, WorkloadId(id), entry);
    l.add_object(MemObject::with_data("content", content.to_vec()));
    l
}

fn web_program(content: &[u8]) -> Arc<Program> {
    let mut p = Program::new();
    p.add_lambda(web_lambda("web", 1, content), vec![]);
    p.validate().unwrap();
    Arc::new(p)
}

fn three_web_programs() -> Arc<Program> {
    let mut p = Program::new();
    for (i, name) in ["web_a", "web_b", "web_c"].iter().enumerate() {
        p.add_lambda(web_lambda(name, i as u32 + 1, b"response body"), vec![]);
    }
    p.validate().unwrap();
    Arc::new(p)
}

fn request(workload: u32, request_id: u64) -> Packet {
    Packet::builder()
        .eth(GW_MAC, HOST_MAC)
        .udp(GW_ADDR, HOST_ADDR)
        .lambda(LambdaHdr::request(workload, request_id))
        .build()
}

fn testbed(params: HostParams, program: Arc<Program>) -> (Simulation, ComponentId, ComponentId) {
    let mut sim = Simulation::new(11);
    let sink = sim.add(GwSink { responses: vec![] });
    let backend = sim.add(HostBackend::new(params, HOST_MAC, HOST_ADDR.ip, sink).preload(program));
    (sim, backend, sink)
}

#[test]
fn serves_a_request_with_software_overheads() {
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), web_program(b"hello"));
    sim.post(backend, SimDuration::ZERO, request(1, 1));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(&responses[0].1.payload[..], b"hello");
    assert_eq!(responses[0].1.lambda.unwrap().kind, LambdaKind::Response);
    // Bare-metal service time must include stack + dispatch + runtime:
    // well above 200 us, far below container territory.
    let t = responses[0].0.as_nanos();
    assert!(t > 200_000, "too fast: {t} ns");
    assert!(t < 1_000_000, "too slow: {t} ns");
}

#[test]
fn container_is_an_order_of_magnitude_slower_than_bare_metal() {
    let run = |params: HostParams| {
        let (mut sim, backend, sink) = testbed(params, web_program(b"hi"));
        sim.post(backend, SimDuration::ZERO, request(1, 1));
        sim.run();
        let _ = backend;
        sim.get::<GwSink>(sink).unwrap().responses[0].0
    };
    let bm = run(HostParams::bare_metal(1));
    let ct = run(HostParams::container(1));
    assert!(
        ct.as_nanos() > 10 * bm.as_nanos(),
        "container {ct} vs bare-metal {bm}"
    );
}

#[test]
fn gil_serializes_executions_across_workers() {
    // 8 workers, but the GIL allows one execution at a time: total time
    // for 8 requests ~ 8x a single request's interpreter segment.
    let program = web_program(&[9u8; 4096]);
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(8), program.clone());
    for i in 0..8 {
        sim.post(backend, SimDuration::ZERO, request(1, i));
    }
    sim.run();
    let gil_times: Vec<u64> = sim
        .get::<GwSink>(sink)
        .unwrap()
        .responses
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(gil_times.len(), 8);

    // Same load without the GIL: far more overlap.
    let mut params = HostParams::bare_metal(8);
    params.gil = false;
    let (mut sim2, backend2, sink2) = testbed(params, program);
    for i in 0..8 {
        sim2.post(backend2, SimDuration::ZERO, request(1, i));
    }
    sim2.run();
    let nogil_last = sim2
        .get::<GwSink>(sink2)
        .unwrap()
        .responses
        .iter()
        .map(|(t, _)| t.as_nanos())
        .max()
        .unwrap();
    let gil_last = *gil_times.iter().max().unwrap();
    assert!(
        gil_last > 2 * nogil_last,
        "gil {gil_last} vs nogil {nogil_last}"
    );
}

#[test]
fn context_switches_charged_when_lambdas_interleave() {
    // Round-robin requests across three distinct lambdas (Fig 8 setup).
    // Jitter off so the arrival interleaving is exactly round-robin.
    let mut params = HostParams::bare_metal(1);
    params.jitter = 0.0;
    let (mut sim, backend, sink) = testbed(params.clone(), three_web_programs());
    for i in 0..9 {
        sim.post(backend, SimDuration::ZERO, request((i % 3) + 1, i as u64));
    }
    sim.run();
    assert_eq!(sim.get::<GwSink>(sink).unwrap().responses.len(), 9);
    let c = sim.get::<HostBackend>(backend).unwrap().counters();
    // Every request after the first switches lambdas.
    assert_eq!(c.context_switches, 8);

    // Same number of requests to a single lambda: no switches.
    let (mut sim2, backend2, _) = testbed(params, three_web_programs());
    for i in 0..9 {
        sim2.post(backend2, SimDuration::ZERO, request(1, i));
    }
    sim2.run();
    assert_eq!(
        sim2.get::<HostBackend>(backend2)
            .unwrap()
            .counters()
            .context_switches,
        0
    );
}

#[test]
fn interleaved_lambdas_have_higher_latency_than_single() {
    let run = |mixed: bool| {
        let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), three_web_programs());
        for i in 0..12u64 {
            let wid = if mixed { (i % 3) as u32 + 1 } else { 1 };
            sim.post(backend, SimDuration::ZERO, request(wid, i));
        }
        sim.run();
        let _ = backend;
        sim.get::<GwSink>(sink)
            .unwrap()
            .responses
            .iter()
            .map(|(t, _)| t.as_nanos())
            .max()
            .unwrap()
    };
    let mixed = run(true);
    let single = run(false);
    assert!(mixed > single, "mixed={mixed} single={single}");
}

#[test]
fn fragmented_requests_reassemble() {
    // Lambda that emits payload length.
    let entry = FnBuilder::new("len")
        .load_payload_len(1)
        .emit(1, lnic_mlambda::ir::Width::B4)
        .ret_const(0)
        .build();
    let mut p = Program::new();
    p.add_lambda(Lambda::new("len", WorkloadId(5), entry), vec![]);
    let p = Arc::new(p);
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), p);

    let payload = vec![1u8; 3000];
    let frags = lnic_net::frag::fragment(Bytes::from(payload), 1400);
    let n = frags.len() as u16;
    for (i, f) in frags.into_iter().enumerate() {
        let pkt = Packet::builder()
            .eth(GW_MAC, HOST_MAC)
            .udp(GW_ADDR, HOST_ADDR)
            .lambda(LambdaHdr {
                workload_id: 5,
                request_id: 9,
                frag_index: i as u16,
                frag_count: n,
                kind: LambdaKind::RdmaWrite,
                return_code: 0,
                ..Default::default()
            })
            .payload(f)
            .build();
        sim.post(backend, SimDuration::ZERO, pkt);
    }
    sim.run();
    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(&responses[0].1.payload[..], &3000u32.to_be_bytes());
}

#[test]
fn resource_accounting_tracks_cpu_and_memory() {
    let params = HostParams::bare_metal(4);
    let base_mem = params.instance_memory_bytes;
    let (mut sim, backend, _) = testbed(params, web_program(b"x"));
    assert!(
        sim.get::<HostBackend>(backend)
            .unwrap()
            .memory_in_use_bytes()
            >= base_mem
    );

    for i in 0..20 {
        sim.post(backend, SimDuration::ZERO, request(1, i));
    }
    sim.run();
    let b = sim.get::<HostBackend>(backend).unwrap();
    assert!(b.cpu_busy() > SimDuration::ZERO);
    let window = SimDuration::from_millis(100);
    assert!(b.cpu_percent(window) > 0.0);
    assert_eq!(b.cpu_percent(SimDuration::ZERO), 0.0);

    // Container backend burns more CPU for the same work.
    let (mut sim2, backend2, _) = testbed(HostParams::container(4), web_program(b"x"));
    for i in 0..20 {
        sim2.post(backend2, SimDuration::ZERO, request(1, i));
    }
    sim2.run();
    assert!(sim2.get::<HostBackend>(backend2).unwrap().cpu_busy() > b.cpu_busy());
}

#[test]
fn undeployed_backend_drops_requests() {
    let mut sim = Simulation::new(1);
    let sink = sim.add(GwSink { responses: vec![] });
    let backend = sim.add(HostBackend::new(
        HostParams::bare_metal(1),
        HOST_MAC,
        HOST_ADDR.ip,
        sink,
    ));
    sim.post(backend, SimDuration::ZERO, request(1, 1));
    sim.run();
    assert!(sim.get::<GwSink>(sink).unwrap().responses.is_empty());
    assert_eq!(
        sim.get::<HostBackend>(backend).unwrap().counters().dropped,
        1
    );

    // Deploy via message; now it serves.
    sim.post(
        backend,
        SimDuration::ZERO,
        DeployProgram::unfenced(web_program(b"late")),
    );
    sim.post(backend, SimDuration::from_millis(1), request(1, 2));
    sim.run();
    assert_eq!(sim.get::<GwSink>(sink).unwrap().responses.len(), 1);
}

#[test]
fn queueing_under_concurrency_builds_tail_latency() {
    // 56 concurrent requests on a GIL-serialized single backend: the
    // last response is far later than the first (Fig 8's long tail).
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(56), three_web_programs());
    for i in 0..56u64 {
        sim.post(backend, SimDuration::ZERO, request((i % 3) as u32 + 1, i));
    }
    sim.run();
    let times: Vec<u64> = sim
        .get::<GwSink>(sink)
        .unwrap()
        .responses
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(times.len(), 56);
    let first = *times.iter().min().unwrap();
    let last = *times.iter().max().unwrap();
    assert!(last > 10 * first, "first={first} last={last}");
    // The tail should land in the tens-of-milliseconds regime.
    assert!(last > 10_000_000, "tail only {last} ns");
}

#[test]
fn host_lambda_rpc_times_out_and_fails_cleanly() {
    use lnic_mlambda::ir::retcode;

    // A KV-client-style lambda with no service wired up: its RPC times
    // out, retries, and finally fails with an ERROR response.
    let entry = FnBuilder::new("kv")
        .constant(1, 0)
        .constant(2, 4)
        .constant(3, 8)
        .constant(4, 8)
        .instr(lnic_mlambda::ir::Instr::NetRpc {
            service: 1,
            req_obj: ObjId(0),
            req_off: 1,
            req_len: 2,
            resp_obj: ObjId(0),
            resp_off: 3,
            resp_cap: 4,
            resp_len_dst: 5,
        })
        .ret_const(0)
        .build();
    let mut l = Lambda::new("kv", WorkloadId(9), entry);
    l.add_object(MemObject::with_data("buf", b"get 1234 padding".to_vec()));
    let mut p = Program::new();
    p.add_lambda(l, vec![]);
    let p = Arc::new(p);

    let mut params = HostParams::bare_metal(2);
    params.rpc_timeout = SimDuration::from_millis(1);
    params.rpc_attempts = 2;
    let (mut sim, backend, sink) = testbed(params, p);
    sim.post(backend, SimDuration::ZERO, request(9, 1));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(
        responses[0].1.lambda.unwrap().return_code,
        retcode::ERROR as u16
    );
    // Two timeout windows elapsed before the failure.
    assert!(responses[0].0.as_nanos() >= 2_000_000);
    let c = sim.get::<HostBackend>(backend).unwrap().counters();
    assert_eq!(c.faults, 1);
    assert_eq!(c.responses, 1);
}

#[test]
fn runq_drains_when_requests_exceed_workers() {
    let mut params = HostParams::bare_metal(2);
    params.jitter = 0.0;
    let (mut sim, backend, sink) = testbed(params, web_program(b"queued"));
    for i in 0..12 {
        sim.post(backend, SimDuration::ZERO, request(1, i));
    }
    sim.run();
    assert_eq!(sim.get::<GwSink>(sink).unwrap().responses.len(), 12);
    let c = sim.get::<HostBackend>(backend).unwrap().counters();
    assert!(c.queued >= 10, "most requests waited: {c:?}");
    assert_eq!(c.responses, 12);
}

#[test]
fn container_pays_overlay_on_both_directions() {
    // Identical service, container vs bare metal: the difference must be
    // at least overlay_rx + overlay_tx.
    let run = |params: HostParams| {
        let (mut sim, backend, sink) = testbed(params, web_program(b"x"));
        sim.post(backend, SimDuration::ZERO, request(1, 1));
        sim.run();
        let _ = backend;
        sim.get::<GwSink>(sink).unwrap().responses[0].0.as_nanos()
    };
    let mut bm = HostParams::bare_metal(1);
    bm.jitter = 0.0;
    let mut ct = HostParams::container(1);
    ct.jitter = 0.0;
    let overlay = ct.container.unwrap();
    let delta = run(ct.clone()) - run(bm);
    let both_ways = (overlay.overlay_rx + overlay.overlay_tx).as_nanos();
    assert!(
        delta >= both_ways,
        "container delta {delta} must cover {both_ways}"
    );
}

#[test]
fn fragmented_requests_cost_per_packet_kernel_time() {
    // Same total payload, 1 packet vs 4 fragments: the fragmented form
    // pays per-packet kernel costs on top.
    let entry = FnBuilder::new("len")
        .load_payload_len(1)
        .emit(1, lnic_mlambda::ir::Width::B4)
        .ret_const(0)
        .build();
    let mut p = Program::new();
    p.add_lambda(Lambda::new("len", WorkloadId(5), entry), vec![]);
    let p = Arc::new(p);

    let mut params = HostParams::bare_metal(1);
    params.jitter = 0.0;
    let run = |frags: usize| {
        let (mut sim, backend, sink) = testbed(params.clone(), p.clone());
        let payload = vec![1u8; 1200];
        let chunk = payload.len() / frags;
        for i in 0..frags {
            let pkt = Packet::builder()
                .eth(GW_MAC, HOST_MAC)
                .udp(GW_ADDR, HOST_ADDR)
                .lambda(LambdaHdr {
                    workload_id: 5,
                    request_id: 9,
                    frag_index: i as u16,
                    frag_count: frags as u16,
                    kind: LambdaKind::RdmaWrite,
                    return_code: 0,
                    ..Default::default()
                })
                .payload(Bytes::from(payload[i * chunk..(i + 1) * chunk].to_vec()))
                .build();
            sim.post(backend, SimDuration::ZERO, pkt);
        }
        let _ = backend;
        sim.run();
        let responses = &sim.get::<GwSink>(sink).unwrap().responses;
        assert_eq!(responses.len(), 1);
        assert_eq!(&responses[0].1.payload[..], &1200u32.to_be_bytes());
        responses[0].0.as_nanos()
    };
    let single = run(1);
    let four = run(4);
    assert!(
        four >= single + 3 * params.per_packet_kernel.as_nanos(),
        "four-fragment {four} vs single {single}"
    );
}

#[test]
fn malformed_program_is_refused_and_the_previous_program_keeps_serving() {
    // Register 40 does not exist (32 per thread); the program skips
    // validation, as a buggy controller's deploy would.
    let mut bad = (*web_program(b"bad")).clone();
    bad.lambdas[0].functions[0]
        .body
        .insert(0, lnic_mlambda::ir::Instr::Mov { dst: 1, src: 40 });
    let bad = Arc::new(bad);

    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), web_program(b"v1"));
    sim.post(
        backend,
        SimDuration::ZERO,
        DeployProgram::unfenced(Arc::clone(&bad)),
    );
    sim.post(backend, SimDuration::from_millis(1), request(1, 1));
    sim.run();
    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(&responses[0].1.payload[..], b"v1");
    let c = sim.get::<HostBackend>(backend).unwrap().counters();
    assert_eq!(c.rejected_programs, 1);
    assert_eq!(c.faults, 0);

    // A backend preloaded with only the bad program serves nothing.
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), bad);
    sim.post(backend, SimDuration::ZERO, request(1, 1));
    sim.run();
    assert!(sim.get::<GwSink>(sink).unwrap().responses.is_empty());
    let c = sim.get::<HostBackend>(backend).unwrap().counters();
    assert_eq!(c.rejected_programs, 1);
    assert_eq!(c.dropped, 1);
}

/// Stands in for the failover controller: records every lease ack.
struct AckSink {
    acks: Vec<lnic_sim::fault::LeaseAck>,
}

impl Component for AckSink {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let ack = msg
            .downcast::<lnic_sim::fault::LeaseAck>()
            .expect("acks only");
        self.acks.push(*ack);
    }
}

#[test]
fn rejoin_probe_stops_serving_until_the_next_grant() {
    use lnic_sim::fault::GrantLease;
    let (mut sim, backend, sink) = testbed(HostParams::bare_metal(1), web_program(b"hi"));
    let ctl = sim.add(AckSink { acks: vec![] });
    let probe = SimDuration::from_micros(10);
    sim.post(
        backend,
        SimDuration::ZERO,
        GrantLease {
            epoch: 1,
            until_ns: SimDuration::from_millis(100).as_nanos(),
            rejoin: false,
            reply_to: ctl,
        },
    );
    // A rejoin probe carries the bumped epoch and zero serving time: it
    // replaces the live epoch-1 lease instead of inheriting its expiry.
    sim.post(
        backend,
        probe,
        GrantLease {
            epoch: 2,
            until_ns: probe.as_nanos(), // expires as it arrives
            rejoin: true,
            reply_to: ctl,
        },
    );
    let mut hdr = LambdaHdr::request(1, 9);
    hdr.epoch = 2;
    let req = Packet::builder()
        .eth(GW_MAC, HOST_MAC)
        .udp(GW_ADDR, HOST_ADDR)
        .lambda(hdr)
        .build();
    sim.post(backend, SimDuration::from_micros(20), req);
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    let resp = responses[0].1.lambda.unwrap();
    assert_eq!(resp.return_code, lnic_net::packet::RC_FENCED);
    assert_eq!(resp.epoch, 2);
    assert_eq!(
        sim.get::<HostBackend>(backend)
            .unwrap()
            .counters()
            .fenced_rejects,
        1
    );
    let acks: Vec<u64> = sim
        .get::<AckSink>(ctl)
        .unwrap()
        .acks
        .iter()
        .map(|a| a.epoch)
        .collect();
    assert_eq!(acks, [1, 2]);
}
