//! Behavioural tests for the SmartNIC component: dispatch, run-to-
//! completion timing, queueing, RDMA reassembly, lambda RPCs with
//! retransmission, firmware swaps, and host punting.

use std::sync::Arc;

use bytes::Bytes;

use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::compile::{compile, CompileOptions, Firmware};
use lnic_mlambda::ir::ObjId;
use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
use lnic_net::frag::fragment;
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet};
use lnic_net::params::{LinkParams, SwitchParams};
use lnic_net::switch::Switch;
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_nic::{LoadFirmware, Nic, NicParams, ServiceEndpoint};
use lnic_sim::prelude::*;

const GW_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 1]);
const NIC_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 2]);
const GW_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000);
const NIC_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 8000);

/// Records every packet that arrives back at the "gateway" side.
struct GwSink {
    responses: Vec<(SimTime, Packet)>,
}

impl Component for GwSink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let p = msg.downcast::<Packet>().expect("gateway receives packets");
        self.responses.push((ctx.now(), *p));
    }
}

/// An echo service that reverses payload bytes after a fixed delay.
struct EchoService {
    reply_via: ComponentId,
    mac: MacAddr,
    delay: SimDuration,
    requests: u32,
}

impl Component for EchoService {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let p = msg.downcast::<Packet>().expect("service receives packets");
        self.requests += 1;
        let mut data: Vec<u8> = p.payload.to_vec();
        data.reverse();
        let reply = p.reply_to().payload(Bytes::from(data)).build();
        let delay = self.delay;
        let _ = self.mac;
        ctx.send(self.reply_via, delay, reply);
    }
}

/// A web-server lambda that returns fixed content.
fn web_program(content: &[u8]) -> Program {
    let entry = FnBuilder::new("web_server")
        .constant(1, 0)
        .constant(2, content.len() as u64)
        .emit_obj(ObjId(0), 1, 2)
        .ret_const(0)
        .build();
    let mut l = Lambda::new("web", WorkloadId(1), entry);
    l.add_object(MemObject::with_data("content", content.to_vec()));
    let mut p = Program::new();
    p.add_lambda(l, vec![]);
    p
}

/// A lambda that queries service 1 and echoes its response.
fn rpc_program() -> Program {
    let entry = FnBuilder::new("kv_client")
        .constant(1, 0) // req off
        .constant(2, 4) // req len
        .constant(3, 8) // resp off
        .constant(4, 32) // resp cap
        .net_rpc(1, ObjId(0), 1, 2, ObjId(0), 3, 4, 5)
        .emit_obj(ObjId(0), 3, 5)
        .ret_const(0)
        .build();
    let mut l = Lambda::new("kv", WorkloadId(2), entry);
    l.add_object(MemObject::with_data(
        "buf",
        b"get himore space here padding".to_vec(),
    ));
    let mut p = Program::new();
    p.add_lambda(l, vec![]);
    p
}

fn compile_fw(p: &Program) -> Arc<Firmware> {
    Arc::new(compile(p, &CompileOptions::optimized()).expect("compiles"))
}

fn request_packet(workload: u32, request_id: u64, payload: &[u8]) -> Packet {
    Packet::builder()
        .eth(GW_MAC, NIC_MAC)
        .udp(GW_ADDR, NIC_ADDR)
        .lambda(LambdaHdr::request(workload, request_id))
        .payload(Bytes::copy_from_slice(payload))
        .build()
}

/// Adds a gateway sink and the NIC `build` makes for a given uplink,
/// both attached to a switch that is the NIC's uplink. Returns (nic id,
/// sink id).
fn wire(
    sim: &mut Simulation,
    build: impl FnOnce(ComponentId) -> Nic,
) -> (ComponentId, ComponentId) {
    let switch = sim.add(Switch::new(SwitchParams::default()));
    let sink = sim.add(GwSink { responses: vec![] });
    let nic = sim.add(build(switch));
    let sw = sim.get_mut::<Switch>(switch).unwrap();
    sw.attach(sink, GW_MAC, LinkParams::ten_gbps());
    sw.attach(nic, NIC_MAC, LinkParams::ten_gbps());
    (nic, sink)
}

/// Wires gateway-sink <- switch <- NIC and returns (sim, nic id, sink id).
fn testbed(params: NicParams, fw: Arc<Firmware>) -> (Simulation, ComponentId, ComponentId) {
    let mut sim = Simulation::new(7);
    let (nic, sink) = wire(&mut sim, |uplink| {
        Nic::new(params, NIC_MAC, NIC_ADDR.ip, uplink).preload(fw)
    });
    (sim, nic, sink)
}

#[test]
fn web_request_gets_response_with_content() {
    let content = b"<html>hello lambda-nic</html>";
    let fw = compile_fw(&web_program(content));
    let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), fw);

    sim.post(nic, SimDuration::ZERO, request_packet(1, 42, b""));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    let (at, resp) = &responses[0];
    assert_eq!(&resp.payload[..], content);
    let hdr = resp.lambda.unwrap();
    assert_eq!(hdr.kind, LambdaKind::Response);
    assert_eq!(hdr.request_id, 42);
    assert_eq!(hdr.return_code, 0);
    // Sub-10us NIC-side completion: parse/match + body + link.
    assert!(at.as_nanos() < 10_000, "took {at}");

    let nic_ref = sim.get::<Nic>(nic).unwrap();
    assert_eq!(nic_ref.counters().requests, 1);
    assert_eq!(nic_ref.counters().responses, 1);
    assert_eq!(nic_ref.counters().faults, 0);
}

#[test]
fn unknown_workload_id_is_punted_or_counted() {
    let fw = compile_fw(&web_program(b"x"));
    let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), fw);
    sim.post(nic, SimDuration::ZERO, request_packet(99, 1, b""));
    sim.run();
    assert!(sim.get::<GwSink>(sink).unwrap().responses.is_empty());
    assert_eq!(sim.get::<Nic>(nic).unwrap().counters().punted_to_host, 1);
}

#[test]
fn requests_queue_when_all_threads_busy_and_all_complete() {
    // Tiny NIC: 1 island x 1 core x 2 threads.
    let params = NicParams {
        islands: 1,
        cores_per_island: 1,
        threads_per_core: 2,
        ..NicParams::agilio_cx()
    };
    // Big content so service time is long enough to force queueing.
    let content = vec![7u8; 32 * 1024];
    let fw = compile_fw(&web_program(&content));
    let (mut sim, nic, sink) = testbed(params, fw);

    for i in 0..10 {
        sim.post(nic, SimDuration::ZERO, request_packet(1, i, b""));
    }
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 10);
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert!(c.queued >= 8, "expected queueing, got {c:?}");
    // With 2 threads, later responses must be spread out in time.
    let times: Vec<u64> = responses.iter().map(|(t, _)| t.as_nanos()).collect();
    assert!(times.last().unwrap() > &(times[0] * 2));
}

#[test]
fn run_to_completion_timing_scales_with_content_size() {
    let small_fw = compile_fw(&web_program(&[1u8; 64]));
    let big_fw = compile_fw(&web_program(&vec![1u8; 64 * 1024]));

    let run = |fw: Arc<Firmware>| {
        let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), fw);
        sim.post(nic, SimDuration::ZERO, request_packet(1, 1, b""));
        sim.run();
        let _ = nic;
        sim.get::<GwSink>(sink).unwrap().responses[0].0
    };
    let t_small = run(small_fw);
    let t_big = run(big_fw);
    assert!(
        t_big.as_nanos() > 4 * t_small.as_nanos(),
        "big={t_big} small={t_small}"
    );
}

#[test]
fn rdma_fragments_reassemble_and_dispatch_once() {
    // Lambda that emits the first 4 payload bytes back.
    let entry = FnBuilder::new("head4")
        .constant(1, 0)
        .load_payload(2, 1, lnic_mlambda::ir::Width::B4)
        .emit(2, lnic_mlambda::ir::Width::B4)
        .ret_const(0)
        .build();
    let mut p = Program::new();
    p.add_lambda(Lambda::new("head", WorkloadId(3), entry), vec![]);
    let fw = compile_fw(&p);
    let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), fw);

    let payload = Bytes::from((0u8..200).collect::<Vec<_>>());
    let frags = fragment(payload.clone(), 64);
    let count = frags.len() as u16;
    // Deliver out of order: reversed.
    for (i, f) in frags.iter().enumerate().rev() {
        let hdr = LambdaHdr {
            workload_id: 3,
            request_id: 5,
            frag_index: i as u16,
            frag_count: count,
            kind: LambdaKind::RdmaWrite,
            return_code: 0,
            ..Default::default()
        };
        let pkt = Packet::builder()
            .eth(GW_MAC, NIC_MAC)
            .udp(GW_ADDR, NIC_ADDR)
            .lambda(hdr)
            .payload(f.clone())
            .build();
        sim.post(nic, SimDuration::ZERO, pkt);
    }
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1, "one dispatch per assembled message");
    assert_eq!(&responses[0].1.payload[..], &[0, 1, 2, 3]);
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert_eq!(c.rdma_fragments, count as u64);
    assert_eq!(c.requests, 1);
}

#[test]
fn lambda_rpc_reaches_service_and_response_resumes_thread() {
    let fw = compile_fw(&rpc_program());
    let mut sim = Simulation::new(3);
    let sink = sim.add(GwSink { responses: vec![] });

    // Service wiring: NIC -> (uplink picks dst by mac) ... simplify by
    // letting the service receive directly and reply via a link to the NIC.
    let svc_mac = MacAddr::new([2, 0, 0, 0, 0, 9]);
    let svc_addr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 9), 11211);

    // Build the NIC first with a placeholder uplink to the gateway sink;
    // outbound packets are routed by a tiny demux below.
    struct Demux {
        by_mac: Vec<(MacAddr, ComponentId)>,
    }
    impl Component for Demux {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let p = msg.downcast::<Packet>().unwrap();
            let dst = p.eth.dst;
            if let Some((_, c)) = self.by_mac.iter().find(|(m, _)| *m == dst) {
                ctx.send_boxed(*c, SimDuration::from_nanos(500), p);
            }
        }
    }
    let demux = sim.add(Demux { by_mac: vec![] });
    let nic = sim.add(
        Nic::new(NicParams::agilio_cx(), NIC_MAC, NIC_ADDR.ip, demux)
            .preload(fw)
            .with_service(
                1,
                ServiceEndpoint {
                    mac: svc_mac,
                    addr: svc_addr,
                },
            ),
    );
    let svc = sim.add(EchoService {
        reply_via: demux,
        mac: svc_mac,
        delay: SimDuration::from_micros(5),
        requests: 0,
    });
    sim.get_mut::<Demux>(demux).unwrap().by_mac =
        vec![(GW_MAC, sink), (svc_mac, svc), (NIC_MAC, nic)];

    sim.post(nic, SimDuration::ZERO, request_packet(2, 77, b""));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    // The lambda sends "get " (4 bytes), the echo reverses it.
    assert_eq!(&responses[0].1.payload[..], b" teg");
    assert_eq!(sim.get::<EchoService>(svc).unwrap().requests, 1);
    // The response should take at least the service delay.
    assert!(responses[0].0.as_nanos() >= 5_000);
}

#[test]
fn rpc_timeout_retries_then_fails() {
    // No service registered: RPC packets go nowhere; after the attempt
    // budget the lambda fails with an error response.
    let fw = compile_fw(&rpc_program());
    let params = NicParams {
        rpc_timeout: SimDuration::from_micros(100),
        rpc_attempts: 3,
        ..NicParams::agilio_cx()
    };
    let (mut sim, nic, sink) = testbed(params, fw);
    sim.post(nic, SimDuration::ZERO, request_packet(2, 1, b""));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    let hdr = responses[0].1.lambda.unwrap();
    assert_eq!(hdr.return_code, lnic_mlambda::ir::retcode::ERROR as u16);
    assert!(responses[0].1.payload.is_empty());
    // Three timeouts elapsed before failure.
    assert!(responses[0].0.as_nanos() >= 300_000);
    assert_eq!(sim.get::<Nic>(nic).unwrap().counters().faults, 1);
}

#[test]
fn firmware_swap_incurs_downtime_then_serves() {
    let fw = compile_fw(&web_program(b"v1"));
    let mut sim = Simulation::new(1);
    let params = NicParams {
        firmware_swap_time: SimDuration::from_secs(2),
        ..NicParams::agilio_cx()
    };
    let (nic, sink) = wire(&mut sim, |uplink| {
        Nic::new(params, NIC_MAC, NIC_ADDR.ip, uplink)
    });

    sim.post(
        nic,
        SimDuration::ZERO,
        LoadFirmware::unfenced(compile_fw(&web_program(b"v1"))),
    );
    drop(fw);
    // During the swap, requests are dropped.
    sim.post(nic, SimDuration::from_secs(1), request_packet(1, 1, b""));
    // After the swap, requests are served.
    sim.post(nic, SimDuration::from_secs(3), request_packet(1, 2, b""));
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].1.lambda.unwrap().request_id, 2);
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert_eq!(c.dropped_downtime, 1);
    assert_eq!(c.swaps, 1);
    assert!(sim.get::<Nic>(nic).unwrap().memory_in_use_bytes() > 0);
}

#[test]
fn non_lambda_traffic_punts_to_host() {
    struct HostSink {
        got: u32,
    }
    impl Component for HostSink {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
            msg.downcast::<Packet>().unwrap();
            self.got += 1;
        }
    }
    let fw = compile_fw(&web_program(b"x"));
    let mut sim = Simulation::new(1);
    let host = sim.add(HostSink { got: 0 });
    let (nic, _) = wire(&mut sim, |uplink| {
        Nic::new(NicParams::agilio_cx(), NIC_MAC, NIC_ADDR.ip, uplink)
            .preload(fw)
            .with_host(host)
    });

    // Plain UDP to a non-RPC port: host traffic.
    let plain = Packet::builder()
        .eth(GW_MAC, NIC_MAC)
        .udp(GW_ADDR, SocketAddr::new(NIC_ADDR.ip, 22))
        .payload(Bytes::from_static(b"ssh"))
        .build();
    sim.post(nic, SimDuration::ZERO, plain);
    sim.run();
    assert_eq!(sim.get::<HostSink>(host).unwrap().got, 1);
    assert_eq!(sim.get::<Nic>(nic).unwrap().counters().punted_to_host, 1);
}

#[test]
fn parallel_requests_complete_concurrently() {
    // 448 threads: 100 simultaneous requests should finish in roughly the
    // time of one (run-to-completion, no queueing). Content is kept small
    // enough that the synchronized response burst fits the egress queue.
    let content = vec![3u8; 1024];
    let fw = compile_fw(&web_program(&content));
    let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), fw);

    for i in 0..100 {
        sim.post(nic, SimDuration::ZERO, request_packet(1, i, b""));
    }
    sim.run();
    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 100);
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert_eq!(c.queued, 0, "no queueing with 448 threads");
    let first = responses.first().unwrap().0.as_nanos();
    let last = responses.last().unwrap().0.as_nanos();
    // Responses serialize on the 10G link but compute overlaps; the
    // spread must be far smaller than 100x a single service time.
    assert!(last < first + 100 * 8_000, "first={first} last={last}");
}

#[test]
fn lambda_with_two_sequential_rpcs_suspends_twice() {
    // A lambda that queries the service twice (read-modify-write style)
    // exercises repeated thread suspension and resumption.
    let entry = FnBuilder::new("double_rpc")
        .constant(1, 0)
        .constant(2, 3)
        .constant(3, 8)
        .constant(4, 8)
        .net_rpc(1, ObjId(0), 1, 2, ObjId(0), 3, 4, 5)
        // Second call sends the first response bytes back.
        .mov(6, 3) // req off = resp off of call 1
        .net_rpc(1, ObjId(0), 6, 5, ObjId(0), 3, 4, 5)
        .emit_obj(ObjId(0), 3, 5)
        .ret_const(0)
        .build();
    let mut l = Lambda::new("double", WorkloadId(8), entry);
    l.add_object(MemObject::with_data("buf", b"abcdefghijklmnop".to_vec()));
    let mut p = Program::new();
    p.add_lambda(l, vec![]);
    let fw = Arc::new(compile(&p, &CompileOptions::optimized()).unwrap());

    let mut sim = Simulation::new(4);
    let sink = sim.add(GwSink { responses: vec![] });
    let svc_mac = MacAddr::new([2, 0, 0, 0, 0, 9]);
    let svc_addr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 9), 11211);

    struct Demux2 {
        by_mac: Vec<(MacAddr, ComponentId)>,
    }
    impl Component for Demux2 {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let p = msg.downcast::<Packet>().unwrap();
            let dst = p.eth.dst;
            if let Some((_, c)) = self.by_mac.iter().find(|(m, _)| *m == dst) {
                ctx.send_boxed(*c, SimDuration::from_nanos(500), p);
            }
        }
    }
    let demux = sim.add(Demux2 { by_mac: vec![] });
    let nic = sim.add(
        Nic::new(NicParams::agilio_cx(), NIC_MAC, NIC_ADDR.ip, demux)
            .preload(fw)
            .with_service(
                1,
                ServiceEndpoint {
                    mac: svc_mac,
                    addr: svc_addr,
                },
            ),
    );
    let svc = sim.add(EchoService {
        reply_via: demux,
        mac: svc_mac,
        delay: SimDuration::from_micros(3),
        requests: 0,
    });
    sim.get_mut::<Demux2>(demux).unwrap().by_mac =
        vec![(GW_MAC, sink), (svc_mac, svc), (NIC_MAC, nic)];

    sim.post(nic, SimDuration::ZERO, request_packet(8, 5, b""));
    sim.run();

    // The echo service reverses: "abc" -> "cba" -> "abc".
    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(&responses[0].1.payload[..], b"abc");
    assert_eq!(sim.get::<EchoService>(svc).unwrap().requests, 2);
    // Two service round trips were charged.
    assert!(responses[0].0.as_nanos() >= 2 * 3_000);
    let nic_ref = sim.get::<Nic>(nic).unwrap();
    assert_eq!(nic_ref.counters().responses, 1);
    assert_eq!(nic_ref.busy_threads(), 0);
}

/// Firmware whose program reads register 40 (NPU threads have 32): it
/// compiles from a valid program and is corrupted afterwards, as a
/// malformed image pushed by a buggy controller would be.
fn bad_register_firmware() -> Arc<Firmware> {
    let mut fw = (*compile_fw(&web_program(b"bad"))).clone();
    fw.program.lambdas[0].functions[0]
        .body
        .insert(0, lnic_mlambda::ir::Instr::Mov { dst: 1, src: 40 });
    Arc::new(fw)
}

#[test]
fn malformed_firmware_is_refused_and_the_previous_image_keeps_serving() {
    let params = NicParams {
        firmware_swap_time: SimDuration::from_millis(1),
        ..NicParams::agilio_cx()
    };
    let (mut sim, nic, sink) = testbed(params.clone(), compile_fw(&web_program(b"v1")));
    sim.post(
        nic,
        SimDuration::ZERO,
        LoadFirmware::unfenced(bad_register_firmware()),
    );
    sim.post(nic, SimDuration::from_millis(5), request_packet(1, 1, b""));
    sim.run();
    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    assert_eq!(&responses[0].1.payload[..], b"v1");
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert_eq!(c.rejected_programs, 1);
    assert_eq!(c.swaps, 0);
    assert_eq!(c.faults, 0);

    // A NIC preloaded with only the bad image serves nothing, and says why.
    let (mut sim, nic, sink) = testbed(params, bad_register_firmware());
    sim.post(nic, SimDuration::ZERO, request_packet(1, 1, b""));
    sim.run();
    assert!(sim.get::<GwSink>(sink).unwrap().responses.is_empty());
    let c = sim.get::<Nic>(nic).unwrap().counters();
    assert_eq!(c.rejected_programs, 1);
    assert_eq!(c.dropped_downtime, 1);
    assert_eq!(sim.get::<Nic>(nic).unwrap().memory_in_use_bytes(), 0);
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
    let (mut sim, nic, sink) = testbed(NicParams::agilio_cx(), compile_fw(&web_program(b"hi")));
    let ctl = sim.add(AckSink { acks: vec![] });
    let probe = SimDuration::from_micros(10);
    sim.post(
        nic,
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
        nic,
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
        .eth(GW_MAC, NIC_MAC)
        .udp(GW_ADDR, NIC_ADDR)
        .lambda(hdr)
        .payload(Bytes::new())
        .build();
    sim.post(nic, SimDuration::from_micros(20), req);
    sim.run();

    let responses = &sim.get::<GwSink>(sink).unwrap().responses;
    assert_eq!(responses.len(), 1);
    let resp = responses[0].1.lambda.unwrap();
    assert_eq!(resp.return_code, lnic_net::packet::RC_FENCED);
    assert_eq!(resp.epoch, 2);
    assert_eq!(sim.get::<Nic>(nic).unwrap().counters().fenced_rejects, 1);
    let acks: Vec<u64> = sim
        .get::<AckSink>(ctl)
        .unwrap()
        .acks
        .iter()
        .map(|a| a.epoch)
        .collect();
    assert_eq!(acks, [1, 2]);
}
