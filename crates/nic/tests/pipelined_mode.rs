//! Tests for the pipelined stage-execution mode (the paper's footnote-4
//! future work): correctness is unchanged, but short lambdas pay a
//! handoff penalty and the stage pool can become the bottleneck — the
//! reason the paper chose run-to-completion.

use std::sync::Arc;

use bytes::Bytes;

use lnic_mlambda::builder::FnBuilder;
use lnic_mlambda::compile::{compile, CompileOptions, Firmware};
use lnic_mlambda::ir::ObjId;
use lnic_mlambda::program::{Lambda, MemObject, Program, WorkloadId};
use lnic_net::packet::{LambdaHdr, Packet};
use lnic_net::params::{LinkParams, SwitchParams};
use lnic_net::switch::Switch;
use lnic_net::{Ipv4Addr, MacAddr, SocketAddr};
use lnic_nic::params::ExecMode;
use lnic_nic::{Nic, NicParams};
use lnic_sim::prelude::*;

const GW_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 1]);
const NIC_MAC: MacAddr = MacAddr::new([2, 0, 0, 0, 0, 2]);
const GW_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 1), 7000);
const NIC_ADDR: SocketAddr = SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 8000);

struct Sink {
    responses: Vec<(SimTime, Packet)>,
}

impl Component for Sink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.responses
            .push((ctx.now(), *msg.downcast::<Packet>().unwrap()));
    }
}

fn web_fw(content: &[u8]) -> Arc<Firmware> {
    let entry = FnBuilder::new("web")
        .constant(1, 0)
        .constant(2, content.len() as u64)
        .emit_obj(ObjId(0), 1, 2)
        .ret_const(0)
        .build();
    let mut l = Lambda::new("web", WorkloadId(1), entry);
    l.add_object(MemObject::with_data("content", content.to_vec()));
    let mut p = Program::new();
    p.add_lambda(l, vec![]);
    Arc::new(compile(&p, &CompileOptions::optimized()).unwrap())
}

fn run(params: NicParams, requests: u64, spacing_ns: u64) -> Vec<(SimTime, Packet)> {
    let mut sim = Simulation::new(9);
    let switch = sim.add(Switch::new(SwitchParams::default()));
    let sink = sim.add(Sink { responses: vec![] });
    let nic = sim.add(Nic::new(params, NIC_MAC, NIC_ADDR.ip, switch).preload(web_fw(b"pipelined")));
    let sw = sim.get_mut::<Switch>(switch).unwrap();
    sw.attach(sink, GW_MAC, LinkParams::ten_gbps());
    sw.attach(nic, NIC_MAC, LinkParams::ten_gbps());
    for i in 0..requests {
        let pkt = Packet::builder()
            .eth(GW_MAC, NIC_MAC)
            .udp(GW_ADDR, NIC_ADDR)
            .lambda(LambdaHdr::request(1, i))
            .payload(Bytes::new())
            .build();
        sim.post(nic, SimDuration::from_nanos(i * spacing_ns), pkt);
    }
    sim.run();
    sim.get::<Sink>(sink).unwrap().responses.clone()
}

#[test]
fn pipelined_mode_serves_correct_responses() {
    let responses = run(NicParams::agilio_cx_pipelined(), 20, 10_000);
    assert_eq!(responses.len(), 20);
    for (_, r) in &responses {
        assert_eq!(&r.payload[..], b"pipelined");
    }
}

#[test]
fn pipelining_adds_handoff_latency_for_short_lambdas() {
    let rtc = run(NicParams::agilio_cx(), 1, 0)[0].0;
    let piped = run(NicParams::agilio_cx_pipelined(), 1, 0)[0].0;
    assert!(
        piped > rtc,
        "pipelined {piped} should exceed run-to-completion {rtc}"
    );
}

#[test]
fn stage_pool_serializes_under_burst() {
    // One stage thread: the parse/match stage becomes the bottleneck.
    let params = NicParams {
        exec_mode: ExecMode::Pipelined {
            stage_threads: 1,
            handoff_cycles: 120,
        },
        ..NicParams::agilio_cx()
    };
    let responses = run(params.clone(), 50, 0);
    assert_eq!(responses.len(), 50);
    let last = responses.iter().map(|(t, _)| t.as_nanos()).max().unwrap();

    // Same burst, run-to-completion: all 448 threads parse concurrently.
    let rtc = run(NicParams::agilio_cx(), 50, 0);
    let rtc_last = rtc.iter().map(|(t, _)| t.as_nanos()).max().unwrap();
    assert!(
        last > 2 * rtc_last,
        "stage bottleneck {last} vs rtc {rtc_last}"
    );
}

#[test]
#[should_panic(expected = "pipelined mode needs stage threads")]
fn pipelined_mode_rejects_degenerate_split() {
    let params = NicParams {
        exec_mode: ExecMode::Pipelined {
            stage_threads: 0,
            handoff_cycles: 1,
        },
        ..NicParams::agilio_cx()
    };
    let mut sim = Simulation::new(1);
    let sink = sim.add(Sink { responses: vec![] });
    let _ = sim.add(Nic::new(params, NIC_MAC, NIC_ADDR.ip, sink));
}
