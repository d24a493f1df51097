//! Engine events per web request on a small SmartNIC testbed.
//!
//! One closed-loop client sends one request at a time, so requests never
//! meet and each costs the same events: the client's submit and think
//! timer, the gateway's proxying, the NIC's execution, and three events
//! per frame on the wire (ingress and forward at the switch, delivery at
//! the destination). A change that adds a hop back to the frame path, or
//! a timer that fires for nothing, moves the count.

use std::sync::Arc;

use lnic::prelude::*;
use lnic_sim::prelude::*;
use lnic_workloads::{web_program, SuiteConfig, WEB_ID};

const REQUESTS: u64 = 200;

#[test]
fn an_isolated_nic_web_request_costs_a_fixed_count_of_events() {
    let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).workers(2));
    bed.preload(&Arc::new(web_program(&SuiteConfig::default())));
    let driver = bed.sim.add(ClosedLoopDriver::new(
        bed.gateway,
        vec![JobSpec {
            workload_id: WEB_ID.0,
            payload: PayloadSpec::Page(0),
        }],
        1,
        SimDuration::from_micros(100),
        Some(REQUESTS),
    ));
    let start = SimDuration::from_millis(1);
    bed.sim.post(driver, start, StartDriver);
    bed.sim.run_for(start - SimDuration::from_nanos(1));
    let before = bed.sim.events_processed();
    bed.sim.run();
    let events = bed.sim.events_processed() - before;

    let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
    assert_eq!(d.completed().len() as u64, REQUESTS);
    assert!(d.completed().iter().all(|c| !c.failed));
    // Six of the ten are the request's and the response's frames, three
    // events each; the other four belong to the client, the gateway and
    // the NIC.
    assert_eq!(events, 10 * REQUESTS);
}
