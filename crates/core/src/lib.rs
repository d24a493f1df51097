//! # lnic: the λ-NIC serverless framework
//!
//! The paper's primary contribution, assembled end-to-end: a serverless
//! compute framework whose workers run lambdas directly on ASIC
//! SmartNICs, with container and bare-metal backends for comparison.
//!
//! - [`gateway`]: proxies user requests, inserts the λ-NIC header,
//!   implements the sender side of the weakly-consistent transport, and
//!   measures wire-to-wire latency (the quantity Figures 6–8 report);
//! - [`manager`]: compiles Match+Lambda programs, stores artifacts,
//!   rolls them out through the timed deployment pipeline (Table 4), and
//!   records placements in the Raft (etcd) control plane;
//! - [`cluster`]: assembles the Figure 5 testbed — master node M1 with
//!   gateway, manager, and memcached; workers M2–M5 with λ-NIC,
//!   bare-metal, or container backends; a 10 G switch between them;
//! - [`gwtier`]: the sharded gateway tier — epoch-versioned
//!   consistent-hash routing over multiple gateway shards, lease-fenced
//!   membership, and crash/partition-survivable request handoff;
//! - [`driver`]: closed-loop load generators for the experiments;
//! - [`deploy`]: artifact sizes and startup pipeline constants.
//!
//! ## Example: serve one web request through the full testbed
//!
//! ```
//! use std::sync::Arc;
//! use lnic::prelude::*;
//! use lnic_sim::prelude::*;
//! use lnic_workloads::{web_program, SuiteConfig, WEB_ID};
//!
//! let cfg = SuiteConfig::default();
//! let mut bed = build_testbed(TestbedConfig::new(BackendKind::Nic).seed(7));
//! bed.preload(&Arc::new(web_program(&cfg)));
//!
//! let gateway = bed.gateway;
//! let driver = bed.sim.add(ClosedLoopDriver::new(
//!     gateway,
//!     vec![JobSpec { workload_id: WEB_ID.0, payload: PayloadSpec::Page(0) }],
//!     1,
//!     SimDuration::from_micros(80),
//!     Some(10),
//! ));
//! bed.sim.post(driver, SimDuration::ZERO, StartDriver);
//! bed.sim.run();
//!
//! let d = bed.sim.get::<ClosedLoopDriver>(driver).unwrap();
//! assert_eq!(d.completed().len(), 10);
//! assert!(d.completed().iter().all(|c| !c.failed));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod autoscaler;
pub mod cluster;
pub mod deploy;
pub mod driver;
pub mod failover;
pub mod gateway;
pub mod gwtier;
pub mod lease;
pub mod manager;
pub mod repkv;

pub use admission::{Admission, AdmissionParams, TokenBucket};
pub use autoscaler::{
    Autoscaler, AutoscalerConfig, PlacementProposal, ScaleDirection, ScaleEvent, StartAutoscaler,
};
pub use cluster::{build_testbed, seed_offset, Testbed, TestbedConfig, Worker};
pub use deploy::{BackendKind, DeployParams};
pub use driver::{
    ClosedLoopDriver, CompletedRequest, JobSpec, OpenLoopDriver, PayloadSpec, StartDriver,
};
pub use failover::{
    FailoverConfig, FailoverController, FailoverCounters, FailoverEvent, FailoverEventKind,
    StartFailover,
};
pub use gateway::{
    DrainGateway, EndpointLatencyReport, Gateway, GatewayCounters, GatewayParams, HedgeParams,
    RegisterTenants, RequestDone, SubmitRequest,
};
pub use gwtier::{
    ClientSubmit, DrainShard, GatewayId, InstallShardMap, PlanetDriver, RouterCounters, ShardMap,
    ShardRouter, StartTier, TierConfig, TierController, TierCounters,
};
pub use lease::{provably_expired, ControllerView, Grant, Lease, WorkerView};
pub use manager::{DeployDone, DeployWorkload, ManagerConfig, WorkloadManager};
pub use repkv::{RepKvCounters, RepKvReplica, StartReplica};

/// Convenience re-exports for experiment authors.
pub mod prelude {
    pub use crate::admission::AdmissionParams;
    pub use crate::cluster::{build_testbed, seed_offset, Testbed, TestbedConfig};
    pub use crate::deploy::{BackendKind, DeployParams};
    pub use crate::driver::{ClosedLoopDriver, JobSpec, OpenLoopDriver, PayloadSpec, StartDriver};
    pub use crate::failover::{FailoverConfig, FailoverController, StartFailover};
    pub use crate::gateway::{Gateway, GatewayParams, HedgeParams, RequestDone, SubmitRequest};
    pub use crate::gwtier::{
        ClientSubmit, DrainShard, PlanetDriver, ShardMap, ShardRouter, StartTier, TierConfig,
        TierController,
    };
    pub use crate::manager::{DeployDone, DeployWorkload, ManagerConfig, WorkloadManager};
}
