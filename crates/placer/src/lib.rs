//! # lnic-placer: profile-guided NIC↔host placement
//!
//! The paper deploys each lambda statically and leaves open (§6/§8) the
//! question a production λ-NIC cluster must answer continuously: *which*
//! lambdas belong on the SmartNIC's constrained NPUs — 16 K instruction
//! words per core, a four-level memory hierarchy, a fixed thread pool —
//! and which should fall back to the host cores behind it. This crate
//! makes that decision a first-class online control plane:
//!
//! - [`profile`]: per-lambda cost profiles — static footprints measured
//!   by compiling each lambda in isolation, and observed service
//!   time/arrival rate folded in from the gateway's latency windows;
//! - [`packer`]: the constrained bin-packing/scoring pass that splits
//!   lambdas across NIC and host under instruction-store, per-level
//!   memory, and NPU-thread occupancy budgets;
//! - [`migrate`]: migration planning with per-workload hysteresis and a
//!   firmware-swap-cost benefit gate, so repacking never thrashes;
//! - [`control`]: the [`control::Placer`] simulation component that
//!   ties it together — profiling ticks, live migrations that drain
//!   in-flight requests before the firmware swap, and integration with
//!   the autoscaler ([`lnic::PlacementProposal`]).
//!
//! Every placement decision is emitted into the structured trace stream
//! (`place` / `unplace` / `migrate_start` / `migrate_done`), where
//! `lnic_sim::check::InvariantChecker` enforces placement conservation:
//! a workload never loses its last live placement, and no worker
//! exceeds its declared capacity.

#![warn(missing_docs)]

pub mod control;
pub mod migrate;
pub mod packer;
pub mod profile;

pub use control::{
    attach_placer, install_static_split, Placer, PlacerConfig, PlacerEvent, StartPlacer,
};
pub use migrate::{MigrationPlanner, MigrationPolicy, Move};
pub use packer::{
    pack, pack_with_tenants, LambdaProfile, NicCapacity, PackOptions, PlacementPlan, Target,
};
pub use profile::{route_params_of, static_costs, subset_program, ObservedProfile, StaticCost};
