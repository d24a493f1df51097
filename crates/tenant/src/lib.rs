//! Multi-tenant model for λ-NIC (SuperNIC direction).
//!
//! The paper packs lambdas onto NPU islands for one implicit tenant; a
//! serverless platform is inherently multi-tenant. This crate holds the
//! pure tenancy model shared by the gateway, the placer, and the NIC:
//!
//! - [`TenantId`]: the identity carried in every lambda header. Tenant
//!   `0` ([`DEFAULT_TENANT`]) is the untenanted legacy world — every
//!   workload belongs to it until a [`TenantDirectory`] says otherwise,
//!   which keeps single-tenant testbeds byte-for-byte unchanged.
//! - [`TenantSpec`]: a tenant's scheduling weight and resource quotas
//!   (NIC memory bytes, NPU threads, gateway in-flight requests).
//! - [`TenantDirectory`]: the immutable workload→tenant assignment plus
//!   per-tenant specs, shared as an `Arc` across the control plane and
//!   every worker.
//! - [`cache::FirmwareCache`]: the per-worker LRU over per-lambda
//!   firmware pages that virtualizes the instruction store — hot
//!   lambdas stay resident, cold ones fault in through the firmware
//!   swap cost path.
//!
//! Isolation is enforced elsewhere (NIC quota gates, hierarchical WFQ,
//! `InvariantChecker` rules); this crate only *describes* tenants, so it
//! stays dependency-free and trivially testable.

#![warn(missing_docs)]

pub mod cache;

use std::collections::HashMap;

/// A tenant's identity, as carried in the lambda header.
pub type TenantId = u32;

/// The implicit tenant of every workload not assigned to one: the
/// single-tenant legacy world.
pub const DEFAULT_TENANT: TenantId = 0;

/// A tenant's scheduling weight and resource quotas. Quotas of zero
/// mean "unlimited" so the default spec imposes nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantSpec {
    /// Weight at the tenant level of the hierarchical WFQ tree. Must be
    /// finite and positive.
    pub weight: f64,
    /// Cap on NIC memory bytes the tenant's placed objects may occupy
    /// per worker (0 = unlimited). Enforced at placement.
    pub mem_quota_bytes: u64,
    /// Cap on NPU threads concurrently executing the tenant's lambdas
    /// per worker (0 = unlimited). Enforced at dispatch.
    pub thread_quota: usize,
    /// Cap on requests the gateway keeps in flight for the tenant
    /// (0 = unlimited). Enforced at admission.
    pub max_in_flight: usize,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1.0,
            mem_quota_bytes: 0,
            thread_quota: 0,
            max_in_flight: 0,
        }
    }
}

impl TenantSpec {
    /// A spec with the given WFQ weight and no quotas.
    pub fn weighted(weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be finite and positive"
        );
        TenantSpec {
            weight,
            ..TenantSpec::default()
        }
    }

    /// Sets the per-worker NPU-thread quota.
    pub fn threads(mut self, quota: usize) -> Self {
        self.thread_quota = quota;
        self
    }

    /// Sets the per-worker NIC memory quota in bytes.
    pub fn memory(mut self, bytes: u64) -> Self {
        self.mem_quota_bytes = bytes;
        self
    }

    /// Sets the gateway in-flight cap.
    pub fn in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = cap;
        self
    }
}

/// The workload→tenant assignment and per-tenant specs. Built once
/// during setup, then shared immutably (`Arc<TenantDirectory>`) by the
/// gateway (header stamping, admission), the placer (memory quotas),
/// and every NIC (thread quotas, WFQ weights, paging).
#[derive(Clone, Debug, Default)]
pub struct TenantDirectory {
    specs: HashMap<TenantId, TenantSpec>,
    owner: HashMap<u32, TenantId>,
}

impl TenantDirectory {
    /// An empty directory: every workload maps to [`DEFAULT_TENANT`].
    pub fn new() -> Self {
        TenantDirectory::default()
    }

    /// Registers (or replaces) a tenant's spec.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite and positive.
    pub fn register(&mut self, tenant: TenantId, spec: TenantSpec) {
        assert!(
            spec.weight.is_finite() && spec.weight > 0.0,
            "tenant {tenant} weight must be finite and positive"
        );
        self.specs.insert(tenant, spec);
    }

    /// Assigns a workload to a tenant. A workload belongs to exactly
    /// one tenant; re-assigning replaces the previous owner.
    pub fn assign(&mut self, workload_id: u32, tenant: TenantId) {
        self.owner.insert(workload_id, tenant);
    }

    /// The owning tenant of a workload ([`DEFAULT_TENANT`] when
    /// unassigned).
    pub fn tenant_of(&self, workload_id: u32) -> TenantId {
        self.owner
            .get(&workload_id)
            .copied()
            .unwrap_or(DEFAULT_TENANT)
    }

    /// The spec of a tenant (the default spec when unregistered).
    pub fn spec_of(&self, tenant: TenantId) -> TenantSpec {
        self.specs.get(&tenant).copied().unwrap_or_default()
    }

    /// The WFQ weight of a tenant.
    pub fn weight_of(&self, tenant: TenantId) -> f64 {
        self.spec_of(tenant).weight
    }

    /// All registered tenants, sorted for deterministic iteration.
    pub fn tenants(&self) -> Vec<TenantId> {
        let mut t: Vec<TenantId> = self.specs.keys().copied().collect();
        t.sort_unstable();
        t
    }

    /// All workload assignments, sorted by workload id for deterministic
    /// iteration (trace emission order must not depend on hash order).
    pub fn assignments(&self) -> Vec<(u32, TenantId)> {
        let mut a: Vec<(u32, TenantId)> = self.owner.iter().map(|(&w, &t)| (w, t)).collect();
        a.sort_unstable();
        a
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Per-worker tenancy runtime configuration: how large the firmware
/// cache is and what a fault costs.
#[derive(Clone, Copy, Debug)]
pub struct TenancyConfig {
    /// Instruction-store words the firmware cache may keep resident per
    /// worker. Lambdas beyond this fault in on demand.
    pub cache_words: u64,
    /// NPU cycles charged per instruction-store word paged in on a
    /// fault — the per-lambda analogue of the whole-image
    /// `firmware_swap_time` reload, charged as execution overhead on
    /// the faulting request.
    pub page_cycles_per_word: u64,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            // Half the Agilio's ~8k-word per-core store: enough for a
            // hot set, small enough that a wide tenant catalog pages.
            cache_words: 4096,
            // A 100-word lambda page costs ~2k cycles (~3.2 us at
            // 633 MHz) — five orders of magnitude cheaper than the 9 s
            // whole-image reload, the point of paging.
            page_cycles_per_word: 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unassigned_workloads_belong_to_the_default_tenant() {
        let dir = TenantDirectory::new();
        assert_eq!(dir.tenant_of(42), DEFAULT_TENANT);
        assert_eq!(dir.spec_of(DEFAULT_TENANT), TenantSpec::default());
        assert!(dir.is_empty());
    }

    #[test]
    fn assignment_and_specs_round_trip() {
        let mut dir = TenantDirectory::new();
        dir.register(1, TenantSpec::weighted(3.0).threads(8).memory(1 << 20));
        dir.register(2, TenantSpec::weighted(1.0).in_flight(4));
        dir.assign(100, 1);
        dir.assign(101, 1);
        dir.assign(200, 2);
        assert_eq!(dir.tenant_of(100), 1);
        assert_eq!(dir.tenant_of(200), 2);
        assert_eq!(dir.weight_of(1), 3.0);
        assert_eq!(dir.spec_of(1).thread_quota, 8);
        assert_eq!(dir.spec_of(2).max_in_flight, 4);
        assert_eq!(dir.tenants(), vec![1, 2]);
        assert_eq!(dir.assignments(), vec![(100, 1), (101, 1), (200, 2)]);
        assert_eq!(dir.len(), 2);
    }

    #[test]
    #[should_panic(expected = "weight must be finite and positive")]
    fn zero_weight_is_rejected() {
        let mut dir = TenantDirectory::new();
        dir.register(
            1,
            TenantSpec {
                weight: 0.0,
                ..TenantSpec::default()
            },
        );
    }

    #[test]
    fn reassignment_replaces_the_owner() {
        let mut dir = TenantDirectory::new();
        dir.assign(7, 1);
        dir.assign(7, 2);
        assert_eq!(dir.tenant_of(7), 2);
        assert_eq!(dir.assignments(), vec![(7, 2)]);
    }
}
