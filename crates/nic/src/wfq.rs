//! Weighted fair queueing across lambdas (§4.2-D1: "λ-NIC implements
//! weighted-fair-queuing (WFQ) to route requests between these threads").
//!
//! When every thread is busy, pending requests wait in per-lambda queues;
//! a credit-based weighted round-robin decides which lambda's request is
//! served next, giving each lambda throughput proportional to its weight
//! under contention while staying work-conserving.

use std::collections::VecDeque;

/// A weighted fair queue over items tagged by lambda index.
///
/// # Examples
///
/// ```
/// use lnic_nic::wfq::WeightedFairQueue;
///
/// let mut q: WeightedFairQueue<&str> = WeightedFairQueue::new();
/// q.set_weight(0, 2.0);
/// q.set_weight(1, 1.0);
/// for _ in 0..3 {
///     q.push(0, "a");
///     q.push(1, "b");
/// }
/// // Lambda 0 gets ~2x the service of lambda 1.
/// let first_three: Vec<usize> = (0..3).map(|_| q.pop().unwrap().0).collect();
/// assert_eq!(first_three.iter().filter(|&&l| l == 0).count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedFairQueue<T> {
    queues: Vec<VecDeque<T>>,
    weights: Vec<f64>,
    credits: Vec<f64>,
    len: usize,
    /// Round-robin scan position for tie-breaking.
    cursor: usize,
}

impl<T> Default for WeightedFairQueue<T> {
    fn default() -> Self {
        WeightedFairQueue {
            queues: Vec::new(),
            weights: Vec::new(),
            credits: Vec::new(),
            len: 0,
            cursor: 0,
        }
    }
}

impl<T> WeightedFairQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, lambda: usize) {
        while self.queues.len() <= lambda {
            self.queues.push(VecDeque::new());
            self.weights.push(1.0);
            self.credits.push(0.0);
        }
    }

    /// Sets a lambda's service weight (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn set_weight(&mut self, lambda: usize, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weights must be positive"
        );
        self.ensure(lambda);
        self.weights[lambda] = weight;
    }

    /// Enqueues an item for `lambda`.
    pub fn push(&mut self, lambda: usize, item: T) {
        self.ensure(lambda);
        self.queues[lambda].push_back(item);
        self.len += 1;
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items for one lambda.
    pub fn len_for(&self, lambda: usize) -> usize {
        self.queues.get(lambda).map_or(0, |q| q.len())
    }

    /// A lambda's service weight (1.0 when never configured).
    pub fn weight_of(&self, lambda: usize) -> f64 {
        self.weights.get(lambda).copied().unwrap_or(1.0)
    }

    /// Dequeues the next item under weighted fairness. Returns the lambda
    /// index alongside the item.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        if self.len == 0 {
            return None;
        }
        // Credit-based WRR: grant every backlogged lambda credit
        // proportional to its weight until one can afford a send, then
        // serve the highest-credit backlogged lambda.
        loop {
            let mut best: Option<usize> = None;
            for off in 0..self.queues.len() {
                let i = (self.cursor + off) % self.queues.len();
                if self.queues[i].is_empty() {
                    continue;
                }
                if self.credits[i] >= 1.0 {
                    best = Some(i);
                    break;
                }
            }
            if let Some(i) = best {
                self.credits[i] -= 1.0;
                self.cursor = (i + 1) % self.queues.len();
                let item = self.queues[i].pop_front().expect("non-empty checked");
                self.len -= 1;
                // Idle lambdas must not hoard credit.
                for (j, q) in self.queues.iter().enumerate() {
                    if q.is_empty() {
                        self.credits[j] = 0.0;
                    }
                }
                return Some((i, item));
            }
            // Nobody can afford a send: top up backlogged lambdas.
            for (i, q) in self.queues.iter().enumerate() {
                if !q.is_empty() {
                    self.credits[i] += self.weights[i];
                }
            }
        }
    }
}

/// One tenant's slot in the hierarchical queue: its own lambda-level
/// [`WeightedFairQueue`] plus the tenant-tier WRR bookkeeping.
#[derive(Debug, Clone)]
struct TenantSlot<T> {
    tenant: u32,
    queue: WeightedFairQueue<T>,
    weight: f64,
    credit: f64,
}

/// Two-level weighted fair queue: a tenant tier of credit-based WRR
/// above per-tenant lambda queues.
///
/// Capacity is first divided across *tenants* in proportion to their
/// tenant weights; within each tenant, its lambdas share that slice in
/// proportion to their lambda weights. Both tiers use the same
/// credit-WRR discipline as [`WeightedFairQueue`], so a single-tenant
/// hierarchy degenerates to the flat queue exactly.
///
/// [`pop_where`](Self::pop_where) takes an eligibility filter so the
/// scheduler can skip quota-blocked tenants without dequeueing their
/// work; ineligible tenants neither accrue nor hoard credit.
///
/// # Examples
///
/// ```
/// use lnic_nic::wfq::HierarchicalWfq;
///
/// let mut q: HierarchicalWfq<&str> = HierarchicalWfq::new();
/// q.set_tenant_weight(1, 2.0);
/// q.set_tenant_weight(2, 1.0);
/// for _ in 0..3 {
///     q.push(1, 0, "a");
///     q.push(2, 0, "b");
/// }
/// // Tenant 1 gets ~2x the service of tenant 2.
/// let first_three: Vec<u32> = (0..3).map(|_| q.pop().unwrap().0).collect();
/// assert_eq!(first_three.iter().filter(|&&t| t == 1).count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HierarchicalWfq<T> {
    slots: Vec<TenantSlot<T>>,
    len: usize,
    /// Round-robin scan position for tie-breaking at the tenant tier.
    cursor: usize,
}

impl<T> HierarchicalWfq<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HierarchicalWfq {
            slots: Vec::new(),
            len: 0,
            cursor: 0,
        }
    }

    fn slot_mut(&mut self, tenant: u32) -> &mut TenantSlot<T> {
        if let Some(i) = self.slots.iter().position(|s| s.tenant == tenant) {
            return &mut self.slots[i];
        }
        self.slots.push(TenantSlot {
            tenant,
            queue: WeightedFairQueue::new(),
            weight: 1.0,
            credit: 0.0,
        });
        self.slots.last_mut().expect("just pushed")
    }

    fn slot(&self, tenant: u32) -> Option<&TenantSlot<T>> {
        self.slots.iter().find(|s| s.tenant == tenant)
    }

    /// Sets a tenant's service weight (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite and positive.
    pub fn set_tenant_weight(&mut self, tenant: u32, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weights must be positive"
        );
        self.slot_mut(tenant).weight = weight;
    }

    /// Sets one lambda's weight within its tenant's slice (default 1.0).
    pub fn set_lambda_weight(&mut self, tenant: u32, lambda: usize, weight: f64) {
        self.slot_mut(tenant).queue.set_weight(lambda, weight);
    }

    /// Enqueues an item for `lambda` under `tenant`.
    pub fn push(&mut self, tenant: u32, lambda: usize, item: T) {
        self.slot_mut(tenant).queue.push(lambda, item);
        self.len += 1;
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued items for one lambda of one tenant.
    pub fn len_for(&self, tenant: u32, lambda: usize) -> usize {
        self.slot(tenant).map_or(0, |s| s.queue.len_for(lambda))
    }

    /// A tenant's service weight (1.0 when never configured).
    pub fn tenant_weight_of(&self, tenant: u32) -> f64 {
        self.slot(tenant).map_or(1.0, |s| s.weight)
    }

    /// A lambda's weight within its tenant (1.0 when never configured).
    pub fn lambda_weight_of(&self, tenant: u32, lambda: usize) -> f64 {
        self.slot(tenant).map_or(1.0, |s| s.queue.weight_of(lambda))
    }

    /// Dequeues under two-level weighted fairness. Returns the tenant id
    /// and lambda index alongside the item.
    pub fn pop(&mut self) -> Option<(u32, usize, T)> {
        self.pop_where(|_| true)
    }

    /// Dequeues under two-level weighted fairness, considering only
    /// tenants for which `eligible` returns true (e.g. tenants whose
    /// thread quota is not exhausted). Returns `None` when no eligible
    /// tenant has backlog, even if ineligible backlog remains.
    pub fn pop_where(&mut self, eligible: impl Fn(u32) -> bool) -> Option<(u32, usize, T)> {
        if !self
            .slots
            .iter()
            .any(|s| !s.queue.is_empty() && eligible(s.tenant))
        {
            return None;
        }
        // Tenant-tier credit WRR, mirroring the flat queue: serve the
        // first eligible backlogged tenant at >= 1 credit from the
        // cursor, topping up only eligible backlogged tenants when
        // nobody can afford a send.
        loop {
            let n = self.slots.len();
            let mut best: Option<usize> = None;
            for off in 0..n {
                let i = (self.cursor + off) % n;
                let s = &self.slots[i];
                if s.queue.is_empty() || !eligible(s.tenant) {
                    continue;
                }
                if s.credit >= 1.0 {
                    best = Some(i);
                    break;
                }
            }
            if let Some(i) = best {
                self.slots[i].credit -= 1.0;
                self.cursor = (i + 1) % n;
                let tenant = self.slots[i].tenant;
                let (lambda, item) = self.slots[i].queue.pop().expect("non-empty checked");
                self.len -= 1;
                // Idle or quota-blocked tenants must not hoard credit.
                for s in &mut self.slots {
                    if s.queue.is_empty() || !eligible(s.tenant) {
                        s.credit = 0.0;
                    }
                }
                return Some((tenant, lambda, item));
            }
            for s in &mut self.slots {
                if !s.queue.is_empty() && eligible(s.tenant) {
                    s.credit += s.weight;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_within_a_single_lambda() {
        let mut q = WeightedFairQueue::new();
        for i in 0..5 {
            q.push(0, i);
        }
        let order: Vec<i32> = (0..5).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_weights_interleave() {
        let mut q = WeightedFairQueue::new();
        for i in 0..4 {
            q.push(0, i);
            q.push(1, i);
        }
        let lambdas: Vec<usize> = (0..8).map(|_| q.pop().unwrap().0).collect();
        // Within any window of 4, both lambdas appear exactly twice.
        for w in lambdas.windows(4) {
            let zeros = w.iter().filter(|&&l| l == 0).count();
            assert!((1..=3).contains(&zeros), "unfair window {w:?}");
        }
    }

    #[test]
    fn weights_shape_service_ratio() {
        let mut q = WeightedFairQueue::new();
        q.set_weight(0, 3.0);
        q.set_weight(1, 1.0);
        for i in 0..40 {
            q.push(0, i);
            q.push(1, i);
        }
        let first_20: Vec<usize> = (0..20).map(|_| q.pop().unwrap().0).collect();
        let zeros = first_20.iter().filter(|&&l| l == 0).count();
        // ~3:1 service ratio => about 15 of the first 20.
        assert!((13..=17).contains(&zeros), "got {zeros} of 20");
    }

    #[test]
    fn work_conserving_when_one_lambda_idle() {
        let mut q = WeightedFairQueue::new();
        q.set_weight(0, 1.0);
        q.set_weight(1, 100.0);
        // Only lambda 0 has work; it must be served immediately.
        q.push(0, "only");
        assert_eq!(q.pop(), Some((0, "only")));
    }

    #[test]
    fn idle_lambda_does_not_hoard_credit() {
        let mut q = WeightedFairQueue::new();
        q.set_weight(0, 1.0);
        q.set_weight(1, 1.0);
        // Serve a burst from lambda 0 alone.
        for i in 0..10 {
            q.push(0, i);
        }
        for _ in 0..10 {
            q.pop();
        }
        // Now both arrive; lambda 1 must not get a 10-item head start.
        for i in 0..6 {
            q.push(0, i);
            q.push(1, i);
        }
        let first_6: Vec<usize> = (0..6).map(|_| q.pop().unwrap().0).collect();
        let ones = first_6.iter().filter(|&&l| l == 1).count();
        assert!((2..=4).contains(&ones), "hoarded credit: {first_6:?}");
    }

    proptest! {
        /// Under a continuous backlog, each lambda's service share
        /// converges to its weight share (within rounding).
        #[test]
        fn service_shares_follow_weights(
            weights in proptest::collection::vec(1u32..8, 2..5),
            rounds in 100usize..400,
        ) {
            let mut q = WeightedFairQueue::new();
            for (i, &w) in weights.iter().enumerate() {
                q.set_weight(i, w as f64);
                for _ in 0..rounds {
                    q.push(i, ());
                }
            }
            let total_weight: u32 = weights.iter().sum();
            // Serve at most `rounds` items so even a lambda receiving
            // 100% of service could not drain its backlog (otherwise
            // work conservation shifts share to the others).
            let serve = rounds;
            let mut served = vec![0usize; weights.len()];
            for _ in 0..serve {
                let (l, _) = q.pop().expect("backlogged");
                served[l] += 1;
            }
            for (i, &w) in weights.iter().enumerate() {
                let expect = serve as f64 * w as f64 / total_weight as f64;
                let got = served[i] as f64;
                prop_assert!(
                    (got - expect).abs() <= expect * 0.25 + 2.0,
                    "lambda {} served {} expected ~{:.0} (weights {:?})",
                    i, got, expect, weights
                );
            }
        }

        /// No continuously-backlogged lambda starves: the gap between two
        /// consecutive services of lambda j is bounded by a constant factor
        /// of total_weight / w_j dequeues.
        #[test]
        fn no_backlogged_lambda_starves(
            weights in proptest::collection::vec(1u32..8, 2..5),
            rounds in 50usize..200,
        ) {
            let mut q = WeightedFairQueue::new();
            for (i, &w) in weights.iter().enumerate() {
                q.set_weight(i, w as f64);
                for _ in 0..rounds {
                    q.push(i, ());
                }
            }
            let total_weight: u32 = weights.iter().sum();
            let mut waited = vec![0u32; weights.len()];
            for _ in 0..rounds {
                let (served, _) = q.pop().expect("backlogged");
                waited[served] = 0;
                for (j, &w) in weights.iter().enumerate() {
                    if j != served && q.len_for(j) > 0 {
                        waited[j] += 1;
                        let bound = 4 * total_weight.div_ceil(w) + 8;
                        prop_assert!(
                            waited[j] <= bound,
                            "lambda {} (weight {}) starved for {} dequeues \
                             (bound {}, weights {:?})",
                            j, w, waited[j], bound, weights
                        );
                    }
                }
            }
        }

        /// Weight-normalized service stays tightly clustered across all
        /// continuously-backlogged lambdas (the per-window bound the online
        /// InvariantChecker enforces).
        #[test]
        fn normalized_service_spread_is_bounded(
            weights in proptest::collection::vec(1u32..8, 2..5),
            rounds in 100usize..300,
        ) {
            let mut q = WeightedFairQueue::new();
            for (i, &w) in weights.iter().enumerate() {
                q.set_weight(i, w as f64);
                for _ in 0..rounds {
                    q.push(i, ());
                }
            }
            let mut served = vec![0usize; weights.len()];
            for _ in 0..rounds {
                let (l, _) = q.pop().expect("backlogged");
                served[l] += 1;
            }
            let norms: Vec<f64> = weights
                .iter()
                .zip(&served)
                .map(|(&w, &s)| s as f64 / w as f64)
                .collect();
            let max = norms.iter().cloned().fold(f64::MIN, f64::max);
            let min = norms.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(
                max - min <= 4.0,
                "normalized service spread {:.2} (served {:?}, weights {:?})",
                max - min, served, weights
            );
        }

        /// Pop never loses or invents items.
        #[test]
        fn conservation(
            pushes in proptest::collection::vec(0usize..4, 0..200),
        ) {
            let mut q = WeightedFairQueue::new();
            for (seq, &l) in pushes.iter().enumerate() {
                q.push(l, seq);
            }
            let mut seen = Vec::new();
            while let Some((_, item)) = q.pop() {
                seen.push(item);
            }
            prop_assert_eq!(seen.len(), pushes.len());
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..pushes.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn len_tracking() {
        let mut q = WeightedFairQueue::new();
        assert!(q.is_empty());
        q.push(2, 'x');
        q.push(0, 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.len_for(2), 1);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn hierarchical_single_tenant_degenerates_to_flat() {
        let mut h = HierarchicalWfq::new();
        let mut f = WeightedFairQueue::new();
        h.set_lambda_weight(7, 0, 3.0);
        f.set_weight(0, 3.0);
        h.set_lambda_weight(7, 1, 1.0);
        f.set_weight(1, 1.0);
        for i in 0..20 {
            h.push(7, 0, i);
            f.push(0, i);
            h.push(7, 1, i);
            f.push(1, i);
        }
        for _ in 0..40 {
            let (t, hl, hi) = h.pop().unwrap();
            let (fl, fi) = f.pop().unwrap();
            assert_eq!(t, 7);
            assert_eq!((hl, hi), (fl, fi));
        }
    }

    #[test]
    fn tenant_weights_dominate_lambda_weights() {
        // Tenant 1 has one heavy lambda, tenant 2 four light ones; the
        // tenant tier still splits service by tenant weight (1:1), not
        // by lambda count or lambda weight.
        let mut q = HierarchicalWfq::new();
        q.set_tenant_weight(1, 1.0);
        q.set_tenant_weight(2, 1.0);
        q.set_lambda_weight(1, 0, 8.0);
        for i in 0..64 {
            q.push(1, 0, i);
            q.push(2, (i % 4) as usize, i);
        }
        let mut served = [0usize; 2];
        for _ in 0..64 {
            let (t, _, _) = q.pop().unwrap();
            served[(t - 1) as usize] += 1;
        }
        assert!(
            (28..=36).contains(&served[0]),
            "tenant split {served:?} not ~1:1"
        );
    }

    #[test]
    fn tenant_shares_follow_tenant_weights() {
        let mut q = HierarchicalWfq::new();
        q.set_tenant_weight(1, 3.0);
        q.set_tenant_weight(2, 1.0);
        for i in 0..40 {
            q.push(1, 0, i);
            q.push(2, 0, i);
        }
        let first_20: Vec<u32> = (0..20).map(|_| q.pop().unwrap().0).collect();
        let t1 = first_20.iter().filter(|&&t| t == 1).count();
        assert!((13..=17).contains(&t1), "got {t1} of 20");
    }

    #[test]
    fn pop_where_skips_ineligible_tenants() {
        let mut q = HierarchicalWfq::new();
        q.set_tenant_weight(1, 100.0);
        q.set_tenant_weight(2, 1.0);
        for i in 0..4 {
            q.push(1, 0, i);
            q.push(2, 0, i);
        }
        // Tenant 1 is quota-blocked: only tenant 2 may be served.
        for _ in 0..4 {
            let (t, _, _) = q.pop_where(|t| t != 1).unwrap();
            assert_eq!(t, 2);
        }
        assert_eq!(q.pop_where(|t| t != 1), None, "only blocked backlog left");
        assert_eq!(q.len(), 4);
        // Unblocking resumes service without a hoarded-credit burst
        // penalty against tenant 2 later.
        assert_eq!(q.pop().map(|(t, _, _)| t), Some(1));
    }

    #[test]
    fn hierarchical_work_conserving_when_tenant_idle() {
        let mut q = HierarchicalWfq::new();
        q.set_tenant_weight(1, 1.0);
        q.set_tenant_weight(2, 100.0);
        q.push(1, 3, "only");
        assert_eq!(q.pop(), Some((1, 3, "only")));
        assert!(q.is_empty());
    }

    proptest! {
        /// Under continuous backlog, tenant-tier service shares converge
        /// to tenant weights regardless of per-tenant lambda fan-out.
        #[test]
        fn hierarchical_tenant_shares_follow_weights(
            weights in proptest::collection::vec(1u32..8, 2..5),
            fanout in proptest::collection::vec(1usize..4, 2..5),
            rounds in 100usize..300,
        ) {
            let mut q = HierarchicalWfq::new();
            let n = weights.len().min(fanout.len());
            for t in 0..n {
                q.set_tenant_weight(t as u32, weights[t] as f64);
                for _ in 0..rounds {
                    for l in 0..fanout[t] {
                        q.push(t as u32, l, ());
                    }
                }
            }
            let total_weight: u32 = weights[..n].iter().sum();
            let mut served = vec![0usize; n];
            for _ in 0..rounds {
                let (t, _, _) = q.pop().expect("backlogged");
                served[t as usize] += 1;
            }
            for t in 0..n {
                let expect = rounds as f64 * weights[t] as f64 / total_weight as f64;
                let got = served[t] as f64;
                prop_assert!(
                    (got - expect).abs() <= expect * 0.25 + 2.0,
                    "tenant {} served {} expected ~{:.0} (weights {:?})",
                    t, got, expect, &weights[..n]
                );
            }
        }

        /// Pop never loses or invents items across the hierarchy.
        #[test]
        fn hierarchical_conservation(
            pushes in proptest::collection::vec((0u32..3, 0usize..3), 0..200),
        ) {
            let mut q = HierarchicalWfq::new();
            for (seq, &(t, l)) in pushes.iter().enumerate() {
                q.push(t, l, seq);
            }
            let mut seen = Vec::new();
            while let Some((_, _, item)) = q.pop() {
                seen.push(item);
            }
            prop_assert_eq!(seen.len(), pushes.len());
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..pushes.len()).collect::<Vec<_>>());
        }
    }
}
