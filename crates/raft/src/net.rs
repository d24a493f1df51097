//! The Raft cluster's message fabric: delay, loss, and partitions.
//!
//! Routing Raft RPCs through one fabric component keeps the protocol
//! implementation transport-agnostic and gives tests deterministic
//! control over asynchrony: per-message random delay, probabilistic
//! drops, and explicit partitions.

use lnic_sim::hash::FastSet;
use lnic_sim::prelude::*;
use rand::Rng;

use crate::msg::RaftMsg;
use crate::types::NodeId;

/// Control message: partition the cluster into the given groups; links
/// across groups are cut.
#[derive(Debug)]
pub struct SetPartitions {
    /// Node groups; nodes absent from all groups are isolated.
    pub groups: Vec<Vec<NodeId>>,
}

/// Control message: heal all partitions.
#[derive(Debug)]
pub struct Heal;

/// The fabric component.
pub struct RaftNet {
    nodes: Vec<ComponentId>,
    min_delay: SimDuration,
    max_delay: SimDuration,
    drop_prob: f64,
    /// `blocked[a][b]` when messages a->b are cut.
    blocked: FastSet<(NodeId, NodeId)>,
    delivered: Counter,
    dropped: Counter,
}

impl RaftNet {
    /// Creates a fabric delivering to `nodes` (indexed by [`NodeId`])
    /// with uniform random delay in `[min_delay, max_delay]`.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is not in `[0, 1)` or the delay range is
    /// inverted.
    pub fn new(
        nodes: Vec<ComponentId>,
        min_delay: SimDuration,
        max_delay: SimDuration,
        drop_prob: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&drop_prob), "drop_prob out of range");
        assert!(min_delay <= max_delay, "inverted delay range");
        RaftNet {
            nodes,
            min_delay,
            max_delay,
            drop_prob,
            blocked: FastSet::default(),
            delivered: Counter::new(),
            dropped: Counter::new(),
        }
    }

    /// Messages delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Messages dropped (loss or partition).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    fn apply_partitions(&mut self, groups: &[Vec<NodeId>]) {
        self.blocked.clear();
        let group_of = |n: NodeId| groups.iter().position(|g| g.contains(&n));
        let all: Vec<NodeId> = (0..self.nodes.len() as u32).map(NodeId).collect();
        for &a in &all {
            for &b in &all {
                if a == b {
                    continue;
                }
                let (ga, gb) = (group_of(a), group_of(b));
                let cut = match (ga, gb) {
                    (Some(x), Some(y)) => x != y,
                    // Nodes outside all groups are isolated.
                    _ => true,
                };
                if cut {
                    self.blocked.insert((a, b));
                }
            }
        }
    }
}

impl Component for RaftNet {
    fn name(&self) -> &str {
        "raft-net"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<RaftMsg>() {
            Ok(m) => {
                if self.blocked.contains(&(m.from, m.to))
                    || (self.drop_prob > 0.0 && ctx.rng().gen_bool(self.drop_prob))
                {
                    self.dropped.incr();
                    return;
                }
                let span = self.max_delay.as_nanos() - self.min_delay.as_nanos();
                let jitter = if span == 0 {
                    0
                } else {
                    ctx.rng().gen_range(0..=span)
                };
                let delay = self.min_delay + SimDuration::from_nanos(jitter);
                let dst = self.nodes[m.to.0 as usize];
                self.delivered.incr();
                ctx.send_boxed(dst, delay, m);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SetPartitions>() {
            Ok(p) => {
                self.apply_partitions(&p.groups);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<Heal>() {
            Ok(_) => self.blocked.clear(),
            Err(other) => panic!("raft-net received unknown message {other:?}"),
        }
    }
}
