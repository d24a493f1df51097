//! Migration planning: turn a desired split into moves, with hysteresis
//! and a firmware-swap-cost benefit gate.
//!
//! Repacking on every profiling window would thrash: a lambda whose
//! observed latency hovers near the decision boundary would bounce
//! NIC↔host, paying a multi-second firmware swap each way. The planner
//! therefore applies two brakes:
//!
//! 1. **Hysteresis** — a workload that just moved may not move again
//!    until `cooldown` elapses, which structurally prevents A→B→A
//!    flapping inside one cooldown period.
//! 2. **Swap-cost gate** — a promotion to the NIC must save at least
//!    the swap downtime within the `amortize` horizon
//!    (`gain_ns_per_sec × amortize ≥ swap_cost`), so a barely-warmer
//!    lambda never justifies seconds of dropped packets.
//!
//! Demotions to the host pass on cooldown alone: they relieve pressure
//! on the constrained resource and must not be gated on proving a
//! latency win.

use std::collections::BTreeMap;

use lnic_sim::hash::FastMap;
use lnic_sim::time::{SimDuration, SimTime};

use crate::packer::Target;

/// Brakes applied to repacking decisions.
#[derive(Clone, Copy, Debug)]
pub struct MigrationPolicy {
    /// Minimum time between moves of the same workload.
    pub cooldown: SimDuration,
    /// Downtime one firmware swap costs (requests dropped or retried
    /// while the NIC reloads).
    pub swap_cost: SimDuration,
    /// Horizon over which a promotion's latency savings must repay
    /// `swap_cost`.
    pub amortize: SimDuration,
}

/// One planned migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// The workload to move.
    pub workload_id: u32,
    /// Where it currently runs.
    pub from: Target,
    /// Where it should run.
    pub to: Target,
}

/// Stateful migration planner; remembers when each workload last moved
/// so hysteresis survives across planning rounds.
#[derive(Debug, Default)]
pub struct MigrationPlanner {
    last_move: FastMap<u32, SimTime>,
}

impl MigrationPlanner {
    /// A planner with no move history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Diffs `desired` against `current` and returns the moves that
    /// survive hysteresis and the swap-cost gate. `gains` maps a
    /// workload to its estimated latency savings in ns per second of
    /// wall clock (`(host_ns − nic_ns) × rate`); missing entries count
    /// as zero gain. Approved moves are recorded for future cooldowns.
    pub fn plan(
        &mut self,
        now: SimTime,
        current: &BTreeMap<u32, Target>,
        desired: &BTreeMap<u32, Target>,
        gains: &BTreeMap<u32, f64>,
        policy: &MigrationPolicy,
    ) -> Vec<Move> {
        let mut moves = Vec::new();
        for (&wid, &from) in current {
            let Some(&to) = desired.get(&wid) else {
                continue;
            };
            if to == from {
                continue;
            }
            if let Some(&at) = self.last_move.get(&wid) {
                if at + policy.cooldown > now {
                    continue;
                }
            }
            if to == Target::Nic {
                let gain = gains.get(&wid).copied().unwrap_or(0.0);
                let amortize_secs = policy.amortize.as_nanos() as f64 / 1e9;
                if gain * amortize_secs < policy.swap_cost.as_nanos() as f64 {
                    continue;
                }
            }
            self.last_move.insert(wid, now);
            moves.push(Move {
                workload_id: wid,
                from,
                to,
            });
        }
        moves
    }
}

/// Applies `moves` to a placement map, asserting each move's `from`
/// matches the current state (test/debug helper).
pub fn apply(current: &mut BTreeMap<u32, Target>, moves: &[Move]) {
    for m in moves {
        let prev = current.insert(m.workload_id, m.to);
        assert_eq!(
            prev,
            Some(m.from),
            "move of workload {} expected source {:?}",
            m.workload_id,
            m.from
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    fn policy() -> MigrationPolicy {
        MigrationPolicy {
            cooldown: SimDuration::from_millis(500),
            swap_cost: SimDuration::from_millis(10),
            amortize: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn promotion_requires_amortized_gain() {
        let mut planner = MigrationPlanner::new();
        let current: BTreeMap<u32, Target> = [(1, Target::Host)].into();
        let desired: BTreeMap<u32, Target> = [(1, Target::Nic)].into();
        // 10 ms swap over a 1 s horizon needs ≥ 1e7 ns/s of gain.
        let weak: BTreeMap<u32, f64> = [(1, 1e6)].into();
        assert!(planner
            .plan(SimTime::ZERO, &current, &desired, &weak, &policy())
            .is_empty());
        let strong: BTreeMap<u32, f64> = [(1, 1e8)].into();
        let moves = planner.plan(SimTime::ZERO, &current, &desired, &strong, &policy());
        assert_eq!(
            moves,
            vec![Move {
                workload_id: 1,
                from: Target::Host,
                to: Target::Nic
            }]
        );
    }

    #[test]
    fn demotion_passes_without_gain() {
        let mut planner = MigrationPlanner::new();
        let current: BTreeMap<u32, Target> = [(3, Target::Nic)].into();
        let desired: BTreeMap<u32, Target> = [(3, Target::Host)].into();
        let moves = planner.plan(
            SimTime::ZERO,
            &current,
            &desired,
            &BTreeMap::new(),
            &policy(),
        );
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn cooldown_blocks_the_return_leg() {
        let mut planner = MigrationPlanner::new();
        let p = policy();
        let mut current: BTreeMap<u32, Target> = [(1, Target::Nic)].into();
        let to_host: BTreeMap<u32, Target> = [(1, Target::Host)].into();
        let to_nic: BTreeMap<u32, Target> = [(1, Target::Nic)].into();
        let gains: BTreeMap<u32, f64> = [(1, 1e12)].into();

        let t0 = SimTime::ZERO + ns(1);
        let moves = planner.plan(t0, &current, &to_host, &gains, &p);
        assert_eq!(moves.len(), 1);
        apply(&mut current, &moves);

        // Flapping back inside the cooldown is suppressed even with an
        // enormous gain estimate…
        let t1 = t0 + SimDuration::from_millis(100);
        assert!(planner.plan(t1, &current, &to_nic, &gains, &p).is_empty());

        // …and allowed once the cooldown has elapsed.
        let t2 = t0 + p.cooldown + ns(1);
        let moves = planner.plan(t2, &current, &to_nic, &gains, &p);
        assert_eq!(moves.len(), 1);
    }

    #[test]
    fn unknown_and_unchanged_workloads_are_ignored() {
        let mut planner = MigrationPlanner::new();
        let current: BTreeMap<u32, Target> = [(1, Target::Nic), (2, Target::Host)].into();
        // 1 stays put; 2 is absent from desired.
        let desired: BTreeMap<u32, Target> = [(1, Target::Nic)].into();
        assert!(planner
            .plan(
                SimTime::ZERO,
                &current,
                &desired,
                &BTreeMap::new(),
                &policy()
            )
            .is_empty());
    }
}
