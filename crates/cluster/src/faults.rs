//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a reproducible failure scenario: the same plan on
//! the same batch produces the same deaths at the same points, so every
//! chaos test and failover benchmark is replayable. Three fault kinds:
//!
//! * [`Fault::Kill`] — node `n` crashes immediately before starting its
//!   (`after_queries`+1)-th query execution. The dying node hands its
//!   unfinished work (the claimed query plus anything still in its
//!   dispatch queue) to the group's re-route queue and marks itself
//!   `Down` in the [`crate::shard_map::ShardMap`].
//! * [`Fault::WorkerPanic`] — during node `n`'s `during_query`-th
//!   execution, a search worker panics mid-query. The panic crosses the
//!   engine's poisonable `PhaseBarrier` (no sibling worker deadlocks),
//!   unwinds to the node loop, and the node treats it as fatal: the
//!   fault is a *kill through the panic path*. The panic itself fires
//!   from the registry's cooperative service hook, so whether it lands
//!   mid-phase depends on the engine's claim cadence; the node's death
//!   at that query is deterministic either way. A serving session
//!   ([`crate::OdysseyCluster::serve`]) counts exact executions the
//!   same way, but retires the node only while its group has another
//!   live member; otherwise the torn query is answered degraded and the
//!   node keeps serving. Kill faults apply to the batch paths only.
//! * [`Fault::Delay`] — node `n`'s responses are delayed: every service
//!   tick sleeps `micros` behind the fault clock, modelling a slow or
//!   flaky link. Delays never kill; they exercise the `Suspect` lease
//!   state and recovery.
//!
//! The only `thread::sleep` calls in the failure machinery live here,
//! behind the `FAULT-CLOCK:` discipline that `xtask lint` enforces:
//! fault-injection sleeps must be driven by a plan, never scattered
//! ad hoc through the runtime.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Node `node` crashes before starting its (`after_queries`+1)-th
    /// query execution (`after_queries: 0` = dies before doing
    /// anything).
    Kill {
        /// The node that dies.
        node: usize,
        /// Query executions the node completes before dying.
        after_queries: usize,
    },
    /// A worker of `node` panics during its `during_query`-th (0-based)
    /// execution; the node dies through the poisoned-barrier path.
    WorkerPanic {
        /// The node whose worker panics.
        node: usize,
        /// The 0-based execution index the panic is armed for.
        during_query: usize,
    },
    /// Node `node`'s processing is paced by `micros` per service tick.
    Delay {
        /// The delayed node.
        node: usize,
        /// Extra microseconds per service tick.
        micros: u64,
    },
}

impl Fault {
    /// The node the fault applies to.
    pub fn node(&self) -> usize {
        match *self {
            Fault::Kill { node, .. }
            | Fault::WorkerPanic { node, .. }
            | Fault::Delay { node, .. } => node,
        }
    }

    /// Whether the fault ends the node's life (kill or panic).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, Fault::Delay { .. })
    }
}

/// A reproducible failure scenario: an ordered list of faults consumed
/// by the runtime, the chaos tests, and the failover bench bins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a [`Fault::Kill`].
    pub fn kill(mut self, node: usize, after_queries: usize) -> Self {
        self.faults.push(Fault::Kill {
            node,
            after_queries,
        });
        self
    }

    /// Adds a [`Fault::WorkerPanic`].
    pub fn worker_panic(mut self, node: usize, during_query: usize) -> Self {
        self.faults.push(Fault::WorkerPanic {
            node,
            during_query,
        });
        self
    }

    /// Adds a [`Fault::Delay`].
    pub fn delay(mut self, node: usize, micros: u64) -> Self {
        self.faults.push(Fault::Delay { node, micros });
        self
    }

    /// All faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether any fault targets `node`.
    pub fn affects(&self, node: usize) -> bool {
        self.faults.iter().any(|f| f.node() == node)
    }

    /// The nodes a fatal fault will eventually kill (deduplicated, in
    /// id order) — what [`crate::runtime::BatchReport::dead_nodes`]
    /// must equal after the batch.
    pub fn doomed_nodes(&self) -> Vec<usize> {
        let mut nodes: Vec<usize> = self
            .faults
            .iter()
            .filter(|f| f.is_fatal())
            .map(|f| f.node())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The earliest kill point for `node`: the number of executions it
    /// completes before dying, or `None` when no fatal fault targets it.
    /// (A `WorkerPanic { during_query: t }` node dies *at* execution
    /// `t`, i.e. after completing `t` clean ones — same clock as
    /// `Kill { after_queries: t }`, except the t-th execution starts
    /// and is then torn down.)
    pub fn fatal_after(&self, node: usize) -> Option<usize> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Kill {
                    node: n,
                    after_queries,
                } if n == node => Some(after_queries),
                Fault::WorkerPanic {
                    node: n,
                    during_query,
                } if n == node => Some(during_query),
                _ => None,
            })
            .min()
    }

    /// Whether `node`'s earliest fatal fault goes through the panic
    /// path (ties prefer the plain kill, which triggers first).
    pub fn dies_by_panic(&self, node: usize) -> bool {
        let Some(at) = self.fatal_after(node) else {
            return false;
        };
        !self.faults.iter().any(|f| {
            matches!(*f, Fault::Kill { node: n, after_queries } if n == node && after_queries <= at)
        })
    }

    /// Total delay pacing for `node` per service tick.
    pub fn delay_micros(&self, node: usize) -> u64 {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Delay { node: n, micros } if n == node => Some(micros),
                _ => None,
            })
            .sum()
    }
}

/// One node's runtime view of the plan: a local execution counter that
/// gates the fault triggers, plus the shared flag the cooperative
/// service hook reads to fire an armed worker panic.
#[derive(Debug)]
pub struct NodeFaults {
    fatal_after: Option<usize>,
    by_panic: bool,
    delay: Option<Duration>,
    executed: usize,
    panic_armed: Arc<AtomicBool>,
}

impl NodeFaults {
    /// The fault state of `node` under `plan` (`None` = fault-free).
    pub fn new(plan: Option<&FaultPlan>, node: usize) -> Self {
        let (fatal_after, by_panic, delay) = match plan {
            Some(p) => (
                p.fatal_after(node),
                p.dies_by_panic(node),
                match p.delay_micros(node) {
                    0 => None,
                    us => Some(Duration::from_micros(us)),
                },
            ),
            None => (None, false, None),
        };
        NodeFaults {
            fatal_after,
            by_panic,
            delay,
            executed: 0,
            panic_armed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether a fatal fault targets this node at all (such nodes run
    /// the sequential pool surface so their death point is
    /// well-defined; lanes would smear one query's death across a
    /// whole round).
    pub fn has_fatal(&self) -> bool {
        self.fatal_after.is_some()
    }

    /// Whether the node must die *now*, before starting its next
    /// execution ([`Fault::Kill`] semantics).
    pub fn kill_due(&self) -> bool {
        !self.by_panic && self.fatal_after == Some(self.executed)
    }

    /// Whether the node dies at/after the execution it is about to
    /// start (the [`Fault::WorkerPanic`] point). Arms the panic flag
    /// for the service hook; the caller treats the execution as fatal
    /// whether or not a worker happened to cross the hook while armed.
    pub fn panic_due(&self) -> bool {
        if self.by_panic && self.fatal_after == Some(self.executed) {
            self.panic_armed.store(true, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Counts one finished (or torn-down) execution.
    pub fn record_execution(&mut self) {
        self.executed += 1;
    }

    /// Executions completed so far.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// The shared flag the service hook polls ([`service_tick`]).
    pub fn panic_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.panic_armed)
    }

    /// The node's delay pacing, if any, for the service hook.
    pub fn delay(&self) -> Option<Duration> {
        self.delay
    }
}

/// The fault-clock service tick, called from the engine's cooperative
/// service hook on the node's search workers: applies the plan's delay
/// pacing and fires an armed worker panic (once).
///
/// # Panics
/// Panics — by design — when `panic_armed` was armed by
/// [`NodeFaults::panic_due`]; the panic poisons the engine's
/// `PhaseBarrier` and unwinds to the node loop.
pub fn service_tick(panic_armed: &AtomicBool, delay: Option<Duration>) {
    if let Some(d) = delay {
        // FAULT-CLOCK: delayed-response injection — the only sleep the
        // fault machinery performs, paced by the plan's Delay fault.
        std::thread::sleep(d);
    }
    if panic_armed.swap(false, Ordering::AcqRel) {
        panic!("fault injection: worker panic (FaultPlan::worker_panic)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries() {
        let p = FaultPlan::new().kill(1, 3).delay(2, 50).worker_panic(3, 0);
        assert!(p.affects(1) && p.affects(2) && p.affects(3));
        assert!(!p.affects(0));
        assert_eq!(p.doomed_nodes(), vec![1, 3]);
        assert_eq!(p.fatal_after(1), Some(3));
        assert_eq!(p.fatal_after(3), Some(0));
        assert_eq!(p.fatal_after(2), None);
        assert!(!p.dies_by_panic(1));
        assert!(p.dies_by_panic(3));
        assert_eq!(p.delay_micros(2), 50);
        assert_eq!(p.delay_micros(1), 0);
        assert!(FaultPlan::new().is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn earliest_fatal_wins_and_kill_breaks_ties() {
        let p = FaultPlan::new().worker_panic(0, 2).kill(0, 2).kill(0, 5);
        assert_eq!(p.fatal_after(0), Some(2));
        assert!(!p.dies_by_panic(0), "kill at the same point triggers first");
        let q = FaultPlan::new().worker_panic(0, 1).kill(0, 4);
        assert_eq!(q.fatal_after(0), Some(1));
        assert!(q.dies_by_panic(0));
    }

    #[test]
    fn node_faults_trigger_points() {
        let p = FaultPlan::new().kill(0, 2);
        let mut f = NodeFaults::new(Some(&p), 0);
        assert!(f.has_fatal());
        assert!(!f.kill_due());
        f.record_execution();
        f.record_execution();
        assert!(f.kill_due(), "dies before its third execution");
        assert!(!f.panic_due());
        let clean = NodeFaults::new(Some(&p), 1);
        assert!(!clean.has_fatal() && !clean.kill_due());
        let none = NodeFaults::new(None, 0);
        assert!(!none.has_fatal());
    }

    #[test]
    fn panic_due_arms_the_flag_once_per_check() {
        let p = FaultPlan::new().worker_panic(0, 1);
        let mut f = NodeFaults::new(Some(&p), 0);
        assert!(!f.panic_due());
        f.record_execution();
        assert!(f.panic_due());
        let flag = f.panic_flag();
        assert!(flag.load(Ordering::Acquire), "armed for the hook");
        // The tick consumes the flag and panics exactly once.
        let r = std::panic::catch_unwind(|| service_tick(&flag, None));
        assert!(r.is_err());
        assert!(!flag.load(Ordering::Acquire));
        service_tick(&flag, None); // disarmed: no panic
    }

    #[test]
    fn delay_only_plans_are_not_fatal() {
        let p = FaultPlan::new().delay(1, 25);
        let f = NodeFaults::new(Some(&p), 1);
        assert!(!f.has_fatal());
        assert_eq!(f.delay(), Some(Duration::from_micros(25)));
        service_tick(&f.panic_flag(), f.delay()); // sleeps, returns
    }
}
