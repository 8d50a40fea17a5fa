//! The inter-node work-stealing protocol (Section 3.2.2, Algorithms 3–4).
//!
//! Each node runs a **work-stealing manager** alongside its search
//! workers (Algorithm 1 line 6 allocates a thread for this role). When a
//! `StealingRequest` arrives, the manager consults the node engine's
//! [`StealRegistry`] — the service that tracks **every** in-flight query
//! of the node, whether it runs on the full pool or on one of the
//! concurrent lanes — picks the victim query with the widest remaining
//! work, takes away up to `Nsend` RS-batches satisfying the Take-Away
//! property, marks their queues stolen, and replies with the batch
//! **ids**, the query id, and the query's current BSF — never any series
//! data. The thief rebuilds those priority queues from its own identical
//! index (replication-group nodes store the same chunk) and processes
//! them.
//!
//! Because the registry (not a one-query "active slot") is the unit the
//! manager inspects, stealing composes with the inter-query lanes of
//! `odyssey_core::search::multiq`: a node running eight lane queries at
//! once serves thieves from whichever of them has the most unclaimed
//! work, mid-round. The same serving path also runs cooperatively on
//! the search workers themselves through the registry's installed
//! service hook (see `ClusterConfig::work_stealing`).
//!
//! ## Dead-node semantics
//!
//! The protocol tolerates a victim dying mid-batch without wedging
//! thieves, because every path degrades to the *empty reply*:
//!
//! * a node that dies between queries has no registered grant, so its
//!   registry is empty and [`serve_request`] answers
//!   [`StealResponse::empty`];
//! * a node that dies *mid-query* through the worker-panic path has its
//!   grant deregistered by the engine's unwind (the `InflightQuery`
//!   drop recycles the published batch views), so the next request also
//!   sees an empty registry — a dead node's in-flight work is never
//!   served twice;
//! * the manager thread outlives its node's death: [`manager_loop`]
//!   exits only when the whole group is done (a dying node still
//!   increments the group counter during its hand-off), so requests
//!   racing with the death are answered, not dropped.
//!
//! An empty reply sends the thief back to pick another victim; the dead
//! node's *unfinished queries* travel separately, through the runtime's
//! re-route queue, as whole re-executions on a surviving replica.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use odyssey_core::search::engine::StealRegistry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// A steal request (`StealingRequest` in Algorithm 3).
pub struct StealRequest {
    /// Requesting node id (for accounting).
    pub from: usize,
    /// Channel for the response.
    pub reply: Sender<StealResponse>,
}

/// The manager's reply: `⟨S, Q of sn, Q's current BSF⟩` (Algorithm 3
/// line 3). An empty `batch_ids` means nothing was stealable.
#[derive(Debug, Clone)]
pub struct StealResponse {
    /// Global RS-batch ids the thief should process.
    pub batch_ids: Vec<usize>,
    /// The query those batches belong to.
    pub query_id: Option<usize>,
    /// The victim's current (squared) BSF for that query.
    pub bsf_sq: f64,
}

impl StealResponse {
    /// The "nothing to steal" reply.
    pub fn empty() -> Self {
        StealResponse {
            batch_ids: Vec::new(),
            query_id: None,
            bsf_sq: f64::INFINITY,
        }
    }
}

/// Serves one steal request against the node's steal registry (the body
/// of Algorithm 3, lines 2–4, generalized over every in-flight query).
/// Used both by the manager thread and by the search workers'
/// cooperative service hook.
pub fn serve_request(
    req: StealRequest,
    registry: &StealRegistry,
    nsend: usize,
    steals_served: &AtomicU64,
) {
    let response = match registry.serve_steal(nsend) {
        Some(w) => {
            steals_served.fetch_add(1, Ordering::Relaxed);
            StealResponse {
                batch_ids: w.batch_ids,
                query_id: Some(w.query_id),
                bsf_sq: w.bsf_sq,
            }
        }
        // The thief may have timed out; a dropped receiver is fine.
        None => StealResponse::empty(),
    };
    let _ = req.reply.send(response);
}

/// Runs one node's work-stealing manager until every node of the group
/// is done (Algorithm 3). `group_done` counts finished group members out
/// of `group_total`.
pub fn manager_loop(
    rx: &Receiver<StealRequest>,
    registry: &StealRegistry,
    group_done: &AtomicUsize,
    group_total: usize,
    nsend: usize,
    steals_served: &AtomicU64,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(req) => serve_request(req, registry, nsend, steals_served),
            Err(RecvTimeoutError::Timeout) => {
                if group_done.load(Ordering::Acquire) >= group_total {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain any request that raced with the exit condition.
    while let Ok(req) = rx.try_recv() {
        serve_request(req, registry, nsend, steals_served);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::{bounded, unbounded};
    use odyssey_core::search::bsf::{ResultSet, SharedBsf};
    use std::sync::Arc;

    #[test]
    fn manager_replies_empty_when_idle() {
        let (tx, rx) = unbounded::<StealRequest>();
        let registry = Arc::new(StealRegistry::default());
        let done = AtomicUsize::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| manager_loop(&rx, &registry, &done, 1, 4, &served));
            let (rtx, rrx) = bounded(1);
            tx.send(StealRequest { from: 9, reply: rtx }).unwrap();
            let resp = rrx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert!(resp.batch_ids.is_empty());
            assert_eq!(resp.query_id, None);
            done.store(1, Ordering::Release); // unblock exit
        });
        assert_eq!(served.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn manager_serves_registered_query() {
        let (tx, rx) = unbounded::<StealRequest>();
        let registry = Arc::new(StealRegistry::default());
        // Simulate a search mid-processing with 6 batches published.
        let bsf = Arc::new(SharedBsf::new(42.0, Some(7)));
        let grant = registry.register(3, 2, Arc::clone(&bsf) as Arc<dyn ResultSet + Send + Sync>);
        grant.view().test_init(6);
        grant.view().test_publish(vec![0, 1, 2, 3, 4, 5]);
        let done = AtomicUsize::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| manager_loop(&rx, &registry, &done, 2, 4, &served));
            let (rtx, rrx) = bounded(1);
            tx.send(StealRequest { from: 1, reply: rtx }).unwrap();
            let resp = rrx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(resp.batch_ids, vec![5, 4, 3, 2], "Nsend=4, rightmost");
            assert_eq!(resp.query_id, Some(3));
            assert_eq!(resp.bsf_sq, 42.0);
            done.store(2, Ordering::Release);
        });
        assert_eq!(served.load(Ordering::Relaxed), 1);
        drop(grant);
        assert_eq!(registry.in_flight(), 0, "grant drop deregisters");
    }

    #[test]
    fn manager_picks_widest_remaining_lane_query() {
        // Two concurrent lane queries in one registry: the one with more
        // unclaimed queues is the steal victim.
        let (tx, rx) = unbounded::<StealRequest>();
        let registry = Arc::new(StealRegistry::default());
        let narrow = registry.register(
            10,
            1,
            Arc::new(SharedBsf::new(1.0, None)) as Arc<dyn ResultSet + Send + Sync>,
        );
        narrow.view().test_init(2);
        narrow.view().test_publish(vec![0, 1]);
        let wide = registry.register(
            11,
            2,
            Arc::new(SharedBsf::new(2.0, None)) as Arc<dyn ResultSet + Send + Sync>,
        );
        wide.view().test_init(5);
        wide.view().test_publish(vec![0, 1, 2, 3, 4]);
        let done = AtomicUsize::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| manager_loop(&rx, &registry, &done, 1, 2, &served));
            let (rtx, rrx) = bounded(1);
            tx.send(StealRequest { from: 0, reply: rtx }).unwrap();
            let resp = rrx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(resp.query_id, Some(11), "most remaining work wins");
            assert_eq!(resp.bsf_sq, 2.0);
            done.store(1, Ordering::Release);
        });
        assert_eq!(served.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dead_victim_replies_empty_and_never_double_serves() {
        // A "node death" from the protocol's point of view: the grants
        // drop (the engine unwound or the node retired between queries)
        // while the manager keeps running on an incremented group
        // counter. Thieves must get empty replies, not hangs, and the
        // dropped query's batches must never be served again.
        let (tx, rx) = unbounded::<StealRequest>();
        let registry = Arc::new(StealRegistry::default());
        let grant = registry.register(
            5,
            2,
            Arc::new(SharedBsf::new(9.0, None)) as Arc<dyn ResultSet + Send + Sync>,
        );
        grant.view().test_init(4);
        grant.view().test_publish(vec![0, 1, 2, 3]);
        // The node dies: the grant drops (views recycled) and its
        // hand-off counts it done.
        drop(grant);
        assert_eq!(registry.in_flight(), 0);
        let done = AtomicUsize::new(1);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| manager_loop(&rx, &registry, &done, 2, 4, &served));
            let (rtx, rrx) = bounded(1);
            tx.send(StealRequest { from: 0, reply: rtx }).unwrap();
            let resp = rrx
                .recv_timeout(Duration::from_secs(1))
                .expect("thief must not wedge on a dead victim");
            assert!(resp.batch_ids.is_empty(), "dead node serves nothing");
            assert_eq!(resp.query_id, None);
            done.store(2, Ordering::Release);
        });
        assert_eq!(served.load(Ordering::Relaxed), 0, "no double-serve");
    }

    #[test]
    fn manager_exits_when_group_done() {
        let (_tx, rx) = unbounded::<StealRequest>();
        let registry = Arc::new(StealRegistry::default());
        let done = AtomicUsize::new(3);
        let served = AtomicU64::new(0);
        let t0 = std::time::Instant::now();
        manager_loop(&rx, &registry, &done, 3, 4, &served);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
