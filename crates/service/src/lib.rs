//! The online query service: a long-running front-end that streams
//! queries into a cluster's serving loops.
//!
//! The batch paths (`BatchEngine::run_batch*`,
//! `OdysseyCluster::answer_batch*`) answer a pre-collected slice; the
//! serving workloads of the paper's motivation ("millions of users")
//! never hand you a slice. [`QueryService`] closes that gap:
//!
//! * **continuous admission** — clients [`ServiceClient::submit`]
//!   queries into the cluster's group queues; every node's
//!   continuous-dispatch lanes claim them one at a time with no barrier
//!   anywhere ([`OdysseyCluster::serve`]), so an easy query never waits
//!   for a hard one to clear a window;
//! * **latency classes** — [`LatencyClass::Interactive`] queries are
//!   admitted before [`LatencyClass::Batch`] ones and ordered
//!   earliest-deadline-first among themselves; each class gets its own
//!   latency histogram in the [`ServiceReport`];
//! * **backpressure** — admission is bounded by
//!   [`ServiceConfig::queue_capacity`]; past it, `submit` fails fast
//!   with [`SubmitError::Busy`] carrying a retry-after hint (an EWMA of
//!   recent service latency), so overload degrades into rejections with
//!   bounded queues instead of unbounded queueing;
//! * **validation** — `submit` rejects a query whose length differs
//!   from the served series length, or that holds a non-finite value,
//!   with a typed [`SubmitError`] before it takes an admission slot;
//! * **deadline honesty** — a query claimed after its deadline is
//!   answered from the index's approximate seed and flagged
//!   [`ServeOutcome::Degraded`], never silently dropped.
//!
//! There is one backend: [`QueryService::serve_cluster`] fronts an
//! [`OdysseyCluster`] serving session (replication, shard map, suspect
//! hedging). A single index is served as a 1-node cluster built by
//! [`OdysseyCluster::from_index`]. This crate adds only admission, the
//! per-class histograms and the result slots. Without deadlines,
//! answers are bit-identical to the batch paths — streaming changes
//! scheduling, never results.

#![forbid(unsafe_code)]

pub mod histogram;

pub use histogram::{HistogramSummary, LatencyHistogram};
pub use odyssey_cluster::{ServeOutcome, ServedAnswer};

use odyssey_cluster::{OdysseyCluster, ServeHandle, ServeQuery};
use odyssey_core::search::engine::{BatchAnswer, QueryKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The two admission classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Latency-sensitive: admitted before any queued batch query,
    /// earliest deadline first.
    Interactive,
    /// Throughput-oriented: FIFO behind the interactive class.
    Batch,
}

/// Admission rejection: the service's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Suggested back-off before retrying — an EWMA of recent
    /// service latency (1 ms before any query has completed).
    pub retry_after: Duration,
}

/// Why [`ServiceClient::submit`] refused a query. Only
/// [`SubmitError::Busy`] is backpressure (counted in
/// [`ServiceReport::rejected`]); the other variants are malformed
/// queries, refused before they take an admission slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service is at capacity.
    Busy(Busy),
    /// The query's length differs from the served series length.
    WrongLength {
        /// The served series length.
        expected: usize,
        /// The query's length.
        got: usize,
    },
    /// The query holds a NaN or infinite value.
    NonFinite {
        /// Position of the first non-finite value.
        position: usize,
    },
}

/// One query to submit.
#[derive(Debug, Clone)]
pub struct ServiceQuery {
    /// The z-normalized query series.
    pub data: Vec<f32>,
    /// ED / DTW / k-NN, as in the batch paths.
    pub kind: QueryKind,
    /// Admission class.
    pub class: LatencyClass,
    /// Per-query deadline override (defaults to the class deadline of
    /// the [`ServiceConfig`]).
    pub deadline: Option<Duration>,
}

impl ServiceQuery {
    /// An interactive exact-ED query.
    pub fn interactive(data: Vec<f32>) -> Self {
        ServiceQuery {
            data,
            kind: QueryKind::Exact,
            class: LatencyClass::Interactive,
            deadline: None,
        }
    }

    /// A batch-class exact-ED query.
    pub fn batch(data: Vec<f32>) -> Self {
        ServiceQuery {
            data,
            kind: QueryKind::Exact,
            class: LatencyClass::Batch,
            deadline: None,
        }
    }

    /// Sets the search kind.
    pub fn with_kind(mut self, kind: QueryKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets a per-query deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// A completed query, as returned by [`ServiceClient::wait`].
#[derive(Debug, Clone)]
pub struct ServiceAnswer {
    /// The id `submit` returned.
    pub qid: u64,
    /// The answer, in global series ids.
    pub answer: BatchAnswer,
    /// The query's admission class.
    pub class: LatencyClass,
    /// Exact, or degraded by a deadline expiry or a torn execution.
    pub outcome: ServeOutcome,
    /// Whether a suspect hedge was spent on this query.
    pub hedged: bool,
    /// Submit-to-completion latency.
    pub latency: Duration,
}

/// Service tuning knobs: admission and class deadlines. Pools, lane
/// widths and predictor feedback belong to the served cluster's
/// `ClusterConfig`.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Bound on in-flight (admitted, not yet completed) queries;
    /// admission past it returns [`SubmitError::Busy`].
    pub queue_capacity: usize,
    /// Default deadline for interactive queries (`None` = unbounded).
    pub interactive_deadline: Option<Duration>,
    /// Default deadline for batch queries (`None` = unbounded).
    pub batch_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            interactive_deadline: None,
            batch_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the admission bound.
    pub fn with_queue_capacity(mut self, c: usize) -> Self {
        assert!(c >= 1);
        self.queue_capacity = c;
        self
    }

    /// Sets the interactive-class default deadline.
    pub fn with_interactive_deadline(mut self, d: Duration) -> Self {
        self.interactive_deadline = Some(d);
        self
    }

    /// Sets the batch-class default deadline.
    pub fn with_batch_deadline(mut self, d: Duration) -> Self {
        self.batch_deadline = Some(d);
        self
    }

    fn class_deadline(&self, class: LatencyClass) -> Option<Duration> {
        match class {
            LatencyClass::Interactive => self.interactive_deadline,
            LatencyClass::Batch => self.batch_deadline,
        }
    }
}

/// End-of-session instrumentation.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Queries admitted.
    pub admitted: u64,
    /// Submissions rejected with [`SubmitError::Busy`] (the
    /// backpressure counter; malformed queries are not counted).
    pub rejected: u64,
    /// Queries completed (equals `admitted` once the session closes).
    pub completed: u64,
    /// Completions degraded by deadline expiry or a torn execution.
    pub degraded: u64,
    /// Completions that spent a suspect hedge.
    pub hedged: u64,
    /// Peak in-flight count observed (gauges queue pressure).
    pub max_in_flight: usize,
    /// Interactive-class latency percentiles.
    pub interactive: HistogramSummary,
    /// Batch-class latency percentiles.
    pub batch: HistogramSummary,
    /// Exact executions recorded into the cluster's online cost
    /// predictor this session (degraded answers train nothing).
    pub predictor_samples: u64,
    /// Predictor refits performed this session.
    pub predictor_refits: u64,
    /// Session wall-clock, open to close-drained.
    pub wall: Duration,
}

/// State shared by clients and completion callbacks: admission, the
/// class histograms and the result slots.
struct ServiceState {
    config: ServiceConfig,
    results: Mutex<HashMap<u64, ServiceAnswer>>,
    in_flight: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    hedged: AtomicU64,
    max_in_flight: AtomicUsize,
    interactive_hist: LatencyHistogram,
    batch_hist: LatencyHistogram,
    /// EWMA of completion latency in µs — the [`Busy`] retry hint.
    ewma_micros: AtomicU64,
}

impl ServiceState {
    fn new(config: ServiceConfig) -> Self {
        ServiceState {
            config,
            results: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            hedged: AtomicU64::new(0),
            max_in_flight: AtomicUsize::new(0),
            interactive_hist: LatencyHistogram::new(),
            batch_hist: LatencyHistogram::new(),
            ewma_micros: AtomicU64::new(0),
        }
    }

    /// Claims an admission slot, or constructs the [`Busy`] rejection.
    fn admit(&self) -> Result<(), Busy> {
        let cap = self.config.queue_capacity;
        let won = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if !won {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            let ewma = self.ewma_micros.load(Ordering::Relaxed);
            return Err(Busy {
                retry_after: Duration::from_micros(if ewma == 0 { 1000 } else { ewma }),
            });
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.max_in_flight
            .fetch_max(self.in_flight.load(Ordering::Acquire), Ordering::Relaxed);
        Ok(())
    }

    /// Records a completion: histogram, counters, result slot, and the
    /// admission slot released last (so backpressure tracks real work).
    fn record(&self, a: ServiceAnswer) {
        match a.class {
            LatencyClass::Interactive => self.interactive_hist.record(a.latency),
            LatencyClass::Batch => self.batch_hist.record(a.latency),
        }
        if a.outcome == ServeOutcome::Degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if a.hedged {
            self.hedged.fetch_add(1, Ordering::Relaxed);
        }
        let micros = a.latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let _ = self
            .ewma_micros
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    micros
                } else {
                    (4 * old + micros) / 5
                })
            });
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.results.lock().insert(a.qid, a);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn report(
        &self,
        wall: Duration,
        predictor_samples: u64,
        predictor_refits: u64,
    ) -> ServiceReport {
        ServiceReport {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            hedged: self.hedged.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            interactive: self.interactive_hist.summary(),
            batch: self.batch_hist.summary(),
            predictor_samples,
            predictor_refits,
            wall,
        }
    }
}

/// The client handed to a service session: submit queries, collect
/// answers, observe pressure.
pub struct ServiceClient<'a> {
    state: &'a ServiceState,
    handle: &'a ServeHandle<'a>,
    /// The served series length every query must match.
    series_len: usize,
}

impl ServiceClient<'_> {
    /// Submits one query. A malformed query (wrong length, non-finite
    /// value) is refused first; a well-formed one is rejected with
    /// [`SubmitError::Busy`] when the service is at capacity. The
    /// returned id claims the answer via [`ServiceClient::wait`] /
    /// [`ServiceClient::try_take`].
    pub fn submit(&self, q: ServiceQuery) -> Result<u64, SubmitError> {
        if q.data.len() != self.series_len {
            return Err(SubmitError::WrongLength {
                expected: self.series_len,
                got: q.data.len(),
            });
        }
        if let Some(position) = q.data.iter().position(|x| !x.is_finite()) {
            return Err(SubmitError::NonFinite { position });
        }
        self.state.admit().map_err(SubmitError::Busy)?;
        Ok(self.handle.submit(ServeQuery {
            data: q.data,
            kind: q.kind,
            interactive: q.class == LatencyClass::Interactive,
            deadline: q.deadline.or(self.state.config.class_deadline(q.class)),
        }))
    }

    /// Takes `qid`'s answer if it has completed.
    pub fn try_take(&self, qid: u64) -> Option<ServiceAnswer> {
        self.state.results.lock().remove(&qid)
    }

    /// Blocks (polling) until `qid` completes. Only ids returned by
    /// [`ServiceClient::submit`] ever complete; waiting on anything
    /// else never returns.
    pub fn wait(&self, qid: u64) -> ServiceAnswer {
        loop {
            if let Some(a) = self.try_take(qid) {
                return a;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Takes every completed-but-uncollected answer.
    pub fn drain(&self) -> Vec<ServiceAnswer> {
        self.state.results.lock().drain().map(|(_, a)| a).collect()
    }

    /// Admitted queries not yet completed.
    pub fn in_flight(&self) -> usize {
        self.state.in_flight.load(Ordering::Acquire)
    }
}

/// The online query service front-end. One `QueryService` value is a
/// configuration; each [`QueryService::serve_cluster`] call runs one
/// session over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryService {
    /// The session knobs.
    pub config: ServiceConfig,
}

impl QueryService {
    /// A service with the given knobs.
    pub fn new(config: ServiceConfig) -> Self {
        QueryService { config }
    }

    /// Runs a serving session over `cluster` while `session` drives the
    /// client from the calling thread: admission control and per-class
    /// histograms here, replication, shard-map health and suspect
    /// hedging in [`OdysseyCluster::serve`]. Returns the session value
    /// and the report once the stream drains.
    pub fn serve_cluster<R>(
        &self,
        cluster: &OdysseyCluster,
        session: impl FnOnce(&ServiceClient) -> R,
    ) -> (R, ServiceReport) {
        let t0 = Instant::now();
        let state = ServiceState::new(self.config);
        let series_len = cluster.chunk_index(0).config().series_len;
        // The cluster's serving loops train the *cluster's* models
        // (shared with its batch paths); report the session's delta.
        let samples0 = cluster.feedback().samples() as u64;
        let refits0 = cluster.feedback().refits() as u64;
        let st = &state;
        let on_complete = move |a: ServedAnswer| {
            st.record(ServiceAnswer {
                qid: a.qid,
                answer: a.answer,
                class: if a.interactive {
                    LatencyClass::Interactive
                } else {
                    LatencyClass::Batch
                },
                outcome: a.outcome,
                hedged: a.hedged,
                latency: a.latency,
            });
        };
        let (r, _stats) = cluster.serve(
            |handle| {
                session(&ServiceClient {
                    state: st,
                    handle,
                    series_len,
                })
            },
            &on_complete,
        );
        let report = state.report(
            t0.elapsed(),
            (cluster.feedback().samples() as u64).saturating_sub(samples0),
            (cluster.feedback().refits() as u64).saturating_sub(refits0),
        );
        (r, report)
    }
}
