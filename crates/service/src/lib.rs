//! The online query service: a long-running front-end that streams
//! queries into the engine's continuous-dispatch lanes.
//!
//! The batch paths (`BatchEngine::run_batch*`,
//! `OdysseyCluster::answer_batch*`) answer a pre-collected slice; the
//! serving workloads of the paper's motivation ("millions of users")
//! never hand you a slice. [`QueryService`] closes that gap:
//!
//! * **continuous admission** — clients [`ServiceClient::submit`]
//!   queries into a shared dispatch queue; worker lanes claim them
//!   one at a time with no barrier anywhere (the engine's
//!   `run_dispatch` surface), so an easy query never waits for a hard
//!   one to clear a window;
//! * **latency classes** — [`LatencyClass::Interactive`] queries are
//!   admitted before [`LatencyClass::Batch`] ones and ordered
//!   earliest-deadline-first among themselves; each class gets its own
//!   latency histogram in the [`ServiceReport`];
//! * **backpressure** — admission is bounded by
//!   [`ServiceConfig::queue_capacity`]; past it, `submit` fails fast
//!   with [`Busy`] carrying a retry-after hint (an EWMA of recent
//!   service latency), so overload degrades into rejections with
//!   bounded queues instead of unbounded queueing;
//! * **deadline honesty** — a query claimed after its deadline is
//!   answered from the index's approximate seed and flagged
//!   [`ServeOutcome::Degraded`], never silently dropped.
//!
//! Two backends share the client API: [`QueryService::serve_index`]
//! runs a single-node service over one [`BatchEngine`];
//! [`QueryService::serve_cluster`] fronts a whole
//! [`OdysseyCluster`] serving session (replication, shard map, suspect
//! hedging). Without deadlines, answers are bit-identical to the
//! corresponding batch path — streaming changes scheduling, never
//! results.

#![forbid(unsafe_code)]

pub mod histogram;

pub use histogram::{HistogramSummary, LatencyHistogram};
pub use odyssey_cluster::{ServeOutcome, ServedAnswer};

use odyssey_cluster::{OdysseyCluster, ServeQuery};
use odyssey_core::index::Index;
use odyssey_core::search::engine::{BatchAnswer, BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::SearchParams;
use odyssey_core::search::multiq::uniform_widths;
use odyssey_sched::OnlineCostModel;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// The answer (global series ids on the cluster backend).
    pub answer: BatchAnswer,
    /// The query's admission class.
    pub class: LatencyClass,
    /// Exact, or degraded by a deadline expiry.
    pub outcome: ServeOutcome,
    /// Whether a suspect hedge was spent (cluster backend only).
    pub hedged: bool,
    /// Submit-to-completion latency.
    pub latency: Duration,
}

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Bound on in-flight (admitted, not yet completed) queries;
    /// admission past it returns [`Busy`].
    pub queue_capacity: usize,
    /// Worker threads of the single-node backend (the cluster backend
    /// takes its pools from the cluster's own configuration).
    pub pool_threads: usize,
    /// Continuous-dispatch lane width (1 = maximal inter-query
    /// concurrency, `pool_threads` = one query at a time, full pool).
    pub lane_width: usize,
    /// Default deadline for interactive queries (`None` = unbounded).
    pub interactive_deadline: Option<Duration>,
    /// Default deadline for batch queries (`None` = unbounded).
    pub batch_deadline: Option<Duration>,
    /// Ring capacity of the session's online cost-predictor feedback
    /// store (single-node backend; the cluster backend trains the
    /// cluster's own models).
    pub feedback_capacity: usize,
    /// Refit cadence of the session predictor: one least-squares refit
    /// per this many recorded executions.
    pub feedback_refit_every: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            pool_threads: 4,
            lane_width: 1,
            interactive_deadline: None,
            batch_deadline: None,
            feedback_capacity: 1024,
            feedback_refit_every: 64,
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

    /// Sets the single-node pool size.
    pub fn with_pool_threads(mut self, t: usize) -> Self {
        assert!(t >= 1);
        self.pool_threads = t;
        self
    }

    /// Sets the dispatch lane width.
    pub fn with_lane_width(mut self, w: usize) -> Self {
        assert!(w >= 1);
        self.lane_width = w;
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

    /// Sets the feedback-ring capacity.
    pub fn with_feedback_capacity(mut self, c: usize) -> Self {
        assert!(c >= 1);
        self.feedback_capacity = c;
        self
    }

    /// Sets the predictor refit cadence.
    pub fn with_feedback_refit_every(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.feedback_refit_every = n;
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
    /// Submissions rejected with [`Busy`] (the backpressure counter).
    pub rejected: u64,
    /// Queries completed (equals `admitted` once the session closes).
    pub completed: u64,
    /// Completions degraded by deadline expiry.
    pub degraded: u64,
    /// Completions that spent a suspect hedge (cluster backend).
    pub hedged: u64,
    /// Peak in-flight count observed (gauges queue pressure).
    pub max_in_flight: usize,
    /// Interactive-class latency percentiles.
    pub interactive: HistogramSummary,
    /// Batch-class latency percentiles.
    pub batch: HistogramSummary,
    /// Exact executions recorded into the online cost predictor this
    /// session (degraded answers train nothing).
    pub predictor_samples: u64,
    /// Predictor refits performed this session.
    pub predictor_refits: u64,
    /// Session wall-clock, open to close-drained.
    pub wall: Duration,
}

/// A query admitted to the single-node backend, waiting for a lane.
struct Pending {
    data: Arc<[f32]>,
    kind: QueryKind,
    class: LatencyClass,
    expire_at: Option<Instant>,
    admitted: Instant,
}

/// The single-node backend's class queues (interactive is kept in
/// earliest-deadline-first order; deadline-free entries rank last).
#[derive(Default)]
struct ClassQueues {
    interactive: VecDeque<(Option<Instant>, u64)>,
    batch: VecDeque<u64>,
}

/// State shared by clients, worker lanes, and completion callbacks.
struct ServiceState {
    config: ServiceConfig,
    queues: Mutex<ClassQueues>,
    pending: Mutex<HashMap<u64, Pending>>,
    results: Mutex<HashMap<u64, ServiceAnswer>>,
    in_flight: AtomicUsize,
    executing: AtomicUsize,
    closed: AtomicBool,
    next_qid: AtomicU64,
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
    /// Online cost-predictor feedback of the single-node backend: the
    /// engine's query observer appends `(initial BSF, seconds)` after
    /// every exact execution. The cluster backend leaves this untouched
    /// and trains the cluster's own models instead.
    feedback: Arc<OnlineCostModel>,
}

impl ServiceState {
    fn new(config: ServiceConfig) -> Self {
        ServiceState {
            config,
            queues: Mutex::new(ClassQueues::default()),
            pending: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            executing: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            next_qid: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            hedged: AtomicU64::new(0),
            max_in_flight: AtomicUsize::new(0),
            interactive_hist: LatencyHistogram::new(),
            batch_hist: LatencyHistogram::new(),
            ewma_micros: AtomicU64::new(0),
            feedback: Arc::new(OnlineCostModel::new(
                config.feedback_capacity,
                config.feedback_refit_every,
            )),
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
                Some(if old == 0 { micros } else { (4 * old + micros) / 5 })
            });
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.results.lock().insert(a.qid, a);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn report(&self, wall: Duration, predictor_samples: u64, predictor_refits: u64) -> ServiceReport {
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

    /// Queues a query on the single-node backend.
    fn enqueue(&self, q: ServiceQuery) -> u64 {
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        let expire_at = q
            .deadline
            .or(self.config.class_deadline(q.class))
            .map(|d| Instant::now() + d);
        self.pending.lock().insert(
            qid,
            Pending {
                data: Arc::from(q.data),
                kind: q.kind,
                class: q.class,
                expire_at,
                admitted: Instant::now(),
            },
        );
        let mut queues = self.queues.lock();
        match q.class {
            LatencyClass::Interactive => {
                let key = (expire_at.is_none(), expire_at);
                let pos = queues
                    .interactive
                    .iter()
                    .position(|&(e, _)| key < (e.is_none(), e))
                    .unwrap_or(queues.interactive.len());
                queues.interactive.insert(pos, (expire_at, qid));
            }
            LatencyClass::Batch => queues.batch.push_back(qid),
        }
        qid
    }

    /// One single-node claim: interactive first (EDF), then batch.
    fn claim(&self) -> EngineClaim {
        let popped = {
            let mut queues = self.queues.lock();
            queues
                .interactive
                .pop_front()
                .map(|(_, qid)| qid)
                .or_else(|| queues.batch.pop_front())
        };
        if let Some(qid) = popped {
            self.executing.fetch_add(1, Ordering::AcqRel);
            let p = self
                .pending
                .lock()
                .remove(&qid)
                .expect("queued query is pending");
            return EngineClaim::Run(qid, p);
        }
        let empty = {
            let queues = self.queues.lock();
            queues.interactive.is_empty() && queues.batch.is_empty()
        };
        if self.closed.load(Ordering::Acquire)
            && empty
            && self.executing.load(Ordering::Acquire) == 0
        {
            EngineClaim::Exit
        } else {
            EngineClaim::Idle
        }
    }
}

enum EngineClaim {
    Run(u64, Pending),
    Idle,
    Exit,
}

/// What `submit` does after admission: queue locally or stream into a
/// cluster serving session.
enum Backend<'a> {
    Engine,
    Cluster(&'a odyssey_cluster::ServeHandle<'a>),
}

/// The client handed to a service session: submit queries, collect
/// answers, observe pressure.
pub struct ServiceClient<'a> {
    state: &'a ServiceState,
    backend: Backend<'a>,
}

impl ServiceClient<'_> {
    /// Submits one query, or rejects it with [`Busy`] when the service
    /// is at capacity. The returned id claims the answer via
    /// [`ServiceClient::wait`] / [`ServiceClient::try_take`].
    pub fn submit(&self, q: ServiceQuery) -> Result<u64, Busy> {
        self.state.admit()?;
        Ok(match &self.backend {
            Backend::Engine => self.state.enqueue(q),
            Backend::Cluster(handle) => handle.submit(ServeQuery {
                data: q.data,
                kind: q.kind,
                interactive: q.class == LatencyClass::Interactive,
                deadline: q.deadline.or(self.state.config.class_deadline(q.class)),
            }),
        })
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
/// configuration; each `serve_*` call runs one session over it.
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

    /// Runs a single-node serving session over one index: a resident
    /// [`BatchEngine`] pool claims streamed queries on continuous
    /// dispatch lanes while `session` drives the client from the
    /// calling thread. Returns the session value and the report once
    /// the stream drains.
    pub fn serve_index<R>(
        &self,
        index: &Arc<Index>,
        session: impl FnOnce(&ServiceClient) -> R,
    ) -> (R, ServiceReport) {
        let t0 = Instant::now();
        let state = ServiceState::new(self.config);
        let params = SearchParams::new(self.config.pool_threads);
        let mut out = None;
        let mut session_panic = None;
        std::thread::scope(|scope| {
            let st = &state;
            let worker = scope.spawn(move || {
                let engine = BatchEngine::new(Arc::clone(index), st.config.pool_threads);
                // Every exact execution trains the session predictor;
                // degraded answers bypass `ctx.execute` and train
                // nothing, and a non-finite seed carries no feature.
                {
                    let feedback = Arc::clone(&st.feedback);
                    engine
                        .steal_registry()
                        .install_observer(Arc::new(move |_qid, stats| {
                            if stats.initial_bsf.is_finite() {
                                feedback
                                    .record(stats.initial_bsf, stats.elapsed.as_secs_f64());
                            }
                        }));
                }
                let widths = uniform_widths(st.config.pool_threads, st.config.lane_width);
                engine.run_dispatch(&widths, &|ctx, _lane| loop {
                    match st.claim() {
                        EngineClaim::Run(qid, p) => {
                            let query = BatchQuery::new(&p.data, p.kind);
                            let degraded = p.expire_at.is_some_and(|t| Instant::now() > t);
                            let answer = if degraded {
                                engine.approximate(&query)
                            } else {
                                ctx.execute(qid as usize, &query, &params).answer
                            };
                            st.record(ServiceAnswer {
                                qid,
                                answer,
                                class: p.class,
                                outcome: if degraded {
                                    ServeOutcome::Degraded
                                } else {
                                    ServeOutcome::Exact
                                },
                                hedged: false,
                                latency: p.admitted.elapsed(),
                            });
                            st.executing.fetch_sub(1, Ordering::AcqRel);
                        }
                        EngineClaim::Idle => std::thread::sleep(Duration::from_micros(50)),
                        EngineClaim::Exit => break,
                    }
                });
            });
            let client = ServiceClient {
                state: &state,
                backend: Backend::Engine,
            };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session(&client)));
            state.closed.store(true, Ordering::Release);
            match r {
                Ok(v) => out = Some(v),
                Err(p) => session_panic = Some(p),
            }
            worker.join().expect("service worker panicked");
        });
        if let Some(p) = session_panic {
            std::panic::resume_unwind(p);
        }
        let report = state.report(
            t0.elapsed(),
            state.feedback.samples() as u64,
            state.feedback.refits() as u64,
        );
        (out.expect("session ran"), report)
    }

    /// Runs a cluster serving session behind the same client API:
    /// admission control and per-class histograms here, replication,
    /// shard-map health and suspect hedging in
    /// [`OdysseyCluster::serve`].
    pub fn serve_cluster<R>(
        &self,
        cluster: &OdysseyCluster,
        session: impl FnOnce(&ServiceClient) -> R,
    ) -> (R, ServiceReport) {
        let t0 = Instant::now();
        let state = ServiceState::new(self.config);
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
                let client = ServiceClient {
                    state: st,
                    backend: Backend::Cluster(handle),
                };
                session(&client)
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
