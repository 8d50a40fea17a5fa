//! # odyssey-sched
//!
//! Query-cost prediction and query-scheduling policies (Section 3.1 and
//! Figure 4 of the Odyssey paper).
//!
//! The key empirical observation the paper builds on: *queries with a
//! high initial BSF (the approximate-search answer) tend to have high
//! execution times*. [`linreg`] fits the linear model of Figure 4;
//! [`predictor`] wraps it into a per-query cost estimate; [`scheduler`]
//! implements the five policies the evaluation compares (STATIC, DYNAMIC,
//! PREDICT-ST-UNSORTED, PREDICT-ST, PREDICT-DN).
//!
//! [`sigmoid`] fits the 4-parameter sigmoid of Figure 6a that predicts a
//! good priority-queue size threshold `TH` from the initial BSF.
//!
//! [`admission`] turns the same predictions into *inter-query*
//! concurrency decisions: the widths of the lanes a node's batch engine
//! answers queries on.
//!
//! [`speedup`] holds the measured speedup-vs-width curve (Figure 8)
//! the engine calibrates at warmup, and [`admission`]'s
//! `plan_dispatch_widths_adaptive` solves for the makespan-optimal
//! lane-width mix under it. [`feedback`] closes the prediction loop: a
//! lock-free ring of observed `(feature, time)` samples from which the
//! linreg/sigmoid models refit at deterministic sample counts.

#![forbid(unsafe_code)]


pub mod admission;
pub mod feedback;
pub mod linreg;
pub mod predictor;
pub mod scheduler;
pub mod sigmoid;
pub mod speedup;

pub use admission::{
    plan_dispatch_widths, plan_dispatch_widths_adaptive, predicted_makespan, AdmissionConfig,
    DispatchWidths,
};
pub use feedback::{mape, FeedbackStore, OnlineCostModel, OnlineThresholdModel};
pub use linreg::LinearRegression;
pub use predictor::{CostModel, QueryCostPredictor};
pub use scheduler::{SchedulerKind, StaticSchedule};
pub use sigmoid::{SigmoidFit, ThresholdModel};
pub use speedup::SpeedupCurve;
