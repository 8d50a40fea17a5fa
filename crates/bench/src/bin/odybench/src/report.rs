//! Metric names, units and bounds, and the record one run produces.
//!
//! `BENCHMARK.json` at the repository root repeats [`END_TO_END`] and
//! [`PER_LAYER`]; a unit test keeps the two in step.

use crate::json::Value;
use crate::machine::Machine;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the share of the baseline's median by which
/// it may worsen before `--compare` calls it a regression.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn gate(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Gate {
    Gate {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics every workload measures, each for real (see the
/// README for what each means on each workload). None is ever zero. A
/// bound applies on every workload, so the noisiest one sets it: on the
/// 2-vCPU reference machine every timing needs the 25 % the driver
/// allows at most.
pub const END_TO_END: &[Gate] = &[
    gate("setup_s", "s", Better::Lower, 0.25),
    gate("qps", "queries/s", Better::Higher, 0.25),
    gate("lat_p50_ms", "ms", Better::Lower, 0.25),
    gate("lat_p90_ms", "ms", Better::Lower, 0.25),
    gate("knn_lat_p50_ms", "ms", Better::Lower, 0.25),
    gate("index_mib", "MiB", Better::Lower, 0.01),
    gate("ok_frac", "fraction", Better::Higher, 0.001),
];

/// End-to-end metrics `--compare` gates like the others but that are not
/// in `BENCHMARK.json`, whose metrics every workload must report and
/// whose spread is judged over runs with *different* seeds. p99 needs
/// 1 000 samples and the rate ladder an open loop, so only some runs
/// have them; a DTW query costs anything from 10 ms to 1 s depending on
/// the series it perturbs, so its median over the few a run can afford
/// is steady between runs of one seed but not across seeds.
pub const RECORD_ONLY: &[Gate] = &[
    gate("lat_p99_ms", "ms", Better::Lower, 0.25),
    gate("dtw_lat_p50_ms", "ms", Better::Lower, 0.25),
    gate("max_rate_ok_qps", "queries/s", Better::Higher, 0.20),
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics every traced run reports. A metric in a time unit
/// is measured on every workload (natively, or by probing the workload's
/// own index); counts and ratios of a layer the workload never enters
/// read zero there.
pub const PER_LAYER: &[Layer] = &[
    layer("core.distance.ed_ns_per_series", "ns", Better::Lower),
    layer("core.distance.lb_keogh_ns_per_series", "ns", Better::Lower),
    layer("core.distance.dtw_ns_per_series", "ns", Better::Lower),
    layer("core.distance.real_dist_per_query", "count", Better::Lower),
    layer("core.sax.table_build_us", "us", Better::Lower),
    layer("core.sax.lb_series_ns", "ns", Better::Lower),
    layer("core.sax.lb_series_per_query", "count", Better::Lower),
    layer("core.sax.lb_tightness", "ratio", Better::Higher),
    layer("core.index.approx_us", "us", Better::Lower),
    layer("core.index.lb_node_per_query", "count", Better::Lower),
    layer("core.index.leaves_per_query", "count", Better::Lower),
    layer("core.index.prune_ratio", "ratio", Better::Higher),
    layer("core.index.build_buffer_s", "s", Better::Lower),
    layer("core.index.build_tree_s", "s", Better::Lower),
    layer("core.index.bytes_per_series", "bytes", Better::Lower),
    layer("core.tree.roots", "count", Better::Lower),
    layer("core.tree.leaves", "count", Better::Lower),
    layer("core.tree.leaf_fill", "ratio", Better::Higher),
    layer("core.persist.save_s", "s", Better::Lower),
    layer("core.persist.load_s", "s", Better::Lower),
    layer("core.persist.file_mib", "MiB", Better::Lower),
    layer("core.search.traversal_us", "us", Better::Lower),
    layer("core.search.processing_us", "us", Better::Lower),
    layer("core.search.overhead_us", "us", Better::Lower),
    layer("core.search.pq_count", "count", Better::Lower),
    layer("core.search.pq_size_median", "count", Better::Lower),
    layer("core.search.engine_spinup_ms", "ms", Better::Lower),
    layer("core.search.calibrate_ms", "ms", Better::Lower),
    layer("core.search.width_speedup", "ratio", Better::Higher),
    layer("core.multiq.lane_gain", "ratio", Better::Higher),
    layer("core.multiq.lane_busy_frac", "ratio", Better::Higher),
    layer("sched.plan_us", "us", Better::Lower),
    layer("sched.cost_mape", "%", Better::Lower),
    layer("sched.refits", "count", Better::Higher),
    layer("sched.makespan_pred_err", "ratio", Better::Lower),
    layer("partition.split_s", "s", Better::Lower),
    layer("partition.chunk_imbalance", "ratio", Better::Lower),
    layer("cluster.runtime.makespan_units", "count", Better::Lower),
    layer("cluster.runtime.total_units", "count", Better::Lower),
    layer("cluster.runtime.node_imbalance", "ratio", Better::Lower),
    layer("cluster.stealing.attempted", "count", Better::Lower),
    layer("cluster.stealing.successful", "count", Better::Higher),
    layer("cluster.stealing.hit_ratio", "ratio", Better::Higher),
    layer("cluster.stealing.gain", "ratio", Better::Higher),
    layer(
        "cluster.boards.bsf_broadcasts_per_query",
        "count",
        Better::Lower,
    ),
    layer("cluster.boards.gain", "ratio", Better::Higher),
    layer("cluster.serve.hedges", "count", Better::Lower),
    layer("cluster.serve.degraded", "count", Better::Lower),
    layer("cluster.serve.node_query_imbalance", "ratio", Better::Lower),
    layer("cluster.shard_map.final_epoch", "count", Better::Lower),
    layer("cluster.shard_map.reroutes", "count", Better::Lower),
    layer("service.wait_share.r2", "ratio", Better::Lower),
    layer("service.wait_share.r3", "ratio", Better::Lower),
    layer("service.max_in_flight", "count", Better::Lower),
    layer("service.rejected", "count", Better::Lower),
    layer("service.shed_frac.r3", "ratio", Better::Lower),
    layer("service.shed_frac.r4", "ratio", Better::Lower),
    layer("service.max_rate_ok_qps", "queries/s", Better::Higher),
    layer("dtw_lat_p50_ms", "ms", Better::Lower),
    layer("bench.gen_s", "s", Better::Lower),
    layer("bench.reference_s", "s", Better::Lower),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
];

/// Units in which a constant reading would mean nothing was measured.
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count read off a report).
    pub samples: usize,
}

/// Collects the metrics of a run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub machine: Machine,
    /// Checksum of every generated input, to show two runs saw the same.
    pub input_fnv64: u64,
    /// Timed requests, and those answered wrongly, rejected, degraded or
    /// lost to a panic.
    pub attempted: u64,
    pub failed: u64,
    /// What failed, and warnings that do not fail the run.
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.notes.iter().any(|n| n.starts_with("FAIL"))
    }

    /// The line the accepting driver reads: exactly the listed metrics of
    /// this run's mode, each with value and unit.
    pub fn driver_line(&self) -> Value {
        let listed: Vec<(&str, &str)> = if self.traced {
            PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
        } else {
            END_TO_END.iter().map(|g| (g.name, g.unit)).collect()
        };
        let metrics = listed
            .into_iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(m) => m.value,
                    None if self.traced && !is_time_unit(unit) => 0.0,
                    None => panic!("workload {} did not measure {name}", self.workload),
                };
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("value", Value::Num(value)),
                        ("unit", Value::str(unit)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// The full record `--out` appends: machine block, inputs checksum,
    /// every metric measured (listed or not) with its sample count.
    pub fn json(&self) -> Value {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|m| {
                let v = Value::obj(vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::str(m.unit)),
                    ("samples", Value::Num(m.samples as f64)),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds)),
            ("traced", Value::Bool(self.traced)),
            ("machine", self.machine.json()),
            (
                "input_fnv64",
                Value::Str(format!("{:016x}", self.input_fnv64)),
            ),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "notes",
                Value::Arr(self.notes.iter().map(|n| Value::str(n)).collect()),
            ),
            ("metrics", Value::Obj(metrics)),
        ])
    }

    /// Every metric by name with its unit and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} seed {} {}s {} | nproc {} simd {} threads {} commit {} | input_fnv64 {:016x}",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" },
            self.machine.nproc,
            self.machine.simd,
            self.machine.worker_threads,
            self.machine.commit,
            self.input_fnv64
        );
        for m in &self.metrics.0 {
            let better = END_TO_END
                .iter()
                .chain(RECORD_ONLY)
                .map(|g| (g.name, g.better))
                .chain(PER_LAYER.iter().map(|l| (l.name, l.better)))
                .find(|(name, _)| *name == m.name)
                .map_or("", |(_, b)| b.word());
            println!(
                "{:<44} {:>16.6} {:<10} n={:<8} {better}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "{:<44} {:>16.6} {:<10} n={}",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "fraction",
            self.attempted
        );
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}
