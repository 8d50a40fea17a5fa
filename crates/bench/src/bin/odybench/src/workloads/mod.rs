//! The four workloads. Their names are fixed: later issues cite them.

pub mod cluster_batch;
pub mod node;
pub mod service_open;

use crate::harness::Ctx;
use crate::report::Record;

/// A workload: its name, why it exists, and how to run it.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&mut Ctx) -> Record,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "node_pruned",
        why: "1M x 128 on one node, graded-noise queries: lower bounds prune ~98% of series, so root sweep, tree, queues and per-query engine overhead dominate and kernels do little",
        run: |ctx| node::run(ctx, &node::PRUNED),
    },
    Workload {
        name: "node_scan",
        why: "250k x 256 on one node, white-noise ED/k-NN and noisy DTW queries: pruning collapses, so distance kernels and the result set do the work and the index does little",
        run: |ctx| node::run(ctx, &node::SCAN),
    },
    Workload {
        name: "cluster_batch",
        why: "2 nodes x 1 thread, default config, 500k x 128 noisy walks, skewed 15-query batches: batch makespan, decided by scheduling order, stealing and the cost predictor",
        run: |ctx| cluster_batch::run(ctx, &cluster_batch::FULL),
    },
    Workload {
        name: "service_open",
        why: "QueryService over 2 nodes x 1 thread splitting 500k x 128, open-loop Poisson arrivals at four frozen rates, latency from due time: queue wait, admission and cross-group merge",
        run: |ctx| service_open::run(ctx, &service_open::FULL),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::report::{Better, END_TO_END, PER_LAYER};
    use crate::trace::Tracer;

    type Run = Box<dyn Fn(&mut Ctx) -> Record>;

    /// The four workloads at a few thousand series.
    fn tiny() -> [(&'static str, Run); 4] {
        [
            (
                "node_pruned",
                Box::new(|ctx: &mut Ctx| node::run(ctx, &node::TINY_PRUNED)),
            ),
            (
                "node_scan",
                Box::new(|ctx: &mut Ctx| node::run(ctx, &node::TINY_SCAN)),
            ),
            (
                "cluster_batch",
                Box::new(|ctx: &mut Ctx| cluster_batch::run(ctx, &cluster_batch::TINY)),
            ),
            (
                "service_open",
                Box::new(|ctx: &mut Ctx| service_open::run(ctx, &service_open::TINY)),
            ),
        ]
    }

    fn ctx(seed: u64, traced: bool, inject_wrong: bool) -> Ctx {
        Ctx {
            seed,
            seconds: 0.1,
            tracer: Tracer::new(traced),
            inject_wrong,
        }
    }

    fn benchmark_json() -> Value {
        parse(include_str!("../../../../../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let b = benchmark_json();
        let code: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(names(&b, "workloads"), code);
        for (w, listed) in ALL.iter().zip(b.get("workloads").unwrap().items()) {
            assert_eq!(listed.get("why").and_then(Value::as_str), Some(w.why));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why must be one line of at most 200 characters",
                w.name
            );
        }
        assert_eq!(
            names(&b, "end_to_end"),
            END_TO_END.iter().map(|g| g.name).collect::<Vec<_>>()
        );
        for (g, listed) in END_TO_END.iter().zip(b.get("end_to_end").unwrap().items()) {
            assert_eq!(
                listed.get("unit").and_then(Value::as_str),
                Some(g.unit),
                "{}",
                g.name
            );
            assert_eq!(
                listed.get("better").and_then(Value::as_str),
                Some(g.better.word()),
                "{}",
                g.name
            );
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(g.bound),
                "{}",
                g.name
            );
            assert!(g.bound <= 0.25);
        }
        assert_eq!(
            names(&b, "per_layer"),
            PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>()
        );
        for (l, listed) in PER_LAYER.iter().zip(b.get("per_layer").unwrap().items()) {
            assert_eq!(
                listed.get("unit").and_then(Value::as_str),
                Some(l.unit),
                "{}",
                l.name
            );
            assert_eq!(
                listed.get("better").and_then(Value::as_str),
                Some(l.better.word()),
                "{}",
                l.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|g| g.name == "setup_s" && g.unit == "s" && g.better == Better::Lower));
        assert_eq!(
            b.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        assert_eq!(names_of_paths(&b), ["crates/bench/src/bin/odybench"]);
    }

    fn names_of_paths(b: &Value) -> Vec<String> {
        b.get("paths")
            .expect("paths")
            .items()
            .iter()
            .map(|p| p.as_str().expect("path").to_string())
            .collect()
    }

    #[test]
    fn every_workload_prints_every_listed_metric_and_verifies_its_answers() {
        for (name, run) in tiny() {
            for traced in [false, true] {
                // Three seconds give the tiny service's second phase the
                // hundred interactive requests a p90 needs; the others
                // are rounds of fast queries and need far less.
                let seconds = if name == "service_open" { 3.0 } else { 0.5 };
                let mut c = Ctx {
                    seconds,
                    ..ctx(5, traced, false)
                };
                let record = run(&mut c);
                assert_eq!(record.workload, name);
                assert!(
                    record.correct(),
                    "{name} traced={traced}: {:?}",
                    record.notes
                );
                assert!(record.attempted >= 1 && record.failed == 0);
                let line = parse(&record.driver_line().encode()).expect("the driver line is JSON");
                let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = line.get("metrics").unwrap().members();
                let want: Vec<(&str, &str)> = if traced {
                    PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
                } else {
                    END_TO_END.iter().map(|g| (g.name, g.unit)).collect()
                };
                assert_eq!(metrics.len(), want.len());
                for ((got, m), (name_want, unit)) in metrics.iter().zip(want) {
                    assert_eq!(got, name_want);
                    assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
                    let v = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .unwrap_or_else(|| panic!("{name}: {got} has no value"));
                    assert!(v.is_finite(), "{name}: {got} = {v}");
                    if !traced {
                        assert!(
                            v > 0.0,
                            "{name}: end-to-end metric {got} must never be zero"
                        );
                    }
                }
                // The full record parses too and carries the machine block.
                let full = parse(&record.json().encode()).expect("the record is JSON");
                assert!(full.get("machine").and_then(|m| m.get("nproc")).is_some());
                assert_eq!(
                    full.get("input_fnv64")
                        .and_then(Value::as_str)
                        .map(str::len),
                    Some(16)
                );
                if traced {
                    assert!(
                        c.tracer.spans().len() > 10,
                        "{name}: a traced run records spans"
                    );
                    assert!(c.tracer.jsonl().lines().all(|l| parse(l).is_ok()));
                } else {
                    assert!(c.tracer.spans().is_empty());
                }
            }
        }
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        for (name, run) in tiny() {
            let a = run(&mut ctx(7, false, false)).input_fnv64;
            assert_eq!(a, run(&mut ctx(7, false, false)).input_fnv64, "{name}");
            assert_ne!(a, run(&mut ctx(8, false, false)).input_fnv64, "{name}");
        }
    }

    #[test]
    fn a_seeded_wrong_answer_fails_the_run() {
        for (name, run) in tiny() {
            let record = run(&mut ctx(5, false, true));
            assert!(
                !record.correct(),
                "{name} must fail when a reference answer is corrupted"
            );
            assert!(
                record
                    .notes
                    .iter()
                    .any(|n| n.starts_with("FAIL reference answer 0")),
                "{name}: {:?}",
                record.notes
            );
        }
    }
}
