//! Command implementations.

use crate::args::Args;
use odyssey_cluster::{ClusterConfig, OdysseyCluster, Replication, SchedulerKind};
use odyssey_core::index::{Index, IndexConfig};
use odyssey_core::persist;
use odyssey_core::search::engine::{BatchAnswer, BatchEngine, BatchQuery, QueryKind};
use odyssey_core::search::exact::{SearchParams, DEFAULT_TH};
use odyssey_sched::scheduler::dynamic_order;
use odyssey_sched::ThresholdModel;
use odyssey_workloads::generator;
use odyssey_workloads::io as wio;
use std::path::Path;
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "usage:
  odyssey generate --kind random|seismic|clustered --series N --len L \\
                   [--seed S] [--clusters K] [--spread F] --out FILE
  odyssey index build --data FILE --len L [--segments W] [--leaf-capacity C] \\
                      [--threads T] --out FILE
  odyssey index info --index FILE
  odyssey query --index FILE --queries FILE [--k K] [--dtw-window W] [--threads T]
  odyssey serve --index FILE --queries FILE [--rate QPS] [--seed S] [--threads T] \\
                [--lane-width W] [--capacity C] [--interactive-every K] \\
                [--deadline-ms D] [--k K] [--dtw-window W]
                (serves the index as a 1-node cluster: T workers, lanes of W)
  odyssey cluster --data FILE --len L --queries FILE [--nodes N] \\
                  [--replication full|equally-split|partial-K] \\
                  [--scheduler static|dynamic|predict-st|predict-st-unsorted|predict-dn] \\
                  [--threads-per-node T] [--no-stealing] [--no-bsf-sharing]";

/// Dispatches a raw argument vector to a command.
pub fn dispatch(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw)?;
    match args.positional() {
        [c, ..] if c == "generate" => cmd_generate(&args),
        [c, s, ..] if c == "index" && s == "build" => cmd_index_build(&args),
        [c, s, ..] if c == "index" && s == "info" => cmd_index_info(&args),
        [c, ..] if c == "query" => cmd_query(&args),
        [c, ..] if c == "serve" => cmd_serve(&args),
        [c, ..] if c == "cluster" => cmd_cluster(&args),
        [] => Err("no command given".into()),
        other => Err(format!("unknown command '{}'", other.join(" "))),
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let kind = args.require("kind")?;
    let n: usize = args.require_parsed("series")?;
    let len: usize = args.require_parsed("len")?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.require("out")?;
    let data = match kind {
        "random" => generator::random_walk(n, len, seed),
        "seismic" => generator::noisy_walk(n, len, seed),
        "clustered" => {
            let k: usize = args.get_or("clusters", 32)?;
            let spread: f32 = args.get_or("spread", 0.3)?;
            generator::cluster_mixture(n, len, k, spread, seed)
        }
        other => return Err(format!("unknown --kind '{other}'")),
    };
    wio::write_bin(&data, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} series x {} ({:.1} MB) to {out}",
        n,
        len,
        data.size_bytes() as f64 / 1048576.0
    );
    Ok(())
}

fn cmd_index_build(args: &Args) -> Result<(), String> {
    let data_path = args.require("data")?;
    let len: usize = args.require_parsed("len")?;
    let out = args.require("out")?;
    let segments: usize = args.get_or("segments", 16.min(len))?;
    let leaf_capacity: usize = args.get_or("leaf-capacity", 2000)?;
    let threads: usize = args.get_or("threads", 2)?;
    let data = wio::read_bin(Path::new(data_path), len).map_err(|e| e.to_string())?;
    let cfg = IndexConfig::new(len)
        .with_segments(segments)
        .with_leaf_capacity(leaf_capacity);
    let index = Index::build(data, cfg, threads);
    let t = index.build_times();
    persist::save_index_file(&index, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "indexed {} series: {} subtrees, {} leaves, {:?} (buffers {:?} + tree {:?}) -> {out}",
        index.num_series(),
        index.forest().len(),
        index.leaf_count(),
        t.index_time(),
        t.buffer_time,
        t.tree_time
    );
    Ok(())
}

fn cmd_index_info(args: &Args) -> Result<(), String> {
    let path = args.require("index")?;
    let index = persist::load_index_file(Path::new(path)).map_err(|e| e.to_string())?;
    let cfg = index.config();
    println!("index: {path}");
    println!("  series:        {}", index.num_series());
    println!("  series length: {}", cfg.series_len);
    println!("  segments:      {}", cfg.segments);
    println!("  leaf capacity: {}", cfg.leaf_capacity);
    println!("  root subtrees: {}", index.forest().len());
    println!("  leaves:        {}", index.leaf_count());
    let mib = |bytes: usize| bytes as f64 / 1048576.0;
    let layout = index.layout();
    let sax = layout.sax_block(0..layout.num_series()).len();
    let roots = index.root_soa().size_bytes();
    println!(
        "  overhead:      {:.2} MB (+ {:.2} MB raw data)",
        mib(index.size_bytes()),
        mib(layout.data().size_bytes())
    );
    println!("    SAX words:   {:.2} MB", mib(sax));
    println!("    id maps:     {:.2} MB", mib(layout.size_bytes() - sax));
    println!(
        "    tree:        {:.2} MB",
        mib(index.size_bytes() - layout.size_bytes() - roots)
    );
    println!("    root planes: {:.2} MB", mib(roots));
    Ok(())
}

/// How many exact pilot queries the `query` command spends training the
/// sigmoid `TH` model (Figure 6) before answering the batch. The
/// sigmoid fit needs at least four points; smaller files skip training.
const TH_PILOT: usize = 8;

/// Answers the whole query file as **one batch** on a persistent
/// [`BatchEngine`]: the worker pool and scratch arenas are set up once,
/// queries are dispatched in descending order of their approximate-search
/// estimate (PREDICT-DN) onto [`BatchEngine::run_batch`]'s lanes, and,
/// when the file is large enough, a pilot run trains the sigmoid
/// threshold model so every query gets its own predicted `TH`.
fn cmd_query(args: &Args) -> Result<(), String> {
    let index = persist::load_index_file(Path::new(args.require("index")?))
        .map_err(|e| e.to_string())?;
    let len = index.config().series_len;
    let queries =
        wio::read_bin(Path::new(args.require("queries")?), len).map_err(|e| e.to_string())?;
    let threads: usize = args.get_or("threads", 2)?;
    let k: usize = args.get_or("k", 1)?;
    let dtw_window: usize = args.get_or("dtw-window", 0)?;
    let params = SearchParams::new(threads);
    let kind = if dtw_window > 0 {
        QueryKind::Dtw(dtw_window)
    } else if k > 1 {
        QueryKind::Knn(k)
    } else {
        QueryKind::Exact
    };
    // Per-query cost estimates: the initial BSF of the approximate
    // search (monotone in execution time, Figure 4).
    let estimates: Vec<f64> = (0..queries.num_series())
        .map(|qi| index.approx_search(queries.series(qi)).distance)
        .collect();
    let nq = queries.num_series();
    let engine = BatchEngine::new(Arc::new(index), threads);

    // Pilot phase: run a few exact searches spread across the estimate
    // range and fit BSF -> median queue size, the paper's TH predictor.
    let th_model = if nq >= 4 && kind == QueryKind::Exact {
        let mut by_est: Vec<usize> = (0..nq).collect();
        by_est.sort_by(|&a, &b| estimates[a].total_cmp(&estimates[b]).then(a.cmp(&b)));
        let n_pilot = TH_PILOT.min(nq);
        let mut bsfs = Vec::with_capacity(n_pilot);
        let mut medians = Vec::with_capacity(n_pilot);
        for i in 0..n_pilot {
            let qi = by_est[i * (nq - 1) / (n_pilot - 1).max(1)];
            let out = engine.exact(queries.series(qi), &params);
            bsfs.push(out.stats.initial_bsf);
            medians.push(out.stats.pq_size_median as f64);
        }
        println!("trained per-query TH model on {n_pilot} pilot queries");
        Some(ThresholdModel::train(&bsfs, &medians, 16.0))
    } else {
        None
    };

    let batch: Vec<BatchQuery> = (0..nq)
        .map(|qi| {
            let q = BatchQuery::new(queries.series(qi), kind);
            match &th_model {
                Some(m) => q.with_params(params.with_th(m.predict_th(estimates[qi]))),
                None => q,
            }
        })
        .collect();
    let order = dynamic_order(&estimates, true);
    let outcome = engine.run_batch(&batch, &order, &params);
    let lanes: Vec<String> = engine
        .batch_widths(nq)
        .iter()
        .map(|w| format!("{w}w"))
        .collect();
    for (qi, item) in outcome.items.iter().enumerate() {
        match &item.answer {
            BatchAnswer::Nn(ans) if dtw_window > 0 => println!(
                "query {qi}: DTW 1-NN id={:?} dist={:.6} ({} dtw computations)",
                ans.series_id, ans.distance, item.stats.real_distance_computations
            ),
            BatchAnswer::Nn(ans) => println!(
                "query {qi}: 1-NN id={:?} dist={:.6} (initial BSF {:.4}, {} real dists)",
                ans.series_id,
                ans.distance,
                item.stats.initial_bsf,
                item.stats.real_distance_computations
            ),
            BatchAnswer::Knn(knn) => {
                let hits: Vec<String> = knn
                    .neighbors
                    .iter()
                    .map(|&(d, id)| format!("{id}:{:.4}", d.sqrt()))
                    .collect();
                println!("query {qi}: {k}-NN [{}]", hits.join(", "));
            }
        }
    }
    println!(
        "batch: {} queries in {:?} on a {}-thread engine (lanes: {})",
        outcome.items.len(),
        outcome.wall,
        engine.n_threads(),
        if lanes.is_empty() {
            "none".to_string()
        } else {
            lanes.join("+")
        }
    );
    Ok(())
}

/// Stands up an online [`QueryService`](odyssey_service::QueryService)
/// over a saved index, served as a 1-node cluster (`--threads` workers
/// per node, `--lane-width` workers per serving lane), and replays the
/// query file as an **open-loop** arrival stream: inter-arrival gaps
/// are drawn from a seeded exponential distribution at the requested
/// rate, so the schedule is fixed by `--seed` and `--rate` alone —
/// arrivals do not wait for completions, which is what exposes
/// queueing delay and backpressure.
/// Every `--interactive-every`-th query is submitted interactive (with
/// `--deadline-ms`, when given); the rest ride the batch class.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use odyssey_service::{QueryService, ServiceConfig, ServiceQuery, SubmitError};

    let index = persist::load_index_file(Path::new(args.require("index")?))
        .map_err(|e| e.to_string())?;
    let len = index.config().series_len;
    let queries =
        wio::read_bin(Path::new(args.require("queries")?), len).map_err(|e| e.to_string())?;
    let rate: f64 = args.get_or("rate", 200.0)?;
    if rate <= 0.0 || rate.is_nan() {
        return Err("--rate must be positive".into());
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let threads: usize = args.get_or("threads", 2)?;
    let lane_width: usize = args.get_or("lane-width", 1)?;
    if threads == 0 || lane_width == 0 {
        return Err("--threads and --lane-width must be at least 1".into());
    }
    let capacity: usize = args.get_or("capacity", 64)?;
    let interactive_every: usize = args.get_or("interactive-every", 2)?;
    let deadline_ms: u64 = args.get_or("deadline-ms", 0)?;
    let k: usize = args.get_or("k", 1)?;
    let dtw_window: usize = args.get_or("dtw-window", 0)?;
    let kind = if dtw_window > 0 {
        QueryKind::Dtw(dtw_window)
    } else if k > 1 {
        QueryKind::Knn(k)
    } else {
        QueryKind::Exact
    };

    // The deterministic arrival schedule: exponential gaps from a
    // seeded xorshift, fixed before the service starts.
    let nq = queries.num_series();
    let mut x = seed | 1;
    let mut at = std::time::Duration::ZERO;
    let arrivals: Vec<std::time::Duration> = (0..nq)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            at += std::time::Duration::from_secs_f64(-(1.0 - u).ln() / rate);
            at
        })
        .collect();

    let mut config = ServiceConfig::default().with_queue_capacity(capacity);
    if deadline_ms > 0 {
        config = config.with_interactive_deadline(std::time::Duration::from_millis(deadline_ms));
    }
    let service = QueryService::new(config);
    // The index is served as a 1-node cluster. `Nsb` is one RS-batch
    // per lane worker and `TH` the engine default, the search a lone
    // `SearchParams` resolves to on a lane of that width.
    let cluster = OdysseyCluster::from_index(
        Arc::new(index),
        ClusterConfig::new(1)
            .with_threads_per_node(threads)
            .with_service_lane_width(lane_width)
            .with_pq_threshold(DEFAULT_TH)
            .with_rs_batches(lane_width.min(threads)),
    );
    let ((submitted, invalid), report) = service.serve_cluster(&cluster, |client| {
        let start = std::time::Instant::now();
        let mut submitted = 0u64;
        let mut invalid = 0u64;
        for (qi, &due) in arrivals.iter().enumerate() {
            if let Some(gap) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(gap);
            }
            let q = ServiceQuery {
                data: queries.series(qi).to_vec(),
                kind,
                class: if interactive_every > 0 && qi % interactive_every == 0 {
                    odyssey_service::LatencyClass::Interactive
                } else {
                    odyssey_service::LatencyClass::Batch
                },
                deadline: None,
            };
            // Open loop: a Busy rejection is recorded (in the report)
            // and the arrival is lost, as an overloaded front-end
            // would shed it.
            match client.submit(q) {
                Ok(_) => submitted += 1,
                Err(SubmitError::Busy(_)) => {}
                Err(_) => invalid += 1,
            }
        }
        (submitted, invalid)
    });
    println!(
        "served {submitted}/{} arrivals at ~{rate:.0} qps (seed {seed}): \
         {} completed, {} rejected (backpressure), {invalid} invalid, {} degraded, wall {:?}",
        nq, report.completed, report.rejected, report.degraded, report.wall
    );
    for (name, h) in [("interactive", &report.interactive), ("batch", &report.batch)] {
        println!(
            "  {name:<11} n={:<5} p50={}us p90={}us p99={}us max={}us",
            h.count, h.p50_us, h.p90_us, h.p99_us, h.max_us
        );
    }
    println!(
        "  peak in-flight {} of capacity {capacity}",
        report.max_in_flight
    );
    Ok(())
}

/// Parses `full`, `equally-split`, or `partial-K`.
pub fn parse_replication(s: &str) -> Result<Replication, String> {
    match s {
        "full" => Ok(Replication::Full),
        "equally-split" => Ok(Replication::EquallySplit),
        other => match other.strip_prefix("partial-") {
            Some(k) => k
                .parse()
                .map(Replication::Partial)
                .map_err(|_| format!("invalid replication '{other}'")),
            None => Err(format!("invalid replication '{other}'")),
        },
    }
}

/// Parses a scheduler name (the paper's labels).
pub fn parse_scheduler(s: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::all()
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| format!("invalid scheduler '{s}'"))
}

fn cmd_cluster(args: &Args) -> Result<(), String> {
    let len: usize = args.require_parsed("len")?;
    let data = wio::read_bin(Path::new(args.require("data")?), len).map_err(|e| e.to_string())?;
    let queries =
        wio::read_bin(Path::new(args.require("queries")?), len).map_err(|e| e.to_string())?;
    let n_nodes: usize = args.get_or("nodes", 4)?;
    if n_nodes == 0 {
        return Err("--nodes must be at least 1".into());
    }
    let replication = parse_replication(args.get("replication").unwrap_or("full"))?;
    let scheduler = parse_scheduler(args.get("scheduler").unwrap_or("predict-dn"))?;
    let tpn: usize = args.get_or("threads-per-node", 2)?;
    if tpn == 0 {
        return Err("--threads-per-node must be at least 1".into());
    }
    let cfg = ClusterConfig::new(n_nodes)
        .with_replication(replication)
        .with_scheduler(scheduler)
        .with_threads_per_node(tpn)
        .with_work_stealing(!args.has_flag("no-stealing"))
        .with_bsf_sharing(!args.has_flag("no-bsf-sharing"));
    println!("building {cfg:?} over {} series...", data.num_series());
    let cluster = OdysseyCluster::build(&data, cfg);
    let report = cluster.answer_batch(&queries);
    println!(
        "answered {} queries: makespan {:.6} simulated s (wall {:?})",
        report.answers.len(),
        report.makespan_seconds(tpn),
        report.wall
    );
    println!(
        "steals {}/{}, bsf broadcasts {}",
        report.steals_successful, report.steals_attempted, report.bsf_broadcasts
    );
    for (qi, a) in report.answers.iter().enumerate() {
        println!("query {qi}: id={:?} dist={:.6}", a.series_id, a.distance);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("odyssey_cli_{}_{name}", std::process::id()))
    }

    fn run(cmd: &str) -> Result<(), String> {
        dispatch(cmd.split_whitespace().map(String::from).collect())
    }

    #[test]
    fn replication_parsing() {
        assert_eq!(parse_replication("full").unwrap(), Replication::Full);
        assert_eq!(
            parse_replication("equally-split").unwrap(),
            Replication::EquallySplit
        );
        assert_eq!(
            parse_replication("partial-4").unwrap(),
            Replication::Partial(4)
        );
        assert!(parse_replication("partial-x").is_err());
        assert!(parse_replication("nope").is_err());
    }

    #[test]
    fn scheduler_parsing() {
        assert_eq!(
            parse_scheduler("predict-dn").unwrap(),
            SchedulerKind::PredictDn
        );
        assert_eq!(parse_scheduler("static").unwrap(), SchedulerKind::Static);
        assert!(parse_scheduler("bogus").is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run("frobnicate --x 1").is_err());
        assert!(run("").is_err());
    }

    #[test]
    fn end_to_end_generate_index_query() {
        let data = tmp("data.bin");
        let qfile = tmp("q.bin");
        let idx = tmp("data.idx");
        run(&format!(
            "generate --kind seismic --series 400 --len 64 --seed 3 --out {}",
            data.display()
        ))
        .expect("generate");
        run(&format!(
            "generate --kind random --series 3 --len 64 --seed 9 --out {}",
            qfile.display()
        ))
        .expect("generate queries");
        run(&format!(
            "index build --data {} --len 64 --segments 8 --leaf-capacity 32 --out {}",
            data.display(),
            idx.display()
        ))
        .expect("index build");
        run(&format!("index info --index {}", idx.display())).expect("info");
        run(&format!(
            "query --index {} --queries {}",
            idx.display(),
            qfile.display()
        ))
        .expect("query");
        run(&format!(
            "query --index {} --queries {} --k 3",
            idx.display(),
            qfile.display()
        ))
        .expect("knn query");
        run(&format!(
            "query --index {} --queries {} --dtw-window 3",
            idx.display(),
            qfile.display()
        ))
        .expect("dtw query");
        run(&format!(
            "cluster --data {} --len 64 --queries {} --nodes 2 --replication partial-2",
            data.display(),
            qfile.display()
        ))
        .expect("cluster");
        // A fast open-loop replay: the 3-query stream at a high rate
        // finishes quickly but still exercises the full service path.
        run(&format!(
            "serve --index {} --queries {} --rate 5000 --seed 7 --threads 2 \
             --interactive-every 2 --deadline-ms 200",
            idx.display(),
            qfile.display()
        ))
        .expect("serve");
        for f in [data, qfile, idx] {
            std::fs::remove_file(f).ok();
        }
    }
}
