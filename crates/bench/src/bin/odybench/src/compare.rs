//! `--compare <baseline> <change>`: the A/A and A/B tool. Both files
//! hold records appended by `--out`, several runs per workload. For each
//! workload and end-to-end metric it prints both medians, how much worse
//! the change is, the bound, and a verdict.

use crate::json::{parse, Value};
use crate::report::{Better, Gate, END_TO_END, RECORD_ONLY};
use crate::stats::{median, spread};
use crate::workloads;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The change's median is worse than the baseline's by more than the
    /// bound, beyond what the run-to-run spread explains.
    Regressed,
    /// The runs of one side spread wider than the bound, so a change of
    /// the bound's size cannot be told from noise: not "unchanged".
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: f64,
    pub change: f64,
    /// Share of the baseline median by which the change is worse
    /// (negative when it is better).
    pub worse: f64,
    /// The wider of the two sides' quartile spreads; `None` with fewer
    /// than two runs on a side.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(gate: &Gate, base: &[f64], change: &[f64]) -> Row {
    let (b, c) = (median(base), median(change));
    let worse = match gate.better {
        Better::Lower => (c - b) / b.abs(),
        Better::Higher => (b - c) / b.abs(),
    };
    let spread = (base.len() >= 2 && change.len() >= 2).then(|| spread(base).max(spread(change)));
    let noise = spread.unwrap_or(0.0);
    let verdict = if noise > gate.bound {
        if worse > gate.bound + noise {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse > gate.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        base: b,
        change: c,
        worse,
        spread,
        verdict,
    }
}

/// The untraced runs of one file: per workload, the values of every
/// metric, the inputs checksum per seed, and whether any run failed.
#[derive(Debug, Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    inputs: BTreeMap<(String, u64), String>,
    failed_runs: BTreeMap<String, usize>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse(line).map_err(|e| format!("{path} line {}: {e}", n + 1))?;
        if rec.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path} line {}: no {k}", n + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let fnv = field("input_fnv64")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        side.inputs.insert((workload.clone(), seed), fnv);
        if field("correct")?.as_bool() != Some(true) {
            *side.failed_runs.entry(workload.clone()).or_default() += 1;
        }
        let metrics = side.values.entry(workload).or_default();
        for (name, m) in field("metrics")?.members() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(base_path: &str, change_path: &str) -> Result<bool, String> {
    let (base, change) = (load(base_path)?, load(change_path)?);
    let mut clean = true;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "change", "worse", "bound", "spread"
    );
    for w in workloads::ALL {
        let (Some(b), Some(c)) = (base.values.get(w.name), change.values.get(w.name)) else {
            continue;
        };
        for gate in END_TO_END.iter().chain(RECORD_ONLY) {
            let (Some(bv), Some(cv)) = (b.get(gate.name), c.get(gate.name)) else {
                continue;
            };
            let row = judge(gate, bv, cv);
            clean &= row.verdict != Verdict::Regressed;
            let verdict = match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved (spread > bound)",
            };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>7}  {verdict}   n={}/{} {}",
                w.name,
                gate.name,
                row.base,
                row.change,
                row.worse * 100.0,
                gate.bound * 100.0,
                row.spread
                    .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                bv.len(),
                cv.len(),
                gate.unit,
            );
        }
        for (side, name) in [(&base, "baseline"), (&change, "change")] {
            if let Some(n) = side.failed_runs.get(w.name) {
                println!(
                    "{:<14} {n} {name} run(s) answered wrongly or failed requests: regressed",
                    w.name
                );
                clean = false;
            }
        }
    }
    // The same seed must have produced the same inputs on both sides.
    for (key, fnv) in &base.inputs {
        if change.inputs.get(key).is_some_and(|other| other != fnv) {
            println!(
                "{:<14} seed {}: inputs differ between the two files: regressed",
                key.0, key.1
            );
            clean = false;
        }
    }
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Gate = Gate {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: Gate = Gate {
        name: "qps",
        unit: "queries/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let faster = [8.0, 8.1, 7.9, 8.0, 8.05];
        assert_eq!(judge(&LOWER, &steady, &steady).verdict, Verdict::Ok);
        assert_eq!(judge(&LOWER, &steady, &slower).verdict, Verdict::Regressed);
        assert_eq!(judge(&LOWER, &steady, &faster).verdict, Verdict::Ok);
        // For a rate, lower is worse.
        assert_eq!(judge(&HIGHER, &steady, &faster).verdict, Verdict::Regressed);
        assert_eq!(judge(&HIGHER, &steady, &slower).verdict, Verdict::Ok);
        let row = judge(&LOWER, &steady, &slower);
        assert!((row.worse - 0.15).abs() < 1e-9 && row.spread.unwrap() < 0.03);
        // Runs that spread wider than the bound cannot show "unchanged"...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&LOWER, &noisy, &noisy).verdict, Verdict::Unresolved);
        assert_eq!(judge(&LOWER, &noisy, &slower).verdict, Verdict::Unresolved);
        // ...but a loss far beyond the noise is still a regression.
        let far = [20.0, 20.5, 19.5, 20.0, 20.2];
        assert_eq!(judge(&LOWER, &noisy, &far).verdict, Verdict::Regressed);
        // One run per side has no spread to judge by.
        assert_eq!(judge(&LOWER, &[10.0], &[10.5]).spread, None);
        assert_eq!(judge(&LOWER, &[10.0], &[12.0]).verdict, Verdict::Regressed);
    }
}
