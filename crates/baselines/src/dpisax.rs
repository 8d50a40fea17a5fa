//! DPiSAX (Yagoubi et al. 2017/2020), reimplemented on the simulated
//! runtime.
//!
//! DPiSAX "exploits the iSAX summaries of a small sample of the dataset,
//! in order to distribute the data to the nodes equally. Then, an iSAX
//! index is built in each node on the local data [...] all nodes need to
//! send their partial results to the coordinator, which merges them and
//! produces the final, exact answer."
//!
//! The partitioner builds a binary *partitioning table* over iSAX space:
//! starting from the whole space, it repeatedly splits the region holding
//! the most sample summaries (refining the segment/bit that best balances
//! the split) until there is one region per node; every series then
//! routes to the region containing its summary. Regions — unlike
//! EQUALLY-SPLIT chunks — group *similar* series together, which is
//! precisely the behaviour DENSITY-AWARE partitioning avoids; Figure 17d
//! measures the consequences.

use odyssey_cluster::{ClusterConfig, OdysseyCluster, Replication, SchedulerKind};
use odyssey_core::buffers::Summaries;
use odyssey_core::sax::IsaxWord;
use odyssey_core::series::DatasetBuffer;
use odyssey_partition::Partition;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One region of the DPiSAX partitioning table, with the sample members
/// it currently holds.
struct Region {
    word: IsaxWord,
    sample: Vec<u32>,
}

/// Builds the DPiSAX sample-based partition of `data` into `n_chunks`
/// iSAX-space regions.
///
/// `sample_size` summaries (default choice: 1% of the data, at least
/// 256) drive the table; `segments` is the iSAX word width.
pub fn dpisax_partition(
    data: &DatasetBuffer,
    n_chunks: usize,
    segments: usize,
    sample_size: usize,
    seed: u64,
) -> Partition {
    assert!(n_chunks >= 1);
    let n = data.num_series();
    let segments = segments.min(data.series_len());
    let summaries = Summaries::compute(data, segments, 2);
    // Sample without replacement.
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let sample: Vec<u32> = ids.into_iter().take(sample_size.clamp(1, n)).collect();

    // Start with one region covering all of iSAX space.
    let root = IsaxWord {
        symbols: vec![0; segments],
        card_bits: vec![0; segments],
    };
    let mut regions = vec![Region {
        word: root,
        sample,
    }];
    // Split the heaviest region until one region per chunk exists (or no
    // region can be split further).
    while regions.len() < n_chunks {
        let (ri, _) = regions
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.sample.len())
            .expect("at least one region");
        let region = regions.swap_remove(ri);
        match split_region(region, &summaries) {
            Some((a, b)) => {
                regions.push(a);
                regions.push(b);
            }
            None => {
                // Unsplittable heaviest region: give up early; remaining
                // chunks stay empty-backed (handled below).
                regions.push(Region {
                    word: IsaxWord {
                        symbols: vec![0; segments],
                        card_bits: vec![0; segments],
                    },
                    sample: Vec::new(),
                });
                break;
            }
        }
    }
    // Route every series to the first region containing its summary (the
    // table's regions are disjoint by construction, except for the
    // degenerate give-up region above which matches everything — being
    // last, it only catches strays).
    let mut chunks: Vec<Vec<u32>> = vec![Vec::new(); n_chunks.max(regions.len())];
    for id in 0..n as u32 {
        let sax = summaries.sax(id);
        let r = regions
            .iter()
            .position(|r| r.word.view().contains(sax))
            .expect("regions cover iSAX space");
        chunks[r.min(n_chunks - 1)].push(id);
    }
    chunks.truncate(n_chunks);
    // If fewer regions than chunks were produced, later chunks are empty;
    // rebalance trivially by moving whole trailing runs.
    Partition { chunks }
}

/// Splits a region on the (segment, bit) refinement that best balances
/// its sample; `None` when no refinement separates the members.
fn split_region(region: Region, summaries: &Summaries) -> Option<(Region, Region)> {
    let segs = region.word.segments();
    let mut best: Option<(usize, usize)> = None; // (imbalance, seg)
    for seg in 0..segs {
        if region.word.card_bits[seg] >= odyssey_core::sax::MAX_CARD_BITS {
            continue;
        }
        let shift = odyssey_core::sax::MAX_CARD_BITS - region.word.card_bits[seg] - 1;
        let ones = region
            .sample
            .iter()
            .filter(|&&id| (summaries.sax(id)[seg] >> shift) & 1 == 1)
            .count();
        if ones == 0 || ones == region.sample.len() {
            continue;
        }
        let imbalance = region.sample.len().abs_diff(2 * ones);
        if best.is_none_or(|(bi, _)| imbalance < bi) {
            best = Some((imbalance, seg));
        }
    }
    let (_, seg) = best?;
    let shift = odyssey_core::sax::MAX_CARD_BITS - region.word.card_bits[seg] - 1;
    let (mut zeros, mut ones) = (Vec::new(), Vec::new());
    for id in region.sample {
        if (summaries.sax(id)[seg] >> shift) & 1 == 1 {
            ones.push(id);
        } else {
            zeros.push(id);
        }
    }
    Some((
        Region {
            word: region.word.refine(seg, 0),
            sample: zeros,
        },
        Region {
            word: region.word.refine(seg, 1),
            sample: ones,
        },
    ))
}

/// A DPiSAX deployment: sample-partitioned chunks, per-node index, every
/// node answers every query, coordinator merge — no BSF sharing, no
/// stealing, no prediction.
pub struct DpiSaxCluster;

impl DpiSaxCluster {
    /// Builds the DPiSAX system on the shared simulated runtime.
    pub fn build(data: &DatasetBuffer, n_nodes: usize, seed: u64) -> OdysseyCluster {
        let config = ClusterConfig::new(n_nodes)
            .with_replication(Replication::EquallySplit)
            .with_scheduler(SchedulerKind::Static)
            .with_work_stealing(false)
            .with_bsf_sharing(false)
            .with_seed(seed);
        let sample = (data.num_series() / 100).max(256).min(data.num_series());
        let partition = dpisax_partition(data, n_nodes, config.segments, sample, seed);
        OdysseyCluster::build_with_partition(data, config, partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odyssey_core::search::answer::Answer;
    use odyssey_partition::validate_partition;
    use odyssey_workloads::generator::{cluster_mixture, random_walk};
    use odyssey_workloads::queries::{QueryWorkload, WorkloadKind};

    #[test]
    fn partition_is_valid() {
        let data = random_walk(800, 64, 7);
        for k in [1usize, 2, 4, 8] {
            let p = dpisax_partition(&data, k, 8, 200, 42);
            assert_eq!(p.num_chunks(), k);
            validate_partition(&p, 800).expect("valid");
        }
    }

    #[test]
    fn partition_is_roughly_balanced_on_uniform_data() {
        let data = random_walk(2000, 64, 9);
        let p = dpisax_partition(&data, 4, 8, 500, 1);
        let sizes: Vec<usize> = p.chunks.iter().map(|c| c.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max < 4 * min.max(1),
            "sample-based balance too skewed: {sizes:?}"
        );
    }

    #[test]
    fn partition_groups_similar_series() {
        // DPiSAX routes series by iSAX region, so near-identical series
        // land on the same chunk (the opposite of DENSITY-AWARE, which
        // deliberately spreads them).
        let data = cluster_mixture(400, 64, 4, 0.01, 3);
        let p = dpisax_partition(&data, 4, 8, 200, 5);
        let chunk_of: Vec<usize> = (0..400u32)
            .map(|id| p.chunks.iter().position(|c| c.contains(&id)).unwrap())
            .collect();
        let mut close_pairs = 0usize;
        let mut colocated = 0usize;
        for i in 0..400usize {
            for j in (i + 1)..400usize {
                let d = odyssey_core::distance::euclidean_sq(data.series(i), data.series(j));
                if d < 0.5 {
                    close_pairs += 1;
                    if chunk_of[i] == chunk_of[j] {
                        colocated += 1;
                    }
                }
            }
        }
        assert!(close_pairs > 100, "need enough close pairs: {close_pairs}");
        assert!(
            colocated * 10 > close_pairs * 8,
            "most close pairs co-locate under DPiSAX: {colocated}/{close_pairs}"
        );
    }

    #[test]
    fn dpisax_cluster_is_exact() {
        let data = random_walk(900, 64, 21);
        let w = QueryWorkload::generate(
            &data,
            6,
            WorkloadKind::Mixed {
                hard_fraction: 0.5,
                noise: 0.05,
            },
            2,
        );
        let cluster = DpiSaxCluster::build(&data, 4, 77);
        let report = cluster.answer_batch(&w.queries);
        for qi in 0..w.len() {
            let mut want = Answer::none();
            for i in 0..data.num_series() {
                let d = odyssey_core::distance::euclidean_sq(w.query(qi), data.series(i));
                if d < want.distance_sq {
                    want = Answer::from_sq(d, Some(i as u32));
                }
            }
            assert!(
                (report.answers[qi].distance - want.distance).abs() < 1e-9,
                "query {qi}"
            );
        }
    }
}
