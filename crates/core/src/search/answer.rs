//! Query answers.

/// The answer to a 1-NN similarity-search query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Rooted distance (Euclidean or DTW) to the nearest neighbor.
    pub distance: f64,
    /// Squared distance (the value the search machinery compares).
    pub distance_sq: f64,
    /// Id of the nearest series (`None` only for empty collections).
    pub series_id: Option<u32>,
}

impl Answer {
    /// An answer representing "nothing found yet".
    pub fn none() -> Self {
        Answer {
            distance: f64::INFINITY,
            distance_sq: f64::INFINITY,
            series_id: None,
        }
    }

    /// Builds an answer from a squared distance.
    pub fn from_sq(distance_sq: f64, series_id: Option<u32>) -> Self {
        Answer {
            distance: distance_sq.sqrt(),
            distance_sq,
            series_id,
        }
    }

    /// Keeps the better of two answers (merge step of the distributed
    /// coordinator): the strictly smaller squared distance wins; on an
    /// exact tie, an answer with a series id beats one without (a bound
    /// shared from another node carries no id).
    pub fn min(self, other: Answer) -> Answer {
        if other.distance_sq < self.distance_sq
            || (other.distance_sq == self.distance_sq
                && self.series_id.is_none()
                && other.series_id.is_some())
        {
            other
        } else {
            self
        }
    }
}

/// The answer to a k-NN query: neighbors sorted by ascending distance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnAnswer {
    /// `(squared distance, series id)` pairs, ascending, at most `k`.
    pub neighbors: Vec<(f64, u32)>,
}

impl KnnAnswer {
    /// Distance (rooted) of the `i`-th neighbor.
    pub fn distance(&self, i: usize) -> f64 {
        self.neighbors[i].0.sqrt()
    }

    /// The k-th (largest kept) squared distance, or infinity if fewer
    /// than `k` neighbors were found.
    pub fn kth_distance_sq(&self, k: usize) -> f64 {
        if self.neighbors.len() < k {
            f64::INFINITY
        } else {
            self.neighbors[k - 1].0
        }
    }

    /// Merges two k-NN answers, keeping the best `k` distinct series.
    pub fn merge(mut self, other: KnnAnswer, k: usize) -> KnnAnswer {
        self.neighbors.extend(other.neighbors);
        self.neighbors
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.neighbors.dedup_by_key(|p| p.1);
        self.neighbors.truncate(k);
        KnnAnswer {
            neighbors: self.neighbors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_min_keeps_smaller() {
        let a = Answer::from_sq(4.0, Some(1));
        let b = Answer::from_sq(1.0, Some(2));
        assert_eq!(a.min(b).series_id, Some(2));
        assert_eq!(b.min(a).series_id, Some(2));
        assert_eq!(a.min(Answer::none()).series_id, Some(1));
        // Exact tie: the identified answer wins from either side.
        let anonymous = Answer::from_sq(4.0, None);
        assert_eq!(anonymous.min(a).series_id, Some(1));
        assert_eq!(a.min(anonymous).series_id, Some(1));
    }

    #[test]
    fn answer_from_sq_roots() {
        let a = Answer::from_sq(9.0, Some(7));
        assert_eq!(a.distance, 3.0);
    }

    #[test]
    fn knn_merge_dedups_and_truncates() {
        let a = KnnAnswer {
            neighbors: vec![(1.0, 10), (3.0, 30)],
        };
        let b = KnnAnswer {
            neighbors: vec![(1.0, 10), (2.0, 20), (4.0, 40)],
        };
        let m = a.merge(b, 3);
        assert_eq!(m.neighbors, vec![(1.0, 10), (2.0, 20), (3.0, 30)]);
        assert_eq!(m.kth_distance_sq(3), 3.0);
        assert_eq!(m.kth_distance_sq(4), f64::INFINITY);
    }
}
