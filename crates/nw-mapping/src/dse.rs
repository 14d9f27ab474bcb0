//! Design-space exploration helpers.
//!
//! The MultiFlex story (§7.2) is "rapid exploration and optimization": sweep
//! platform configurations, map the application onto each, and keep the
//! Pareto-efficient points. This module provides the bookkeeping; the sweep
//! loops themselves live with the experiments (they own the platform
//! construction).

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Human-readable configuration label (e.g. "mesh-16pe-4thr").
    pub label: String,
    /// Resource cost (e.g. PE count, area) — lower is better.
    pub resource: f64,
    /// Quality metric where **lower is better** (e.g. mapping cost,
    /// 1/throughput).
    pub quality: f64,
}

impl DsePoint {
    /// Creates a point.
    pub fn new(label: impl Into<String>, resource: f64, quality: f64) -> Self {
        DsePoint {
            label: label.into(),
            resource,
            quality,
        }
    }
}

/// Indices of the Pareto-efficient points (minimizing both `resource` and
/// `quality`), sorted by ascending resource.
///
/// A point is kept when no other point is at least as good on both axes and
/// strictly better on one.
///
/// # Examples
///
/// ```
/// use nw_mapping::{pareto_front, DsePoint};
///
/// let pts = vec![
///     DsePoint::new("small-slow", 1.0, 10.0),
///     DsePoint::new("big-fast", 4.0, 2.0),
///     DsePoint::new("big-slow", 4.0, 9.0),   // dominated by big-fast
///     DsePoint::new("medium", 2.0, 5.0),
/// ];
/// let front = pareto_front(&pts);
/// let labels: Vec<&str> = front.iter().map(|&i| pts[i].label.as_str()).collect();
/// assert_eq!(labels, vec!["small-slow", "medium", "big-fast"]);
/// ```
pub fn pareto_front(points: &[DsePoint]) -> Vec<usize> {
    let mut keep = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let dominated = points.iter().enumerate().any(|(j, q)| {
            j != i
                && q.resource <= p.resource
                && q.quality <= p.quality
                && (q.resource < p.resource || q.quality < p.quality)
        });
        if !dominated {
            keep.push(i);
        }
    }
    keep.sort_by(|&a, &b| {
        points[a]
            .resource
            .partial_cmp(&points[b].resource)
            .expect("finite resources")
            .then(
                points[a]
                    .quality
                    .partial_cmp(&points[b].quality)
                    .expect("finite quality"),
            )
    });
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn single_point_survives() {
        let pts = vec![DsePoint::new("only", 1.0, 1.0)];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn identical_points_both_survive() {
        let pts = vec![DsePoint::new("a", 1.0, 1.0), DsePoint::new("b", 1.0, 1.0)];
        assert_eq!(pareto_front(&pts).len(), 2);
    }

    #[test]
    fn strict_domination_removes() {
        let pts = vec![
            DsePoint::new("good", 1.0, 1.0),
            DsePoint::new("bad", 2.0, 2.0),
        ];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn front_is_sorted_by_resource() {
        let pts = vec![
            DsePoint::new("c", 3.0, 1.0),
            DsePoint::new("a", 1.0, 3.0),
            DsePoint::new("b", 2.0, 2.0),
        ];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![1, 2, 0]);
    }
}
