//! The mapping problem statement.

use nw_dsoc::Application;
use nw_types::NodeId;
use std::fmt;

/// One processing-element slot the mapper can place objects on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeSlot {
    /// NoC node the PE sits at.
    pub node: NodeId,
    /// Relative compute capacity versus a 1.0 GP-RISC baseline
    /// (an ASIP matched to the workload would be > 1).
    pub capacity: f64,
}

impl PeSlot {
    /// Creates a slot.
    pub fn new(node: NodeId, capacity: f64) -> Self {
        PeSlot { node, capacity }
    }
}

/// Errors from [`MappingProblem::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildProblemError {
    /// No PE slots were provided.
    NoPes,
    /// Entry-rate count does not match the application's entry points.
    RateCountMismatch {
        /// Rates provided.
        provided: usize,
        /// Entry points declared.
        expected: usize,
    },
    /// The hop matrix is not square or does not cover some PE node.
    BadHopMatrix,
    /// A PE slot has non-positive capacity.
    BadCapacity(f64),
}

impl fmt::Display for BuildProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProblemError::NoPes => write!(f, "mapping needs at least one PE slot"),
            BuildProblemError::RateCountMismatch { provided, expected } => {
                write!(f, "{provided} entry rates for {expected} entry points")
            }
            BuildProblemError::BadHopMatrix => write!(f, "hop matrix malformed for the PE nodes"),
            BuildProblemError::BadCapacity(c) => write!(f, "PE capacity {c} must be positive"),
        }
    }
}

impl std::error::Error for BuildProblemError {}

/// A fully specified mapping problem.
#[derive(Debug, Clone)]
pub struct MappingProblem {
    app: Application,
    pes: Vec<PeSlot>,
    hops: Vec<Vec<f64>>,
    /// Cached per-object compute loads (baseline cycles per cycle).
    object_loads: Vec<f64>,
    /// Cached per-edge traffic (bytes per cycle).
    edge_traffic: Vec<f64>,
}

impl MappingProblem {
    /// Assembles and validates a problem.
    ///
    /// `hops[a][b]` is the NoC hop distance between nodes `a` and `b`; it
    /// must cover every node named by a [`PeSlot`].
    ///
    /// # Errors
    ///
    /// See [`BuildProblemError`].
    pub fn new(
        app: Application,
        entry_rates: Vec<f64>,
        pes: Vec<PeSlot>,
        hops: Vec<Vec<f64>>,
    ) -> Result<Self, BuildProblemError> {
        if pes.is_empty() {
            return Err(BuildProblemError::NoPes);
        }
        if entry_rates.len() != app.entries().len() {
            return Err(BuildProblemError::RateCountMismatch {
                provided: entry_rates.len(),
                expected: app.entries().len(),
            });
        }
        for p in &pes {
            if p.capacity <= 0.0 {
                return Err(BuildProblemError::BadCapacity(p.capacity));
            }
            if p.node.0 >= hops.len() {
                return Err(BuildProblemError::BadHopMatrix);
            }
        }
        if hops.iter().any(|row| row.len() != hops.len()) {
            return Err(BuildProblemError::BadHopMatrix);
        }
        let object_loads = app.object_loads(&entry_rates);
        let edge_traffic = app.edge_traffic(&entry_rates);
        Ok(MappingProblem {
            app,
            pes,
            hops,
            object_loads,
            edge_traffic,
        })
    }

    /// The application being mapped.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The PE slots.
    pub fn pes(&self) -> &[PeSlot] {
        &self.pes
    }

    /// Number of objects to place.
    pub fn n_objects(&self) -> usize {
        self.app.objects().len()
    }

    /// Number of PE slots.
    pub fn n_pes(&self) -> usize {
        self.pes.len()
    }

    /// Per-object compute load (baseline cycles per cycle).
    pub fn object_loads(&self) -> &[f64] {
        &self.object_loads
    }

    /// Per-edge traffic (bytes per cycle), in edge declaration order.
    pub fn edge_traffic(&self) -> &[f64] {
        &self.edge_traffic
    }

    /// Hop distance between the nodes of two PE slots.
    pub fn pe_hops(&self, a: usize, b: usize) -> f64 {
        self.hops[self.pes[a].node.0][self.pes[b].node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_dsoc::{MethodDef, ObjectDef};

    fn app2() -> Application {
        let mut b = Application::builder("t");
        let a = b.add_object(
            ObjectDef::new("a").with_method(MethodDef::oneway("x", 8).with_compute(10)),
        );
        let c = b.add_object(
            ObjectDef::new("c").with_method(MethodDef::oneway("y", 8).with_compute(20)),
        );
        b.connect(a, 0, c, 0, 1.0);
        b.entry(a, 0);
        b.build().unwrap()
    }

    fn hops2() -> Vec<Vec<f64>> {
        vec![vec![0.0, 2.0], vec![2.0, 0.0]]
    }

    #[test]
    fn valid_problem_caches_loads() {
        let p = MappingProblem::new(
            app2(),
            vec![0.01],
            vec![PeSlot::new(NodeId(0), 1.0), PeSlot::new(NodeId(1), 1.0)],
            hops2(),
        )
        .unwrap();
        assert_eq!(p.n_objects(), 2);
        assert_eq!(p.n_pes(), 2);
        assert!((p.object_loads()[0] - 0.1).abs() < 1e-12);
        assert!((p.object_loads()[1] - 0.2).abs() < 1e-12);
        assert!((p.pe_hops(0, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            MappingProblem::new(app2(), vec![0.01], vec![], hops2()).unwrap_err(),
            BuildProblemError::NoPes
        );
        assert_eq!(
            MappingProblem::new(app2(), vec![], vec![PeSlot::new(NodeId(0), 1.0)], hops2())
                .unwrap_err(),
            BuildProblemError::RateCountMismatch {
                provided: 0,
                expected: 1
            }
        );
        assert_eq!(
            MappingProblem::new(
                app2(),
                vec![0.01],
                vec![PeSlot::new(NodeId(5), 1.0)],
                hops2()
            )
            .unwrap_err(),
            BuildProblemError::BadHopMatrix
        );
        assert_eq!(
            MappingProblem::new(
                app2(),
                vec![0.01],
                vec![PeSlot::new(NodeId(0), 0.0)],
                hops2()
            )
            .unwrap_err(),
            BuildProblemError::BadCapacity(0.0)
        );
    }
}
