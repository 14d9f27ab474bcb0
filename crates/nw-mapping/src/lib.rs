//! MultiFlex-style automatic application-to-platform mapping.
//!
//! §7.2 of the paper: "Given base properties of the architecture, such as
//! predictable NoC latency and throughput, the tools can vastly simplify the
//! mapping of the DSOC objects on to the architecture, enabling rapid
//! exploration and optimization." §5.3 calls the manual alternative the
//! abstraction "grand canyon".
//!
//! This crate is those tools:
//!
//! * [`problem`] — the mapping problem: a DSOC [`Application`], entry rates,
//!   the platform's PE slots and the NoC hop-distance matrix.
//! * [`cost`] — the analytic cost model: bottleneck PE load (throughput
//!   limiter) plus communication volume weighted by hop distance.
//! * [`mappers`] — mapping algorithms from trivial baselines (random,
//!   round-robin) through greedy load balancing to simulated annealing and
//!   exhaustive search for small instances.
//! * [`dse`] — Pareto-front extraction for design-space exploration sweeps.
//!
//! [`Application`]: nw_dsoc::Application
//!
//! # Examples
//!
//! ```
//! use nw_dsoc::{Application, MethodDef, ObjectDef};
//! use nw_mapping::{MappingProblem, PeSlot, Mapper, mappers::GreedyLoadMapper};
//! use nw_types::NodeId;
//!
//! let mut b = Application::builder("demo");
//! let a = b.add_object(ObjectDef::new("a").with_method(
//!     MethodDef::oneway("in", 40).with_compute(100)));
//! let c = b.add_object(ObjectDef::new("c").with_method(
//!     MethodDef::oneway("out", 40).with_compute(100)));
//! b.connect(a, 0, c, 0, 1.0);
//! b.entry(a, 0);
//! let app = b.build()?;
//!
//! let problem = MappingProblem::new(
//!     app,
//!     vec![0.005],
//!     vec![PeSlot::new(NodeId(0), 1.0), PeSlot::new(NodeId(1), 1.0)],
//!     vec![vec![0.0, 1.0], vec![1.0, 0.0]],
//! )?;
//! let mapping = GreedyLoadMapper.map(&problem);
//! // Two equal objects spread across two equal PEs.
//! assert_ne!(mapping.placement[0], mapping.placement[1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cost;
pub mod dse;
pub mod mappers;
pub mod problem;

pub use cost::{CostBreakdown, CostModel};
pub use dse::{pareto_front, DsePoint};
pub use mappers::{
    ExhaustiveMapper, GreedyLoadMapper, Mapper, Mapping, RandomMapper, RoundRobinMapper,
    SimulatedAnnealingMapper,
};
pub use problem::{BuildProblemError, MappingProblem, PeSlot};
