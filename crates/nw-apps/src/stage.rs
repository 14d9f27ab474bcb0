//! The stage-graph workload model.
//!
//! A [`PipelineSpec`] describes a multi-stage application pipeline the way
//! §7.1's platform workloads are characterized: per-stage compute cost,
//! working-set size, message shapes between stages, and — where a stage
//! leans on the platform rather than its own PE — a per-item service demand
//! against a shared memory macro, eFPGA fabric or hardwired IP block.
//!
//! The spec lowers onto the `nw-dsoc` application model via
//! [`PipelineSpec::to_application`]: one object per stage, one method per
//! object, call edges for the links. Everything the DSOC layer offers
//! (steady-state rate propagation, load/traffic analysis, MultiFlex
//! mapping) then applies to the workload unchanged. The service demands
//! ride alongside in the returned [`PipelineLayout`] because they are a
//! *platform* concern — the rig constructors in `nanowall::scenarios` turn
//! them into runtime service bindings.

use nw_dsoc::{Application, BuildAppError, Domain, MethodDef, ObjectDef};
use nw_types::ObjectId;
use std::fmt;

/// Which platform service class a stage offloads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// A shared memory macro (reference frames, sample buffers).
    Memory,
    /// A hardwired IP block (cipher core, codec engine).
    HwIp,
    /// An embedded FPGA fabric kernel.
    Fabric,
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceKind::Memory => write!(f, "memory"),
            ServiceKind::HwIp => write!(f, "hwip"),
            ServiceKind::Fabric => write!(f, "fabric"),
        }
    }
}

/// A per-item synchronous offload a stage performs against a platform
/// service node (each call blocks the hardware thread for the round trip —
/// the latency multithreading hides).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceDemand {
    /// Service class the stage needs.
    pub kind: ServiceKind,
    /// Request payload per call.
    pub request_bytes: u64,
    /// Response payload per call.
    pub reply_bytes: u64,
    /// Synchronous calls per processed item.
    pub calls_per_item: u32,
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDef {
    /// Stage name (becomes the DSOC object name).
    pub name: String,
    /// Marshalled payload consumed per item (the method's argument bytes).
    pub input_bytes: u64,
    /// Reply payload; `> 0` makes the stage twoway (it answers its caller).
    pub reply_bytes: u64,
    /// Compute cost per item in GP-RISC baseline cycles.
    pub compute_cycles: u64,
    /// Working set touched per item in the PE-local scratchpad.
    pub working_set_bytes: u64,
    /// Persistent state footprint (placement constraint input).
    pub state_bytes: u64,
    /// Kernel domain (drives ASIP/DSP speedups on matched PEs).
    pub domain: Domain,
    /// Optional per-item offload to a platform service node.
    pub service: Option<ServiceDemand>,
}

impl StageDef {
    /// A oneway stage consuming `input_bytes` per item.
    pub fn new(name: &str, input_bytes: u64) -> Self {
        StageDef {
            name: name.to_owned(),
            input_bytes,
            reply_bytes: 0,
            compute_cycles: 0,
            working_set_bytes: 0,
            state_bytes: 0,
            domain: Domain::Generic,
            service: None,
        }
    }

    /// Makes the stage twoway with the given reply payload.
    pub fn with_reply(mut self, bytes: u64) -> Self {
        self.reply_bytes = bytes;
        self
    }

    /// Sets the per-item compute cost.
    pub fn with_compute(mut self, cycles: u64) -> Self {
        self.compute_cycles = cycles;
        self
    }

    /// Sets the per-item working set.
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    /// Sets the persistent state footprint.
    pub fn with_state(mut self, bytes: u64) -> Self {
        self.state_bytes = bytes;
        self
    }

    /// Sets the kernel domain.
    pub fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = domain;
        self
    }

    /// Attaches a per-item service demand.
    pub fn with_service(mut self, s: ServiceDemand) -> Self {
        self.service = Some(s);
        self
    }
}

/// A directed link: each item processed by `from` hands `items_per_item`
/// items to `to` on average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageLink {
    /// Producing stage index.
    pub from: usize,
    /// Consuming stage index.
    pub to: usize,
    /// Mean downstream items per upstream item.
    pub items_per_item: f64,
}

/// Errors from [`PipelineSpec`] validation/lowering.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildPipelineError {
    /// A link or entry references a stage index out of range.
    UnknownStage(usize),
    /// The underlying DSOC application rejected the lowered graph.
    App(BuildAppError),
}

impl fmt::Display for BuildPipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildPipelineError::UnknownStage(s) => write!(f, "unknown stage index {s}"),
            BuildPipelineError::App(e) => write!(f, "application lowering: {e}"),
        }
    }
}

impl std::error::Error for BuildPipelineError {}

impl From<BuildAppError> for BuildPipelineError {
    fn from(e: BuildAppError) -> Self {
        BuildPipelineError::App(e)
    }
}

/// Stage → DSOC object correspondence plus the service demands that do not
/// lower into the application graph.
#[derive(Debug, Clone)]
pub struct PipelineLayout {
    /// `objects[stage index]` is the stage's DSOC object.
    pub objects: Vec<ObjectId>,
    /// `(stage index, demand)` for every stage with a service demand.
    pub services: Vec<(usize, ServiceDemand)>,
}

/// A multi-stage application pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Pipeline name.
    pub name: String,
    /// The stages.
    pub stages: Vec<StageDef>,
    /// Links between stages.
    pub links: Vec<StageLink>,
    /// Entry stage indices (driven by external traffic).
    pub entries: Vec<usize>,
}

impl PipelineSpec {
    /// Creates an empty pipeline.
    pub fn new(name: &str) -> Self {
        PipelineSpec {
            name: name.to_owned(),
            stages: Vec::new(),
            links: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Adds a stage, returning its index.
    pub fn add_stage(&mut self, s: StageDef) -> usize {
        self.stages.push(s);
        self.stages.len() - 1
    }

    /// Links `from` to `to` with the given multiplicity.
    pub fn link(&mut self, from: usize, to: usize, items_per_item: f64) -> &mut Self {
        self.links.push(StageLink {
            from,
            to,
            items_per_item,
        });
        self
    }

    /// Declares `stage` as an entry point.
    pub fn entry(&mut self, stage: usize) -> &mut Self {
        self.entries.push(stage);
        self
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Appends every stage, link and entry of `other` into this pipeline,
    /// returning the index offset its stages landed at (stage `i` of
    /// `other` becomes stage `offset + i` here). The graphs stay disjoint —
    /// no links are added between them — which is exactly the shape of a
    /// workload *mix*: independent applications placed on one fabric,
    /// interfering only through shared platform resources.
    pub fn absorb(&mut self, other: &PipelineSpec) -> usize {
        let offset = self.stages.len();
        self.stages.extend(other.stages.iter().cloned());
        for l in &other.links {
            self.links.push(StageLink {
                from: l.from + offset,
                to: l.to + offset,
                items_per_item: l.items_per_item,
            });
        }
        for &e in &other.entries {
            self.entries.push(e + offset);
        }
        offset
    }

    /// Steady-state item rate per stage for the given per-entry rates
    /// (items per cycle), propagated through the link graph.
    ///
    /// # Panics
    ///
    /// Panics if `entry_rates.len() != self.entries.len()` or the link
    /// graph has a cycle (the lowering rejects both cases with an error —
    /// use [`PipelineSpec::to_application`] to validate first).
    pub fn stage_rates(&self, entry_rates: &[f64]) -> Vec<f64> {
        assert_eq!(
            entry_rates.len(),
            self.entries.len(),
            "one rate per entry stage required"
        );
        let n = self.stages.len();
        let mut rates = vec![0.0; n];
        for (&s, &r) in self.entries.iter().zip(entry_rates) {
            rates[s] += r;
        }
        // Kahn propagation over the stage DAG.
        let mut indeg = vec![0usize; n];
        for l in &self.links {
            indeg[l.to] += 1;
        }
        let mut q: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(s) = q.pop() {
            seen += 1;
            for l in self.links.iter().filter(|l| l.from == s) {
                rates[l.to] += rates[s] * l.items_per_item;
                indeg[l.to] -= 1;
                if indeg[l.to] == 0 {
                    q.push(l.to);
                }
            }
        }
        assert_eq!(seen, n, "stage graph has a cycle");
        rates
    }

    /// Fraction of inter-stage messages that are twoway (request/reply) at
    /// unit entry rates — the knob that separates the modem's
    /// twoway-heavy shape from the one-directional codec flow.
    pub fn twoway_fraction(&self) -> f64 {
        let rates = self.stage_rates(&vec![1.0; self.entries.len()]);
        let mut oneway = 0.0;
        let mut twoway = 0.0;
        for l in &self.links {
            let msgs = rates[l.from] * l.items_per_item;
            if self.stages[l.to].reply_bytes > 0 {
                twoway += msgs;
            } else {
                oneway += msgs;
            }
        }
        if oneway + twoway == 0.0 {
            0.0
        } else {
            twoway / (oneway + twoway)
        }
    }

    /// Lowers the pipeline onto the DSOC application model: one object and
    /// one method per stage, one call edge per link.
    ///
    /// # Errors
    ///
    /// [`BuildPipelineError::UnknownStage`] for out-of-range link/entry
    /// indices; [`BuildPipelineError::App`] for graph defects the DSOC
    /// builder rejects (cycles, missing entries, bad multiplicities).
    pub fn to_application(&self) -> Result<(Application, PipelineLayout), BuildPipelineError> {
        for l in &self.links {
            if l.from >= self.stages.len() {
                return Err(BuildPipelineError::UnknownStage(l.from));
            }
            if l.to >= self.stages.len() {
                return Err(BuildPipelineError::UnknownStage(l.to));
            }
        }
        if let Some(&bad) = self.entries.iter().find(|&&e| e >= self.stages.len()) {
            return Err(BuildPipelineError::UnknownStage(bad));
        }
        let mut b = Application::builder(&self.name);
        let mut objects = Vec::with_capacity(self.stages.len());
        let mut services = Vec::new();
        for (i, s) in self.stages.iter().enumerate() {
            let method = if s.reply_bytes > 0 {
                MethodDef::twoway("process", s.input_bytes, s.reply_bytes)
            } else {
                MethodDef::oneway("process", s.input_bytes)
            }
            .with_compute(s.compute_cycles)
            .with_local_bytes(s.working_set_bytes)
            .with_domain(s.domain);
            let id = b.add_object(
                ObjectDef::new(&s.name)
                    .with_method(method)
                    .with_state_bytes(s.state_bytes),
            );
            objects.push(id);
            if let Some(d) = s.service {
                services.push((i, d));
            }
        }
        for l in &self.links {
            b.connect(objects[l.from], 0, objects[l.to], 0, l.items_per_item);
        }
        for &e in &self.entries {
            b.entry(objects[e], 0);
        }
        let app = b.build()?;
        Ok((app, PipelineLayout { objects, services }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> PipelineSpec {
        let mut p = PipelineSpec::new("chain");
        let a = p.add_stage(StageDef::new("a", 64).with_compute(100));
        let b = p.add_stage(
            StageDef::new("b", 64)
                .with_compute(200)
                .with_service(ServiceDemand {
                    kind: ServiceKind::Memory,
                    request_bytes: 16,
                    reply_bytes: 64,
                    calls_per_item: 2,
                }),
        );
        let c = p.add_stage(StageDef::new("c", 32).with_compute(50));
        p.link(a, b, 1.0).link(b, c, 1.0).entry(a);
        p
    }

    #[test]
    fn lowering_matches_shape() {
        let p = chain3();
        let (app, layout) = p.to_application().unwrap();
        assert_eq!(app.objects().len(), 3);
        assert_eq!(app.edges().len(), 2);
        assert_eq!(app.entries().len(), 1);
        assert_eq!(layout.objects.len(), 3);
        assert_eq!(layout.services.len(), 1);
        assert_eq!(layout.services[0].0, 1);
        assert_eq!(app.object(layout.objects[1]).name, "b");
        // Compute weights survive the lowering.
        let loads = app.object_loads(&[0.01]);
        assert!((loads[layout.objects[1].0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rates_propagate_with_multiplicity() {
        let mut p = PipelineSpec::new("fan");
        let a = p.add_stage(StageDef::new("a", 8));
        let b = p.add_stage(StageDef::new("b", 8));
        p.link(a, b, 4.0).entry(a);
        let rates = p.stage_rates(&[0.01]);
        assert!((rates[b] - 0.04).abs() < 1e-12);
    }

    #[test]
    fn twoway_fraction_counts_reply_links() {
        let mut p = PipelineSpec::new("tw");
        let a = p.add_stage(StageDef::new("a", 8));
        let b = p.add_stage(StageDef::new("b", 8).with_reply(16));
        let c = p.add_stage(StageDef::new("c", 8));
        p.link(a, b, 1.0).link(a, c, 1.0).entry(a);
        assert!((p.twoway_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_indices_rejected() {
        let mut p = PipelineSpec::new("bad");
        let a = p.add_stage(StageDef::new("a", 8));
        p.link(a, 7, 1.0).entry(a);
        assert_eq!(
            p.to_application().unwrap_err(),
            BuildPipelineError::UnknownStage(7)
        );
    }

    #[test]
    fn cyclic_graph_rejected_by_lowering() {
        let mut p = PipelineSpec::new("cyc");
        let a = p.add_stage(StageDef::new("a", 8));
        let b = p.add_stage(StageDef::new("b", 8));
        p.link(a, b, 1.0).link(b, a, 1.0).entry(a);
        assert!(matches!(
            p.to_application().unwrap_err(),
            BuildPipelineError::App(BuildAppError::CyclicCallGraph)
        ));
    }
}
