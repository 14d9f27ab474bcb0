//! F2 — Figure 2: the FPPA platform tour.
//!
//! Builds the Figure 2 platform (heterogeneous multithreaded PEs, SRAM +
//! eDRAM, eFPGA, hardwired codec, communication I/O, all on a NoC), pushes
//! traffic through every component class, and prints the inventory with
//! per-component activity — the "does every box in the figure actually do
//! something" check.

use super::Ctx;
use crate::Table;
use nanowall::fabric::KernelSpec;
use nanowall::scenarios::fppa_tour_config;
use nanowall::{FppaPlatform, NodeRole};
use nw_pe::{Op, Program};
use nw_types::Cycles;

/// Structured result.
#[derive(Debug)]
pub struct F2Result {
    /// (component, activity count) per component class.
    pub activity: Vec<(String, u64)>,
    /// Total platform area in mm².
    pub area_mm2: f64,
    /// Rendered table.
    pub table: String,
}

/// Runs F2: exercises PEs, both memories, the eFPGA, the hardwired block
/// and an I/O channel.
pub fn run(ctx: Ctx) -> F2Result {
    let cycles = if ctx.fast { 30_000 } else { 100_000 };
    let cfg = fppa_tour_config();
    let mut platform = FppaPlatform::new(cfg).expect("tour config is valid");
    platform.set_scheduler_mode(ctx.scheduler);

    // Configure the fabric with a kernel before traffic arrives.
    platform
        .fabric_mut(0)
        .reconfigure(&KernelSpec::checksum_offload(), Cycles(0))
        .expect("kernel fits the default fabric");

    // Hand-built PE programs touching every service class.
    let sram = platform.memory_node(0);
    let edram = platform.memory_node(1);
    let fabric = platform.fabric_node(0);
    let codec = platform.hwip_node(0);
    let tour = Program::straight_line([
        Op::Compute(30),
        Op::call(sram, 16, 64),
        Op::Compute(20),
        Op::call(edram, 16, 128),
        Op::call(fabric, 32, 8),
        Op::call(codec, 64, 16),
        Op::LocalMem {
            write: true,
            bytes: 64,
        },
    ]);
    for c in 0..cycles {
        for pe in 0..8 {
            while platform.pe(pe).idle_threads() > 0 {
                platform
                    .pe_mut(pe)
                    .spawn(tour.clone())
                    .expect("idle checked");
            }
        }
        platform.step();
        let _ = c;
    }
    let report = platform.report(Cycles(cycles));

    let mut t = Table::new(&["component", "node", "activity"]);
    let mut activity = Vec::new();
    for node in 0..platform.config().n_endpoints() {
        let node_id = nw_types::NodeId(node);
        let (name, count) = match platform.role(node_id).expect("endpoint exists") {
            NodeRole::Pe(i) => (
                format!("pe{i} ({})", platform.config().pes[i].class),
                platform.pe(i).stats().tasks_completed,
            ),
            NodeRole::Memory(i) => (
                format!("memory{i} ({})", platform.config().memories[i].technology),
                report.mem_accesses,
            ),
            NodeRole::Fabric(i) => (format!("efpga{i}"), report.fabric_served),
            NodeRole::HwIp(i) => (platform.config().hwip[i].name.clone(), report.hwip_served),
            NodeRole::Io(i) => (format!("io{i}"), report.io[i].generated),
        };
        t.row_owned(vec![name.clone(), node.to_string(), count.to_string()]);
        activity.push((name, count));
    }

    let area = platform.area().0;
    F2Result {
        activity,
        area_mm2: area,
        table: format!(
            "F2  Figure 2 FPPA tour: every component class under traffic\n{}\nPlatform logic+memory area: {area:.1}mm² | total energy: {} | NoC packets: {}\n",
            t.render(),
            report.energy,
            report.noc.delivered
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_component_class_sees_traffic() {
        let r = run(Ctx::new(true));
        // PEs completed tasks.
        let pe_tasks: u64 = r
            .activity
            .iter()
            .filter(|(n, _)| n.starts_with("pe"))
            .map(|&(_, c)| c)
            .sum();
        assert!(pe_tasks > 100, "PEs idle: {pe_tasks}");
        // Memories, fabric, codec and I/O all active.
        for class in ["memory0", "efpga0", "mpeg4-codec", "io0"] {
            let (_, c) = r
                .activity
                .iter()
                .find(|(n, _)| n.starts_with(class))
                .unwrap_or_else(|| panic!("{class} missing"));
            assert!(*c > 0, "{class} saw no traffic");
        }
        assert!(r.area_mm2 > 5.0);
    }
}
