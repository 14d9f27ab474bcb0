//! The §6.3 eFPGA story, live: run a checksum kernel in software, then
//! reconfigure the platform's eFPGA at run time and offload it, watching
//! throughput, the reconfiguration stall, and the 10x penalties.
//!
//! ```text
//! cargo run --release --example efpga_offload
//! ```

use nanowall::fabric::MappedKernel;
use nanowall::prelude::*;
use nw_pe::{Op, Program};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = FppaConfig::new("offload-demo", TopologyKind::Ring);
    cfg.add_pe(PeConfig::new(PeClass::GpRisc, 4));
    cfg.add_fabric(FabricSpec::default());
    let mut platform = FppaPlatform::new(cfg)?;
    let fabric_node = platform.fabric_node(0);
    let kernel = KernelSpec::checksum_offload();

    // Phase 1: the kernel in software on the PE.
    let sw_task = Program::straight_line([Op::Compute(kernel.sw_cycles_per_item)]);
    let phase = 30_000u64;
    for _ in 0..phase {
        while platform.pe(0).idle_threads() > 0 {
            platform.pe_mut(0).spawn(sw_task.clone())?;
        }
        platform.step();
    }
    let sw_done = platform.pe(0).stats().tasks_completed;
    println!(
        "software on gp-risc : {sw_done} items in {phase} cycles ({:.1} items/kcycle)",
        sw_done as f64 * 1000.0 / phase as f64
    );

    // Phase 2: reconfigure the fabric (the bitstream load stalls it) and
    // offload — the PE now only ships items to the fabric.
    let t0 = platform.now();
    platform.fabric_mut(0).reconfigure(&kernel, t0)?;
    let downtime = platform.fabric_mut(0).spec().reconfig_cycles(kernel.luts);
    println!(
        "reconfiguration     : {} bitstream, {downtime} stall",
        platform.fabric_mut(0).spec().bitstream_bytes(kernel.luts)
    );

    let offload_task = Program::straight_line([Op::call(fabric_node, 8, 8)]);
    for _ in 0..phase {
        while platform.pe(0).idle_threads() > 0 {
            platform.pe_mut(0).spawn(offload_task.clone())?;
        }
        platform.step();
    }
    let fabric_done = platform.fabric_mut(0).served();
    println!(
        "offloaded to efpga  : {fabric_done} items in {phase} cycles ({:.1} items/kcycle)",
        fabric_done as f64 * 1000.0 / phase as f64
    );

    let mapped = MappedKernel::map(&kernel, platform.fabric_mut(0).spec());
    println!("\nthe §6.3 ledger:");
    println!(
        "  speedup vs software : x{:.1}",
        (fabric_done as f64 / sw_done as f64).max(0.0)
    );
    println!(
        "  area vs hardwired   : x{:.1} ({} vs {})",
        mapped.area.0 / kernel.hw_area.0,
        mapped.area,
        kernel.hw_area
    );
    println!(
        "  energy vs hardwired : x{:.1}",
        mapped.energy_per_item.0 / kernel.hw_energy_per_item.0
    );
    println!("  => worth it for this regular kernel; not for 'small scale time\n     division multiplexing of different tasks' (each swap costs {downtime}).");
    Ok(())
}
