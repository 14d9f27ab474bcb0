//! Quickstart: build a small FPPA, install a two-object DSOC application,
//! feed it from a paced I/O channel, run it, and read the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nanowall::prelude::*;
use nw_types::BitsPerSec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the platform: four dual-threaded RISC cores on a mesh NoC
    //    at the paper's 0.13 um node, and one I/O channel that delivers a
    //    40-byte packet every 100 cycles of the core clock.
    let mut cfg = FppaConfig::new("quickstart", TopologyKind::Mesh);
    for _ in 0..4 {
        cfg.add_pe(PeConfig::new(PeClass::GpRisc, 2));
    }
    let clock_hz = cfg.tech.nominal_clock_hz(); // every channel paces at it
    cfg.add_io(IoChannelConfig {
        rate: BitsPerSec(40.0 * 8.0 * clock_hz / 100.0),
        ..IoChannelConfig::ten_gbe_worst_case() // 40-byte packets
    });

    // 2. Describe the application as DSOC objects: a producer that hands
    //    each work item to a consumer.
    let mut b = Application::builder("pingpong");
    let ping = b.add_object(
        ObjectDef::new("ping").with_method(MethodDef::oneway("go", 16).with_compute(50)),
    );
    let pong = b.add_object(
        ObjectDef::new("pong").with_method(MethodDef::oneway("ack", 16).with_compute(50)),
    );
    b.connect(ping, 0, pong, 0, 1.0);
    b.entry(ping, 0);
    let app = b.build()?;

    // 3. Map objects to PEs (here by hand; nw-mapping automates this),
    //    feed the entry point from the channel, and simulate.
    let mut platform = FppaPlatform::new(cfg)?;
    platform.install_app(&app, &[0, 3])?;
    platform.bind_io_entry(0, ping)?; // one invocation per packet
    let report = platform.run(50_000);
    if report.io[0].generated == 0 || report.tasks_completed == 0 {
        return Err("the channel generated nothing or no task completed".into());
    }

    // 4. Read the results.
    println!("platform        : {}", platform.config().name);
    println!(
        "simulated       : {} at {:.0} MHz",
        report.cycles,
        report.clock_hz / 1e6
    );
    println!("tasks completed : {}", report.tasks_completed);
    println!(
        "NoC packets     : {} (mean latency {:.1} cycles)",
        report.noc.delivered,
        report.noc.latency.mean()
    );
    for (i, u) in report.pe_utilization.iter().enumerate() {
        println!("pe{i} utilization : {:.1}%", u * 100.0);
    }
    println!("total energy    : {}", report.energy);
    Ok(())
}
