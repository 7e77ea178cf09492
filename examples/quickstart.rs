//! Quickstart: simulate AstriFlash against the DRAM-only ideal on one
//! workload and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use astriflash::prelude::*;

fn main() {
    // A small 4-core system so the example finishes in seconds. The
    // defaults mirror the paper's ratios: DRAM cache at 3% of the
    // dataset, ~50 us flash reads, 100 ns thread switches.
    let config = SystemConfig::default()
        .with_cores(4)
        .with_workload(WorkloadKind::HashTable)
        .scaled_for_tests();

    println!("building engines and simulating (seed 42)...\n");

    let (seed, jobs_per_core) = (42, 200);
    let dram = Cell::closed(config.clone(), Configuration::DramOnly, seed, jobs_per_core).run();
    let astri = Cell::closed(config, Configuration::AstriFlash, seed, jobs_per_core).run();

    println!("DRAM-only:");
    println!("{}", dram.render());
    println!("AstriFlash:");
    println!("{}", astri.render());

    let norm = astri.throughput_jobs_per_sec / dram.throughput_jobs_per_sec;
    println!(
        "AstriFlash achieves {:.0}% of the DRAM-only system's throughput while \
         serving a dataset {}x larger than its DRAM cache.",
        norm * 100.0,
        (1.0 / 0.25) as u64 // tiny-test configs use a 25% cache ratio
    );
    println!(
        "(At the paper's 3% ratio and full scale, the reproduction lands at ~0.9; \
         see results/fig9.txt, written by `cargo run --release -p astriflash-bench --bin regen -- fig9`.)"
    );
}
