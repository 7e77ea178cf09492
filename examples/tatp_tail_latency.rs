//! Tail-latency study: drive a TATP service with Poisson arrivals at
//! increasing load and watch the p99 response time of AstriFlash close
//! in on the DRAM-only system (the paper's Fig. 10 experiment, §VI-C).
//!
//! ```text
//! cargo run --release --example tatp_tail_latency
//! ```

use astriflash::prelude::*;
use astriflash::stats::TextTable;

fn main() {
    let config = SystemConfig::default()
        .with_cores(4)
        .with_workload(WorkloadKind::Tatp)
        .scaled_for_tests();

    // Measure the DRAM-only saturation point first.
    let sat = Cell::closed(config.clone(), Configuration::DramOnly, 7, 300).run();
    let saturation = sat.throughput_jobs_per_sec;
    let base_service = sat.mean_service_ns;
    println!(
        "DRAM-only saturation: {saturation:.0} jobs/s (mean service {:.1} us)\n",
        base_service / 1000.0
    );

    let mut table = TextTable::new(&["load", "dram_p99_norm", "astriflash_p99_norm"]);
    for load in [0.3, 0.5, 0.7, 0.85] {
        let interarrival_ns = 1e9 / (load * saturation);
        let p99_norm = |conf: Configuration| {
            let r = Cell::open(config.clone(), conf, 7, interarrival_ns, 1_500).run();
            r.p99_response_ns as f64 / base_service
        };
        table.row_owned(vec![
            format!("{load:.2}"),
            format!("{:.1}", p99_norm(Configuration::DramOnly)),
            format!("{:.1}", p99_norm(Configuration::AstriFlash)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nAt low load AstriFlash pays the flash access in its tail; as load grows,\n\
         queueing dominates both systems and the curves converge (§VI-C)."
    );
}
