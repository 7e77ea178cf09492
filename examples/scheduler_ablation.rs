//! Scheduler ablation: how much of AstriFlash's tail behavior comes
//! from the priority-with-aging policy (§IV-D2, Table II)?
//!
//! Runs the same saturated workload under the priority scheduler, the
//! FIFO (noPS) scheduler, and the zero-cost-switch ideal, and prints the
//! service-latency distribution of each.
//!
//! ```text
//! cargo run --release --example scheduler_ablation
//! ```

use astriflash::prelude::*;
use astriflash::stats::TextTable;

fn main() {
    let config = SystemConfig::default()
        .with_cores(4)
        .with_workload(WorkloadKind::Silo)
        .scaled_for_tests()
        .with_threads_per_core(32);

    let mut t = TextTable::new(&[
        "configuration",
        "throughput",
        "svc_p50_us",
        "svc_p99_us",
        "switches",
    ]);
    for conf in [
        Configuration::FlashSync,
        Configuration::AstriFlash,
        Configuration::AstriFlashIdeal,
        Configuration::AstriFlashNoPS,
    ] {
        let r = Cell::closed(config.clone(), conf, 3, 250).run();
        t.row_owned(vec![
            conf.name().to_string(),
            format!("{:.0}", r.throughput_jobs_per_sec),
            format!("{:.1}", r.service_hist.value_at(Percentile::P50) as f64 / 1e3),
            format!("{:.1}", r.service_hist.value_at(Percentile::P99) as f64 / 1e3),
            r.metrics.count("switches").unwrap_or(0).to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nPriority + aging keeps pending jobs' service latency near the\n\
         Flash-Sync ideal; FIFO lets ready jobs rot in the pending queue,\n\
         blowing up the p99 several-fold (Table II)."
    );
}
