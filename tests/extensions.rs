//! Integration tests of the beyond-the-paper extensions: footprint
//! caching, endurance estimation, and the exported metrics surface.

use astriflash::flash::{estimate_lifetime, FlashConfig, FlashDevice, NandEndurance};
use astriflash::prelude::*;
use astriflash::sim::SimDuration;

fn cfg() -> SystemConfig {
    SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_threads_per_core(24)
}

#[test]
fn footprint_mode_trades_bytes_for_fetches() {
    let base = Cell::closed(cfg(), Configuration::AstriFlash, 3, 120).run();
    let fp = Cell::closed(
        cfg().with_footprint_cache(true),
        Configuration::AstriFlash,
        3,
        120,
    )
    .run();

    let bytes_per_read = |r: &RunReport| {
        r.metrics.count("flash_read_bytes").unwrap() as f64
            / r.metrics.count("flash_reads").unwrap().max(1) as f64
    };
    assert_eq!(bytes_per_read(&base), 4096.0, "baseline fetches full pages");
    assert!(
        bytes_per_read(&fp) < 4096.0,
        "footprints must shrink fetches: {}",
        bytes_per_read(&fp)
    );
    // The system still completes all jobs correctly.
    assert_eq!(fp.jobs_completed, base.jobs_completed);
}

#[test]
fn footprint_mode_is_deterministic_too() {
    let run = || {
        Cell::closed(
            cfg().with_footprint_cache(true),
            Configuration::AstriFlash,
            11,
            80,
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.p99_service_ns, b.p99_service_ns);
    assert_eq!(
        a.metrics.count("flash_read_bytes"),
        b.metrics.count("flash_read_bytes")
    );
}

#[test]
fn metrics_surface_is_complete() {
    let r = Cell::closed(cfg(), Configuration::AstriFlash, 5, 60).run();
    for key in [
        "jobs_measured",
        "throughput_jobs_per_sec",
        "service_p99",
        "response_p99",
        "dram_cache_misses",
        "switches",
        "msr_max_occupancy",
        "flash_reads",
        "flash_read_bytes",
        "flash_writebacks",
        "service_cv",
        "miss_interval_us",
    ] {
        assert!(r.metrics.get(key).is_some(), "metric {key} missing");
    }
    // Flash reads are bounded by misses (MSR dedup) and nonzero.
    let reads = r.metrics.count("flash_reads").unwrap();
    let misses = r.metrics.count("dram_cache_misses").unwrap();
    assert!(reads > 0);
    assert!(reads <= misses + 16, "reads {reads} vs misses {misses}");
}

#[test]
fn lifetime_estimation_composes_with_the_device_model() {
    let mut dev = FlashDevice::new(
        FlashConfig {
            capacity_bytes: 64 << 20,
            pages_per_block: 32,
            ..FlashConfig::default()
        },
        5,
    );
    let pages = dev.config().num_logical_pages();
    let mut now = astriflash::sim::SimTime::ZERO;
    for i in 0..pages * 2 {
        now += SimDuration::from_us(20);
        dev.write(now, i % pages);
    }
    let est = estimate_lifetime(&dev, now.as_secs_f64(), NandEndurance::Tlc);
    assert!(est.host_writes_per_sec > 0.0);
    assert!(est.write_amplification >= 1.0);
    assert!(est.years_to_wearout.is_finite());
    // More durable NAND strictly extends life.
    let mlc = estimate_lifetime(&dev, now.as_secs_f64(), NandEndurance::Mlc);
    assert!(mlc.years_to_wearout > est.years_to_wearout);
}
