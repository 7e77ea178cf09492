//! End-to-end checks of the latency-attribution subsystem (DESIGN.md
//! §11): the simulator's in-line per-phase breakdown must match an
//! independent reconstruction from the exported trace, bit for bit.

use astriflash::analyze::{cross_validate, parse, reconstruct, reconstruct_json};
use astriflash::core::config::{Configuration, SystemConfig};
use astriflash::core::sweep::Cell;
use astriflash::stats::Phase;
use astriflash::trace::{export, Tracer};

fn cfg() -> SystemConfig {
    SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_threads_per_core(24)
}

#[test]
fn trace_reconstruction_matches_in_sim_breakdown() {
    let cell = Cell::closed(cfg(), Configuration::AstriFlash, 1, 120);
    let tracer = Tracer::ring(1 << 20);
    let report = cell.run_traced(tracer.clone());
    assert_eq!(tracer.dropped(), 0, "ring too small for this test");
    let events = tracer.finish();

    let recon = reconstruct(&events);
    assert!(
        recon.spans_completed > 0,
        "run produced no completed miss lifecycles"
    );
    assert_eq!(recon.spans_completed, report.phases.completed_misses());
    cross_validate(&report.phases, &recon.phases)
        .expect("in-sim and trace-derived breakdowns must agree exactly");
}

#[test]
fn json_round_trip_preserves_the_breakdown() {
    let cell = Cell::closed(cfg(), Configuration::AstriFlash, 1, 60);
    let tracer = Tracer::ring(1 << 20);
    let report = cell.run_traced(tracer.clone());
    let dropped = tracer.dropped();
    let events = tracer.finish();

    let json = export::perfetto_json(&events, dropped, &[]);
    let doc = parse(&json).expect("exported trace must parse");
    let (recon, dropped_meta) = reconstruct_json(&doc).expect("reconstruction");
    assert_eq!(dropped_meta, dropped);
    cross_validate(&report.phases, &recon.phases)
        .expect("JSON round-trip must not change the breakdown");
}

#[test]
fn attribution_is_identical_with_and_without_tracing() {
    let cell = Cell::closed(cfg(), Configuration::AstriFlash, 7, 80);
    let traced = cell.run_traced(Tracer::ring(1 << 20));
    let untraced = cell.run();
    assert_eq!(traced.phases, untraced.phases);
    assert_eq!(traced.render(), untraced.render());
}

#[test]
fn breakdown_has_the_expected_shape() {
    let report = Cell::closed(cfg(), Configuration::AstriFlash, 1, 120).run();
    let p = &report.phases;
    // Every completed miss records an admit wait and a resume delay.
    assert_eq!(
        p.hist(Phase::AdmitWait).count(),
        p.hist(Phase::ResumeDelay).count()
    );
    // Issued + coalesced partition the completed lifecycles.
    assert_eq!(
        p.hist(Phase::FlashRead).count() + p.hist(Phase::CoalescedWait).count(),
        p.completed_misses()
    );
    // The flash array read dominates the issued path (~50 µs tR).
    assert!(p.hist(Phase::FlashRead).count() > 0);
    assert!(p.percentiles(Phase::FlashRead)[0] > 10_000);
    // Shares sum to 1 over non-empty sets.
    let total: f64 = Phase::all().iter().map(|&ph| p.share(ph)).sum();
    assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
}
