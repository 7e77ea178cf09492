//! Integration tests of the observability layer: trace determinism,
//! zero perturbation of simulation results, and per-miss span
//! well-formedness across the whole component stack.

use std::collections::HashMap;

use astriflash::core::config::{Configuration, SystemConfig};
use astriflash::core::sweep::Sweep;
use astriflash::prelude::*;
use astriflash::trace::{export, json, EventKind, TraceEvent, Tracer};

fn cfg() -> SystemConfig {
    SystemConfig::default()
        .with_cores(2)
        .scaled_for_tests()
        .with_threads_per_core(24)
}

fn traced_run(seed: u64) -> (RunReport, Vec<TraceEvent>) {
    let tracer = Tracer::ring(1 << 20);
    let report =
        Cell::closed(cfg(), Configuration::AstriFlash, seed, 120).run_traced(tracer.clone());
    (report, tracer.finish())
}

#[test]
fn same_seed_runs_produce_byte_identical_traces() {
    let (_, a) = traced_run(11);
    let (_, b) = traced_run(11);
    let ja = export::perfetto_json(&a, 0, &[]);
    let jb = export::perfetto_json(&b, 0, &[]);
    assert!(json::parse(&ja).is_ok());
    assert_eq!(ja, jb, "same-seed traces must be byte-identical");
    let ca = export::gauges_csv(&a, 0).render();
    let cb = export::gauges_csv(&b, 0).render();
    assert_eq!(ca, cb, "same-seed gauge CSVs must be byte-identical");
}

#[test]
fn tracing_does_not_change_the_report() {
    let plain = Cell::closed(cfg(), Configuration::AstriFlash, 11, 120).run();
    let (traced, events) = traced_run(11);
    assert!(!events.is_empty(), "tracing must actually record something");
    assert_eq!(plain.render(), traced.render());
    assert_eq!(
        plain.throughput_jobs_per_sec.to_bits(),
        traced.throughput_jobs_per_sec.to_bits()
    );
    assert_eq!(
        plain.mean_service_ns.to_bits(),
        traced.mean_service_ns.to_bits()
    );
    assert_eq!(plain.p99_service_ns, traced.p99_service_ns);
    assert_eq!(plain.events_processed, traced.events_processed);
}

#[test]
fn sweep_cell0_trace_matches_untraced_reports() {
    let cells: Vec<Cell> = [1u64, 2]
        .iter()
        .map(|&seed| Cell::closed(cfg(), Configuration::AstriFlash, seed, 40))
        .collect();
    let sweep = Sweep::with_threads(2);
    let plain = sweep.run(&cells);
    let tracer = Tracer::ring(1 << 18);
    let traced = sweep.run_with_cell0_trace(&cells, tracer.clone());
    assert!(!tracer.finish().is_empty(), "cell 0 must have been traced");
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.render(), t.render());
        assert_eq!(
            p.throughput_jobs_per_sec.to_bits(),
            t.throughput_jobs_per_sec.to_bits()
        );
        assert_eq!(p.events_processed, t.events_processed);
    }
}

#[test]
fn miss_spans_are_well_formed() {
    let (report, events) = traced_run(11);
    let misses = report.metrics.count("dram_cache_misses").unwrap();
    assert!(misses > 0, "config must produce DRAM-cache misses");

    let mut open: HashMap<u64, u64> = HashMap::new(); // span -> begin t
    let mut closed = 0u64;
    for e in &events {
        match e.kind {
            EventKind::SpanBegin => {
                assert_ne!(e.span, 0, "span ids start at 1");
                assert!(
                    open.insert(e.span, e.t_ns).is_none(),
                    "span {} opened twice",
                    e.span
                );
            }
            EventKind::SpanEnd => {
                let begin = open
                    .remove(&e.span)
                    .unwrap_or_else(|| panic!("span {} ended without begin", e.span));
                assert!(e.t_ns >= begin, "span {} ends before it begins", e.span);
                closed += 1;
            }
            EventKind::SpanInstant => {
                assert!(
                    open.contains_key(&e.span),
                    "span event {:?} outside its span's lifetime",
                    e.name
                );
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open: {:?}", open.keys());
    assert_eq!(closed, misses, "one span per DRAM-cache miss");
}

#[test]
fn miss_lifecycle_is_reconstructable_from_span_id() {
    let (_, events) = traced_run(11);
    // Group every span-attributed event name by span id.
    let mut by_span: HashMap<u64, Vec<&'static str>> = HashMap::new();
    for e in &events {
        if e.span != 0 {
            by_span.entry(e.span).or_default().push(e.name);
        }
    }
    // At least one miss must thread the full asynchronous path:
    // miss → BC admit → flash fetch → install/arrival → resume.
    let full = by_span.values().any(|names| {
        names.contains(&"miss")
            && names.contains(&"bc_admit")
            && names.contains(&"flash_read")
            && names.contains(&"bc_install")
            && names.contains(&"page_arrived")
            && names.contains(&"resume")
    });
    assert!(
        full,
        "no span threads miss → bc_admit → flash_read → bc_install → \
         page_arrived → resume; spans seen: {:?}",
        by_span.values().take(5).collect::<Vec<_>>()
    );
}
