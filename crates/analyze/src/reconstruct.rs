//! Miss-lifecycle reconstruction: from trace events back to the same
//! per-phase breakdown the simulator accumulates in-line.
//!
//! The reconstruction rules mirror the simulator's attribution points
//! exactly (DESIGN.md §11), so a correct trace must reproduce the
//! in-sim [`PhaseSet`] *bit-for-bit* — counts, sums and percentiles.
//! [`cross_validate`] enforces that; any disagreement means one of the
//! two instrumentation layers is lying and is reported as a hard error.
//!
//! Rules, per span (one span = one miss lifecycle on one thread):
//!
//! * Only spans that contain a `page_arrived` instant count; a span
//!   that closed before its page arrived (MSR-retry hit, aged
//!   promotion, end-of-run in-flight miss) is skipped — the simulator
//!   discards those lifecycles too.
//! * `admit_msr_wait` = (`flash_issue` else `bc_duplicate`) − begin.
//! * Issuing spans (`flash_issue` present): `flash_chan_queue` /
//!   `flash_read` / `pcie_xfer` are the matching slice durations (a
//!   missing queue slice means 0), `bc_install` = first `page_arrived`
//!   − end of the `flash_xfer` slice.
//! * Coalesced spans (no `flash_issue`): `coalesced_wait` = first
//!   `page_arrived` − `bc_duplicate`.
//! * `resume_delay` = span end − first `page_arrived` (a thread can be
//!   notified twice after an aged promotion re-missed the same page;
//!   only the first arrival is the install).

use std::collections::HashMap;

use astriflash_stats::{Phase, PhaseSet, PHASE_QUANTILES};
use astriflash_trace::json::Value;
use astriflash_trace::{EventKind, TraceEvent};

/// A trace record reduced to what reconstruction needs, format-neutral
/// between in-memory [`TraceEvent`] lists and parsed Perfetto JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormEvent {
    /// Simulated nanoseconds.
    pub t_ns: u64,
    /// Lifecycle span id (0 = none).
    pub span: u64,
    /// Event name (`miss`, `flash_issue`, `page_arrived`, …).
    pub name: String,
    /// Record kind.
    pub kind: NormKind,
}

/// The record kinds reconstruction cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormKind {
    /// Span open.
    Begin,
    /// Point inside a span.
    Instant,
    /// Span close.
    End,
    /// Duration slice attributed to a span.
    Slice {
        /// Slice length in nanoseconds.
        dur_ns: u64,
    },
}

/// The result of reconstructing a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    /// The reconstructed per-phase breakdown.
    pub phases: PhaseSet,
    /// Spans that opened and closed.
    pub spans_total: u64,
    /// Spans that completed a lifecycle (page arrived before close).
    pub spans_completed: u64,
    /// Spans skipped because no page arrived inside them.
    pub spans_skipped: u64,
}

/// Reconstructs the phase breakdown from an in-memory event list (the
/// direct output of [`astriflash_trace::Tracer::finish`]).
pub fn reconstruct(events: &[TraceEvent]) -> Reconstruction {
    reconstruct_norm(events.iter().filter_map(normalize))
}

fn normalize(ev: &TraceEvent) -> Option<NormEvent> {
    let kind = match ev.kind {
        EventKind::SpanBegin => NormKind::Begin,
        EventKind::SpanInstant => NormKind::Instant,
        EventKind::SpanEnd => NormKind::End,
        EventKind::Slice { dur_ns } => NormKind::Slice { dur_ns },
        EventKind::Instant | EventKind::Gauge { .. } => return None,
    };
    Some(NormEvent {
        t_ns: ev.t_ns,
        span: ev.span,
        name: ev.name.to_string(),
        kind,
    })
}

/// Parses a fixed-point microsecond literal (`"1234.567"`) into exact
/// nanoseconds. Accepts up to three decimals (missing digits are
/// low-order zeros); rejects anything that would lose precision.
pub fn parse_ts_us(literal: &str) -> Result<u64, String> {
    let (whole, frac) = match literal.split_once('.') {
        Some((w, f)) => (w, f),
        None => (literal, ""),
    };
    let whole: u64 = whole
        .parse()
        .map_err(|_| format!("bad ts literal {literal:?}"))?;
    if frac.len() > 3 || frac.chars().any(|c| !c.is_ascii_digit()) {
        return Err(format!("ts literal {literal:?} is not whole nanoseconds"));
    }
    let mut frac_ns = 0u64;
    for (i, c) in frac.chars().enumerate() {
        frac_ns += (c as u64 - '0' as u64) * 10u64.pow(2 - i as u32);
    }
    whole
        .checked_mul(1_000)
        .and_then(|w| w.checked_add(frac_ns))
        .ok_or_else(|| format!("ts literal {literal:?} overflows u64 nanoseconds"))
}

/// Reconstructs the phase breakdown from a parsed Perfetto `trace_event`
/// JSON document (as written by
/// [`astriflash_trace::export::perfetto_json`]). Returns the
/// reconstruction plus the document's `droppedEvents` count.
pub fn reconstruct_json(doc: &Value) -> Result<(Reconstruction, u64), String> {
    let dropped = match doc.get("droppedEvents") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "droppedEvents is not an integer".to_string())?,
        None => 0,
    };
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut norm = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        if let Some(n) = normalize_json(ev).map_err(|e| format!("traceEvents[{i}]: {e}"))? {
            norm.push(n);
        }
    }
    Ok((reconstruct_norm(norm.into_iter()), dropped))
}

fn normalize_json(ev: &Value) -> Result<Option<NormEvent>, String> {
    let ph = ev
        .get("ph")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing ph".to_string())?;
    let kind = match ph {
        "b" => NormKind::Begin,
        "n" => NormKind::Instant,
        "e" => NormKind::End,
        "X" => {
            let dur = ev
                .get("dur")
                .and_then(Value::as_num)
                .ok_or_else(|| "X event missing dur".to_string())?;
            NormKind::Slice {
                dur_ns: parse_ts_us(dur)?,
            }
        }
        // Metadata, plain instants and counters carry no lifecycle info.
        "M" | "i" | "C" => return Ok(None),
        other => return Err(format!("unknown ph {other:?}")),
    };
    let ts = ev
        .get("ts")
        .and_then(Value::as_num)
        .ok_or_else(|| "missing ts".to_string())?;
    let t_ns = parse_ts_us(ts)?;
    // Async events carry the span id as a string `id`; slices carry it
    // as a number in args.span.
    let span = match kind {
        NormKind::Slice { .. } => ev
            .get("args")
            .and_then(|a| a.get("span"))
            .and_then(Value::as_u64)
            .ok_or_else(|| "slice missing args.span".to_string())?,
        _ => ev
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| "async event missing string id".to_string())?
            .parse::<u64>()
            .map_err(|_| "span id is not an integer".to_string())?,
    };
    let name = ev
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing name".to_string())?
        .to_string();
    Ok(Some(NormEvent {
        t_ns,
        span,
        name,
        kind,
    }))
}

#[derive(Default)]
struct SpanScratch {
    begin_ns: u64,
    flash_issue: Option<u64>,
    bc_duplicate: Option<u64>,
    arrived: Option<u64>,
    queue_ns: u64,
    read_ns: u64,
    xfer_ns: u64,
    xfer_end_ns: u64,
}

fn reconstruct_norm(events: impl Iterator<Item = NormEvent>) -> Reconstruction {
    let mut open: HashMap<u64, SpanScratch> = HashMap::new();
    let mut out = Reconstruction {
        phases: PhaseSet::new(),
        spans_total: 0,
        spans_completed: 0,
        spans_skipped: 0,
    };
    for ev in events {
        if ev.span == 0 {
            continue;
        }
        match ev.kind {
            NormKind::Begin => {
                open.insert(
                    ev.span,
                    SpanScratch {
                        begin_ns: ev.t_ns,
                        ..SpanScratch::default()
                    },
                );
            }
            NormKind::Instant => {
                if let Some(s) = open.get_mut(&ev.span) {
                    match ev.name.as_str() {
                        "flash_issue" => {
                            s.flash_issue.get_or_insert(ev.t_ns);
                        }
                        "bc_duplicate" => {
                            s.bc_duplicate.get_or_insert(ev.t_ns);
                        }
                        "page_arrived" => {
                            s.arrived.get_or_insert(ev.t_ns);
                        }
                        _ => {}
                    }
                }
            }
            NormKind::Slice { dur_ns } => {
                if let Some(s) = open.get_mut(&ev.span) {
                    match ev.name.as_str() {
                        "flash_queue" => s.queue_ns = dur_ns,
                        "flash_read" => s.read_ns = dur_ns,
                        "flash_xfer" => {
                            s.xfer_ns = dur_ns;
                            s.xfer_end_ns = ev.t_ns + dur_ns;
                        }
                        _ => {}
                    }
                }
            }
            NormKind::End => {
                let Some(s) = open.remove(&ev.span) else {
                    continue;
                };
                out.spans_total += 1;
                finish_span(&s, ev.t_ns, &mut out);
            }
        }
    }
    out
}

fn finish_span(s: &SpanScratch, end_ns: u64, out: &mut Reconstruction) {
    let Some(arrived) = s.arrived else {
        out.spans_skipped += 1;
        return;
    };
    let p = &mut out.phases;
    if let Some(issue) = s.flash_issue {
        p.record(Phase::AdmitWait, issue.saturating_sub(s.begin_ns));
        p.record(Phase::FlashQueue, s.queue_ns);
        p.record(Phase::FlashRead, s.read_ns);
        p.record(Phase::PcieXfer, s.xfer_ns);
        p.record(Phase::Install, arrived.saturating_sub(s.xfer_end_ns));
    } else if let Some(dup) = s.bc_duplicate {
        p.record(Phase::AdmitWait, dup.saturating_sub(s.begin_ns));
        p.record(Phase::CoalescedWait, arrived.saturating_sub(dup));
    } else {
        // A page arrived in a span that never resolved its admission:
        // the trace is malformed; skip rather than invent numbers (the
        // count mismatch will fail cross-validation loudly).
        out.spans_skipped += 1;
        return;
    }
    p.record(Phase::ResumeDelay, end_ns.saturating_sub(arrived));
    out.spans_completed += 1;
}

/// Compares the simulator's in-line breakdown against a reconstructed
/// one. Counts, sums and the [`PHASE_QUANTILES`] percentiles must agree
/// *exactly* for every phase; the error lists every mismatch.
pub fn cross_validate(in_sim: &PhaseSet, reconstructed: &PhaseSet) -> Result<(), String> {
    let mut problems = Vec::new();
    for phase in Phase::all() {
        let a = in_sim.hist(phase);
        let b = reconstructed.hist(phase);
        if a.count() != b.count() {
            problems.push(format!(
                "{phase}: count in-sim {} != trace {}",
                a.count(),
                b.count()
            ));
        }
        if a.sum() != b.sum() {
            problems.push(format!(
                "{phase}: sum_ns in-sim {} != trace {}",
                a.sum(),
                b.sum()
            ));
        }
        for (q, (x, y)) in PHASE_QUANTILES.iter().zip(
            in_sim
                .percentiles(phase)
                .into_iter()
                .zip(reconstructed.percentiles(phase)),
        ) {
            if x != y {
                problems.push(format!("{phase}: p{} in-sim {x} != trace {y}", q * 100.0));
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "phase attribution cross-validation failed:\n  {}",
            problems.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astriflash_trace::{export, Track, Tracer};

    #[test]
    fn ts_parsing_is_exact_nanoseconds() {
        assert_eq!(parse_ts_us("0.000").unwrap(), 0);
        assert_eq!(parse_ts_us("0.001").unwrap(), 1);
        assert_eq!(parse_ts_us("1234.567").unwrap(), 1_234_567);
        assert_eq!(parse_ts_us("5").unwrap(), 5_000);
        assert_eq!(parse_ts_us("5.2").unwrap(), 5_200);
        assert!(parse_ts_us("1.2345").is_err());
        assert!(parse_ts_us("x").is_err());
    }

    /// Emits one issued + one coalesced lifecycle the way the simulator
    /// does, returning the events and the expected phase set.
    fn synthetic_trace() -> (Vec<TraceEvent>, PhaseSet) {
        let t = Tracer::ring(256);
        // Issued miss: begin 1000, issue 1200, queue 300, read 50000
        // (starts 1500), xfer 4000 (starts 51500), arrival 56000,
        // resume 57000.
        let a = t.begin_span(1_000, Track::Core(0), "miss", 7);
        t.span_instant(1_200, Track::Bc, "bc_admit", 7);
        t.span_instant(1_200, Track::FlashChannel(0), "flash_issue", 7);
        t.slice(1_200, 300, Track::FlashChannel(0), "flash_queue", 7);
        t.slice(1_500, 50_000, Track::FlashChannel(0), "flash_read", 7);
        t.slice(51_500, 4_000, Track::FlashChannel(0), "flash_xfer", 4096);
        t.span_instant(56_000, Track::Core(0), "page_arrived", 7);
        t.end_span(57_000, Track::Core(0), "miss", a);
        // Coalesced miss: begin 2000, duplicate 2300, arrival 56000,
        // blocked synchronously (resume delay 0).
        let b = t.begin_span(2_000, Track::Core(1), "miss", 7);
        t.span_instant(2_300, Track::Bc, "bc_duplicate", 7);
        t.span_instant(56_000, Track::Core(1), "page_arrived", 7);
        t.end_span(56_000, Track::Core(1), "miss", b);
        // A span that closes without an arrival must be skipped.
        let c = t.begin_span(3_000, Track::Core(2), "miss", 9);
        t.end_span(3_500, Track::Core(2), "miss", c);

        let mut want = PhaseSet::new();
        want.record(Phase::AdmitWait, 200);
        want.record(Phase::FlashQueue, 300);
        want.record(Phase::FlashRead, 50_000);
        want.record(Phase::PcieXfer, 4_000);
        want.record(Phase::Install, 500);
        want.record(Phase::ResumeDelay, 1_000);
        want.record(Phase::AdmitWait, 300);
        want.record(Phase::CoalescedWait, 53_700);
        want.record(Phase::ResumeDelay, 0);
        (t.finish(), want)
    }

    #[test]
    fn reconstructs_issued_and_coalesced_lifecycles() {
        let (events, want) = synthetic_trace();
        let r = reconstruct(&events);
        assert_eq!(r.spans_total, 3);
        assert_eq!(r.spans_completed, 2);
        assert_eq!(r.spans_skipped, 1);
        cross_validate(&want, &r.phases).unwrap();
    }

    #[test]
    fn json_and_memory_frontends_agree() {
        let (events, _) = synthetic_trace();
        let from_mem = reconstruct(&events);
        let doc = astriflash_trace::json::parse(&export::perfetto_json(&events, 3, &[])).unwrap();
        let (from_json, dropped) = reconstruct_json(&doc).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(from_mem, from_json);
    }

    #[test]
    fn cross_validation_reports_every_mismatch() {
        let (events, want) = synthetic_trace();
        let r = reconstruct(&events);
        let mut tampered = want.clone();
        tampered.record(Phase::FlashRead, 123);
        let err = cross_validate(&tampered, &r.phases).unwrap_err();
        assert!(err.contains("flash_read"), "{err}");
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn missing_trace_events_key_is_an_error() {
        let doc = astriflash_trace::json::parse("{}").unwrap();
        assert!(reconstruct_json(&doc).is_err());
    }
}
