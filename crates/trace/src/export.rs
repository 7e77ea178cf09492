//! Exporters: Chrome/Perfetto `trace_event` JSON and gauge CSV.
//!
//! Both outputs are pure functions of the event list, which is itself a
//! pure function of the simulation inputs — so exported artifacts are
//! byte-identical across repeated same-seed runs. Timestamps are emitted
//! with fixed formatting (`ts` in microseconds, three decimals = exact
//! nanoseconds) to keep the bytes stable.

use astriflash_stats::CsvDoc;

use crate::event::{EventKind, Track, TraceEvent};
use crate::json::escape;

/// Renders events as a Perfetto-loadable `trace_event` JSON document
/// (load via <https://ui.perfetto.dev> or `chrome://tracing`).
///
/// Lifecycle spans become async events (`ph` `b`/`n`/`e`, `cat` `miss`)
/// keyed by the span id, so selecting one id shows the whole miss
/// timeline across core, controller, and flash tracks. Slices become
/// complete (`X`) events, gauges become counter (`C`) events.
///
/// `dropped` (from [`crate::Tracer::dropped`]) is emitted as a
/// top-level `"droppedEvents"` key so a sheared trace is detectable from
/// the artifact alone. `extra` holds complete trace-event objects from
/// other producers (the host profiler's flame tracks, under their own
/// `pid`), appended after the simulation's events so both sit in one
/// timeline.
pub fn perfetto_json(events: &[TraceEvent], dropped: u64, extra: &[String]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str(&format!(
        "{{\"displayTimeUnit\":\"ns\",\"droppedEvents\":{dropped},\"traceEvents\":[\n"
    ));
    let mut first = true;
    let mut push = |obj: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(obj);
    };

    // Process and track-name metadata first, for every track that
    // appears; a document of `extra` objects alone names no simulation.
    if !events.is_empty() {
        push(
            "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"astriflash-sim\"}}",
        );
    }
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for tr in tracks {
        push(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            tr.tid(),
            escape(&tr.label())
        ));
    }

    for ev in events {
        let ts = format_ts(ev.t_ns);
        let tid = ev.track.tid();
        let name = escape(ev.name);
        let obj = match ev.kind {
            EventKind::SpanBegin => format!(
                "{{\"ph\":\"b\",\"cat\":\"miss\",\"id\":\"{}\",\"name\":\"{name}\",\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                ev.span, ev.arg
            ),
            EventKind::SpanInstant => format!(
                "{{\"ph\":\"n\",\"cat\":\"miss\",\"id\":\"{}\",\"name\":\"{name}\",\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                ev.span, ev.arg
            ),
            EventKind::SpanEnd => format!(
                "{{\"ph\":\"e\",\"cat\":\"miss\",\"id\":\"{}\",\"name\":\"{name}\",\
                 \"ts\":{ts},\"pid\":1,\"tid\":{tid}}}",
                ev.span
            ),
            EventKind::Slice { dur_ns } => format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"ts\":{ts},\"dur\":{},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{},\"span\":{}}}}}",
                format_ts(dur_ns),
                ev.arg,
                ev.span
            ),
            EventKind::Instant => format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"ts\":{ts},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                ev.arg
            ),
            EventKind::Gauge { lane, value } => format!(
                "{{\"ph\":\"C\",\"name\":\"{name}[{lane}]\",\"ts\":{ts},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{}}}}}",
                format_float(value)
            ),
        };
        push(&obj);
    }
    for obj in extra {
        push(obj);
    }
    out.push_str("\n]}\n");
    out
}

/// Renders all gauge samples as a long-form CSV (`t_ns,gauge,lane,value`):
/// one series per `(name, lane)` in order of first appearance, each
/// series' samples in recording order. When `dropped > 0` a final
/// in-band `trace_dropped_events` row records the ring's loss (lane 0,
/// value = count), so readers of the artifact see it without a side
/// channel.
pub fn gauges_csv(events: &[TraceEvent], dropped: u64) -> CsvDoc {
    let mut series: Vec<(&str, u32)> = Vec::new();
    let mut rows: Vec<(usize, &TraceEvent, u32, f64)> = Vec::new();
    for ev in events {
        if let EventKind::Gauge { lane, value } = ev.kind {
            let key = (ev.name, lane);
            let idx = series.iter().position(|s| *s == key).unwrap_or_else(|| {
                series.push(key);
                series.len() - 1
            });
            rows.push((idx, ev, lane, value));
        }
    }
    // Stable: samples of one series keep their recording order.
    rows.sort_by_key(|&(idx, ..)| idx);
    let mut doc = CsvDoc::new(&["t_ns", "gauge", "lane", "value"]);
    for (_, ev, lane, value) in rows {
        doc.row_owned(vec![
            ev.t_ns.to_string(),
            ev.name.to_string(),
            lane.to_string(),
            format!("{value}"),
        ]);
    }
    if dropped > 0 {
        doc.row_owned(vec![
            "0".to_string(),
            "trace_dropped_events".to_string(),
            "0".to_string(),
            format!("{dropped}"),
        ]);
    }
    doc
}

/// `ts` in microseconds with exactly three decimals (= whole
/// nanoseconds), so formatting is bit-stable.
pub fn format_ts(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

/// Gauge values with shortest-roundtrip float formatting (deterministic
/// in Rust); non-finite values become null-safe strings.
fn format_float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::tracer::Tracer;

    fn sample_events() -> Vec<TraceEvent> {
        let t = Tracer::ring(64);
        let span = t.begin_span(1_000, Track::Core(0), "miss", 42);
        t.span_instant(1_010, Track::Bc, "bc_admit", 42);
        t.slice(1_020, 50_000, Track::FlashChannel(1), "flash_read", 42);
        t.gauge(2_000, "msr_occupancy", 0, 3.0);
        t.gauge(3_000, "msr_occupancy", 0, 5.0);
        t.gauge(3_000, "runq_len", 2, 1.0);
        t.end_span(60_000, Track::Core(0), "miss", span);
        t.finish()
    }

    #[test]
    fn perfetto_json_is_valid_and_carries_all_phases() {
        let json = perfetto_json(&sample_events(), 0, &[]);
        parse(&json).expect("exporter must emit parseable JSON");
        for needle in [
            "\"ph\":\"b\"",
            "\"ph\":\"n\"",
            "\"ph\":\"e\"",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"cat\":\"miss\"",
            "flash-ch1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn export_is_deterministic() {
        let a = perfetto_json(&sample_events(), 0, &[]);
        let b = perfetto_json(&sample_events(), 0, &[]);
        assert_eq!(a, b);
        assert_eq!(
            gauges_csv(&sample_events(), 0).render(),
            gauges_csv(&sample_events(), 0).render()
        );
    }

    /// The exact bytes of both exporters on [`sample_events`], pinned so
    /// a change to either writer shows up as a diff, not only as a
    /// change of the committed artifacts.
    #[test]
    fn exporters_match_pinned_bytes() {
        let events = sample_events();
        let body = "\"traceEvents\":[\n\
{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"astriflash-sim\"}},\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":100,\"name\":\"thread_name\",\"args\":{\"name\":\"core0\"}},\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":10,\"name\":\"thread_name\",\"args\":{\"name\":\"backside-controller\"}},\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":301,\"name\":\"thread_name\",\"args\":{\"name\":\"flash-ch1\"}},\n\
{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"gauges\"}},\n\
{\"ph\":\"b\",\"cat\":\"miss\",\"id\":\"1\",\"name\":\"miss\",\"ts\":1.000,\"pid\":1,\"tid\":100,\"args\":{\"arg\":42}},\n\
{\"ph\":\"n\",\"cat\":\"miss\",\"id\":\"1\",\"name\":\"bc_admit\",\"ts\":1.010,\"pid\":1,\"tid\":10,\"args\":{\"arg\":42}},\n\
{\"ph\":\"X\",\"name\":\"flash_read\",\"ts\":1.020,\"dur\":50.000,\"pid\":1,\"tid\":301,\"args\":{\"arg\":42,\"span\":1}},\n\
{\"ph\":\"C\",\"name\":\"msr_occupancy[0]\",\"ts\":2.000,\"pid\":1,\"tid\":1,\"args\":{\"value\":3}},\n\
{\"ph\":\"C\",\"name\":\"msr_occupancy[0]\",\"ts\":3.000,\"pid\":1,\"tid\":1,\"args\":{\"value\":5}},\n\
{\"ph\":\"C\",\"name\":\"runq_len[2]\",\"ts\":3.000,\"pid\":1,\"tid\":1,\"args\":{\"value\":1}},\n\
{\"ph\":\"e\",\"cat\":\"miss\",\"id\":\"1\",\"name\":\"miss\",\"ts\":60.000,\"pid\":1,\"tid\":100}\n\
]}\n";
        assert_eq!(
            perfetto_json(&events, 0, &[]),
            format!("{{\"displayTimeUnit\":\"ns\",\"droppedEvents\":0,{body}")
        );
        assert_eq!(
            perfetto_json(&events, 17, &[]),
            format!("{{\"displayTimeUnit\":\"ns\",\"droppedEvents\":17,{body}")
        );
        let csv = "t_ns,gauge,lane,value\n\
                   2000,msr_occupancy,0,3\n\
                   3000,msr_occupancy,0,5\n\
                   3000,runq_len,2,1\n";
        assert_eq!(gauges_csv(&events, 0).render(), csv);
        assert_eq!(
            gauges_csv(&events, 17).render(),
            format!("{csv}0,trace_dropped_events,0,17\n")
        );
    }

    #[test]
    fn gauge_rows_group_by_series_in_first_appearance_order() {
        let t = Tracer::ring(64);
        t.gauge(1, "a", 0, 1.0);
        t.gauge(2, "b", 0, 2.0);
        t.gauge(3, "a", 0, 3.0);
        t.instant(3, Track::Bc, "x", 0);
        t.gauge(4, "a", 1, 4.0);
        t.gauge(5, "b", 0, 5.5);
        assert_eq!(
            gauges_csv(&t.finish(), 0).render(),
            "t_ns,gauge,lane,value\n1,a,0,1\n3,a,0,3\n2,b,0,2\n5,b,0,5.5\n4,a,1,4\n"
        );
    }

    #[test]
    fn ts_is_exact_nanoseconds() {
        assert_eq!(format_ts(0), "0.000");
        assert_eq!(format_ts(1), "0.001");
        assert_eq!(format_ts(1_234_567), "1234.567");
    }

    #[test]
    fn empty_event_list_still_exports_valid_json() {
        let json = perfetto_json(&[], 0, &[]);
        parse(&json).unwrap();
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn extra_objects_splice_into_the_event_array() {
        let extra = vec![
            "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"host-prof\"}}"
                .to_string(),
            "{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"name\":\"event_loop\",\"ts\":0.000,\"dur\":5.000}"
                .to_string(),
        ];
        for events in [sample_events(), Vec::new()] {
            let json = perfetto_json(&events, 3, &extra);
            parse(&json).expect("merged export must stay valid JSON");
            assert!(json.contains("host-prof"), "{json}");
            assert!(json.contains("\"droppedEvents\":3"), "{json}");
        }
    }

    #[test]
    fn dropped_counts_surface_in_both_exporters() {
        let events = sample_events();
        let json = perfetto_json(&events, 17, &[]);
        parse(&json).unwrap();
        assert!(json.contains("\"droppedEvents\":17"), "{json}");
        assert!(perfetto_json(&events, 0, &[]).contains("\"droppedEvents\":0"));

        let csv = gauges_csv(&events, 17).render();
        assert!(csv.ends_with("0,trace_dropped_events,0,17\n"), "{csv}");
        // Zero drops add no row.
        assert!(!gauges_csv(&events, 0)
            .render()
            .contains("trace_dropped_events"));
    }
}
