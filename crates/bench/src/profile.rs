//! Measured host profile of one figure cell and its Perfetto flame
//! layout (DESIGN.md §16), for `profile_report`.

use std::time::Instant;

use astriflash_core::config::{Configuration, SystemConfig};
use astriflash_core::experiment::RunReport;
use astriflash_core::sweep::Cell;
use astriflash_prof::Report;
use astriflash_trace::export::format_ts;
use astriflash_trace::json::escape;

/// One profiled figure-cell run: its wall clock, the simulation's own
/// report, and the measured scope tree.
pub struct MeasuredProfile {
    /// Host wall-clock nanoseconds of the event loop (setup excluded).
    pub wall_ns: f64,
    /// The run's `RunReport`.
    pub run: RunReport,
    /// The measured scope tree.
    pub profile: Report,
}

/// Runs one closed-loop cell with a profiling session attached around
/// the event loop only: `Cell::prepare` (construction + DRAM prewarm)
/// stays outside both the clock and the session.
///
/// Takes the process-wide profiling session for the duration — callers
/// must not already hold one (e.g. via `astriflash_prof::env_session`).
pub fn profile_cell(
    sys: SystemConfig,
    configuration: Configuration,
    jobs_per_core: u64,
) -> MeasuredProfile {
    let cell = Cell::closed(sys, configuration, 1, jobs_per_core);
    let prepared = cell.prepare();
    let session = astriflash_prof::begin();
    let start = Instant::now();
    let run = prepared.run();
    let wall_ns = start.elapsed().as_nanos() as f64;
    let profile = session.finish();
    MeasuredProfile {
        wall_ns,
        run,
        profile,
    }
}

/// Perfetto trace-event objects (one JSON object per string) laying
/// `profile`'s merged scope tree out as a synthetic flame chart under
/// `pid`: each node spans its inclusive time, children packed one after
/// another from the parent's start. Process and thread metadata lead,
/// so the objects form a document of their own or join a simulation
/// trace as the `extra` of [`astriflash_trace::export::perfetto_json`].
pub fn flame_objects(profile: &Report, pid: u32, process_name: &str) -> Vec<String> {
    let tid = 1u32;
    let mut objs = vec![
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ),
        format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"host scopes (synthetic flame)\"}}}}"
        ),
    ];
    let nodes = &profile.nodes;
    // starts[i]: synthetic start of node i; filled[i]: how much of node
    // i's span its children already cover.
    let mut starts = vec![0u64; nodes.len()];
    let mut filled = vec![0u64; nodes.len()];
    for (i, n) in nodes.iter().enumerate().skip(1) {
        let p = n.parent;
        starts[i] = starts[p] + filled[p];
        filled[p] += n.incl_ns;
        objs.push(format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"args\":{{\"calls\":{},\"excl_ns\":{},\
             \"alloc_calls\":{},\"alloc_bytes\":{}}}}}",
            format_ts(starts[i]),
            format_ts(n.incl_ns),
            escape(n.name()),
            n.calls,
            n.excl_ns,
            n.alloc_calls,
            n.alloc_bytes,
        ));
    }
    objs
}

#[cfg(test)]
mod tests {
    use super::*;
    use astriflash_analyze::parse_ts_us;
    use astriflash_prof::{begin, scope, Scope};
    use astriflash_trace::{export, json};

    fn sample_report() -> Report {
        let session = begin();
        {
            let _l = scope(Scope::EventLoop);
            {
                let _r = scope(Scope::EvResume);
                let _a = scope(Scope::DoAccess);
            }
            let _p = scope(Scope::EvPageArrived);
        }
        session.finish()
    }

    #[test]
    fn flame_document_parses() {
        let objs = flame_objects(&sample_report(), 2, "astriflash host \"profile\"");
        let doc = json::parse(&export::perfetto_json(&[], 0, &objs))
            .unwrap_or_else(|e| panic!("invalid profile JSON: {e}"));
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), objs.len());
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(json::Value::as_str),
            Some("astriflash host \"profile\"")
        );
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(json::Value::as_str) == Some("do_access")));
    }

    #[test]
    fn flame_children_nest_inside_parent_spans() {
        let report = sample_report();
        let objs = flame_objects(&report, 2, "p");
        // Node i of the report is object i + 1 (two metadata objects
        // lead, the root has none).
        let span = |i: usize| {
            let o = json::parse(&objs[i + 1]).unwrap();
            let ns = |k: &str| parse_ts_us(o.get(k).and_then(json::Value::as_num).unwrap());
            let start = ns("ts").unwrap();
            (start, start + ns("dur").unwrap())
        };
        for (i, n) in report.nodes.iter().enumerate().skip(1) {
            let (start, end) = span(i);
            assert_eq!(end - start, n.incl_ns);
            if n.parent != 0 {
                let (p_start, p_end) = span(n.parent);
                assert!(
                    p_start <= start && end <= p_end,
                    "{} [{start}, {end}] escapes its parent [{p_start}, {p_end}]",
                    n.name()
                );
            }
        }
    }
}
