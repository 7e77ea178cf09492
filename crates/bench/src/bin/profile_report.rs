//! Per-system host-profile report (DESIGN.md §16).
//!
//! Runs one closed-loop fig9 cell per configuration class with a
//! host-side scope-profiling session attached and writes, per system,
//! into `target/harness-out/` ([`astriflash_bench::OUT_DIR`]):
//!
//! * `profile_<system>.txt` — the measured scope tree
//!   (calls, inclusive/exclusive time and shares, allocation counters)
//!   plus the per-access memory-path summary;
//! * `profile_<system>.folded` — folded stacks
//!   (`path;to;scope <exclusive_ns>`), ready for
//!   `flamegraph.pl` / `inferno-flamegraph`;
//! * `profile_<system>.perfetto.json` — the scope tree as a
//!   Perfetto `trace_event` flame layout.
//!
//! It then re-runs the AstriFlash cell with the simulation tracer *and*
//! the profiler attached and writes `profile_trace.json`: the
//! simulation's own Perfetto trace with the host-profile tracks merged
//! alongside (one timeline, two processes). Every JSON artifact is
//! checked in-process (`astriflash_trace::json::check`) before the
//! process exits 0.
//!
//! ```text
//! cargo run --release -p astriflash-bench --bin profile_report -- --quick
//! ```
//!
//! Unlike `regen`, `trace_run` and `telemetry_report`, this binary owns
//! the process-wide profiling session directly (it must interleave
//! sessions per system), so it deliberately does **not** honor
//! `ASTRIFLASH_PROFILE`. The outputs
//! are wall-clock measurements — regenerable, never byte-stable, and
//! therefore not committed.

use std::process::ExitCode;

use astriflash_bench::profile::{flame_objects, profile_cell, MeasuredProfile};

/// Attribute heap allocations to the innermost active scope: the
/// counting allocator is installed in this binary (not in `regen`) so
/// the `allocs`/`alloc(bytes)` columns of the written
/// trees are live measurements, not zeros.
#[global_allocator]
static ALLOC: astriflash_prof::CountingAlloc = astriflash_prof::CountingAlloc;
use astriflash_bench::{write_file, HarnessOpts, OUT_DIR};
use astriflash_core::config::Configuration;
use astriflash_core::sweep::Cell;
use astriflash_prof::Scope;
use astriflash_trace::{export, json, Tracer};

/// `pid` for the host-profile tracks in the merged trace (the
/// simulation exporter owns `pid` 1).
const PROF_PID: u32 = 2;

/// The per-access memory-path summary line: how much of the run the
/// interpreter's access path costs, per simulated access. Every access
/// goes through `access_run`, whose inclusive time holds the TLB-miss
/// path (`do_access`) it calls.
fn memory_path_line(m: &MeasuredProfile) -> String {
    let path_ns = m.profile.totals(Scope::AccessRun).incl_ns as f64;
    let accesses = m.run.metrics.count("tlb_accesses").unwrap_or(0);
    let share = if m.wall_ns > 0.0 {
        path_ns / m.wall_ns * 100.0
    } else {
        0.0
    };
    let per_access = if accesses > 0 {
        path_ns / accesses as f64
    } else {
        0.0
    };
    format!(
        "memory path (access_run incl): {:.1} ms = {share:.1} % of run, \
         {per_access:.1} ns/access over {accesses} accesses",
        path_ns / 1e6
    )
}

/// Writes `contents` to `name` under [`OUT_DIR`].
fn write(name: &str, contents: &str) -> Result<(), ExitCode> {
    let path = std::path::Path::new(OUT_DIR).join(name);
    write_file(&path, contents).map_err(|e| {
        eprintln!("error: writing {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    println!("wrote {} ({} bytes)", path.display(), contents.len());
    Ok(())
}

fn run() -> Result<(), ExitCode> {
    let opts = HarnessOpts::from_args();
    let systems: [(&str, &str, Configuration); 3] = [
        ("astriflash", "AstriFlash", Configuration::AstriFlash),
        ("os_swap", "OS-Swap", Configuration::OsSwap),
        ("flash_sync", "Flash-Sync", Configuration::FlashSync),
    ];

    for &(slug, name, configuration) in &systems {
        let m = profile_cell(opts.system_config(), configuration, opts.jobs_per_core());
        if m.profile.is_empty() {
            eprintln!("error: {name} run produced an empty profile");
            return Err(ExitCode::FAILURE);
        }

        let mut txt = String::new();
        txt.push_str(&format!(
            "host profile: fig9 {name} closed loop ({} mode)\n\
             wall {:.3} s, {} events, {} jobs\n\n",
            if opts.quick { "quick" } else { "full" },
            m.wall_ns / 1e9,
            m.run.events_processed,
            m.run.jobs_completed,
        ));
        txt.push_str(&m.profile.render_tree());
        txt.push('\n');
        txt.push_str(&memory_path_line(&m));
        txt.push('\n');
        write(&format!("profile_{slug}.txt"), &txt)?;

        write(&format!("profile_{slug}.folded"), &m.profile.folded())?;

        let flame = flame_objects(&m.profile, PROF_PID, &format!("astriflash-prof: {name}"));
        let perfetto = export::perfetto_json(&[], 0, &flame);
        if let Err(e) = json::check(&perfetto) {
            eprintln!("error: profile_{slug}.perfetto.json failed validation: {e}");
            return Err(ExitCode::FAILURE);
        }
        write(&format!("profile_{slug}.perfetto.json"), &perfetto)?;

        println!("{name}: {}", memory_path_line(&m));
    }

    // Merged timeline: the AstriFlash cell once more with the
    // simulation tracer and the profiler both attached — sim spans as
    // pid 1, host-profile flame as pid 2, one loadable document.
    let cell = Cell::closed(
        opts.system_config(),
        Configuration::AstriFlash,
        opts.seed,
        opts.jobs_per_core(),
    );
    let tracer = Tracer::ring(1 << 20);
    let session = astriflash_prof::begin();
    let _report = cell.run_traced(tracer.clone());
    let profile = session.finish();
    let dropped = tracer.dropped();
    let events = tracer.finish();
    let flame = flame_objects(&profile, PROF_PID, "astriflash-host-prof");
    let merged = export::perfetto_json(&events, dropped, &flame);
    if let Err(e) = json::check(&merged) {
        eprintln!("error: profile_trace.json failed validation: {e}");
        return Err(ExitCode::FAILURE);
    }
    write("profile_trace.json", &merged)?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
