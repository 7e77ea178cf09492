//! Property tests for the windowed-telemetry layer (DESIGN.md §13):
//! window-boundary assignment and agreement with a scalar reference
//! implementation, including empty-window handling.

use astriflash_stats::{window_index, PhaseHist, WindowSeries, WindowedHist};
use astriflash_testkit::prop_check;

/// A generated (timestamp, value) observation. Timestamps are biased to
/// cluster around window boundaries, since boundary assignment is the
/// property under test.
fn gen_obs(g: &mut astriflash_testkit::TestRng, window_ns: u64, max_windows: u64) -> (u64, u64) {
    let horizon = window_ns * max_windows;
    let t = match g.u32_in(0..10) {
        // Exactly on a window boundary.
        0..=2 => g.u64_in(0..max_windows) * window_ns,
        // One tick either side of a boundary.
        3 => (g.u64_in(1..max_windows) * window_ns).saturating_sub(1),
        4 => g.u64_in(0..max_windows) * window_ns + 1,
        _ => g.u64_in(0..horizon),
    };
    let v = match g.u32_in(0..8) {
        0 => 0,
        1..=5 => g.u64_in(100..5_000_000),
        _ => g.any_u64(),
    };
    (t, v)
}

/// Scalar reference: assign each observation to `t / window_ns` with
/// plain integer division and collect per-window value lists.
fn reference_windows(obs: &[(u64, u64)], window_ns: u64) -> Vec<Vec<u64>> {
    let mut wins: Vec<Vec<u64>> = Vec::new();
    for &(t, v) in obs {
        let w = (t / window_ns) as usize;
        if w >= wins.len() {
            wins.resize(w + 1, Vec::new());
        }
        wins[w].push(v);
    }
    wins
}

#[test]
fn boundary_events_open_the_next_window() {
    prop_check!(cases: 64, |g| {
        let window_ns = g.u64_in(1..100_000);
        let k = g.u64_in(0..1_000);
        let boundary = k * window_ns;
        // An event exactly on a boundary belongs to the window that
        // starts there...
        assert_eq!(window_index(boundary, window_ns), k as usize);
        // ...and the last tick before it belongs to the previous one.
        if boundary > 0 {
            assert_eq!(window_index(boundary - 1, window_ns), (k - 1) as usize);
        }
    });
}

#[test]
fn windowed_hist_matches_scalar_reference() {
    prop_check!(cases: 48, |g| {
        let window_ns = g.u64_in(10..10_000);
        let obs: Vec<(u64, u64)> = {
            let n = g.usize_in(0..150);
            (0..n).map(|_| gen_obs(g, window_ns, 64)).collect()
        };
        let mut h = WindowedHist::new(window_ns);
        for &(t, v) in &obs {
            h.record(t, v);
        }
        let reference = reference_windows(&obs, window_ns);
        assert_eq!(h.num_windows(), reference.len());
        for (w, vals) in reference.iter().enumerate() {
            assert_eq!(h.count(w), vals.len() as u64, "window {w}");
            if vals.is_empty() {
                // Empty windows store nothing and read zero quantiles.
                assert!(h.hist(w).is_none(), "window {w} should be empty");
                assert_eq!(h.quantile(w, 0.99), 0);
            } else {
                // A per-window histogram must equal one fed the same
                // values directly.
                let mut direct = PhaseHist::new();
                for &v in vals {
                    direct.record(v);
                }
                assert_eq!(h.hist(w), Some(&direct), "window {w}");
            }
        }
    });
}

#[test]
fn window_series_matches_scalar_reference() {
    prop_check!(cases: 48, |g| {
        let window_ns = g.u64_in(10..10_000);
        let obs: Vec<(u64, u64)> = {
            let n = g.usize_in(0..150);
            (0..n)
                .map(|_| {
                    let (t, _) = gen_obs(g, window_ns, 64);
                    (t, g.u64_in(0..1_000))
                })
                .collect()
        };
        let mut s = WindowSeries::new(window_ns);
        let mut peak = WindowSeries::new(window_ns);
        for &(t, d) in &obs {
            s.add(t, d);
            peak.record_max(t, d);
        }
        let reference = reference_windows(&obs, window_ns);
        assert_eq!(s.num_windows(), reference.len());
        assert_eq!(peak.num_windows(), reference.len());
        for (w, vals) in reference.iter().enumerate() {
            assert_eq!(s.get(w), vals.iter().sum::<u64>(), "window {w}");
            let max = vals.iter().copied().max().unwrap_or(0);
            assert_eq!(peak.get(w), max, "peak window {w}");
        }
        assert_eq!(s.total(), obs.iter().map(|&(_, d)| d).sum::<u64>());
    });
}

#[test]
fn add_span_conserves_nanoseconds() {
    prop_check!(cases: 64, |g| {
        let window_ns = g.u64_in(10..10_000);
        let mut s = WindowSeries::new(window_ns);
        let mut expected = 0u64;
        for _ in 0..g.usize_in(0..30) {
            let start = g.u64_in(0..window_ns * 50);
            let len = g.u64_in(0..window_ns * 5);
            s.add_span(start, start + len);
            expected += len;
            // No window can hold more than its own length.
            for w in 0..s.num_windows() {
                assert!(s.get(w) <= window_ns * 30, "window {w} overfull");
            }
        }
        assert_eq!(s.total(), expected, "span splitting must conserve time");
        assert_eq!(s.dropped(), 0);
    });
}
