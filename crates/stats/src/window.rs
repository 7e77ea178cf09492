//! Fixed-window time-resolved telemetry primitives.
//!
//! End-of-run aggregates (histograms, rates) cannot show *when* a run
//! warmed up, when GC pressure spiked, or how long an SLO violation
//! lasted. The windowed layer answers those questions: simulated time is
//! cut into fixed windows of `window_ns`, and every observation lands in
//! the window containing its timestamp.
//!
//! * [`WindowedHist`] — one [`PhaseHist`] (log-linear, 32 sub-buckets
//!   per octave) per *non-empty* window: full per-window percentiles at
//!   a bounded memory cost. Empty windows store nothing.
//! * [`WindowSeries`] — one `u64` accumulator per window: counters
//!   (completions, GC erases) and duration accumulation
//!   ([`WindowSeries::add_span`] splits a busy interval across the
//!   windows it overlaps, so utilization never exceeds 1).
//!
//! Window assignment is `t_ns / window_ns` (integer floor): an event
//! exactly on a boundary belongs to the window that *starts* there.
//! Observations past the [`DEFAULT_MAX_WINDOWS`] cap are counted in
//! [`WindowedHist::dropped`] / [`WindowSeries::dropped`] rather than
//! silently discarded — consumers treat a non-zero drop count as a
//! hard error (the telemetry CI smoke does).
//!
//! # Example
//!
//! ```
//! use astriflash_stats::WindowedHist;
//!
//! let mut h = WindowedHist::new(1_000);
//! h.record(10, 500);      // window 0
//! h.record(1_000, 700);   // exactly on the boundary -> window 1
//! h.record(2_500, 900);   // window 2
//! assert_eq!(h.num_windows(), 3);
//! assert_eq!(h.count(1), 1);
//! assert_eq!(h.quantile(1, 0.99), 700);
//! ```

use crate::phase::PhaseHist;

/// Default cap on the number of windows one series can hold. At the
/// default cap a fully dense [`WindowedHist`] costs ~60 MiB; real runs
/// stay far below it (a 200 ms run at 1 ms windows is 200 windows).
pub const DEFAULT_MAX_WINDOWS: usize = 4096;

/// The window containing `t_ns` for the given window size. Floor
/// division: a timestamp exactly on a boundary opens the next window.
///
/// # Panics
///
/// Panics if `window_ns` is zero.
pub fn window_index(t_ns: u64, window_ns: u64) -> usize {
    assert!(window_ns > 0, "window size must be positive");
    (t_ns / window_ns) as usize
}

/// A per-window log-linear latency histogram (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedHist {
    window_ns: u64,
    /// `None` = window never received a sample (distinct from a window
    /// of zero-valued samples).
    wins: Vec<Option<Box<PhaseHist>>>,
    max_windows: usize,
    dropped: u64,
}

impl WindowedHist {
    /// Creates an empty windowed histogram with the default window cap.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        Self::with_max_windows(window_ns, DEFAULT_MAX_WINDOWS)
    }

    /// Creates an empty windowed histogram with an explicit window cap.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero or `max_windows` is zero.
    pub(crate) fn with_max_windows(window_ns: u64, max_windows: usize) -> Self {
        assert!(window_ns > 0, "window size must be positive");
        assert!(max_windows > 0, "need at least one window");
        WindowedHist {
            window_ns,
            wins: Vec::new(),
            max_windows,
            dropped: 0,
        }
    }

    /// The window size in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of windows touched so far (highest touched index + 1).
    pub fn num_windows(&self) -> usize {
        self.wins.len()
    }

    /// Observations rejected because they fell past the window cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records `value` at simulated time `t_ns`.
    pub fn record(&mut self, t_ns: u64, value: u64) {
        let w = window_index(t_ns, self.window_ns);
        if w >= self.max_windows {
            self.dropped += 1;
            return;
        }
        if w >= self.wins.len() {
            self.wins.resize_with(w + 1, || None);
        }
        self.wins[w]
            .get_or_insert_with(|| Box::new(PhaseHist::new()))
            .record(value);
    }

    /// The histogram for window `w`, if it received any samples.
    pub fn hist(&self, w: usize) -> Option<&PhaseHist> {
        self.wins.get(w).and_then(Option::as_deref)
    }

    /// Sample count in window `w` (0 for empty or out-of-range windows).
    pub fn count(&self, w: usize) -> u64 {
        self.hist(w).map_or(0, PhaseHist::count)
    }

    /// Value at quantile `q` in window `w` (0 for empty windows, the
    /// [`PhaseHist::value_at_quantile`] convention).
    pub fn quantile(&self, w: usize, q: f64) -> u64 {
        self.hist(w).map_or(0, |h| h.value_at_quantile(q))
    }

    /// The quantile-`q` series over all touched windows (empty windows
    /// read 0).
    pub fn quantile_series(&self, q: f64) -> Vec<u64> {
        (0..self.num_windows())
            .map(|w| self.quantile(w, q))
            .collect()
    }

    /// Bucket-wise merge of the windows in `range` into one histogram
    /// (out-of-range and empty windows contribute nothing) — e.g. the
    /// final-quartile reference for time-to-steady.
    pub fn merged_hist(&self, range: std::ops::Range<usize>) -> PhaseHist {
        let mut out = PhaseHist::new();
        for w in range {
            if let Some(h) = self.hist(w) {
                out.merge(h);
            }
        }
        out
    }
}

/// A per-window `u64` accumulator (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSeries {
    window_ns: u64,
    vals: Vec<u64>,
    max_windows: usize,
    dropped: u64,
}

impl WindowSeries {
    /// Creates an empty series with the default window cap.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        Self::with_max_windows(window_ns, DEFAULT_MAX_WINDOWS)
    }

    /// Creates an empty series with an explicit window cap.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero or `max_windows` is zero.
    pub(crate) fn with_max_windows(window_ns: u64, max_windows: usize) -> Self {
        assert!(window_ns > 0, "window size must be positive");
        assert!(max_windows > 0, "need at least one window");
        WindowSeries {
            window_ns,
            vals: Vec::new(),
            max_windows,
            dropped: 0,
        }
    }

    /// The window size in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Number of windows touched so far (highest touched index + 1).
    pub fn num_windows(&self) -> usize {
        self.vals.len()
    }

    /// Additions rejected because they fell past the window cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds `delta` to the window containing `t_ns`.
    pub fn add(&mut self, t_ns: u64, delta: u64) {
        let w = window_index(t_ns, self.window_ns);
        if w >= self.max_windows {
            self.dropped += 1;
            return;
        }
        if w >= self.vals.len() {
            self.vals.resize(w + 1, 0);
        }
        self.vals[w] += delta;
    }

    /// Distributes the half-open busy interval `[start_ns, end_ns)`
    /// across the windows it overlaps, nanosecond-exactly — the busy-time
    /// primitive behind per-channel utilization (which therefore never
    /// exceeds 1 per window). Empty or inverted intervals are no-ops; the
    /// portion past the window cap is counted as one drop.
    pub fn add_span(&mut self, start_ns: u64, end_ns: u64) {
        if end_ns <= start_ns {
            return;
        }
        let mut t = start_ns;
        while t < end_ns {
            let w = window_index(t, self.window_ns);
            if w >= self.max_windows {
                self.dropped += 1;
                return;
            }
            let window_end = (w as u64 + 1) * self.window_ns;
            let upto = window_end.min(end_ns);
            self.add(t, upto - t);
            t = upto;
        }
    }

    /// The accumulated value in window `w` (0 when untouched).
    pub fn get(&self, w: usize) -> u64 {
        self.vals.get(w).copied().unwrap_or(0)
    }

    /// Sum over all windows.
    pub fn total(&self) -> u64 {
        self.vals.iter().sum()
    }

    /// The per-window values (length = [`WindowSeries::num_windows`]).
    pub fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Records `value` as a per-window maximum, for peak-style gauges
    /// (per-window MSR occupancy high-water mark).
    pub fn record_max(&mut self, t_ns: u64, value: u64) {
        let w = window_index(t_ns, self.window_ns);
        if w >= self.max_windows {
            self.dropped += 1;
            return;
        }
        if w >= self.vals.len() {
            self.vals.resize(w + 1, 0);
        }
        self.vals[w] = self.vals[w].max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_goes_to_the_opening_window() {
        assert_eq!(window_index(0, 100), 0);
        assert_eq!(window_index(99, 100), 0);
        assert_eq!(window_index(100, 100), 1);
        assert_eq!(window_index(200, 100), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        window_index(5, 0);
    }

    #[test]
    fn hist_records_and_reports_per_window() {
        let mut h = WindowedHist::new(1_000);
        for i in 0..10u64 {
            h.record(500, 100 + i); // window 0
        }
        h.record(2_100, 9_999); // window 2; window 1 stays empty
        assert_eq!(h.num_windows(), 3);
        assert_eq!(h.count(0), 10);
        assert_eq!(h.count(1), 0);
        assert!(h.hist(1).is_none());
        assert_eq!(h.quantile(1, 0.99), 0);
        assert_eq!(h.count(2), 1);
        let p99 = h.quantile_series(0.99);
        assert_eq!(p99.len(), 3);
        assert_eq!(p99[1], 0);
        assert_eq!(p99[2], 9_999);
    }

    #[test]
    fn hist_cap_counts_drops() {
        let mut h = WindowedHist::with_max_windows(10, 4);
        h.record(39, 1); // window 3: last valid
        h.record(40, 1); // window 4: dropped
        assert_eq!(h.dropped(), 1);
        assert_eq!(h.num_windows(), 4);
    }

    #[test]
    fn merged_hist_covers_the_range() {
        let mut h = WindowedHist::new(100);
        h.record(10, 1_000);
        h.record(110, 2_000);
        h.record(210, 3_000);
        let tail = h.merged_hist(1..3);
        assert_eq!(tail.count(), 2);
        assert_eq!(tail.min(), 2_000);
        let all = h.merged_hist(0..h.num_windows());
        assert_eq!(all.count(), 3);
        assert_eq!(h.merged_hist(7..9).count(), 0);
    }

    #[test]
    fn series_add_and_total() {
        let mut s = WindowSeries::new(1_000);
        s.add(0, 2);
        s.add(999, 3);
        s.add(1_000, 5);
        assert_eq!(s.get(0), 5);
        assert_eq!(s.get(1), 5);
        assert_eq!(s.get(9), 0);
        assert_eq!(s.total(), 10);
        assert_eq!(s.values(), &[5, 5]);
    }

    #[test]
    fn add_span_splits_exactly() {
        let mut s = WindowSeries::new(100);
        // [50, 260): 50 ns in w0, 100 in w1, 60 in w2.
        s.add_span(50, 260);
        assert_eq!(s.values(), &[50, 100, 60]);
        assert_eq!(s.total(), 210);
        // Degenerate intervals are no-ops.
        s.add_span(40, 40);
        s.add_span(50, 10);
        assert_eq!(s.total(), 210);
        // Exactly filling one window.
        let mut t = WindowSeries::new(100);
        t.add_span(100, 200);
        assert_eq!(t.values(), &[0, 100]);
    }

    #[test]
    fn record_max_keeps_the_high_water_mark() {
        let mut s = WindowSeries::new(10);
        s.record_max(1, 5);
        s.record_max(2, 3);
        s.record_max(3, 9);
        assert_eq!(s.get(0), 9);
    }

    #[test]
    fn series_cap_counts_drops() {
        let mut s = WindowSeries::with_max_windows(10, 2);
        s.add(15, 1);
        s.add(20, 1); // window 2: dropped
        s.add_span(5, 35); // w0 + w1 recorded, remainder dropped once
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.values(), &[5, 11]);
    }
}
