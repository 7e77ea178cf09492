//! The backside controller (BC, §IV-B2): accepts miss requests from the
//! frontside controller, deduplicates them against the Miss Status Row,
//! secures space in the target set (evict buffer + dirty writeback), and
//! issues page reads to flash.
//!
//! BC is programmable logic and slower than the FSM-based FC: the paper
//! models three cycles each for issuing DRAM commands and flash requests
//! (§V-A); we charge those as fixed nanosecond costs.

use astriflash_sim::{SimDuration, SimTime};
use astriflash_stats::WindowSeries;
use astriflash_trace::{Track, Tracer};

pub use crate::msr::Waiter;
use crate::dram_cache::DramCache;
use crate::msr::{MissStatusRow, MsrAdmission};

/// Result of offering a miss to the backside controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcAdmission {
    /// A read for the page is already in flight; no flash request needed.
    Duplicate {
        /// When BC finished the MSR lookup and resolved the miss as a
        /// duplicate — the point the requester starts waiting on the
        /// in-flight read (latency attribution).
        resolved_at: SimTime,
    },
    /// The miss was accepted; issue a flash read completing the request.
    ///
    /// Victim selection and the evict-buffer copy happen while the flash
    /// read is in flight (§IV-B2); the dirty-writeback decision is
    /// reported by [`BacksideController::complete`].
    IssueFlashRead {
        /// When BC finished processing and the flash request leaves the
        /// controller (add the flash device's latency after this).
        issue_at: SimTime,
    },
    /// The MSR set is full: FC must stall this request until a pending
    /// miss to the same set completes.
    Stalled,
}

/// Backside-controller statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BcStats {
    /// Misses admitted (flash reads issued).
    pub issued: u64,
    /// Misses deduplicated against in-flight reads.
    pub duplicates: u64,
    /// Admissions stalled on a full MSR set.
    pub stalls: u64,
    /// Dirty victims written back to flash.
    pub writebacks: u64,
    /// Pages installed.
    pub installs: u64,
}

/// Per-window MSR-occupancy telemetry (DESIGN.md §13). Occupancy is
/// sampled after every admission and completion (the same points the
/// tracer gauges), as a per-window sum + sample count (mean) and a
/// per-window peak. Attached via
/// [`BacksideController::enable_windows`]; recording never affects
/// admission decisions or timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsrWindows {
    /// Sum of sampled occupancies per window.
    pub occ_sum: WindowSeries,
    /// Number of occupancy samples per window.
    pub occ_samples: WindowSeries,
    /// Peak sampled occupancy per window.
    pub occ_peak: WindowSeries,
}

impl MsrWindows {
    fn new(window_ns: u64) -> Self {
        let mk = || WindowSeries::new(window_ns);
        MsrWindows {
            occ_sum: mk(),
            occ_samples: mk(),
            occ_peak: mk(),
        }
    }

    fn record(&mut self, t_ns: u64, occupancy: usize) {
        self.occ_sum.add(t_ns, occupancy as u64);
        self.occ_samples.add(t_ns, 1);
        self.occ_peak.record_max(t_ns, occupancy as u64);
    }

    /// Mean sampled occupancy in window `w` (0 for unsampled windows).
    pub fn mean_occupancy(&self, w: usize) -> f64 {
        let n = self.occ_samples.get(w);
        if n == 0 {
            0.0
        } else {
            self.occ_sum.get(w) as f64 / n as f64
        }
    }

    /// Observations dropped past the window cap, across all series.
    pub fn dropped(&self) -> u64 {
        self.occ_sum.dropped() + self.occ_samples.dropped() + self.occ_peak.dropped()
    }
}

/// The backside controller.
#[derive(Debug)]
pub struct BacksideController {
    msr: MissStatusRow,
    /// Per-operation processing cost (programmable logic, §V-A).
    processing_ns: u64,
    stats: BcStats,
    tracer: Tracer,
    windows: Option<Box<MsrWindows>>,
}

impl BacksideController {
    /// Creates a BC with an MSR of `msr_sets × msr_ways` entries and the
    /// given per-operation processing cost.
    pub fn new(msr_sets: usize, msr_ways: usize, processing_ns: u64) -> Self {
        BacksideController {
            msr: MissStatusRow::new(msr_sets, msr_ways),
            processing_ns,
            stats: BcStats::default(),
            tracer: Tracer::off(),
            windows: None,
        }
    }

    /// Attaches per-window MSR-occupancy telemetry (off by default; pure
    /// bookkeeping, never affects admissions or timing).
    pub fn enable_windows(&mut self, window_ns: u64) {
        self.windows = Some(Box::new(MsrWindows::new(window_ns)));
    }

    /// The window collector, if enabled.
    pub fn windows(&self) -> Option<&MsrWindows> {
        self.windows.as_deref()
    }

    /// Detaches and returns the window collector.
    pub fn take_windows(&mut self) -> Option<MsrWindows> {
        self.windows.take().map(|b| *b)
    }

    /// Installs the observability handle. Admissions and completions emit
    /// on [`Track::Bc`]: an admission is attributed to the composer's
    /// current miss span, an install to the span that issued its read.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Offers a DRAM-cache miss for `page` to the controller.
    ///
    /// On acceptance BC checks the MSR (one CAS-class lookup), allocates
    /// an entry, picks the victim and copies it to the evict buffer, and
    /// hands back the flash-read issue time. A new entry records `fetch`,
    /// the blocks its read fetches (`u64::MAX` for the whole page; fewer
    /// under the §II-A footprint extension), and the current trace span.
    pub fn admit(
        &mut self,
        now: SimTime,
        page: u64,
        fetch: u64,
        waiter: Waiter,
        cache: &mut DramCache,
    ) -> BcAdmission {
        // MSR lookup + BC processing.
        let processed = now + SimDuration::from_ns(self.processing_ns * 2);
        let span = self.tracer.current_span();
        let admission = match self.msr.admit(page, waiter, fetch, span) {
            MsrAdmission::Duplicate => {
                self.stats.duplicates += 1;
                BcAdmission::Duplicate {
                    resolved_at: processed,
                }
            }
            MsrAdmission::Full => {
                self.stats.stalls += 1;
                BcAdmission::Stalled
            }
            MsrAdmission::Inserted => {
                self.stats.issued += 1;
                let _ = cache.peek_victim(page); // victim chosen for the evict buffer
                BcAdmission::IssueFlashRead {
                    issue_at: processed + SimDuration::from_ns(self.processing_ns),
                }
            }
        };
        if let Some(w) = self.windows.as_deref_mut() {
            w.record(processed.as_ns(), self.msr.occupancy());
        }
        if self.tracer.enabled() {
            let name = match admission {
                BcAdmission::Duplicate { .. } => "bc_duplicate",
                BcAdmission::Stalled => "bc_stall",
                BcAdmission::IssueFlashRead { .. } => "bc_admit",
            };
            self.tracer
                .span_instant(processed.as_ns(), Track::Bc, name, page);
            self.tracer.gauge(
                processed.as_ns(),
                "msr_occupancy",
                0,
                self.msr.occupancy() as f64,
            );
        }
        admission
    }

    /// Called when flash delivers `page`: clears the MSR entry, appends
    /// the waiters to notify to `out`, a caller-owned scratch buffer, so
    /// a completion never allocates, and installs (or merges) the
    /// entry's fetched blocks into the DRAM cache. The span that issued
    /// the read becomes current before the install is emitted, so the
    /// caller's writeback attributes to it too. Returns the install time
    /// and any dirty victim to write back.
    pub fn complete(
        &mut self,
        now: SimTime,
        page: u64,
        cache: &mut DramCache,
        out: &mut Vec<Waiter>,
    ) -> (SimTime, Option<u64>) {
        let processed = now + SimDuration::from_ns(self.processing_ns);
        let (fetch, span) = self.msr.complete_into(page, out);
        let (installed_at, dirty_victim) = cache.complete_fill(processed, page, fetch);
        if dirty_victim.is_some() {
            self.stats.writebacks += 1;
        }
        self.stats.installs += 1;
        if let Some(w) = self.windows.as_deref_mut() {
            w.record(installed_at.as_ns(), self.msr.occupancy());
        }
        if self.tracer.enabled() {
            self.tracer.resume_span(span);
            self.tracer
                .span_instant(installed_at.as_ns(), Track::Bc, "bc_install", page);
            if let Some(victim) = dirty_victim {
                self.tracer.span_instant(
                    installed_at.as_ns(),
                    Track::Bc,
                    "bc_evict_writeback",
                    victim,
                );
            }
            self.tracer.gauge(
                installed_at.as_ns(),
                "msr_occupancy",
                0,
                self.msr.occupancy() as f64,
            );
        }
        (installed_at, dirty_victim)
    }

    /// Outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.msr.occupancy()
    }

    /// The MSR (for stats inspection).
    pub fn msr(&self) -> &MissStatusRow {
        &self.msr
    }

    /// Controller statistics.
    pub fn stats(&self) -> BcStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram_cache::{DramCacheConfig, ProbeOutcome};

    fn setup() -> (BacksideController, DramCache) {
        let cache = DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20,
            ..DramCacheConfig::default()
        });
        (BacksideController::new(64, 8, 2), cache)
    }

    const W: Waiter = Waiter { core: 0, thread: 1 };
    const ALL: u64 = u64::MAX;

    /// Completes a read: (install time, waiters, dirty victim).
    fn complete(
        bc: &mut BacksideController,
        now: SimTime,
        page: u64,
        cache: &mut DramCache,
    ) -> (SimTime, Vec<Waiter>, Option<u64>) {
        let mut waiters = Vec::new();
        let (installed_at, wb) = bc.complete(now, page, cache, &mut waiters);
        (installed_at, waiters, wb)
    }

    #[test]
    fn admit_then_complete_notifies_waiters() {
        let (mut bc, mut cache) = setup();
        let adm = bc.admit(SimTime::ZERO, 42, ALL, W, &mut cache);
        assert!(matches!(adm, BcAdmission::IssueFlashRead { .. }));
        assert_eq!(bc.outstanding(), 1);
        let (installed_at, waiters, wb) = complete(&mut bc, SimTime::from_us(50), 42, &mut cache);
        assert_eq!(waiters, vec![W]);
        assert!(wb.is_none());
        assert!(cache.contains(42));
        assert!(installed_at > SimTime::from_us(50));
        assert_eq!(bc.outstanding(), 0);
        assert_eq!(bc.stats().installs, 1);
    }

    #[test]
    fn duplicate_misses_coalesce() {
        let (mut bc, mut cache) = setup();
        bc.admit(SimTime::ZERO, 7, ALL, W, &mut cache);
        let w2 = Waiter { core: 3, thread: 9 };
        let adm = bc.admit(SimTime::ZERO, 7, ALL, w2, &mut cache);
        // Resolved after the MSR lookup + BC processing (2 × 2 ns).
        assert_eq!(
            adm,
            BcAdmission::Duplicate {
                resolved_at: SimTime::from_ns(4)
            }
        );
        let (_, waiters, _) = complete(&mut bc, SimTime::from_us(50), 7, &mut cache);
        assert_eq!(waiters.len(), 2);
        assert_eq!(bc.stats().duplicates, 1);
        assert_eq!(bc.stats().issued, 1);
    }

    #[test]
    fn full_msr_set_stalls() {
        let mut bc = BacksideController::new(1, 2, 2);
        let mut cache = DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20,
            ..DramCacheConfig::default()
        });
        assert!(matches!(
            bc.admit(SimTime::ZERO, 1, ALL, W, &mut cache),
            BcAdmission::IssueFlashRead { .. }
        ));
        assert!(matches!(
            bc.admit(SimTime::ZERO, 2, ALL, W, &mut cache),
            BcAdmission::IssueFlashRead { .. }
        ));
        assert_eq!(
            bc.admit(SimTime::ZERO, 3, ALL, W, &mut cache),
            BcAdmission::Stalled
        );
        assert_eq!(bc.stats().stalls, 1);
    }

    #[test]
    fn tracer_sees_admission_install_and_occupancy() {
        let (mut bc, mut cache) = setup();
        let tracer = Tracer::ring(64);
        bc.set_tracer(tracer.clone());
        bc.admit(SimTime::ZERO, 42, ALL, W, &mut cache);
        bc.admit(SimTime::ZERO, 42, ALL, W, &mut cache);
        complete(&mut bc, SimTime::from_us(50), 42, &mut cache);
        let names: Vec<&str> = tracer.finish().iter().map(|e| e.name).collect();
        assert!(names.contains(&"bc_admit"));
        assert!(names.contains(&"bc_duplicate"));
        assert!(names.contains(&"bc_install"));
        assert!(names.contains(&"msr_occupancy"));
    }

    #[test]
    fn completion_installs_the_admitted_blocks() {
        let mut bc = BacksideController::new(64, 8, 2);
        let mut cache = DramCache::new(DramCacheConfig {
            capacity_bytes: 1 << 20,
            footprint: true,
            ..DramCacheConfig::default()
        });
        let fetch = 0b1001;
        bc.admit(SimTime::ZERO, 5, fetch, W, &mut cache);
        // A duplicate's bitmap does not widen the read.
        bc.admit(SimTime::ZERO, 5, ALL, W, &mut cache);
        complete(&mut bc, SimTime::from_us(50), 5, &mut cache);
        let t = SimTime::from_us(60);
        for block in [0, 3] {
            let hit = cache.probe(t, 5, block, false);
            assert!(matches!(hit, ProbeOutcome::Hit { .. }), "block {block}");
        }
        let outside = cache.probe(t, 5, 1, false);
        assert!(matches!(outside, ProbeOutcome::SubMiss { .. }));
    }

    #[test]
    fn install_is_attributed_to_the_admitting_span() {
        let (mut bc, mut cache) = setup();
        let tracer = Tracer::ring(64);
        bc.set_tracer(tracer.clone());
        let issuer = tracer.begin_span(0, Track::Core(0), "miss", 42);
        bc.admit(SimTime::ZERO, 42, ALL, W, &mut cache);
        // Another miss is current when the page arrives.
        let other = tracer.begin_span(10, Track::Core(1), "miss", 43);
        bc.admit(SimTime::from_ns(10), 42, ALL, W, &mut cache);
        complete(&mut bc, SimTime::from_us(50), 42, &mut cache);
        let evs = tracer.finish();
        let spans = |name| {
            evs.iter()
                .filter(|e| e.name == name)
                .map(|e| e.span)
                .collect::<Vec<_>>()
        };
        assert_ne!(issuer, other);
        assert_eq!(spans("bc_admit"), vec![issuer]);
        assert_eq!(spans("bc_duplicate"), vec![other]);
        assert_eq!(spans("bc_install"), vec![issuer]);
        assert_eq!(tracer.current_span(), issuer);
    }

    #[test]
    fn dirty_victim_surfaces_at_install() {
        let (mut bc, mut cache) = setup();
        let sets = cache.config().num_sets();
        // Fill a set and dirty its LRU page.
        for i in 0..8u64 {
            cache.install(SimTime::ZERO, i * sets);
        }
        cache.probe(SimTime::from_us(1), 0, 0, true); // page 0 dirty + MRU
        for i in 1..8u64 {
            cache.probe(SimTime::from_us(2), i * sets, 0, false);
        }
        // A miss mapping to the same set: victim is dirty page 0? No —
        // page 0 became MRU; LRU is page `sets`, clean. Make page `sets`
        // dirty instead.
        cache.probe(SimTime::from_us(3), sets, 0, true);
        for i in 2..8u64 {
            cache.probe(SimTime::from_us(4), i * sets, 0, false);
        }
        cache.probe(SimTime::from_us(5), 0, 0, false);
        // Now LRU == page `sets` (dirty, last touched at t=3).
        bc.admit(SimTime::from_us(6), 8 * sets, ALL, W, &mut cache);
        let (_, _, wb) = complete(&mut bc, SimTime::from_us(60), 8 * sets, &mut cache);
        assert_eq!(wb, Some(sets));
        assert_eq!(bc.stats().writebacks, 1);
    }
}
