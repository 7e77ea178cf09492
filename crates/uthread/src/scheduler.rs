//! The per-core user-level thread scheduler (Fig. 8).

use std::collections::VecDeque;

use astriflash_sim::{SimDuration, SimTime};
use astriflash_trace::{Track, Tracer};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The paper's priority scheduler: new jobs have priority 2, pending
    /// jobs priority 1, and aging promotes a pending-queue head older
    /// than the average flash response time (§IV-D2).
    PriorityAging,
    /// The `AstriFlash-noPS` ablation: new jobs always run first; the
    /// pending queue is only consulted when a miss occurs or no new job
    /// exists (§V-B, Table II).
    Fifo,
}

/// What the scheduler decided to run next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Start a new job from the global job queue.
    NewJob,
    /// Resume a parked thread.
    Pending {
        /// Thread to resume.
        thread: u32,
        /// Whether its missing page has already arrived. If `false`, the
        /// scheduler sets the forward-progress bit and the thread blocks
        /// synchronously at the frontside controller (§IV-C3).
        ready: bool,
    },
    /// Nothing runnable: no new jobs and the pending queue is empty.
    Idle,
}

/// Result of parking a thread on a DRAM-cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissPark {
    /// The thread was parked; pick the next job.
    Parked,
    /// The pending queue is full: the scheduler must wait for the flash
    /// response of the *oldest* pending job before anything else runs
    /// (§IV-D1). The oldest thread id is returned.
    QueueFullWaitFor(u32),
}

#[derive(Debug, Clone, Copy)]
struct PendingJob {
    thread: u32,
    enqueued_at: SimTime,
    ready: bool,
    /// When the page-arrival notification landed (valid iff `ready`).
    ready_at: SimTime,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerStats {
    /// Thread switches performed (each costs ~100 ns on the core).
    pub switches: u64,
    /// Threads parked on DRAM-cache misses.
    pub parks: u64,
    /// Times the pending queue was full.
    pub queue_full_events: u64,
    /// Pending jobs promoted by aging before their page arrived.
    pub aged_promotions: u64,
    /// Pending jobs resumed after their page arrived.
    pub ready_resumes: u64,
    /// Total time ready jobs sat in the pending queue between their
    /// page-arrival notification and being picked (the scheduler's
    /// contribution to miss latency — the resume-delay phase).
    pub ready_wait_ns: u64,
}

/// The per-core scheduler.
///
/// # Example
///
/// ```
/// use astriflash_sim::SimTime;
/// use astriflash_uthread::{Pick, Policy, Scheduler};
///
/// let mut s = Scheduler::new(Policy::PriorityAging, 32);
/// assert_eq!(s.pick(SimTime::ZERO, true, false), Pick::NewJob);
/// ```
#[derive(Debug)]
pub struct Scheduler {
    policy: Policy,
    pending: VecDeque<PendingJob>,
    pending_capacity: usize,
    /// EMA of observed flash response times; the aging threshold base.
    avg_flash_response_ns: f64,
    /// Aging fires at `aging_multiplier x` the average response, so it
    /// acts as a starvation backstop for outliers (GC-delayed reads)
    /// rather than tripping on ordinary variance: a forced resume blocks
    /// the core for the page's *remaining* flash time, so promoting
    /// merely-average-aged heads wastes core time wholesale.
    aging_multiplier: f64,
    stats: SchedulerStats,
    tracer: Tracer,
    /// Which [`Track::Scheduler`] lane this instance emits on (the core id).
    lane: u32,
}

impl Scheduler {
    /// Creates a scheduler with the given policy and pending-queue
    /// capacity (sized so pending jobs cannot exceed tail-latency
    /// requirements, §IV-D1).
    ///
    /// # Panics
    ///
    /// Panics if `pending_capacity == 0`.
    pub fn new(policy: Policy, pending_capacity: usize) -> Self {
        assert!(pending_capacity > 0);
        Scheduler {
            policy,
            pending: VecDeque::with_capacity(pending_capacity),
            pending_capacity,
            avg_flash_response_ns: 50_000.0,
            aging_multiplier: 2.0,
            stats: SchedulerStats::default(),
            tracer: Tracer::off(),
            lane: 0,
        }
    }

    /// Installs the observability handle. Park/ready/pick decisions emit
    /// on [`Track::Scheduler`]`(lane)`, attributed to the composer's
    /// current miss span. `lane` is the owning core's id.
    pub fn set_tracer(&mut self, tracer: Tracer, lane: u32) {
        self.tracer = tracer;
        self.lane = lane;
    }

    /// Overrides the aging multiplier (ablation knob).
    pub fn with_aging_multiplier(mut self, multiplier: f64) -> Self {
        assert!(multiplier >= 1.0);
        self.aging_multiplier = multiplier;
        self
    }

    /// Parks the running `thread` after a DRAM-cache miss.
    pub fn park_on_miss(&mut self, now: SimTime, thread: u32) -> MissPark {
        if self.pending.len() >= self.pending_capacity {
            self.stats.queue_full_events += 1;
            let oldest = self.pending.front().expect("capacity > 0").thread;
            if self.tracer.enabled() {
                self.tracer.instant(
                    now.as_ns(),
                    Track::Scheduler(self.lane),
                    "queue_full",
                    oldest as u64,
                );
            }
            return MissPark::QueueFullWaitFor(oldest);
        }
        self.pending.push_back(PendingJob {
            thread,
            enqueued_at: now,
            ready: false,
            ready_at: SimTime::ZERO,
        });
        self.stats.parks += 1;
        if self.tracer.enabled() {
            self.tracer.span_instant(
                now.as_ns(),
                Track::Scheduler(self.lane),
                "park",
                thread as u64,
            );
        }
        MissPark::Parked
    }

    /// Notification that `thread`'s page arrived from flash (queue-pair
    /// notification, §IV-D2). Updates the aging threshold with the
    /// observed response time.
    pub fn page_arrived(&mut self, now: SimTime, thread: u32) {
        if let Some(job) = self.pending.iter_mut().find(|j| j.thread == thread) {
            job.ready = true;
            job.ready_at = now;
            let response = now.saturating_since(job.enqueued_at).as_ns() as f64;
            // EMA with 1/16 gain: cheap to compute in the real handler.
            self.avg_flash_response_ns += (response - self.avg_flash_response_ns) / 16.0;
            if self.tracer.enabled() {
                self.tracer.span_instant(
                    now.as_ns(),
                    Track::Scheduler(self.lane),
                    "ready",
                    thread as u64,
                );
            }
        }
    }

    /// Picks the next job to run. `new_available` says whether the global
    /// job queue has work; `after_miss` marks picks happening inside the
    /// miss handler (the only moment the FIFO policy consults the
    /// pending queue while new jobs remain).
    pub fn pick(&mut self, now: SimTime, new_available: bool, after_miss: bool) -> Pick {
        self.stats.switches += 1;
        let pick = match self.policy {
            Policy::PriorityAging => self.pick_priority(now, new_available),
            Policy::Fifo => self.pick_fifo(now, new_available, after_miss),
        };
        if self.tracer.enabled() {
            match pick {
                Pick::NewJob => {
                    self.tracer
                        .instant(now.as_ns(), Track::Scheduler(self.lane), "pick_new", 0);
                }
                Pick::Pending { thread, ready } => {
                    self.tracer.instant(
                        now.as_ns(),
                        Track::Scheduler(self.lane),
                        if ready { "pick_pending" } else { "pick_forced" },
                        thread as u64,
                    );
                }
                Pick::Idle => {}
            }
        }
        pick
    }

    fn pick_priority(&mut self, now: SimTime, new_available: bool) -> Pick {
        // Starvation guard (Fig. 8): if the pending-queue head is older
        // than the average flash response time and *still* has no data
        // (e.g. a GC-delayed read), run it with forward progress forced.
        if let Some(head) = self.pending.front().copied() {
            let age = now.saturating_since(head.enqueued_at);
            let threshold =
                SimDuration::from_ns_f64(self.avg_flash_response_ns * self.aging_multiplier);
            if !head.ready && age >= threshold {
                self.pending.pop_front();
                self.stats.aged_promotions += 1;
                return Pick::Pending {
                    thread: head.thread,
                    ready: false,
                };
            }
        }
        // Queue-pair notifications (§IV-D2) let the scheduler resume the
        // corresponding thread directly: the oldest *ready* pending job
        // runs before new work, matching Flash-Sync's service
        // distribution (Table II: ≈1.02x).
        if let Some(pos) = self.pending.iter().position(|j| j.ready) {
            let job = self.pending.remove(pos).expect("position valid");
            self.stats.ready_resumes += 1;
            self.stats.ready_wait_ns += now.saturating_since(job.ready_at).as_ns();
            return Pick::Pending {
                thread: job.thread,
                ready: true,
            };
        }
        if new_available {
            return Pick::NewJob;
        }
        // No new work: resume the oldest pending job even if not aged.
        if let Some(job) = self.pending.pop_front() {
            if job.ready {
                self.stats.ready_resumes += 1;
                self.stats.ready_wait_ns += now.saturating_since(job.ready_at).as_ns();
            }
            return Pick::Pending {
                thread: job.thread,
                ready: job.ready,
            };
        }
        Pick::Idle
    }

    fn pick_fifo(&mut self, now: SimTime, new_available: bool, after_miss: bool) -> Pick {
        // noPS: the pending queue is FIFO and only its *head* is checked,
        // and only at miss boundaries (§VI-B). Ready jobs deeper in the
        // queue wait their turn — at most one pending job drains per
        // miss, so the queue hovers near full and service latency grows
        // to ~capacity × miss-interval, the paper's ~7x degradation.
        if after_miss {
            if let Some(head) = self.pending.front() {
                if head.ready {
                    let job = self.pending.pop_front().expect("head exists");
                    self.stats.ready_resumes += 1;
                    self.stats.ready_wait_ns += now.saturating_since(job.ready_at).as_ns();
                    return Pick::Pending {
                        thread: job.thread,
                        ready: true,
                    };
                }
            }
        }
        if new_available {
            return Pick::NewJob;
        }
        if let Some(job) = self.pending.pop_front() {
            if job.ready {
                self.stats.ready_resumes += 1;
                self.stats.ready_wait_ns += now.saturating_since(job.ready_at).as_ns();
            }
            return Pick::Pending {
                thread: job.thread,
                ready: job.ready,
            };
        }
        Pick::Idle
    }

    /// Pending-queue occupancy.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether `thread` is parked and its page has arrived.
    pub fn is_ready(&self, thread: u32) -> bool {
        self.pending
            .iter()
            .any(|j| j.thread == thread && j.ready)
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// The policy in use.
    pub fn policy(&self) -> Policy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scheduler_runs_new_jobs() {
        let mut s = Scheduler::new(Policy::PriorityAging, 4);
        assert_eq!(s.pick(SimTime::ZERO, true, false), Pick::NewJob);
        assert_eq!(s.pick(SimTime::ZERO, false, false), Pick::Idle);
    }

    #[test]
    fn parked_thread_resumes_when_ready() {
        let mut s = Scheduler::new(Policy::PriorityAging, 4);
        assert_eq!(s.park_on_miss(SimTime::ZERO, 7), MissPark::Parked);
        // Not ready, not aged: prefer new work.
        assert_eq!(s.pick(SimTime::from_us(10), true, false), Pick::NewJob);
        s.page_arrived(SimTime::from_us(50), 7);
        assert!(s.is_ready(7));
        assert_eq!(
            s.pick(SimTime::from_us(60), true, false),
            Pick::Pending {
                thread: 7,
                ready: true
            }
        );
        assert_eq!(s.stats().ready_resumes, 1);
        // Ready at 50 µs, picked at 60 µs: 10 µs of ready-queue wait.
        assert_eq!(s.stats().ready_wait_ns, 10_000);
    }

    #[test]
    fn aging_promotes_stale_head_before_new_jobs() {
        let mut s = Scheduler::new(Policy::PriorityAging, 4);
        s.park_on_miss(SimTime::ZERO, 3);
        // Age beyond the default 2 x 50 µs threshold without a page
        // arrival (e.g. flash GC delay): the head is promoted with
        // ready=false, which triggers forward-progress blocking.
        let pick = s.pick(SimTime::from_us(250), true, false);
        assert_eq!(
            pick,
            Pick::Pending {
                thread: 3,
                ready: false
            }
        );
        assert_eq!(s.stats().aged_promotions, 1);
    }

    #[test]
    fn queue_full_waits_for_oldest() {
        let mut s = Scheduler::new(Policy::PriorityAging, 2);
        s.park_on_miss(SimTime::ZERO, 1);
        s.park_on_miss(SimTime::ZERO, 2);
        assert_eq!(
            s.park_on_miss(SimTime::ZERO, 3),
            MissPark::QueueFullWaitFor(1)
        );
        assert_eq!(s.stats().queue_full_events, 1);
        assert_eq!(
            s.pick(SimTime::ZERO, false, false),
            Pick::Pending {
                thread: 1,
                ready: false
            }
        );
        assert_eq!(s.park_on_miss(SimTime::ZERO, 3), MissPark::Parked);
    }

    #[test]
    fn fifo_ignores_ready_pending_until_miss() {
        let mut s = Scheduler::new(Policy::Fifo, 4);
        s.park_on_miss(SimTime::ZERO, 9);
        s.page_arrived(SimTime::from_us(50), 9);
        // Ready job waits while new jobs exist (the noPS pathology)...
        assert_eq!(s.pick(SimTime::from_us(60), true, false), Pick::NewJob);
        // ...until a miss boundary lets it in.
        assert_eq!(
            s.pick(SimTime::from_us(70), true, true),
            Pick::Pending {
                thread: 9,
                ready: true
            }
        );
    }

    #[test]
    fn fifo_drains_pending_when_no_new_work() {
        let mut s = Scheduler::new(Policy::Fifo, 4);
        s.park_on_miss(SimTime::ZERO, 5);
        assert_eq!(
            s.pick(SimTime::from_us(1), false, false),
            Pick::Pending {
                thread: 5,
                ready: false
            }
        );
    }

    #[test]
    fn tracer_sees_park_ready_and_picks() {
        let mut s = Scheduler::new(Policy::PriorityAging, 2);
        let tracer = Tracer::ring(64);
        s.set_tracer(tracer.clone(), 3);
        s.park_on_miss(SimTime::ZERO, 7);
        s.page_arrived(SimTime::from_us(50), 7);
        s.pick(SimTime::from_us(60), true, false);
        s.park_on_miss(SimTime::from_us(61), 1);
        s.park_on_miss(SimTime::from_us(62), 2);
        s.park_on_miss(SimTime::from_us(63), 4); // queue full
        let evs = tracer.finish();
        let names: Vec<&str> = evs.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec!["park", "ready", "pick_pending", "park", "park", "queue_full"]
        );
        assert!(evs.iter().all(|e| e.track == Track::Scheduler(3)));
    }

    #[test]
    fn priority_drains_pending_when_no_new_jobs() {
        let mut s = Scheduler::new(Policy::PriorityAging, 4);
        s.park_on_miss(SimTime::ZERO, 1);
        let pick = s.pick(SimTime::from_us(1), false, false);
        assert_eq!(
            pick,
            Pick::Pending {
                thread: 1,
                ready: false
            }
        );
    }
}
