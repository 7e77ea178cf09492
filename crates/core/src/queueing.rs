//! Analytical queueing models behind Fig. 3 (§III-A).
//!
//! DRAM-only and Flash-Sync are M/M/1 queues (requests run to
//! completion); AstriFlash and OS-Swap act as M/M/k — the switch-on-miss
//! core is one physical server multiplexed over k logical servers so
//! requests waiting on flash free the CPU. The CPU-side overhead per
//! request (zero for DRAM-only, ~10 µs of paging for OS-Swap, ~0.2 µs of
//! switching for AstriFlash) bounds k: the core can only overlap as many
//! jobs as fit in the flash window.

/// An M/M/k queueing model of one server core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueModel {
    /// Logical servers (1 = plain M/M/1).
    pub k: usize,
    /// Mean *occupancy* of a logical server per request, in µs (work +
    /// overhead + any unoverlapped flash wait).
    pub service_us: f64,
}

impl QueueModel {
    /// Builds the model for a system where each request does `work_us`
    /// of CPU work, pays `cpu_overhead_us` of unoverlappable CPU-side
    /// overhead, and waits `flash_us` on flash which *can* be overlapped
    /// when `overlap` is true.
    ///
    /// With overlap, a logical server holds a job for
    /// `work + overhead + flash`, and the CPU supports
    /// `k = ceil(total / (work + overhead))` concurrent jobs. The service
    /// time is rounded up to `k × (work + overhead)` so the model's
    /// saturation throughput is exactly the CPU bound
    /// `1 / (work + overhead)` — the paper's logical multi-server
    /// insight (§III-A).
    pub fn for_system(work_us: f64, cpu_overhead_us: f64, flash_us: f64, overlap: bool) -> Self {
        assert!(work_us > 0.0);
        let cpu_us = work_us + cpu_overhead_us;
        if !overlap || flash_us <= 0.0 {
            return QueueModel {
                k: 1,
                service_us: cpu_us + flash_us,
            };
        }
        let total = cpu_us + flash_us;
        let k = (total / cpu_us).ceil().max(1.0) as usize;
        QueueModel {
            k,
            service_us: k as f64 * cpu_us,
        }
    }

    /// Saturation throughput in requests/µs.
    pub fn saturation_throughput(&self) -> f64 {
        self.k as f64 / self.service_us
    }

    /// Offered load `rho` at arrival rate `lambda` (requests/µs).
    pub fn rho(&self, lambda: f64) -> f64 {
        lambda * self.service_us / self.k as f64
    }

    /// Erlang-C probability that an arrival waits.
    pub fn erlang_c(&self, lambda: f64) -> f64 {
        let k = self.k;
        let a = lambda * self.service_us; // offered load in Erlangs
        let rho = a / k as f64;
        if rho >= 1.0 {
            return 1.0;
        }
        // Numerically stable iterative form.
        let mut inv_b = 1.0; // Erlang-B inverse, m = 0
        for m in 1..=k {
            inv_b = 1.0 + inv_b * m as f64 / a;
        }
        let b = 1.0 / inv_b;
        b / (1.0 - rho * (1.0 - b))
    }

    /// P(response time > t µs).
    pub fn p_response_exceeds(&self, lambda: f64, t: f64) -> f64 {
        let mu = 1.0 / self.service_us;
        let rho = self.rho(lambda);
        if rho >= 1.0 {
            return 1.0;
        }
        if self.k == 1 {
            // M/M/1 sojourn is Exp(mu - lambda).
            return (-(mu - lambda) * t).exp();
        }
        let c = self.erlang_c(lambda);
        let nu = self.k as f64 * mu - lambda; // queue-wait rate
        if (nu - mu).abs() < 1e-12 {
            // Degenerate equal-rate case: S + Wq ~ Gamma-ish; use the
            // limit form t*mu*e^{-mu t} for the convolved part.
            return (1.0 - c) * (-mu * t).exp() + c * (1.0 + mu * t) * (-mu * t).exp();
        }
        // T = S + Wq with Wq = 0 w.p. (1-C), else Exp(nu); S ~ Exp(mu).
        let tail_no_wait = (-mu * t).exp();
        let tail_sum = (nu * (-mu * t).exp() - mu * (-nu * t).exp()) / (nu - mu);
        (1.0 - c) * tail_no_wait + c * tail_sum
    }

    /// The `q`-quantile of response time in µs (bisection).
    ///
    /// # Panics
    ///
    /// Panics if the system is saturated (`rho >= 1`).
    pub fn response_quantile(&self, lambda: f64, q: f64) -> f64 {
        assert!(self.rho(lambda) < 1.0, "system is saturated");
        let target = 1.0 - q;
        let mut lo = 0.0;
        let mut hi = self.service_us * 4.0;
        while self.p_response_exceeds(lambda, hi) > target {
            hi *= 2.0;
            assert!(hi < 1e12, "quantile search diverged");
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.p_response_exceeds(lambda, mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Convenience: p99 response time of an M/M/1 with the given service
/// mean (µs) at arrival rate `lambda` (requests/µs).
pub fn mm1_p99(service_us: f64, lambda: f64) -> f64 {
    QueueModel {
        k: 1,
        service_us,
    }
    .response_quantile(lambda, 0.99)
}

/// Convenience: p99 response time of an M/M/k.
pub fn mmk_p99(k: usize, service_us: f64, lambda: f64) -> f64 {
    QueueModel { k, service_us }.response_quantile(lambda, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_p99_matches_closed_form() {
        // M/M/1: p99 = ln(100) / (mu - lambda).
        let service = 10.0;
        let lambda = 0.05;
        let expect = (100.0f64).ln() / (0.1 - 0.05);
        let got = mm1_p99(service, lambda);
        assert!((got - expect).abs() / expect < 1e-3, "{got} vs {expect}");
    }

    #[test]
    fn erlang_c_limits() {
        let m = QueueModel {
            k: 4,
            service_us: 10.0,
        };
        assert!(m.erlang_c(1e-9) < 1e-6, "empty system never waits");
        assert!((m.erlang_c(0.41) - 1.0).abs() < 1e-9, "saturated always waits");
        let mid = m.erlang_c(0.2);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn mmk_beats_mm1_at_same_capacity() {
        // Same saturation throughput, but k servers absorb bursts.
        let mm1 = QueueModel {
            k: 1,
            service_us: 10.0,
        };
        let mmk = QueueModel {
            k: 4,
            service_us: 40.0,
        };
        let lambda = 0.08;
        assert!(mmk.response_quantile(lambda, 0.99) > mm1.response_quantile(lambda, 0.99) * 0.5);
        // At very low load the M/M/k pays its longer service time.
        assert!(mmk.response_quantile(0.001, 0.5) > mm1.response_quantile(0.001, 0.5));
    }

    #[test]
    fn for_system_matches_paper_fig3_setups() {
        // §III-A: 10 µs work, 50 µs flash.
        let dram = QueueModel::for_system(10.0, 0.0, 0.0, false);
        assert_eq!(dram.k, 1);
        assert!((dram.saturation_throughput() - 0.1).abs() < 1e-9);

        let flash_sync = QueueModel::for_system(10.0, 0.0, 50.0, false);
        assert_eq!(flash_sync.k, 1);
        // >80 % throughput degradation (§III-A).
        assert!(flash_sync.saturation_throughput() / dram.saturation_throughput() < 0.2);

        let os_swap = QueueModel::for_system(10.0, 10.0, 50.0, true);
        let deg = os_swap.saturation_throughput() / dram.saturation_throughput();
        assert!(
            (0.4..0.6).contains(&deg),
            "OS-Swap should lose ~50 %: {deg}"
        );

        let astri = QueueModel::for_system(10.0, 0.2, 50.0, true);
        let deg = astri.saturation_throughput() / dram.saturation_throughput();
        assert!(deg > 0.9, "AstriFlash should approach DRAM-only: {deg}");
    }

    #[test]
    fn p99_monotone_in_load() {
        let m = QueueModel::for_system(10.0, 0.2, 50.0, true);
        let mut last = 0.0;
        for lambda in [0.01, 0.03, 0.05, 0.07, 0.09] {
            let p = m.response_quantile(lambda, 0.99);
            assert!(p > last, "p99 must grow with load");
            last = p;
        }
    }

    #[test]
    fn tail_probability_is_monotone_decreasing() {
        let m = QueueModel {
            k: 6,
            service_us: 60.0,
        };
        let lambda = 0.08;
        let mut last = 1.0;
        for t in [0.0, 10.0, 50.0, 100.0, 400.0] {
            let p = m.p_response_exceeds(lambda, t);
            assert!(p <= last + 1e-12);
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn paper_slo_40x_claim() {
        // §III-A: an application with flash accesses every ~10 µs needs a
        // SLO of ~40x the average service time to stay within ~20 % of
        // DRAM-only throughput.
        let dram = QueueModel::for_system(10.0, 0.0, 0.0, false);
        let astri = QueueModel::for_system(10.0, 0.2, 50.0, true);
        // Load AstriFlash to 80 % of DRAM-only's saturation.
        let lambda = 0.8 * dram.saturation_throughput();
        let p99 = astri.response_quantile(lambda, 0.99);
        let slo = 40.0 * 10.0;
        assert!(
            p99 <= slo,
            "p99 {p99}µs should fit the 40x SLO ({slo}µs) at 80 % load"
        );
    }

    #[test]
    #[should_panic(expected = "saturated")]
    fn quantile_of_saturated_system_panics() {
        mm1_p99(10.0, 0.2);
    }
}
