//! TATP telecom benchmark (§V-A): "'update subscriber data' … transactions
//! for items in a database".
//!
//! We implement the standard TATP transaction mix over its four tables
//! (SUBSCRIBER, ACCESS_INFO, SPECIAL_FACILITY, CALL_FORWARDING).
//! SUBSCRIBER is directly indexed by `s_id` (as in the real benchmark,
//! where `s_id` is dense); the child tables hang off the subscriber with
//! fixed fan-out. Subscriber popularity is scrambled-Zipfian.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, JobSpec, MemoryAccess, Operation, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const AI_PER_SUB: u64 = 3; // ACCESS_INFO rows per subscriber
const SF_PER_SUB: u64 = 2; // SPECIAL_FACILITY rows per subscriber
const CF_PER_SF: u64 = 2; // CALL_FORWARDING rows per facility

/// TATP transaction types with their standard mix percentages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TatpTxn {
    /// Read the full subscriber row (35 %).
    GetSubscriberData,
    /// Read a special facility and its call-forwarding rows (10 %).
    GetNewDestination,
    /// Read one access-info row (35 %).
    GetAccessData,
    /// Update subscriber bits and a special-facility row (2 %).
    UpdateSubscriberData,
    /// Update the subscriber's VLR location (14 %).
    UpdateLocation,
    /// Read special facility, insert a call-forwarding row (2 %).
    InsertCallForwarding,
    /// Delete a call-forwarding row (2 %).
    DeleteCallForwarding,
}

impl TatpTxn {
    /// Draws a transaction type from the standard TATP mix.
    pub fn sample(rng: &mut SimRng) -> TatpTxn {
        let roll = rng.gen_range(100);
        match roll {
            0..=34 => TatpTxn::GetSubscriberData,
            35..=44 => TatpTxn::GetNewDestination,
            45..=79 => TatpTxn::GetAccessData,
            80..=81 => TatpTxn::UpdateSubscriberData,
            82..=95 => TatpTxn::UpdateLocation,
            96..=97 => TatpTxn::InsertCallForwarding,
            _ => TatpTxn::DeleteCallForwarding,
        }
    }

    /// Whether the transaction writes.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            TatpTxn::UpdateSubscriberData
                | TatpTxn::UpdateLocation
                | TatpTxn::InsertCallForwarding
                | TatpTxn::DeleteCallForwarding
        )
    }
}

/// The TATP workload engine. Jobs are single transactions — the paper
/// calls them "short database operations … ten µs on average" (§VI-C).
#[derive(Debug, Clone)]
pub struct Tatp {
    chooser: KeyChooser,
    compute_ns: u64,
    num_subscribers: u64,
    subscriber_base: u64,
    subscriber_bytes: u64,
    access_info_base: u64,
    special_facility_base: u64,
    call_forwarding_base: u64,
    row_bytes: u64,
}

impl Tatp {
    /// Builds the TATP tables inside the dataset.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::sequential(space);
        // Row budget: subscriber (record_bytes) + 3 AI + 2 SF + 4 CF rows
        // of 64..128 B each. Solve for the subscriber count that fits.
        let row_bytes = 128u64;
        let per_sub = params.record_bytes
            + AI_PER_SUB * row_bytes
            + SF_PER_SUB * row_bytes
            + SF_PER_SUB * CF_PER_SF * row_bytes;
        // Leave slack for the page-rounding of the four table allocations.
        let num_subscribers = (params.dataset_bytes.saturating_sub(64 << 10) / per_sub).max(16);

        let subscriber_base = alloc.alloc(num_subscribers * params.record_bytes);
        let access_info_base = alloc.alloc(num_subscribers * AI_PER_SUB * row_bytes);
        let special_facility_base = alloc.alloc(num_subscribers * SF_PER_SUB * row_bytes);
        let call_forwarding_base =
            alloc.alloc(num_subscribers * SF_PER_SUB * CF_PER_SF * row_bytes);
        let _ = seed;

        Tatp {
            chooser: KeyChooser::new(
                num_subscribers,
                params.zipf_theta,
                (PAGE_SIZE / params.record_bytes).max(1),
                params.reuse_probability,
            ),
            compute_ns: params.compute_ns_per_op,
            num_subscribers,
            subscriber_base,
            subscriber_bytes: params.record_bytes,
            access_info_base,
            special_facility_base,
            call_forwarding_base,
            row_bytes,
        }
    }

    /// Number of subscribers the tables hold.
    pub fn num_subscribers(&self) -> u64 {
        self.num_subscribers
    }

    fn subscriber_addr(&self, s_id: u64) -> u64 {
        self.subscriber_base + s_id * self.subscriber_bytes
    }

    fn access_info_addr(&self, s_id: u64, ai: u64) -> u64 {
        self.access_info_base + (s_id * AI_PER_SUB + ai) * self.row_bytes
    }

    fn special_facility_addr(&self, s_id: u64, sf: u64) -> u64 {
        self.special_facility_base + (s_id * SF_PER_SUB + sf) * self.row_bytes
    }

    fn call_forwarding_addr(&self, s_id: u64, sf: u64, cf: u64) -> u64 {
        self.call_forwarding_base + ((s_id * SF_PER_SUB + sf) * CF_PER_SF + cf) * self.row_bytes
    }

    /// Emits one transaction's access trace into `out` (shared by the
    /// legacy nested path and the flat `fill_job` path).
    fn txn_trace(&self, txn: TatpTxn, s_id: u64, rng: &mut SimRng, out: &mut Vec<MemoryAccess>) {
        match txn {
            TatpTxn::GetSubscriberData => {
                // Full-row read of the wide subscriber record.
                touch_record(out, self.subscriber_addr(s_id), 4, false);
            }
            TatpTxn::GetNewDestination => {
                let sf = rng.gen_range(SF_PER_SUB);
                touch_record(out, self.special_facility_addr(s_id, sf), 1, false);
                for cf in 0..CF_PER_SF {
                    touch_record(out, self.call_forwarding_addr(s_id, sf, cf), 1, false);
                }
            }
            TatpTxn::GetAccessData => {
                let ai = rng.gen_range(AI_PER_SUB);
                touch_record(out, self.access_info_addr(s_id, ai), 1, false);
            }
            TatpTxn::UpdateSubscriberData => {
                out.push(MemoryAccess::write(self.subscriber_addr(s_id)));
                let sf = rng.gen_range(SF_PER_SUB);
                out.push(MemoryAccess::write(self.special_facility_addr(s_id, sf)));
            }
            TatpTxn::UpdateLocation => {
                // Read-modify-write of the subscriber row.
                touch_record(out, self.subscriber_addr(s_id), 2, true);
            }
            TatpTxn::InsertCallForwarding => {
                let sf = rng.gen_range(SF_PER_SUB);
                touch_record(out, self.special_facility_addr(s_id, sf), 1, false);
                let cf = rng.gen_range(CF_PER_SF);
                out.push(MemoryAccess::write(self.call_forwarding_addr(s_id, sf, cf)));
            }
            TatpTxn::DeleteCallForwarding => {
                let sf = rng.gen_range(SF_PER_SUB);
                let cf = rng.gen_range(CF_PER_SF);
                touch_record(out, self.call_forwarding_addr(s_id, sf, cf), 1, true);
            }
        }
    }

    /// Builds the access trace of one transaction.
    pub fn txn_ops(&self, txn: TatpTxn, s_id: u64, rng: &mut SimRng) -> Vec<Operation> {
        let mut ops = Vec::with_capacity(3);
        let mut accesses = Vec::with_capacity(12);
        self.txn_trace(txn, s_id, rng, &mut accesses);
        // TATP transactions are short: parse/plan compute, the accesses,
        // then commit compute.
        ops.push(Operation::new(self.compute_ns * 2, accesses));
        ops.push(Operation::compute(self.compute_ns));
        ops
    }
}

impl WorkloadEngine for Tatp {
    fn next_job(&mut self, rng: &mut SimRng) -> JobSpec {
        let s_id = self.chooser.next(rng);
        let txn = TatpTxn::sample(rng);
        JobSpec::new(self.txn_ops(txn, s_id, rng))
    }

    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        let s_id = self.chooser.next(rng);
        let txn = TatpTxn::sample(rng);
        let start = buf.mark();
        self.txn_trace(txn, s_id, rng, buf.accesses_mut());
        buf.finish_op(self.compute_ns * 2, start);
        buf.push_compute(self.compute_ns);
    }

    fn name(&self) -> &'static str {
        "TATP"
    }

    fn threads_per_core_hint(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Tatp {
        Tatp::new(&WorkloadParams::tiny_for_tests(), 31)
    }

    #[test]
    fn mix_frequencies_match_spec() {
        let mut rng = SimRng::new(32);
        let n = 100_000;
        let mut reads = 0;
        for _ in 0..n {
            if !TatpTxn::sample(&mut rng).is_write() {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        // TATP is 80 % read / 20 % write.
        assert!((frac - 0.80).abs() < 0.01, "read fraction {frac}");
    }

    #[test]
    fn tables_fit_in_dataset() {
        let params = WorkloadParams::tiny_for_tests();
        let e = Tatp::new(&params, 1);
        let mut rng = SimRng::new(33);
        for _ in 0..500 {
            let s = rng.gen_range(e.num_subscribers());
            for txn in [
                TatpTxn::GetSubscriberData,
                TatpTxn::GetNewDestination,
                TatpTxn::GetAccessData,
                TatpTxn::UpdateSubscriberData,
                TatpTxn::UpdateLocation,
                TatpTxn::InsertCallForwarding,
                TatpTxn::DeleteCallForwarding,
            ] {
                for op in e.txn_ops(txn, s, &mut rng) {
                    for a in &op.accesses {
                        assert!(a.addr < params.dataset_bytes, "{txn:?} out of range");
                    }
                }
            }
        }
    }

    #[test]
    fn writes_match_txn_type() {
        let e = engine();
        let mut rng = SimRng::new(34);
        let ops = e.txn_ops(TatpTxn::GetSubscriberData, 5, &mut rng);
        assert!(ops.iter().all(|o| o.accesses.iter().all(|a| !a.is_write)));
        let ops = e.txn_ops(TatpTxn::UpdateLocation, 5, &mut rng);
        assert!(ops.iter().any(|o| o.accesses.iter().any(|a| a.is_write)));
    }

    #[test]
    fn distinct_subscribers_touch_distinct_rows() {
        let e = engine();
        assert_ne!(e.subscriber_addr(0), e.subscriber_addr(1));
        assert_ne!(e.access_info_addr(0, 0), e.access_info_addr(0, 1));
        assert_ne!(
            e.call_forwarding_addr(1, 0, 0),
            e.call_forwarding_addr(0, 1, 1)
        );
    }

    #[test]
    fn jobs_are_short() {
        let mut e = engine();
        let mut rng = SimRng::new(35);
        for _ in 0..100 {
            let job = e.next_job(&mut rng);
            assert!(job.total_accesses() <= 16, "TATP txns are small");
        }
    }
}
