//! TPC-C workload (§V-A): "'neworder' transactions for items in a
//! database". The paper notes TPCC is its most computationally intensive
//! workload (§VI-A); we model the five standard transactions with the
//! standard mix and give them the heaviest compute budget.

use astriflash_sim::SimRng;

use crate::address_space::{AddressSpace, SimAlloc, PAGE_SIZE};
use crate::engines::touch_record;
use crate::job::{JobBuf, MemoryAccess, WorkloadEngine};
use crate::kind::WorkloadParams;
use crate::popularity::KeyChooser;

const DISTRICTS_PER_WH: u64 = 10;
const ROW_BYTES: u64 = 128;
const ORDER_LINE_BYTES: u64 = 64;

/// TPC-C transaction types with the standard mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccTxn {
    /// New-order (≈45 %).
    NewOrder,
    /// Payment (≈43 %).
    Payment,
    /// Order-status (4 %).
    OrderStatus,
    /// Delivery (4 %).
    Delivery,
    /// Stock-level (4 %).
    StockLevel,
}

impl TpccTxn {
    /// Draws from the standard mix.
    pub fn sample(rng: &mut SimRng) -> TpccTxn {
        match rng.gen_range(100) {
            0..=44 => TpccTxn::NewOrder,
            45..=87 => TpccTxn::Payment,
            88..=91 => TpccTxn::OrderStatus,
            92..=95 => TpccTxn::Delivery,
            _ => TpccTxn::StockLevel,
        }
    }
}

/// The TPC-C workload engine.
///
/// The paper's TPCC runs 'neworder' transactions (§V-A); that is the
/// default here. [`Tpcc::with_full_mix`] enables the five-transaction
/// TPC-C mix as an extension.
#[derive(Debug, Clone)]
pub struct Tpcc {
    full_mix: bool,
    customer_chooser: KeyChooser,
    item_chooser: KeyChooser,
    compute_ns: u64,
    num_warehouses: u64,
    customers_per_district: u64,
    items: u64,
    warehouse_base: u64,
    district_base: u64,
    customer_base: u64,
    customer_bytes: u64,
    item_base: u64,
    stock_base: u64,
    order_line_base: u64,
    num_order_lines: u64,
    next_order_line: u64,
}

impl Tpcc {
    /// Sizes the warehouse count to the dataset and lays out the tables.
    pub fn new(params: &WorkloadParams, seed: u64) -> Self {
        let space = AddressSpace::new(params.dataset_bytes);
        let mut alloc = SimAlloc::sequential(space);
        let customer_bytes = params.record_bytes;

        // TPC-C nominal cardinalities (100k items, 3000 customers per
        // district) scaled down so at least one warehouse fits any
        // dataset. The shared item table takes at most 1/8 of the space.
        let items = (params.dataset_bytes / 8 / ROW_BYTES).clamp(256, 100_000);
        let customers_per_district = (params.dataset_bytes
            / (8 * DISTRICTS_PER_WH * customer_bytes))
            .clamp(64, 3000);
        let stock_per_wh = items;

        // Bytes per warehouse: rows + customers + stock; plus the item
        // table and an order-line log taking ~1/8 of the dataset.
        let per_wh = ROW_BYTES
            + DISTRICTS_PER_WH * ROW_BYTES
            + DISTRICTS_PER_WH * customers_per_district * customer_bytes
            + stock_per_wh * ROW_BYTES;
        let fixed = items * ROW_BYTES + params.dataset_bytes / 8;
        let num_warehouses = ((params.dataset_bytes.saturating_sub(fixed)) / per_wh).max(1);

        let warehouse_base = alloc.alloc(num_warehouses * ROW_BYTES);
        let district_base = alloc.alloc(num_warehouses * DISTRICTS_PER_WH * ROW_BYTES);
        let customer_base = alloc
            .alloc(num_warehouses * DISTRICTS_PER_WH * customers_per_district * customer_bytes);
        let item_base = alloc.alloc(items * ROW_BYTES);
        let stock_base = alloc.alloc(num_warehouses * stock_per_wh * ROW_BYTES);
        let ol_bytes = alloc.remaining_bytes() / 2;
        let num_order_lines = (ol_bytes / ORDER_LINE_BYTES).max(1024);
        let order_line_base = alloc.alloc(num_order_lines * ORDER_LINE_BYTES);
        let _ = seed;

        let num_customers = num_warehouses * DISTRICTS_PER_WH * customers_per_district;
        Tpcc {
            customer_chooser: KeyChooser::new(
                num_customers,
                params.zipf_theta,
                (PAGE_SIZE / customer_bytes).max(1),
                params.reuse_probability,
            ),
            item_chooser: KeyChooser::new(
                items,
                params.zipf_theta,
                (PAGE_SIZE / ROW_BYTES).max(1),
                params.reuse_probability,
            ),
            compute_ns: params.compute_ns_per_op,
            num_warehouses,
            customers_per_district,
            items,
            warehouse_base,
            district_base,
            customer_base,
            customer_bytes,
            item_base,
            stock_base,
            order_line_base,
            num_order_lines,
            next_order_line: 0,
            full_mix: false,
        }
    }

    /// Enables the full five-transaction TPC-C mix instead of the
    /// paper's neworder-only workload.
    pub fn with_full_mix(mut self) -> Self {
        self.full_mix = true;
        self
    }

    /// Number of warehouses the dataset holds.
    pub fn num_warehouses(&self) -> u64 {
        self.num_warehouses
    }

    fn warehouse_addr(&self, w: u64) -> u64 {
        self.warehouse_base + w * ROW_BYTES
    }

    fn district_addr(&self, w: u64, d: u64) -> u64 {
        self.district_base + (w * DISTRICTS_PER_WH + d) * ROW_BYTES
    }

    fn customer_addr(&self, global_c: u64) -> u64 {
        self.customer_base + global_c * self.customer_bytes
    }

    fn item_addr(&self, i: u64) -> u64 {
        self.item_base + i * ROW_BYTES
    }

    fn stock_addr(&self, w: u64, i: u64) -> u64 {
        self.stock_base + (w * self.items + i) * ROW_BYTES
    }

    /// Appends an order line, returning its address (circular log).
    fn append_order_line(&mut self) -> u64 {
        let addr = self.order_line_base + self.next_order_line * ORDER_LINE_BYTES;
        self.next_order_line = (self.next_order_line + 1) % self.num_order_lines;
        addr
    }

    fn pick_customer(&mut self, rng: &mut SimRng) -> (u64, u64, u64) {
        let global_c = self.customer_chooser.next(rng);
        let w = global_c / (DISTRICTS_PER_WH * self.customers_per_district);
        let d = (global_c / self.customers_per_district) % DISTRICTS_PER_WH;
        (w, d, global_c)
    }

    fn new_order(&mut self, rng: &mut SimRng, buf: &mut JobBuf) {
        let (w, d, c) = self.pick_customer(rng);

        let start = buf.mark();
        buf.push(MemoryAccess::read(self.warehouse_addr(w)));
        touch_record(buf.accesses_mut(), self.district_addr(w, d), 1, true); // next_o_id++
        touch_record(buf.accesses_mut(), self.customer_addr(c), 2, false);
        buf.finish_op(self.compute_ns * 3, start);

        let ol_cnt = 5 + rng.gen_range(11); // 5..=15 items
        for _ in 0..ol_cnt {
            let i = self.item_chooser.next(rng);
            let start = buf.mark();
            buf.push(MemoryAccess::read(self.item_addr(i)));
            touch_record(buf.accesses_mut(), self.stock_addr(w, i), 1, true); // qty--
            let line = self.append_order_line();
            buf.push(MemoryAccess::write(line));
            buf.finish_op(self.compute_ns * 2, start);
        }
        buf.push_compute(self.compute_ns * 2); // commit
    }

    fn payment(&mut self, rng: &mut SimRng, buf: &mut JobBuf) {
        let (w, d, c) = self.pick_customer(rng);
        let start = buf.mark();
        touch_record(buf.accesses_mut(), self.warehouse_addr(w), 1, true); // ytd
        touch_record(buf.accesses_mut(), self.district_addr(w, d), 1, true);
        touch_record(buf.accesses_mut(), self.customer_addr(c), 2, true); // balance
        let history = self.append_order_line();
        buf.push(MemoryAccess::write(history));
        buf.finish_op(self.compute_ns * 3, start);
        buf.push_compute(self.compute_ns * 2);
    }

    fn order_status(&mut self, rng: &mut SimRng, buf: &mut JobBuf) {
        let (_, _, c) = self.pick_customer(rng);
        let start = buf.mark();
        touch_record(buf.accesses_mut(), self.customer_addr(c), 2, false);
        // Read the customer's most recent order lines (a recent window of
        // the circular log).
        let recent = rng.gen_range(self.num_order_lines.min(1024)).min(self.next_order_line);
        let first = self.next_order_line - recent;
        for i in 0..8 {
            let slot = (first + i) % self.num_order_lines;
            buf.push(MemoryAccess::read(
                self.order_line_base + slot * ORDER_LINE_BYTES,
            ));
        }
        buf.finish_op(self.compute_ns * 2, start);
    }

    fn delivery(&mut self, rng: &mut SimRng, buf: &mut JobBuf) {
        let w = rng.gen_range(self.num_warehouses);
        for d in 0..DISTRICTS_PER_WH {
            let start = buf.mark();
            touch_record(buf.accesses_mut(), self.district_addr(w, d), 1, false);
            // Deliver the oldest order: write the order line + the
            // customer's balance.
            let line = self.append_order_line();
            buf.push(MemoryAccess::write(line));
            let c = w * DISTRICTS_PER_WH * self.customers_per_district
                + d * self.customers_per_district
                + rng.gen_range(self.customers_per_district);
            touch_record(buf.accesses_mut(), self.customer_addr(c), 1, true);
            buf.finish_op(self.compute_ns * 2, start);
        }
    }

    fn stock_level(&mut self, rng: &mut SimRng, buf: &mut JobBuf) {
        let w = rng.gen_range(self.num_warehouses);
        let d = rng.gen_range(DISTRICTS_PER_WH);
        let start = buf.mark();
        touch_record(buf.accesses_mut(), self.district_addr(w, d), 1, false);
        for _ in 0..20 {
            let i = self.item_chooser.next(rng);
            buf.push(MemoryAccess::read(self.stock_addr(w, i)));
        }
        buf.finish_op(self.compute_ns * 3, start);
    }
}

impl WorkloadEngine for Tpcc {
    fn fill_job(&mut self, buf: &mut JobBuf, rng: &mut SimRng) {
        buf.clear();
        if !self.full_mix {
            self.new_order(rng, buf);
            return;
        }
        match TpccTxn::sample(rng) {
            TpccTxn::NewOrder => self.new_order(rng, buf),
            TpccTxn::Payment => self.payment(rng, buf),
            TpccTxn::OrderStatus => self.order_status(rng, buf),
            TpccTxn::Delivery => self.delivery(rng, buf),
            TpccTxn::StockLevel => self.stock_level(rng, buf),
        }
    }

    fn name(&self) -> &'static str {
        "TPCC"
    }

    fn threads_per_core_hint(&self) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Tpcc {
        // TPCC needs a bigger floor than the other tiny configs because a
        // single warehouse is ~16 MB.
        let params = WorkloadParams {
            dataset_bytes: 64 << 20,
            ..WorkloadParams::tiny_for_tests()
        };
        Tpcc::new(&params, 41)
    }

    #[test]
    fn tables_fit_and_warehouses_positive() {
        let e = engine();
        assert!(e.num_warehouses() >= 1);
        assert!(e.order_line_base + e.num_order_lines * ORDER_LINE_BYTES <= 64 << 20);
    }

    #[test]
    fn new_order_touches_items_and_stock() {
        let mut e = engine();
        let mut rng = SimRng::new(42);
        let mut job = JobBuf::new();
        e.new_order(&mut rng, &mut job);
        // head + 5..15 lines + commit.
        let ops = job.ops().len();
        assert!((7..=17).contains(&ops), "got {ops}");
        // district + per-line (stock + order line).
        assert!(job.total_writes() > 2 * 5);
    }

    #[test]
    fn order_line_log_wraps() {
        let mut e = engine();
        let first = e.append_order_line();
        for _ in 0..e.num_order_lines - 1 {
            e.append_order_line();
        }
        let wrapped = e.append_order_line();
        assert_eq!(first, wrapped);
    }

    #[test]
    fn all_txn_types_stay_in_bounds() {
        let mut e = engine();
        let mut rng = SimRng::new(43);
        let mut job = JobBuf::new();
        for _ in 0..300 {
            e.fill_job(&mut job, &mut rng);
            for a in job.accesses() {
                assert!(a.addr < 64 << 20, "access out of dataset: {:#x}", a.addr);
            }
        }
    }

    #[test]
    fn tpcc_is_compute_heavy() {
        let mut e = engine();
        let mut rng = SimRng::new(44);
        let mut job = JobBuf::new();
        let total: u64 = (0..100)
            .map(|_| {
                e.fill_job(&mut job, &mut rng);
                job.total_compute_ns()
            })
            .sum();
        let mean = total / 100;
        // Heavier than the base per-op compute by construction.
        assert!(mean > 500, "mean compute {mean}ns");
    }
}
