//! Operating-system mechanisms for the AstriFlash reproduction.
//!
//! Two roles:
//!
//! 1. **The OS-Swap baseline** (§II-C, §III): traditional demand paging —
//!    page-fault handling, the kernel storage stack, OS context switches,
//!    and broadcast TLB shootdowns whose cost grows with core count.
//! 2. **Address translation support for AstriFlash** (§IV-A): a TLB
//!    model and a radix page-table walker whose PTE accesses are issued
//!    to the memory hierarchy, plus the hybrid-DRAM partitioning policy
//!    that keeps page tables DRAM-resident (the `noDP` ablation turns it
//!    off, letting cold walks go to flash — Table II).

#![warn(missing_docs)]

pub mod page_table;
pub mod paging;
pub mod shootdown;
pub mod tlb;

pub use page_table::PageTableWalker;
pub use paging::{OsPagingCosts, PageFaultBreakdown};
pub use shootdown::ShootdownModel;
pub use tlb::Tlb;
