//! Discrete-event simulation kernel for the AstriFlash reproduction.
//!
//! This crate provides the time base, deterministic random-number
//! generation, event queue and bandwidth links that every other
//! simulation crate builds on.
//!
//! The design is deliberately *passive*: components are plain state
//! machines advanced by a system composer that owns the single
//! [`EventQueue`]. This sidesteps actor-graph borrow issues while keeping
//! every simulation fully deterministic for a given seed.
//!
//! # Example
//!
//! ```
//! use astriflash_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), Ev::Pong);
//! q.schedule(SimTime::from_ns(5), Ev::Ping);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_ns(5), Ev::Ping));
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod event;
pub mod rng;
pub mod time;

pub use bandwidth::BandwidthLink;
pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
