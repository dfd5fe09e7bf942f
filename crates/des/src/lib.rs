//! # `des` — deterministic discrete-event simulation kernel
//!
//! The substrate underneath every experiment in this workspace. It provides:
//!
//! - [`SimTime`] / [`SimDuration`]: exact microsecond-resolution virtual time;
//! - [`EventQueue`]: an indexed min-heap with **total, deterministic
//!   ordering** (ties broken by scheduling order), exact, in-place
//!   O(log n) cancellation, and an in-place re-arm that fires exactly where
//!   a cancel plus a fresh schedule would;
//! - [`TimerWheel`]: a set of keyed timers — an [`EventQueue`] of keys
//!   plus a key index, so re-arming a key is the queue's in-place re-arm;
//!   the one heap implementation in the crate serves both;
//! - [`IdMap`] / [`IdSet`]: hash tables under [`IdHasher`], the seedless
//!   id hasher every simulator table uses, so table layout (and allocation
//!   counts) repeat run to run;
//! - [`SimRng`]: seeded randomness with labelled [`SimRng::split`]ting so
//!   component streams stay independent as the code evolves;
//! - [`Simulation`]: clock + queue + RNG with a step-limit livelock guard.
//!
//! Determinism is the design center: the same seed must reproduce the same
//! run bit-for-bit, because the consensus-safety test suite relies on
//! replaying schedules that exhibit rare interleavings.
//!
//! # Examples
//!
//! ```
//! use des::{SimDuration, Simulation};
//!
//! #[derive(Debug)]
//! struct Arrival(u32);
//!
//! let mut sim = Simulation::new(7);
//! for i in 0..3u64 {
//!     let gap = sim.rng().exponential(SimDuration::from_millis(10));
//!     sim.schedule_after(gap * (i + 1), Arrival(i as u32));
//! }
//! let mut seen = 0;
//! while let Some(firing) = sim.next_event() {
//!     let Arrival(_id) = firing.event;
//!     seen += 1;
//! }
//! assert_eq!(seen, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hash;
mod rng;
mod sim;
mod time;
mod wheel;

pub use event::{EventId, EventQueue, Firing};
pub use hash::{IdHasher, IdMap, IdSet};
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
