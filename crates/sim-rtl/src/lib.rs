//! # marshal-sim-rtl
//!
//! The cycle-exact simulator — the reproduction's FireSim (§II-A-3).
//!
//! Executes the *exact same* boot binaries and disk images as the
//! functional simulators (sharing `marshal-sim-functional`'s boot model and
//! user-program runner), but attaches a micro-architectural timing model to
//! every retired instruction:
//!
//! - [`config`]: hardware configurations (Rocket-like in-order and
//!   BOOM-like cores, with the Gshare and TAGE predictor variants the
//!   paper's SPEC2017 case study compares).
//! - [`bpred`]: branch predictors — Gshare, TAGE, bimodal, static — plus a
//!   return-address stack.
//! - [`cache`]: set-associative I/D caches with LRU replacement, indexed
//!   by shift and mask, with an exact same-line fast path.
//! - [`pipeline`]: the per-instruction timing model and performance
//!   counters.
//! - [`pfa`]: the Page Fault Accelerator model and its software-paging
//!   baseline (the §IV-A case study).
//! - [`nic`]: the RDMA NIC + network model the PFA fetches pages through.
//! - [`firesim`]: the top-level driver; it times programs from an
//!   observer on the functional runner's one run loop.
//!
//! Determinism is absolute: identical artifacts and configuration produce
//! identical cycle counts, which is the property the paper's education case
//! study (§IV-C) relies on for grading.

#![warn(missing_docs)]

pub mod bpred;
pub mod cache;
pub mod config;
pub mod firesim;
pub mod nic;
pub mod pfa;
pub mod pipeline;

pub use config::{BpredConfig, CacheConfig, CoreConfig, HardwareConfig, RemoteMemConfig};
pub use firesim::{FireSim, PerfReport};
pub use nic::NicModel;
pub use pfa::PfaStats;
pub use pipeline::PerfCounters;
