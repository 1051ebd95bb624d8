//! # marshal-sim-functional
//!
//! Functional simulation — the reproduction's QEMU and Spike (§II-A-3).
//!
//! These simulators "aim to faithfully implement the system specification
//! without particular concern for timing modeling". They boot the exact
//! boot binary + disk image that `marshal build` produced, run the
//! workload's boot payload by executing real guest binaries on the RV64IM
//! interpreter from `marshal-isa`, and capture the serial console to a log.
//!
//! The cycle-exact simulator (`marshal-sim-rtl`) executes the *same*
//! artifacts through the same boot model and the same interpreter — only
//! with a timing model attached — which is how the reproduction realises
//! the paper's launch/install portability guarantee.
//!
//! - [`machine`]: simulator configuration and results.
//! - [`syscall`]: the user-program runner (syscall ABI over the ISA core).
//! - [`guest`]: the modelled guest OS — filesystem, serial console, and the
//!   mscript guest environment.
//! - [`boot`]: the boot flow (firmware → kernel → initramfs → init system
//!   → payload).
//! - [`checkpoint`]: boot-state snapshots for launch checkpointing.
//! - [`functional`]: the functional simulator front-end, one
//!   implementation for both the QEMU-like and the Spike-like profile.

#![warn(missing_docs)]

pub mod boot;
pub mod checkpoint;
pub mod functional;
pub mod guest;
pub mod machine;
pub mod syscall;

pub use checkpoint::BootSnapshot;
pub use functional::Functional;
pub use machine::{LaunchMode, SimConfig, SimError, SimKind, SimResult, WATCHDOG_EXIT_CODE};
