//! Cycle-level model of a multi-channel high-bandwidth memory (HBM).
//!
//! The paper attaches MatRaptor to gem5's HBM model: up to eight 128-bit
//! physical channels at 1 GHz, 128 GB/s peak. This crate reproduces the
//! behaviours the evaluation depends on:
//!
//! * **channel parallelism** — independent per-channel request queues and
//!   service pipelines;
//! * **burst granularity** — a channel transfers whole bursts (64 B), so a
//!   narrow 8 B read still occupies the channel for a full burst: the
//!   mechanism behind CSR's poor bandwidth in Fig. 6;
//! * **request splitting** — a request crossing the channel-interleave
//!   boundary is split across channels (CSR's misalignment problem,
//!   Section III-A);
//! * **DRAM row overheads** — crossing a DRAM row adds a re-activation
//!   penalty, which keeps even perfect streaming slightly under peak, as
//!   the paper observes (89.6 of 128 GB/s).
//!
//! [`Hbm`] is the component the accelerator model ticks; [`patterns`]
//! contains the CSR vs C²SR access-pattern drivers that regenerate Fig. 6.
//!
//! For robustness campaigns the device also accepts a deterministic
//! [`MemFaults`] schedule ([`Hbm::set_faults`]): per-channel service
//! stalls and admission refusals whose effects are counted in
//! [`FaultCounters`]. An empty schedule leaves behaviour bit-identical to
//! a fault-free device.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod config;
pub mod fault;
mod hbm;
pub mod patterns;
mod request;

pub use channel::ChannelStats;
pub use config::{AddressMap, HbmConfig};
pub use fault::{FaultCounters, FaultWindow, MemFaults};
pub use hbm::{channel_bit, Hbm, HbmStats};
pub use request::{MemKind, MemRequest, MemResponse, RequestId};
