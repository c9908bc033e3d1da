//! The hostile-wire front end: a real TCP batch API over the service.
//!
//! This module promotes the deterministic [`Service`](crate::Service) to
//! an actual wire-facing batch server (ROADMAP item 3): a std-only
//! [`TcpListener`](std::net::TcpListener) loop speaking a length-prefixed
//! binary protocol ([`frame`]) whose matrices travel in validated
//! columnar CSR framing — contiguous `row_ptr`/`col_idx`/`values`
//! sections sized and bounds-checked as whole buffers before any element
//! is touched, exactly the consumption pattern the paper's C²SR layout is
//! designed for (channel-partitioned contiguous arrays, §IV).
//!
//! The robustness layer is the point of the module:
//!
//! * every frame is guarded by magic/version/size-cap/FNV-1a-checksum
//!   checks, and every refusal is an explicit wire reply mapped onto the
//!   service's [`Rejected`](crate::Rejected) taxonomy ([`RejectCode`]);
//! * reads carry per-call deadlines and bounded read budgets, so
//!   half-open peers, mid-frame stalls, and slow-loris trickle all
//!   terminate deterministically instead of pinning a thread;
//! * connection and frame-size caps turn overload into explicit
//!   backpressure ([`RejectCode::Busy`], [`RejectCode::FrameTooLarge`]);
//! * graceful drain ([`Op::Drain`], [`server::WireServer::shutdown`])
//!   stops admission, finishes or checkpoints every in-flight job through
//!   the core checkpoint pause path ([`crate::Fleet::drain`]), and
//!   flushes replies before the process exits;
//! * a seeded wire-fault injector ([`fault`]) replays the whole hostile
//!   repertoire — truncated/oversized/corrupted frames, garbage
//!   preambles, split and coalesced writes, stalls, abrupt closes,
//!   slow-loris — so the `wire_campaign` bench can hold the server to
//!   zero escapes and zero panics.
//!
//! Determinism: the server's `Service` takes `Arc` operands, so it is
//! `Send`; one lock holds it, and each connection thread applies its own
//! requests under that lock, in lock order. A client that serializes its
//! operations therefore replays the simulated-time core bit-identically;
//! wall-clock never enters the service state (timeouts are bounded *read
//! budgets*, not `Instant` reads).

pub mod client;
pub mod fault;
pub mod frame;
pub mod server;

pub use client::{ClientError, RetryPolicy, WireClient};
pub use fault::{FaultObservation, InjectorConfig, WireFaultKind};
pub use frame::{
    JobState, Op, RawFrame, RejectCode, Request, Response, WireError, HEADER_LEN, MAGIC, VERSION,
};
pub use server::{WireCountersSnapshot, WireServer, WireServerConfig, WireShutdown};
