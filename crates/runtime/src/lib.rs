//! # recon-runtime
//!
//! The readiness-driven runtime under the workspace's sans-I/O protocol
//! stack: the layer that turns "a [`SessionCore`] never blocks" from a design
//! principle into served traffic. Built entirely on raw OS readiness APIs —
//! this workspace compiles with no external crates — it provides, bottom up:
//!
//! * [`sys`] — `extern "C"` bindings for `epoll`, `poll(2)`, `O_NONBLOCK`,
//!   `readv`/`writev` and `SO_REUSEPORT` listeners; the crate's only `unsafe`
//!   module, mirroring `crates/iblt/src/kernels.rs`.
//! * [`Poller`] — one blocking wait over many descriptors, with an
//!   edge-triggered epoll backend on Linux and a portable, level-triggered
//!   `poll(2)` fallback selected at runtime (`RECON_RUNTIME_FORCE_POLL`, or
//!   [`Poller::with_backend`] in code).
//! * [`TimerWheel`] — hashed-wheel deadlines for sessions that stall.
//! * [`Reactor`] — many multiplexed [`Endpoint`]s over [`Pollable`] stream
//!   transports, pumped only on readiness ([`Endpoint::poll_ready`]), with
//!   precise write-interest re-arming ([`Endpoint::is_write_blocked`]),
//!   per-session deadlines, and graceful `Fin` draining. The transports drain
//!   to `WouldBlock` on every event, so edge-triggered epoll lets the kernel
//!   skip re-scanning still-ready descriptors. [`drive_endpoint`]
//!   is the single-connection client-side loop on the same machinery.
//! * [`Server`] — N worker reactors serving TCP, each accepting on a
//!   listener of its own (a per-worker `SO_REUSEPORT` listener on Linux, a
//!   clone of one shared listener elsewhere) and recycling connection
//!   buffers through a `BufferPool`.
//!
//! What stays out: protocol logic (the parties, sessions and accounting live
//! in `recon-protocol` and the family crates, unchanged), and any form of
//! work-stealing between reactors — sessions are single-threaded state
//! machines, so a connection lives its whole life on the worker that
//! accepted it.
//!
//! [`SessionCore`]: recon_protocol::SessionCore
//! [`Endpoint`]: recon_protocol::Endpoint
//! [`Endpoint::poll_ready`]: recon_protocol::Endpoint::poll_ready
//! [`Endpoint::is_write_blocked`]: recon_protocol::Endpoint::is_write_blocked
//! [`Pollable`]: recon_protocol::Pollable

#![cfg(unix)]
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod poller;
pub mod reactor;
pub mod server;
pub mod sys;
pub mod timer;

pub use poller::{Backend, Event, Interest, Poller};
pub use reactor::{drive_endpoint, ConnId, Finished, Reactor, ReactorConfig, Waker};
pub use server::{
    connect_endpoint, Server, ServerConfig, ServerStats, TcpEndpoint, TcpService, TcpTransport,
};
#[cfg(target_os = "linux")]
pub use sys::reuseport_listener;
pub use sys::{set_nonblocking, RawFdIo};
pub use timer::TimerWheel;
