//! The MIX server front-end: many concurrent QDOM sessions over the
//! framed wire protocol.
//!
//! The paper's architecture puts a thin navigation client on one side
//! of a network boundary and the mediator on the other. `mix-serve`
//! implements the mediator side of that boundary over `mix-proto`'s
//! framed protocol:
//!
//! * [`Server`] — a TCP listener that multiplexes every accepted
//!   connection over a **bounded worker pool**: one acceptor blocked in
//!   `accept`, one small reader thread per connection blocked in `read`
//!   that decodes frames into its session's event queue, and a fixed
//!   number of session workers woken by a condvar. However many
//!   sessions are connected, at most [`ServerConfig::workers`] execute
//!   at once, and every thread waits in the kernel — nothing polls.
//!   The engine is `Send + Sync` (`Arc`-based virtual results), so
//!   owned sessions migrate across workers between commands; the server
//!   builds a *fresh mediator per session* from a caller-supplied
//!   factory, and sessions share exactly what the factory wires in —
//!   e.g. a process-wide [`mix_qdom::SharedPlanCache`] and the pooled
//!   prefetch executor. The workspace carries no async runtime — the
//!   listener is plain blocking `std::net`, which keeps the whole stack
//!   dependency-free.
//! * Session lifecycle — a `Hello`/`Welcome` handshake (version
//!   checked, and due within two seconds of connecting), an idle
//!   timeout that closes silent sessions, and a clean `Bye` in both
//!   directions.
//! * Admission control — a `max_sessions` cap answered with
//!   `Frame::Reject` at handshake, and a per-session node budget
//!   answered with `Reply::Err` at query admission, so an overloaded
//!   server degrades with clean errors instead of collapsing.
//! * Graceful shutdown — [`Server::shutdown`] stops accepting, lets
//!   every in-flight command finish, sends `Bye`, joins every worker,
//!   and drops every session (which joins its prefetcher threads:
//!   `active_prefetchers()` returns to zero).
//! * [`WireClient`] — the thin client: connects, speaks the handshake,
//!   and exposes the same named methods as the in-process
//!   `QdomSession`, returning the same `MixError`s.

#![deny(missing_docs)]

mod client;
mod server;

pub use client::{WireClient, WireError};
pub use server::{MediatorFactory, Server, ServerConfig};
