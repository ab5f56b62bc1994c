//! The MIX wire protocol: framed QDOM commands and replies.
//!
//! The paper's client/mediator split has the QDOM command set
//! (`d`/`r`/`fl`/`fv`/`q`) travel between a thin navigation client and
//! the mediator. This crate gives that boundary a concrete shape so the
//! same session surface works in-process and over a socket:
//!
//! * [`Command`] / [`Reply`] — the typed session surface. Node handles
//!   are [`WireNode`]s (the paper's `p₀, p₁, …`): a result index plus a
//!   node id within it, exactly what the in-process `QNode` carries.
//! * [`Frame`] — the connection-level envelope: handshake
//!   ([`Frame::Hello`] / [`Frame::Welcome`] / [`Frame::Reject`]),
//!   command/reply carriage, and the clean-close [`Frame::Bye`].
//! * The codec — a compact length-prefixed binary layout:
//!
//!   ```text
//!   frame   := len:u32le  version:u8  tag:u8  body
//!   body    := scalars (LE fixed width) | str (u32le len + UTF-8)
//!            | sequences (u32le count + elements)
//!   ```
//!
//!   Every frame carries the [`PROTO_VERSION`] byte; decoders reject
//!   mismatched versions and frames longer than [`MAX_FRAME_LEN`]
//!   before allocating. Block replies ship [`mix_common::ColumnBlock`]s in their
//!   native columnar layout (typed vectors + optional validity masks),
//!   so a bulk export costs one column-type tag per column, not one per
//!   cell.
//!
//! Encoding is canonical: `encode(decode(bytes)) == bytes` for every
//! valid frame, and `decode(encode(frame)) == frame` for every frame
//! (pinned by the round-trip property tests).

#![deny(missing_docs)]

mod codec;
mod message;

pub use codec::{read_frame, write_frame, DecodeError, FrameReader, MAX_FRAME_LEN};
pub use message::{Command, Frame, Reply, WireNode};

/// Version byte stamped on every frame. Bump on any layout change.
pub const PROTO_VERSION: u8 = 1;
