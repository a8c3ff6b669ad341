//! Sans-IO honeypot sessions.
//!
//! Every honeypot's protocol logic is a [`Session`]: a state machine that
//! takes one decoded client frame at a time and answers with the frames to
//! write back, with no socket, no runtime and no clock but the logger's.
//! [`Conversation`] is the one place a connection's life is logged around
//! such a machine: the connect, a decode fault, a failed write, the
//! disconnect. decoy-fleet's shell drives a conversation over a socket;
//! this crate's tests drive the same conversation in memory, so every
//! transcript and mutation campaign runs the code a live attacker reaches.

use crate::logging::SessionLogger;
use decoy_base::rng::{splitmix64, Rng};
use decoy_wire::codec::Codec;
use decoy_wire::error::NetResult;
use std::net::IpAddr;

/// A frame a session reads.
pub type Frame<S> = <<S as Session>::Codec as Codec>::In;
/// A frame a session writes.
pub type Reply<S> = <<S as Session>::Codec as Codec>::Out;

/// Whether a session reads on after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Read the next frame.
    Continue,
    /// Write what was pushed, then close the connection.
    Close,
}

/// One honeypot's protocol logic for one connection.
///
/// A deployed honeypot is a machine in its initial state; each accepted
/// connection runs a clone of it, so per-session state (a pending user
/// name, a login phase) starts fresh while shared state (a keyspace, a
/// document store, behind an `Arc`) is the instance's.
pub trait Session {
    /// The server side of the honeypot's wire protocol.
    type Codec: Codec;

    /// A codec for one connection.
    fn codec(&self) -> Self::Codec;

    /// Called once after the connect is logged, before any frame is read.
    /// Server-speaks-first protocols (MySQL) push their greeting here.
    fn open(&mut self, _out: &mut Vec<Reply<Self>>, _log: &SessionLogger) {}

    /// Answer one decoded client frame: log what it shows, push the replies
    /// in the order they are written, and say whether the session reads on.
    fn on_frame(
        &mut self,
        frame: Frame<Self>,
        out: &mut Vec<Reply<Self>>,
        log: &SessionLogger,
    ) -> Flow;
}

/// One connection's life around a [`Session`], with no I/O: the caller
/// writes [`Conversation::replies`], reads a frame while
/// [`Conversation::is_open`], hands the read's outcome to
/// [`Conversation::read`], and ends with [`Conversation::close`].
pub struct Conversation<S: Session> {
    machine: S,
    log: SessionLogger,
    out: Vec<Reply<S>>,
    flow: Flow,
}

impl<S: Session> Conversation<S> {
    /// Log the connect and let the machine speak first.
    pub fn open(mut machine: S, log: SessionLogger) -> Self {
        log.connect();
        let mut out = Vec::new();
        machine.open(&mut out, &log);
        Conversation {
            machine,
            log,
            out,
            flow: Flow::Continue,
        }
    }

    /// The frames to write, in order. All of them go out before the next
    /// read.
    pub fn replies(&mut self) -> std::vec::Drain<'_, Reply<S>> {
        self.out.drain(..)
    }

    /// Whether the session reads another frame.
    pub fn is_open(&self) -> bool {
        self.flow == Flow::Continue
    }

    /// Hand over what one frame read produced: a frame goes to the machine,
    /// a clean end of stream ends the session, and a read error is logged
    /// through [`SessionLogger::fault`] with the bytes left undecoded
    /// (`buffered`) and ends it too.
    pub fn read(&mut self, read: NetResult<Option<Frame<S>>>, buffered: &[u8]) {
        self.flow = match read {
            Ok(Some(frame)) => self.machine.on_frame(frame, &mut self.out, &self.log),
            Ok(None) => Flow::Close,
            Err(e) => {
                self.log.fault(buffered, &e);
                Flow::Close
            }
        };
    }

    /// End the session: a failed write (`written`) is logged as malformed
    /// when the peer caused it, then the disconnect.
    pub fn close(self, written: NetResult<()>) {
        if let Err(e) = written {
            if e.is_peer_fault() {
                self.log.malformed(e.to_string());
            }
        }
        self.log.disconnect();
    }
}

/// The generator one connection draws its greeting secrets from (a MySQL
/// scramble and thread id, a PostgreSQL cancel key), seeded from the
/// honeypot, the session number and the source: two connections differ,
/// and a replay of the same connection repeats its bytes.
pub(crate) fn connection_rng(log: &SessionLogger) -> Rng {
    let src = match log.src() {
        IpAddr::V4(v4) => v4.to_ipv6_mapped().octets(),
        IpAddr::V6(v6) => v6.octets(),
    };
    let mut key = log.honeypot().to_string().into_bytes();
    key.extend(log.session().to_le_bytes());
    key.extend(src);
    let seed = key
        .into_iter()
        .fold(0, |h, byte| splitmix64(h ^ u64::from(byte)));
    Rng::seed_from_u64(seed)
}
