//! Binary encoding of journal segments and records (format version 1).
//!
//! A segment file is a fixed 16-byte header followed by a run of record
//! frames:
//!
//! ```text
//! header  := magic "DCYJ" | version u16 LE | flags u16 LE | first_seq u64 LE
//! frame   := varint(body_len) | body | crc32(body) u32 LE
//! body    := varint(seq) | payload
//! payload := the Event encoding below
//! ```
//!
//! The in-memory event store keeps every event as `varint(len) | payload`
//! in its chunks (`put_event`); its journal sink frames a copy of those
//! payload bytes (`put_frame`), so a spooled record's bytes are the ones
//! [`put_record`] writes for the same event.
//!
//! `seq` is the global record sequence number, starting at 0 for the first
//! record of the journal and increasing by exactly one per record across
//! segment boundaries; `first_seq` in the header repeats the sequence number
//! the segment starts at. Together they make splices, duplicated segments,
//! reordered segments, and dropped segments detectable as hard corruption
//! instead of silently replaying events out of order.
//!
//! The CRC is a from-scratch, std-only CRC-32 (IEEE 802.3, reflected,
//! polynomial `0xEDB88320`) over `body` only: a flipped bit anywhere in the
//! sequence number or payload fails the check, and a tampered length prefix
//! shifts which bytes are read as `body`/`crc` so it fails too. Encoder and
//! decoder share one implementation, [`crc32`], which lives in
//! [`super::decode`] and folds eight bytes per step through compile-time
//! tables.
//!
//! Event payload encoding (all integers varint unless noted):
//!
//! ```text
//! ts | dbms u8 | level u8 | config u8 | instance | ip_tag u8 (4|6) |
//! ip bytes (4|16) | session | kind_tag u8 | kind fields
//! ```
//!
//! Strings are `varint(len) | UTF-8 bytes`. Kind tags and their fields:
//! `0` Connect, `1` Disconnect, `2` LoginAttempt (username, password,
//! success u8), `3` Command (action, raw), `4` Payload (len, has_recognized
//! u8, `[recognized]`, preview), `5` Malformed (detail), `6` Health (state u8,
//! restarts, detail).
//!
//! The decoding side lives in [`super::decode`]: it parses potentially
//! corrupt on-disk bytes and must be total.
#![allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "the encoder indexes and narrows only into buffers it sized itself, on every \
              append; it never reads bytes from outside"
)]

use super::decode::crc32;
use crate::events::{ConfigVariant, Dbms, Event, EventKindRef, EventRef, InteractionLevel};
use decoy_base::HealthState;
use std::net::IpAddr;

/// Segment file magic.
pub const MAGIC: [u8; 4] = *b"DCYJ";
/// Current format version.
pub const VERSION: u16 = 1;
/// Byte length of the segment header.
pub const HEADER_LEN: usize = 16;
/// Upper bound on one record body. Events are small (strings are bounded by
/// the listeners' session byte budgets); anything larger on disk is
/// corruption, and the cap keeps a tampered length prefix from driving a
/// giant allocation during recovery.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Append `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The LEB128 varint of `v` on the stack, for a record's length prefix:
/// the first `len` bytes of the array. [`put_varint`] pushes byte by byte
/// instead; routing every field through this array made the encoder
/// slower.
fn varint_bytes(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut len = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            bytes[len] = byte;
            return (bytes, len + 1);
        }
        bytes[len] = byte | 0x80;
        len += 1;
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Stable wire tag of a DBMS.
pub fn dbms_tag(dbms: Dbms) -> u8 {
    match dbms {
        Dbms::MySql => 0,
        Dbms::Postgres => 1,
        Dbms::Redis => 2,
        Dbms::Mssql => 3,
        Dbms::Elastic => 4,
        Dbms::MongoDb => 5,
        Dbms::CouchDb => 6,
    }
}

/// Stable wire tag of an interaction level.
pub fn level_tag(level: InteractionLevel) -> u8 {
    match level {
        InteractionLevel::Low => 0,
        InteractionLevel::Medium => 1,
        InteractionLevel::High => 2,
    }
}

/// Stable wire tag of a configuration variant.
pub fn config_tag(config: ConfigVariant) -> u8 {
    match config {
        ConfigVariant::Default => 0,
        ConfigVariant::FakeData => 1,
        ConfigVariant::LoginDisabled => 2,
        ConfigVariant::MultiService => 3,
        ConfigVariant::SingleService => 4,
    }
}

/// Stable wire tag of a health state.
pub fn health_tag(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Down => 2,
    }
}

/// Append the payload encoding of `event`: the bytes a record frame holds
/// after its sequence number, and the bytes the event store keeps.
pub(crate) fn put_event(out: &mut Vec<u8>, event: EventRef<'_>) {
    put_varint(out, event.ts.as_millis());
    out.push(dbms_tag(event.honeypot.dbms));
    out.push(level_tag(event.honeypot.level));
    out.push(config_tag(event.honeypot.config));
    put_varint(out, u64::from(event.honeypot.instance));
    match event.src {
        IpAddr::V4(ip) => {
            out.push(4);
            out.extend_from_slice(&ip.octets());
        }
        IpAddr::V6(ip) => {
            out.push(6);
            out.extend_from_slice(&ip.octets());
        }
    }
    put_varint(out, event.session);
    match event.kind {
        EventKindRef::Connect => out.push(0),
        EventKindRef::Disconnect => out.push(1),
        EventKindRef::LoginAttempt {
            username,
            password,
            success,
        } => {
            out.push(2);
            put_str(out, username);
            put_str(out, password);
            out.push(u8::from(success));
        }
        EventKindRef::Command { action, raw } => {
            out.push(3);
            put_str(out, action);
            put_str(out, raw);
        }
        EventKindRef::Payload {
            len,
            recognized,
            preview,
        } => {
            out.push(4);
            put_varint(out, len as u64);
            match recognized {
                Some(label) => {
                    out.push(1);
                    put_str(out, label);
                }
                None => out.push(0),
            }
            put_str(out, preview);
        }
        EventKindRef::Malformed { detail } => {
            out.push(5);
            put_str(out, detail);
        }
        EventKindRef::Health {
            state,
            restarts,
            detail,
        } => {
            out.push(6);
            out.push(health_tag(state));
            put_varint(out, u64::from(restarts));
            put_str(out, detail);
        }
    }
}

/// Append the 16-byte segment header for a segment starting at `first_seq`.
pub fn put_header(out: &mut Vec<u8>, first_seq: u64) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    out.extend_from_slice(&first_seq.to_le_bytes());
}

/// Append one complete record frame for `event` at sequence `seq`.
// decoy-hot-path: fn -- encodes every event a `JournalWriter` appends
pub fn put_record<'a>(out: &mut Vec<u8>, seq: u64, event: impl Into<EventRef<'a>>) {
    let start = out.len();
    out.push(0);
    put_varint(out, seq);
    put_event(out, event.into());
    finish_frame(out, start);
}

/// Append one complete record frame at sequence `seq` around `payload`, an
/// event already encoded by [`put_event`]: the frame [`put_record`] writes
/// for that event.
// decoy-hot-path: fn -- frames every spooled event, under the store write lock
pub(crate) fn put_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    let start = out.len();
    out.push(0);
    put_varint(out, seq);
    out.extend_from_slice(payload);
    finish_frame(out, start);
}

/// Finish the frame whose body was written after a one-byte length
/// placeholder at `start`: fill in the length and append the body's CRC. A
/// body of 128 bytes or more needs a longer length prefix, so it moves
/// right to make room for it.
fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let end = out.len();
    let body_len = end - start - 1;
    let body_start = if body_len < 0x80 {
        out[start] = body_len as u8;
        start + 1
    } else {
        let (prefix, len) = varint_bytes(body_len as u64);
        out.resize(end + len - 1, 0);
        out.copy_within(start + 1..end, start + len);
        out[start..start + len].copy_from_slice(&prefix[..len]);
        start + len
    };
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encode a complete standalone segment: header plus one frame per event,
/// sequence numbers starting at `first_seq`. This is what `JournalWriter`
/// produces incrementally; tests and the fuzz campaign use it to build
/// corpora without touching the filesystem.
pub fn encode_segment(first_seq: u64, events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + events.len() * 64);
    put_header(&mut out, first_seq);
    for (i, event) in events.iter().enumerate() {
        put_record(&mut out, first_seq.saturating_add(i as u64), event);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::decode::tests::{at, every_kind};
    use super::*;
    use crate::events::EventKind;

    /// The two-pass encoder the in-place one replaced, kept as its oracle:
    /// the body into a buffer of its own, then its length, the body and
    /// its CRC. Returns the body's length.
    fn put_record_two_pass(out: &mut Vec<u8>, seq: u64, event: &Event) -> usize {
        let mut body = Vec::new();
        put_varint(&mut body, seq);
        put_event(&mut body, event.view());
        put_varint(out, body.len() as u64);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        body.len()
    }

    #[test]
    fn in_place_records_match_the_two_pass_oracle() {
        let command = |len: usize| {
            at(
                "198.51.100.7",
                len as u64,
                EventKind::Command {
                    action: "SET".into(),
                    raw: "k".repeat(len),
                },
            )
        };
        let mut events: Vec<Event> = (0..=300).chain([20_000]).map(command).collect();
        events.extend(every_kind());
        // one shared buffer, so a widened prefix must leave the frames
        // before it untouched
        let (mut in_place, mut two_pass) = (Vec::new(), Vec::new());
        let mut body_lens = Vec::new();
        for (seq, event) in (1u64 << 35..).zip(&events) {
            let start = in_place.len();
            put_record(&mut in_place, seq, event);
            body_lens.push(put_record_two_pass(&mut two_pass, seq, event));
            assert_eq!(in_place[start..], two_pass[start..], "{event:?}");
        }
        assert_eq!(in_place, two_pass);
        // bodies on both sides of the one-byte prefix, and one that needs three
        assert!(body_lens.contains(&127) && body_lens.contains(&128));
        assert!(body_lens.iter().any(|&len| len >= 1 << 14));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn varint_boundaries() {
        for (v, len) in [
            (0u64, 1usize),
            (0x7F, 1),
            (0x80, 2),
            (0x3FFF, 2),
            (0x4000, 3),
            (u64::MAX, 10),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), len, "varint({v})");
        }
    }

    #[test]
    fn header_shape() {
        let mut out = Vec::new();
        put_header(&mut out, 0x0102_0304_0506_0708);
        assert_eq!(out.len(), HEADER_LEN);
        assert_eq!(&out[..4], b"DCYJ");
        assert_eq!(u16::from_le_bytes([out[4], out[5]]), VERSION);
    }
}
