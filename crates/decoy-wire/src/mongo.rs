//! MongoDB wire protocol and a from-scratch BSON codec.
//!
//! Supports `OP_MSG` (modern drivers and attack scripts), the legacy
//! `OP_QUERY`/`OP_REPLY` pair (used by scanners for `isMaster` probes), and
//! the BSON subset every observed interaction needs. The high-interaction
//! honeypot serves a real document store through these messages; the ransom
//! campaigns of §6.3 (Listings 7–8) are full `find` → `drop` → `insert`
//! round trips over this code.

// decoy-hot-path: file -- per-frame decode/encode, one call per wire message

pub mod bson;

use crate::buf::{Bytes, RecvBuf};
use crate::codec::Codec;
use crate::cursor::{sat_i32, ByteCursor};
use crate::error::{NetError, NetResult, WireError, WireErrorKind, WireProtocol};
use bson::Document;

/// Opcode: OP_REPLY (server → client, answers OP_QUERY).
pub const OP_REPLY: i32 = 1;
/// Opcode: OP_QUERY (legacy client request).
pub const OP_QUERY: i32 = 2004;
/// Opcode: OP_MSG (modern bidirectional message).
pub const OP_MSG: i32 = 2013;

/// Shorthand for a Mongo wire error at `offset`.
fn merr(offset: usize, kind: WireErrorKind) -> NetError {
    WireError::new(WireProtocol::Mongo, offset, kind).into()
}

/// A complete MongoDB wire message.
#[derive(Debug, Clone, PartialEq)]
pub struct MongoMessage {
    /// Client-chosen identifier, echoed in `response_to` of the reply.
    pub request_id: i32,
    /// Identifier of the request this answers (0 for requests).
    pub response_to: i32,
    /// The typed body.
    pub body: MongoBody,
}

/// Message body variants.
#[derive(Debug, Clone, PartialEq)]
pub enum MongoBody {
    /// `OP_MSG` with its kind-0 body document and any kind-1 sequences.
    Msg {
        /// Flag bits (bit 0 = checksum present, tolerated and ignored).
        flags: u32,
        /// The kind-0 section document (the command).
        doc: Document,
        /// kind-1 document sequences: `(identifier, documents)`.
        sequences: Vec<(String, Vec<Document>)>,
    },
    /// Legacy `OP_QUERY`.
    Query {
        /// Full collection namespace, e.g. `admin.$cmd`.
        collection: String,
        /// Documents to skip.
        skip: i32,
        /// Maximum documents to return.
        limit: i32,
        /// The query document.
        query: Document,
    },
    /// Legacy `OP_REPLY`.
    Reply {
        /// Cursor id (0 when exhausted).
        cursor_id: i64,
        /// Starting offset of this batch.
        starting_from: i32,
        /// Returned documents.
        documents: Vec<Document>,
    },
    /// Unrecognized opcode, payload preserved for logging.
    Unknown {
        /// The opcode observed.
        opcode: i32,
        /// Raw body bytes (a zero-copy view of the read buffer).
        bytes: Bytes,
    },
}

impl MongoMessage {
    /// An `OP_MSG` request carrying a command document.
    pub fn msg(request_id: i32, doc: Document) -> Self {
        MongoMessage {
            request_id,
            response_to: 0,
            body: MongoBody::Msg {
                flags: 0,
                doc,
                sequences: vec![],
            },
        }
    }

    /// An `OP_MSG` reply to `request`.
    pub fn msg_reply(request: &MongoMessage, doc: Document) -> Self {
        MongoMessage {
            request_id: request.request_id.wrapping_add(1),
            response_to: request.request_id,
            body: MongoBody::Msg {
                flags: 0,
                doc,
                sequences: vec![],
            },
        }
    }

    /// An `OP_REPLY` answering a legacy `OP_QUERY`.
    pub fn reply(request: &MongoMessage, documents: Vec<Document>) -> Self {
        MongoMessage {
            request_id: request.request_id.wrapping_add(1),
            response_to: request.request_id,
            body: MongoBody::Reply {
                cursor_id: 0,
                starting_from: 0,
                documents,
            },
        }
    }

    /// The command document, whichever opcode carried it.
    pub fn command_doc(&self) -> Option<&Document> {
        match &self.body {
            MongoBody::Msg { doc, .. } => Some(doc),
            MongoBody::Query { query, .. } => Some(query),
            _ => None,
        }
    }

    /// The command name: first key of the command document, lowercased
    /// (MongoDB command names are case-insensitive in practice for the
    /// handshake commands scanners send).
    pub fn command_name(&self) -> Option<String> {
        self.command_doc()
            .and_then(|d| d.keys().next().map(|k| k.to_lowercase()))
    }
}

/// Codec for MongoDB wire messages (both directions).
#[derive(Debug, Clone, Default)]
pub struct MongoCodec;

impl Codec for MongoCodec {
    type In = MongoMessage;
    type Out = MongoMessage;

    fn decode(&mut self, buf: &mut RecvBuf) -> NetResult<Option<MongoMessage>> {
        let Some(header) = buf.first_chunk::<16>() else {
            return Ok(None);
        };
        let mut cur = ByteCursor::new(header, WireProtocol::Mongo);
        let declared = cur.i32_le()?;
        let request_id = cur.i32_le()?;
        let response_to = cur.i32_le()?;
        let opcode = cur.i32_le()?;
        let len = usize::try_from(declared)
            .ok()
            .filter(|&n| (16..=self.max_frame_len()).contains(&n))
            .ok_or_else(|| {
                merr(
                    0,
                    WireErrorKind::LengthOutOfRange {
                        declared: u64::try_from(declared).unwrap_or(0),
                        max: self.max_frame_len() as u64,
                    },
                )
            })?;
        if buf.len() < len {
            return Ok(None);
        }
        buf.advance(16);
        // Zero-copy: the body detaches as a shared view; `Unknown` keeps it
        // whole, the typed opcodes parse out of the borrow.
        let body_bytes = buf.split_to(len - 16);
        let body = parse_body(opcode, body_bytes)?;
        Ok(Some(MongoMessage {
            request_id,
            response_to,
            body,
        }))
    }

    fn encode(&mut self, frame: &MongoMessage, buf: &mut Vec<u8>) -> NetResult<()> {
        // Reserve the length and opcode words, encode the body directly
        // into `buf`, then patch — no staging buffer, no body copy.
        let start = buf.len();
        buf.extend_from_slice(&0i32.to_le_bytes()); // messageLength, patched below
        buf.extend_from_slice(&frame.request_id.to_le_bytes());
        buf.extend_from_slice(&frame.response_to.to_le_bytes());
        let op_pos = buf.len();
        buf.extend_from_slice(&0i32.to_le_bytes()); // opCode, patched below
        let opcode = encode_body(&frame.body, buf)?;
        let total = sat_i32(buf.len().saturating_sub(start));
        if let Some(slot) = buf.get_mut(start..start.saturating_add(4)) {
            slot.copy_from_slice(&total.to_le_bytes());
        }
        if let Some(slot) = buf.get_mut(op_pos..op_pos.saturating_add(4)) {
            slot.copy_from_slice(&opcode.to_le_bytes());
        }
        Ok(())
    }

    fn max_frame_len(&self) -> usize {
        crate::MAX_FRAME // MongoDB's maxMessageSizeBytes (48 MiB)
    }
}

/// Parse an `OP_MSG` body. `bytes` starts right after the 16-byte message
/// header, so absolute offsets in errors are `16 + relative`.
fn parse_op_msg(bytes: &[u8]) -> NetResult<MongoBody> {
    let Some(&flag_bytes) = bytes.first_chunk::<4>() else {
        return Err(merr(
            16,
            WireErrorKind::Truncated {
                needed: 4,
                available: bytes.len(),
            },
        ));
    };
    let flags = u32::from_le_bytes(flag_bytes);
    let mut rest = bytes.get(4..).unwrap_or_default();
    let mut at = 20usize; // absolute offset of `rest` within the message
    if flags & 0x1 != 0 {
        // Checksum present: trim the trailing CRC32C, which we tolerate
        // without verifying.
        let Some(keep) = rest.len().checked_sub(4) else {
            return Err(merr(
                at,
                WireErrorKind::Truncated {
                    needed: 4,
                    available: rest.len(),
                },
            ));
        };
        rest = rest.get(..keep).unwrap_or_default();
    }
    let mut doc = None;
    let mut sequences = vec![];
    while let Some((&kind, tail)) = rest.split_first() {
        at += 1;
        match kind {
            0 => {
                let (d, used) = bson::decode_document_at(tail, at)?;
                rest = tail.get(used..).unwrap_or_default();
                at += used;
                if doc.is_some() {
                    return Err(merr(
                        at,
                        WireErrorKind::Malformed {
                            detail: "duplicate kind-0 section",
                        },
                    ));
                }
                doc = Some(d);
            }
            1 => {
                let Some(&size_bytes) = tail.first_chunk::<4>() else {
                    return Err(merr(
                        at,
                        WireErrorKind::Truncated {
                            needed: 4,
                            available: tail.len(),
                        },
                    ));
                };
                let declared = i32::from_le_bytes(size_bytes);
                let size = usize::try_from(declared)
                    .ok()
                    .filter(|&n| n >= 4 && n <= tail.len())
                    .ok_or_else(|| {
                        merr(
                            at,
                            WireErrorKind::LengthOutOfRange {
                                declared: u64::try_from(declared).unwrap_or(0),
                                max: tail.len() as u64,
                            },
                        )
                    })?;
                let mut section = tail.get(4..size).unwrap_or_default();
                let mut section_at = at + 4;
                rest = tail.get(size..).unwrap_or_default();
                let nul = section.iter().position(|&b| b == 0).ok_or_else(|| {
                    merr(
                        section_at,
                        WireErrorKind::Unterminated {
                            what: "sequence identifier",
                        },
                    )
                })?;
                let identifier =
                    String::from_utf8_lossy(section.get(..nul).unwrap_or_default()).into_owned();
                section = section.get(nul + 1..).unwrap_or_default();
                section_at += nul + 1;
                let mut docs = vec![];
                while !section.is_empty() {
                    let (d, used) = bson::decode_document_at(section, section_at)?;
                    section = section.get(used..).unwrap_or_default();
                    section_at += used;
                    docs.push(d);
                }
                at += size;
                sequences.push((identifier, docs));
            }
            _ => {
                return Err(merr(
                    at - 1,
                    WireErrorKind::BadMagic {
                        what: "OP_MSG section kind",
                    },
                ))
            }
        }
    }
    let doc = doc.ok_or_else(|| {
        merr(
            16,
            WireErrorKind::Malformed {
                detail: "OP_MSG without kind-0 section",
            },
        )
    })?;
    Ok(MongoBody::Msg {
        flags,
        doc,
        sequences,
    })
}

fn parse_body(opcode: i32, bytes: Bytes) -> NetResult<MongoBody> {
    match opcode {
        OP_MSG => parse_op_msg(&bytes),
        OP_QUERY => {
            let mut cur = ByteCursor::with_base(&bytes, WireProtocol::Mongo, 16);
            cur.skip(4)?; // flags
            let collection = cur.cstring_lossy()?;
            let skip = cur.i32_le()?;
            let limit = cur.i32_le()?;
            let at = cur.offset();
            let (query, _used) = bson::decode_document_at(cur.rest(), at)?;
            Ok(MongoBody::Query {
                collection,
                skip,
                limit,
                query,
            })
        }
        OP_REPLY => {
            let mut cur = ByteCursor::with_base(&bytes, WireProtocol::Mongo, 16);
            cur.skip(4)?; // responseFlags
            let cursor_id = cur.i64_le()?;
            let starting_from = cur.i32_le()?;
            let n = cur.i32_le()?;
            let mut doc_at = cur.offset();
            let mut rest = cur.rest();
            let mut documents = vec![];
            for _ in 0..n.max(0) {
                let (d, used) = bson::decode_document_at(rest, doc_at)?;
                rest = rest.get(used..).unwrap_or_default();
                doc_at += used;
                documents.push(d);
            }
            Ok(MongoBody::Reply {
                cursor_id,
                starting_from,
                documents,
            })
        }
        other => Ok(MongoBody::Unknown {
            opcode: other,
            bytes,
        }),
    }
}

fn encode_body(body: &MongoBody, out: &mut Vec<u8>) -> NetResult<i32> {
    match body {
        MongoBody::Msg {
            flags,
            doc,
            sequences,
        } => {
            out.extend_from_slice(&(flags & !0x1).to_le_bytes()); // never emit checksums
            out.push(0);
            bson::encode_document(doc, out);
            for (identifier, docs) in sequences {
                out.push(1);
                // The section's size word counts itself; patched once the
                // section is written straight into `out`.
                let size_at = out.len();
                out.extend_from_slice(&0i32.to_le_bytes());
                out.extend_from_slice(identifier.as_bytes());
                out.push(0);
                for d in docs {
                    bson::encode_document(d, out);
                }
                let size = sat_i32(out.len().saturating_sub(size_at));
                if let Some(slot) = out.get_mut(size_at..size_at.saturating_add(4)) {
                    slot.copy_from_slice(&size.to_le_bytes());
                }
            }
            Ok(OP_MSG)
        }
        MongoBody::Query {
            collection,
            skip,
            limit,
            query,
        } => {
            out.extend_from_slice(&0i32.to_le_bytes()); // flags
            out.extend_from_slice(collection.as_bytes());
            out.push(0);
            out.extend_from_slice(&skip.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
            bson::encode_document(query, out);
            Ok(OP_QUERY)
        }
        MongoBody::Reply {
            cursor_id,
            starting_from,
            documents,
        } => {
            out.extend_from_slice(&8i32.to_le_bytes()); // responseFlags: AwaitCapable
            out.extend_from_slice(&cursor_id.to_le_bytes());
            out.extend_from_slice(&starting_from.to_le_bytes());
            out.extend_from_slice(&sat_i32(documents.len()).to_le_bytes());
            for d in documents {
                bson::encode_document(d, out);
            }
            Ok(OP_REPLY)
        }
        MongoBody::Unknown { opcode, bytes } => {
            out.extend_from_slice(bytes);
            Ok(*opcode)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bson::{doc, Bson};
    use super::*;

    fn roundtrip(msg: MongoMessage) -> MongoMessage {
        let mut codec = MongoCodec;
        let mut buf = Vec::new();
        codec.encode(&msg, &mut buf).unwrap();
        let mut buf = RecvBuf::from(buf);
        let decoded = codec.decode(&mut buf).unwrap().unwrap();
        assert!(buf.is_empty());
        decoded
    }

    #[test]
    fn op_msg_roundtrip() {
        let msg = MongoMessage::msg(
            7,
            doc! { "find" => "customers", "$db" => "shop", "limit" => 100i32 },
        );
        let decoded = roundtrip(msg.clone());
        assert_eq!(decoded, msg);
        assert_eq!(decoded.command_name().as_deref(), Some("find"));
    }

    #[test]
    fn op_msg_with_sequences() {
        let msg = MongoMessage {
            request_id: 1,
            response_to: 0,
            body: MongoBody::Msg {
                flags: 0,
                doc: doc! { "insert" => "notes", "$db" => "ransom" },
                sequences: vec![(
                    "documents".into(),
                    vec![
                        doc! { "note" => "All your data is backed up." },
                        doc! { "btc" => 0.0058f64 },
                    ],
                )],
            },
        };
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn legacy_ismaster_query_and_reply() {
        let query = MongoMessage {
            request_id: 42,
            response_to: 0,
            body: MongoBody::Query {
                collection: "admin.$cmd".into(),
                skip: 0,
                limit: -1,
                query: doc! { "isMaster" => 1i32 },
            },
        };
        let decoded = roundtrip(query.clone());
        assert_eq!(decoded, query);
        assert_eq!(decoded.command_name().as_deref(), Some("ismaster"));

        let reply = MongoMessage::reply(
            &query,
            vec![doc! { "ismaster" => true, "maxWireVersion" => 17i32, "ok" => 1.0f64 }],
        );
        let decoded = roundtrip(reply.clone());
        assert_eq!(decoded, reply);
        assert_eq!(decoded.response_to, 42);
    }

    #[test]
    fn checksum_flag_is_tolerated() {
        let msg = MongoMessage::msg(1, doc! { "ping" => 1i32 });
        let mut codec = MongoCodec;
        let mut buf = Vec::new();
        codec.encode(&msg, &mut buf).unwrap();
        // Rewrite as checksum-present: bump length by 4, set flag bit, append crc.
        let new_len = (buf.len() + 4) as i32;
        buf[0..4].copy_from_slice(&new_len.to_le_bytes());
        buf[16] |= 0x1;
        buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let decoded = codec.decode(&mut RecvBuf::from(buf)).unwrap().unwrap();
        assert_eq!(decoded.command_name().as_deref(), Some("ping"));
    }

    #[test]
    fn unknown_opcode_is_preserved() {
        let msg = MongoMessage {
            request_id: 5,
            response_to: 0,
            body: MongoBody::Unknown {
                opcode: 2010,
                bytes: Bytes::from_static(&[1, 2, 3]),
            },
        };
        assert_eq!(roundtrip(msg.clone()), msg);
    }

    #[test]
    fn partial_messages_wait_for_more() {
        let msg = MongoMessage::msg(9, doc! { "listDatabases" => 1i32 });
        let mut codec = MongoCodec;
        let mut full = Vec::new();
        codec.encode(&msg, &mut full).unwrap();
        for cut in 1..full.len() {
            let mut partial = RecvBuf::from(full[..cut].to_vec());
            assert!(codec.decode(&mut partial).unwrap().is_none(), "cut {cut}");
            assert_eq!(partial.len(), cut);
        }
    }

    #[test]
    fn hostile_lengths_rejected() {
        let mut codec = MongoCodec;
        let mut buf = RecvBuf::from((-5i32).to_le_bytes().to_vec());
        buf.extend_from_slice(&[0u8; 12]);
        let err = codec.decode(&mut buf).unwrap_err();
        match err {
            NetError::Wire(w) => {
                assert_eq!(w.protocol, WireProtocol::Mongo);
                assert_eq!(w.offset, 0);
                assert!(matches!(w.kind, WireErrorKind::LengthOutOfRange { .. }));
            }
            other => panic!("expected wire error, got {other:?}"),
        }
        let mut buf = RecvBuf::default();
        buf.extend_from_slice(&i32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        assert!(codec.decode(&mut buf).is_err());
    }

    #[test]
    fn command_name_of_reply_is_none() {
        let q = MongoMessage::msg(1, doc! { "ping" => 1i32 });
        let r = MongoMessage::reply(&q, vec![]);
        assert_eq!(r.command_name(), None);
        assert_eq!(Bson::from("x"), Bson::String("x".into()));
    }
}
