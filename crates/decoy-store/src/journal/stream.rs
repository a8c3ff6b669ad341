//! Segment-granular streaming over a journal: closed segments as batches,
//! and a tail that follows a journal while it is still being written.
//!
//! Closed segments are decoded by [`decode_segment`], the one segment
//! decoder, which hands each record with its global sequence number to a
//! visitor and returns the segment's [`SegmentVerdict`]. Strict replay
//! ([`JournalReader::replay`]) folds those verdicts in
//! [`super::decode`]; [`SegmentBatch`] and [`JournalReader::segments`]
//! collect owned copies
//! ([`EventRef::to_event`](crate::events::EventRef::to_event)) of what the
//! decoder visits, one batch per file, with no cross-segment sequencing.
//! The live report uses a [`JournalTail`], which reads the newest segment
//! from an offset and picks up new records as a live writer flushes them.
//! Everything here parses potentially corrupt on-disk bytes, so this file
//! obeys the byte-path rules that clippy holds decoy-store to.
//!
//! Rotation protocol the tail leans on: the writer flushes and fsyncs a
//! segment *before* creating its successor, so once a successor file
//! exists the previous segment is complete on disk. A torn frame in a
//! segment with a successor is therefore real corruption; the same torn
//! frame in the newest segment just means the writer has not finished the
//! record yet, and the tail waits.

use super::decode::{decode_segment, parse_header, read_frame, FrameOutcome, SegmentVerdict};
use super::encode::HEADER_LEN;
use super::{list_segment_indices, segment_path, JournalError, JournalErrorKind, JournalReader};
use crate::events::Event;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One decoded segment file: its [`SegmentVerdict`] plus every record that
/// could be replayed from it, collected.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentBatch {
    /// Zero-based position of the segment in its directory's replay order.
    pub index: u32,
    /// The header's first sequence number — the global sequence of
    /// `events[0]`. Zero when the header itself was unreadable.
    pub first_seq: u64,
    /// Whether the header parsed; when false, `events` is empty and
    /// `error` holds the header failure.
    pub header_ok: bool,
    /// The contiguous valid records, in order.
    pub events: Vec<Event>,
    /// A frame that ran past the end of the segment. Expected on the
    /// newest segment after a crash; corruption anywhere else.
    pub torn: Option<JournalError>,
    /// The first structural corruption, if any.
    pub error: Option<JournalError>,
    /// CRC-valid records found after the first corruption (exist on disk
    /// but cannot be replayed in order).
    pub records_dropped: u64,
    /// Bytes neither decoded nor countable as whole records.
    pub bytes_truncated: u64,
}

impl SegmentBatch {
    /// Decode one segment's bytes into a batch: [`decode_segment`] with a
    /// visitor that keeps every record. Total, like the decoder.
    pub fn decode(buf: &[u8], index: u32) -> SegmentBatch {
        let mut events = Vec::new();
        let SegmentVerdict {
            index,
            first_seq,
            header_ok,
            torn,
            error,
            records_dropped,
            bytes_truncated,
        } = decode_segment(buf, index, |_, event| events.push(event.to_event()));
        SegmentBatch {
            index,
            first_seq,
            header_ok,
            events,
            torn,
            error,
            records_dropped,
            bytes_truncated,
        }
    }
}

/// Iterator over a reader's segment files, one decoded [`SegmentBatch`]
/// per file — one segment in memory at a time, never a whole store.
///
/// A collecting convenience for callers that want each segment's records
/// as a batch; a fold that only reads each record once visits them with
/// [`decode_segment`] instead and holds no per-segment event vector.
pub struct Segments {
    paths: std::vec::IntoIter<PathBuf>,
    index: u32,
}

impl Iterator for Segments {
    type Item = io::Result<SegmentBatch>;

    fn next(&mut self) -> Option<Self::Item> {
        let path = self.paths.next()?;
        let segment = self.index;
        self.index = self.index.saturating_add(1);
        Some(fs::read(&path).map(|buf| SegmentBatch::decode(&buf, segment)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.paths.size_hint()
    }
}

impl ExactSizeIterator for Segments {}

impl JournalReader {
    /// The snapshot's segments as decoded batches, in replay order.
    ///
    /// Unlike [`JournalReader::replay`] this imposes no cross-segment
    /// sequencing: each batch carries its header's `first_seq` and the
    /// caller decides how to stitch or reject. Each batch is
    /// [`SegmentBatch::decode`] of one file's bytes.
    pub fn segments(&self) -> Segments {
        Segments {
            paths: self.segment_paths().to_vec().into_iter(),
            index: 0,
        }
    }
}

/// Follows a journal directory that is still being written, yielding new
/// records as the writer flushes them and crossing segment boundaries once
/// a successor file proves the previous segment complete.
///
/// Infallible to open (the directory may not even exist yet); transient
/// emptiness is just an empty poll. The first structural corruption is
/// sticky: it is reported through [`JournalTail::error`] and every later
/// poll returns no events.
#[derive(Debug)]
pub struct JournalTail {
    dir: PathBuf,
    /// File index of the segment currently being followed.
    segment: Option<u64>,
    /// Zero-based replay position of that segment (for error reports).
    position: u32,
    /// Bytes of the current segment already consumed (header included).
    consumed: u64,
    /// The global sequence number expected next; `None` until the first
    /// header is adopted.
    next_seq: Option<u64>,
    error: Option<JournalError>,
}

impl JournalTail {
    /// Start following `dir`. The directory (and its first segment) may
    /// not exist yet.
    pub fn open(dir: impl AsRef<Path>) -> JournalTail {
        JournalTail {
            dir: dir.as_ref().to_path_buf(),
            segment: None,
            position: 0,
            consumed: 0,
            next_seq: None,
            error: None,
        }
    }

    /// The first corruption encountered, if any. Once set, polls return
    /// no further events.
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    /// Record a sticky error at `rel` bytes past the already-consumed
    /// prefix of the current segment.
    fn fail(&mut self, rel: u64, kind: JournalErrorKind) {
        if self.error.is_none() {
            self.error = Some(JournalError {
                segment: self.position,
                offset: usize::try_from(self.consumed.saturating_add(rel)).unwrap_or(usize::MAX),
                kind,
            });
        }
    }

    /// Collect every record that has become durable since the last poll.
    ///
    /// Returns an empty vec when nothing new is visible (including before
    /// the journal exists at all). I/O errors other than not-yet-existing
    /// files surface as `Err`; structural corruption is reported through
    /// [`JournalTail::error`] instead and ends the tail.
    pub fn poll(&mut self) -> io::Result<Vec<Event>> {
        let mut out = Vec::new();
        if self.error.is_some() {
            return Ok(out);
        }
        loop {
            let indices = match list_segment_indices(&self.dir) {
                Ok(v) => v,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
                Err(e) => return Err(e),
            };
            let current = match self.segment {
                Some(i) => i,
                None => match indices.first() {
                    Some(&i) => {
                        self.segment = Some(i);
                        i
                    }
                    None => return Ok(out),
                },
            };
            let successor = indices.iter().copied().filter(|&i| i > current).min();
            let chunk = match read_from(&segment_path(&self.dir, current), self.consumed) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
                Err(e) => return Err(e),
            };
            let mut pos = 0usize;
            if self.consumed == 0 {
                if chunk.len() < HEADER_LEN {
                    if successor.is_some() {
                        // complete on disk yet shorter than a header
                        self.fail(
                            0,
                            JournalErrorKind::HeaderTruncated {
                                available: chunk.len(),
                            },
                        );
                    }
                    return Ok(out);
                }
                match parse_header(&chunk) {
                    Ok(first_seq) => match self.next_seq {
                        None => self.next_seq = Some(first_seq),
                        Some(expected) if expected == first_seq => {}
                        Some(expected) => {
                            self.fail(
                                8,
                                JournalErrorKind::SequenceGap {
                                    expected,
                                    found: first_seq,
                                },
                            );
                            return Ok(out);
                        }
                    },
                    Err(kind) => {
                        self.fail(0, kind);
                        return Ok(out);
                    }
                }
                pos = HEADER_LEN;
            }
            let mut ended = false;
            loop {
                let expected = self.next_seq.unwrap_or(0);
                match read_frame(&chunk, pos, expected) {
                    FrameOutcome::End => {
                        ended = true;
                        break;
                    }
                    FrameOutcome::Record { event, next_pos } => {
                        out.push(event.to_event());
                        self.next_seq = Some(expected.saturating_add(1));
                        pos = next_pos;
                    }
                    FrameOutcome::Torn { needed, available } => {
                        if successor.is_some() {
                            // the segment is complete, so this can never
                            // finish: real corruption, not an in-flight write
                            self.fail(
                                pos as u64,
                                JournalErrorKind::TornRecord { needed, available },
                            );
                        }
                        break;
                    }
                    FrameOutcome::Corrupt(kind) => {
                        self.fail(pos as u64, kind);
                        break;
                    }
                }
            }
            self.consumed = self.consumed.saturating_add(pos as u64);
            if self.error.is_some() {
                return Ok(out);
            }
            match successor {
                Some(next) if ended => {
                    // rotation: the writer fsynced this segment before
                    // creating `next`, so it is safe to move on
                    self.segment = Some(next);
                    self.position = self.position.saturating_add(1);
                    self.consumed = 0;
                }
                _ => return Ok(out),
            }
        }
    }
}

/// Read a file's contents from byte `offset` to its current end.
fn read_from(path: &Path, offset: u64) -> io::Result<Vec<u8>> {
    let mut file = fs::File::open(path)?;
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut out = Vec::new();
    file.read_to_end(&mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::encode;
    use super::*;
    use crate::events::{ConfigVariant, Dbms, EventKind, HoneypotId, InteractionLevel};
    use decoy_base::time::Timestamp;
    use std::net::IpAddr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "decoy-stream-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn ev(i: u64) -> Event {
        Event {
            ts: Timestamp::from_millis(i),
            honeypot: HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::Default,
                0,
            ),
            src: IpAddr::from([198, 51, 100, (i % 251) as u8]),
            session: i,
            kind: EventKind::Command {
                action: "KEYS".into(),
                raw: format!("KEYS pattern-{i}"),
            },
        }
    }

    fn write_segment(dir: &Path, index: u64, first_seq: u64, events: &[Event]) {
        fs::write(
            segment_path(dir, index),
            encode::encode_segment(first_seq, events),
        )
        .expect("write segment");
    }

    #[test]
    fn segments_yield_batches_with_positions() {
        let dir = temp_dir("segments");
        let events: Vec<Event> = (0..10).map(ev).collect();
        write_segment(&dir, 0, 0, &events[..6]);
        write_segment(&dir, 1, 6, &events[6..]);
        let reader = JournalReader::open(&dir).expect("reader");
        let batches: Vec<SegmentBatch> = reader
            .segments()
            .collect::<io::Result<Vec<_>>>()
            .expect("read");
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].first_seq, 0);
        assert_eq!(batches[0].events, events[..6].to_vec());
        assert!(batches[0].header_ok);
        assert!(batches[0].error.is_none() && batches[0].torn.is_none());
        assert_eq!(batches[1].index, 1);
        assert_eq!(batches[1].first_seq, 6);
        assert_eq!(batches[1].events, events[6..].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_corrupt_segments_decode_totally() {
        let dir = temp_dir("damage");
        let events: Vec<Event> = (0..6).map(ev).collect();
        let mut torn = encode::encode_segment(0, &events[..3]);
        torn.truncate(torn.len() - 2);
        fs::write(segment_path(&dir, 0), &torn).expect("write");
        // header claims first_seq 3 but the frames carry 4..: CRC-valid
        // records that are out of sequence — the drop-scan shape
        let mut spliced = encode::encode_segment(4, &events[3..]);
        spliced[8..16].copy_from_slice(&3u64.to_le_bytes());
        fs::write(segment_path(&dir, 1), &spliced).expect("write");

        let reader = JournalReader::open(&dir).expect("reader");
        let batches: Vec<SegmentBatch> = reader
            .segments()
            .collect::<io::Result<Vec<_>>>()
            .expect("read");
        assert_eq!(batches[0].events, events[..2].to_vec());
        assert!(batches[0].torn.is_some());
        assert!(batches[0].bytes_truncated > 0);
        let err = batches[1].error.as_ref().expect("sequence gap");
        assert!(matches!(err.kind, JournalErrorKind::SequenceGap { .. }));
        assert!(batches[1].events.is_empty());
        assert_eq!(batches[1].records_dropped, 3, "valid frames after damage");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every record `decode_segment` visits, with its sequence number.
    fn visit_all(buf: &[u8], index: u32) -> (Vec<(u64, Event)>, SegmentVerdict) {
        let mut seen = Vec::new();
        let verdict = decode_segment(buf, index, |seq, event| seen.push((seq, event.to_event())));
        (seen, verdict)
    }

    /// A batch's fields other than its records.
    fn verdict_of(batch: &SegmentBatch) -> SegmentVerdict {
        SegmentVerdict {
            index: batch.index,
            first_seq: batch.first_seq,
            header_ok: batch.header_ok,
            torn: batch.torn.clone(),
            error: batch.error.clone(),
            records_dropped: batch.records_dropped,
            bytes_truncated: batch.bytes_truncated,
        }
    }

    #[test]
    fn visitor_hands_over_records_with_their_sequence_numbers() {
        let events: Vec<Event> = (0..10).map(ev).collect();
        let buf = encode::encode_segment(6, &events[6..]);
        let (seen, verdict) = visit_all(&buf, 3);
        let want: Vec<(u64, Event)> = (6..).zip(events[6..].iter().cloned()).collect();
        assert_eq!(seen, want);
        let clean = SegmentVerdict {
            index: 3,
            first_seq: 6,
            header_ok: true,
            torn: None,
            error: None,
            records_dropped: 0,
            bytes_truncated: 0,
        };
        assert_eq!(verdict, clean);
        let batch = SegmentBatch::decode(&buf, 3);
        assert_eq!(batch.events, events[6..].to_vec());
        assert_eq!(verdict_of(&batch), clean);
    }

    #[test]
    fn visitor_and_batch_agree_on_damaged_segments() {
        let events: Vec<Event> = (0..8).map(ev).collect();
        let clean = encode::encode_segment(2, &events[2..]);
        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x5a;
        let damaged = [
            ("torn tail", clean[..clean.len() - 3].to_vec()),
            ("flipped byte", flipped),
            ("short header", clean[..HEADER_LEN - 1].to_vec()),
            ("empty file", Vec::new()),
        ];
        for (index, (damage, buf)) in (0u32..).zip(damaged) {
            let (seen, verdict) = visit_all(&buf, index);
            assert_eq!(verdict.index, index, "{damage}");
            assert!(
                verdict.torn.is_some() || verdict.error.is_some(),
                "{damage} left no trace"
            );
            // a prefix of the segment's records, each at its own sequence
            let seqs: Vec<u64> = seen.iter().map(|(seq, _)| *seq).collect();
            let first = verdict.first_seq;
            assert_eq!(seqs, (first..first + seqs.len() as u64).collect::<Vec<_>>());
            for (seq, event) in &seen {
                assert_eq!(event, &events[*seq as usize], "{damage}: seq {seq}");
            }
            let batch = SegmentBatch::decode(&buf, index);
            let records: Vec<Event> = seen.into_iter().map(|(_, event)| event).collect();
            assert_eq!(batch.events, records, "{damage}");
            assert_eq!(verdict_of(&batch), verdict, "{damage}");
        }
    }

    #[test]
    fn tail_follows_growth_and_rotation() {
        let dir = temp_dir("tail");
        let events: Vec<Event> = (0..9).map(ev).collect();
        let mut tail = JournalTail::open(&dir);
        assert!(tail.poll().expect("empty dir").is_empty());

        // first segment appears with three records
        write_segment(&dir, 0, 0, &events[..3]);
        assert_eq!(tail.poll().expect("poll"), events[..3].to_vec());
        assert!(tail.poll().expect("idle").is_empty());

        // it grows in place (same bytes re-written longer)
        write_segment(&dir, 0, 0, &events[..5]);
        assert_eq!(tail.poll().expect("poll"), events[3..5].to_vec());

        // a torn in-flight record: wait, don't fail
        let full = encode::encode_segment(0, &events[..6]);
        fs::write(segment_path(&dir, 0), &full[..full.len() - 1]).expect("write");
        assert!(tail.poll().expect("torn tail waits").is_empty());
        assert!(tail.error().is_none());
        fs::write(segment_path(&dir, 0), &full).expect("write");
        assert_eq!(tail.poll().expect("poll"), events[5..6].to_vec());

        // rotation: successor appears, tail crosses the boundary
        write_segment(&dir, 1, 6, &events[6..]);
        assert_eq!(tail.poll().expect("poll"), events[6..].to_vec());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_reports_gap_and_corruption_sticky() {
        let dir = temp_dir("tail-gap");
        let events: Vec<Event> = (0..6).map(ev).collect();
        write_segment(&dir, 0, 0, &events[..3]);
        // segment 1 skips a sequence number: a lost segment
        write_segment(&dir, 1, 5, &events[5..]);
        let mut tail = JournalTail::open(&dir);
        assert_eq!(tail.poll().expect("poll"), events[..3].to_vec());
        let err = tail.error().expect("gap detected").clone();
        assert!(matches!(
            err.kind,
            JournalErrorKind::SequenceGap {
                expected: 3,
                found: 5
            }
        ));
        assert_eq!(err.segment, 1);
        assert!(tail.poll().expect("sticky").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tail_flags_torn_frame_in_completed_segment() {
        let dir = temp_dir("tail-torn");
        let events: Vec<Event> = (0..6).map(ev).collect();
        let mut torn = encode::encode_segment(0, &events[..3]);
        torn.truncate(torn.len() - 2);
        fs::write(segment_path(&dir, 0), &torn).expect("write");
        write_segment(&dir, 1, 3, &events[3..]);
        let mut tail = JournalTail::open(&dir);
        assert_eq!(tail.poll().expect("poll"), events[..2].to_vec());
        let err = tail.error().expect("torn + successor = corruption");
        assert!(matches!(err.kind, JournalErrorKind::TornRecord { .. }));
        let _ = fs::remove_dir_all(&dir);
    }
}
