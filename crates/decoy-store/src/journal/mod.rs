//! Durable segmented event journal.
//!
//! The paper's pipeline starts at "raw logs → standardized queryable store";
//! this module is the durable half of that arrow. [`JournalWriter`] appends
//! length-prefixed, CRC-protected [`Event`] frames to size-rotated segment
//! files. The appending thread frames each record once, with its sequence
//! number, into a buffer it shares with a background writer thread: the
//! event store has already encoded the event into its own chunk, and
//! `JournalSink::send`, which the store calls under its write lock, frames
//! a copy of those payload bytes ([`JournalWriter::append`] encodes an
//! event straight into the buffer). The writer takes that buffer whole
//! when woken and does all the I/O with group commit: a batch is pushed to
//! the OS every `flush_every` records or `flush_interval_ms` of [`Clock`]
//! time, and `fsync`ed on rotation, [`JournalWriter::sync`], and close. No
//! [`Event`] is cloned on the way. [`JournalReader`] streams the segments
//! back without materializing the dataset, and recovery is *total*: a crash
//! mid-write leaves a torn tail that is truncated, and any other corruption
//! ends the replay with a structured [`JournalError`] plus [`RecoveryStats`]
//! instead of a panic. One decoder, [`decode_segment`], reads every closed segment:
//! strict replay ([`JournalReader::replay`], [`recover_events`],
//! [`recover_full_store`]) folds its verdicts, and reopening a journal
//! takes the truncation point from one. The decoder hands its visitors
//! borrowed records ([`EventRef`], strings pointing into the segment
//! buffer), so reading allocates nothing per record; owned [`Event`]s are
//! built ([`EventRef::to_event`]) only by callers that keep them:
//! [`recover_events`], [`recover_full_store`], [`SegmentBatch::decode`] and
//! [`JournalTail::poll`]. One slicing-by-8 CRC-32 ([`decode::crc32`])
//! checksums every record on both the write and the read side. See
//! `DESIGN.md` §8 for the format and the recovery semantics, and
//! [`decode`] for the corruption taxonomy.
//!
//! Layout on disk: one directory per journal, segment files named
//! `segment-00000000.dcyj`, `segment-00000001.dcyj`, … in replay order.
//! Reopening a directory repairs it like a write-ahead log: the torn tail
//! of the last segment is truncated (a trailing segment whose header never
//! made it to disk is set aside as `*.corrupt`) and writing continues in a
//! fresh segment with the next sequence number.

pub mod decode;
pub mod encode;
pub mod stream;

pub use decode::{decode_segment, JournalError, JournalErrorKind, RecoveryStats, SegmentVerdict};
pub use stream::{JournalTail, SegmentBatch, Segments};

use crate::events::{Event, EventRef, EventStore};
use decoy_base::sync::Mutex;
use decoy_base::time::{Clock, Timestamp};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// File extension of live segment files.
const SEGMENT_EXT: &str = "dcyj";

/// How a journal writer batches, rotates, and syncs.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one reaches this many bytes.
    pub segment_bytes: u64,
    /// Group-commit: flush to the OS after this many buffered records.
    pub flush_every: usize,
    /// Group-commit: flush to the OS after this much [`Clock`] time
    /// (milliseconds) with records buffered.
    pub flush_interval_ms: u64,
    /// `fsync` segment files on rotation and close. Leave on outside tests;
    /// turning it off trades crash durability for speed.
    pub fsync: bool,
    /// Time source for the flush interval (experiments pass the simulated
    /// clock so spooling does not depend on wall time).
    pub clock: Clock,
}

impl JournalConfig {
    /// Production-shaped defaults for spooling into `dir`: 8 MiB segments,
    /// flush every 256 records or 200 ms, fsync on rotation.
    pub fn spool(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            flush_every: 256,
            flush_interval_ms: 200,
            fsync: true,
            clock: Clock::Wall,
        }
    }

    /// Use `clock` for the flush interval.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }
}

/// Counters the writer thread reports at close.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Records appended (and durably handed to the OS by close).
    pub records: u64,
    /// Bytes of frame data written (excluding segment headers).
    pub bytes: u64,
    /// Segments the journal rotated into (0 = everything fit in the first).
    pub rotations: u64,
    /// Group-commit flushes performed.
    pub flushes: u64,
    /// Explicit syncs requested via [`JournalWriter::sync`].
    pub syncs: u64,
    /// Appends discarded after the writer hit an unrecoverable I/O error.
    pub lost: u64,
}

/// Commands the foreground sends to the writer thread.
enum Cmd {
    /// Records are pending: write them out.
    Drain,
    /// Write out what is pending, flush + fsync, then acknowledge.
    Sync(mpsc::Sender<io::Result<()>>),
}

/// Records the appenders have encoded and the writer thread has not yet
/// taken.
#[derive(Debug)]
struct Pending {
    /// Complete record frames, in sequence order.
    frames: Vec<u8>,
    /// Frames appended since the writer last took `frames`.
    records: usize,
    /// Sequence number of the next record appended.
    next_seq: u64,
}

/// A cheap handle that frames records onto the journal's pending bytes;
/// held by [`EventStore`] so `append_locked` stays the single choke point.
#[derive(Debug, Clone)]
pub struct JournalSink {
    pending: Arc<Mutex<Pending>>,
    tx: mpsc::Sender<Cmd>,
    /// Records between two wake-ups of the writer thread.
    wake_every: usize,
}

impl JournalSink {
    /// Frame a copy of `payload`, an event the store has just encoded, with
    /// the next sequence number and its CRC onto the frames pending for the
    /// writer thread. Never blocks on I/O; if the writer thread is gone the
    /// event is not journaled: the in-memory store remains authoritative.
    // decoy-hot-path: fn -- runs under the store write lock, once per spooled event
    pub(crate) fn send(&self, payload: &[u8]) {
        self.push(|frames, seq| encode::put_frame(frames, seq, payload));
    }

    /// Append one frame with `put`, which gets the pending frames and the
    /// next sequence number, and wake the writer once per `flush_every`
    /// records.
    fn push(&self, put: impl FnOnce(&mut Vec<u8>, u64)) {
        let wake = {
            let mut pending = self.pending.lock();
            let seq = pending.next_seq;
            put(&mut pending.frames, seq);
            pending.next_seq = seq + 1;
            pending.records += 1;
            pending.records % self.wake_every == 0
        };
        if wake && self.tx.send(Cmd::Drain).is_err() {
            // no writer thread will ever take these frames
            let mut pending = self.pending.lock();
            pending.frames.clear();
        }
    }
}

/// Durable append-only writer over a segment directory.
///
/// [`JournalWriter::append`] and `JournalSink::send` frame each record
/// once, into a buffer shared with a background thread that does all the
/// I/O: it takes the whole buffer when woken (once per `flush_every`
/// records, every 20 ms, on [`JournalWriter::sync`] and on close) and
/// writes it out record by record. Dropping the writer joins the thread
/// after a final flush + fsync; [`JournalWriter::close`] does the same but
/// surfaces the result.
#[derive(Debug)]
pub struct JournalWriter {
    sink: Option<JournalSink>,
    thread: Option<JoinHandle<io::Result<WriterStats>>>,
    dir: PathBuf,
}

impl JournalWriter {
    /// Open (creating or repairing) the journal directory in `cfg.dir` and
    /// start the writer thread. An existing journal is continued: the torn
    /// tail of its last segment is truncated, an unreadable trailing
    /// segment is set aside as `*.corrupt`, and new records pick up the
    /// next sequence number in a fresh segment.
    pub fn open(cfg: JournalConfig) -> io::Result<JournalWriter> {
        fs::create_dir_all(&cfg.dir)?;
        let (seg_index, next_seq) = recover_writer_state(&cfg.dir)?;
        let dir = cfg.dir.clone();
        let (file, seg_bytes) = open_segment(&cfg.dir, seg_index, next_seq)?;
        let (tx, rx) = mpsc::channel();
        let pending = Arc::new(Mutex::new(Pending {
            frames: Vec::new(),
            records: 0,
            next_seq,
        }));
        let sink = JournalSink {
            pending: Arc::clone(&pending),
            tx,
            wake_every: cfg.flush_every.max(1),
        };
        let mut backend = Backend {
            cfg,
            file,
            seg_index,
            seg_bytes,
            seg_records: 0,
            next_seq,
            unflushed: 0,
            last_flush: Timestamp::from_millis(0),
            stats: WriterStats::default(),
            err: None,
            pending,
            spare: Vec::new(),
        };
        backend.last_flush = backend.cfg.clock.now();
        let thread = std::thread::Builder::new()
            .name("journal-writer".into())
            .spawn(move || backend.run(rx))?;
        Ok(JournalWriter {
            sink: Some(sink),
            thread: Some(thread),
            dir,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A cloneable sink handle for [`EventStore`].
    pub(crate) fn sink(&self) -> Option<JournalSink> {
        self.sink.clone()
    }

    /// Encode one event onto the journal's pending records: an `&Event`,
    /// or a borrowed record such as one read from an [`EventStore`].
    pub fn append<'a>(&self, event: impl Into<EventRef<'a>>) {
        if let Some(sink) = &self.sink {
            let event = event.into();
            sink.push(|frames, seq| encode::put_record(frames, seq, event));
        }
    }

    /// Block until everything appended so far is written, flushed, and
    /// fsynced. Returns the writer thread's sticky error, if it hit one,
    /// with the number of appends lost since.
    pub fn sync(&self) -> io::Result<()> {
        let Some(sink) = &self.sink else {
            return Err(io::Error::other("journal writer already closed"));
        };
        let (ack_tx, ack_rx) = mpsc::channel();
        sink.tx
            .send(Cmd::Sync(ack_tx))
            .map_err(|_| io::Error::other("journal writer thread exited"))?;
        ack_rx
            .recv()
            .map_err(|_| io::Error::other("journal writer thread exited"))?
    }

    /// Shut down: write out what is pending, flush, fsync, join the
    /// thread, and return the final counters (or the first I/O error the
    /// thread hit, with the number of appends lost since).
    pub fn close(mut self) -> io::Result<WriterStats> {
        drop(self.sink.take());
        match self.thread.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| io::Error::other("journal writer thread panicked"))?,
            None => Err(io::Error::other("journal writer already closed")),
        }
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        drop(self.sink.take());
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// The writer thread's state.
struct Backend {
    cfg: JournalConfig,
    file: BufWriter<File>,
    seg_index: u64,
    seg_bytes: u64,
    /// Records written into the open segment.
    seg_records: u64,
    /// Sequence number of the next record written; a segment opened by
    /// rotation starts there.
    next_seq: u64,
    /// Records written since the last flush.
    unflushed: usize,
    /// Clock time of the last flush.
    last_flush: Timestamp,
    stats: WriterStats,
    /// Sticky error: once writing fails, later appends are counted lost.
    err: Option<io::Error>,
    /// The frames the appenders encode, shared with every sink.
    pending: Arc<Mutex<Pending>>,
    /// The empty buffer swapped in for the pending frames on each drain.
    spare: Vec<u8>,
}

impl Backend {
    fn run(mut self, rx: mpsc::Receiver<Cmd>) -> io::Result<WriterStats> {
        loop {
            let cmd = rx.recv_timeout(Duration::from_millis(20));
            self.drain();
            match cmd {
                Ok(Cmd::Drain) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                Ok(Cmd::Sync(ack)) => {
                    let _ = ack.send(self.sync());
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            self.tick();
        }
        self.flush();
        self.fsync();
        self.check_segment();
        match self.error() {
            Some(e) => Err(e),
            None => Ok(self.stats),
        }
    }

    /// Take every pending frame and write the frames out one record at a
    /// time.
    fn drain(&mut self) {
        let mut frames = std::mem::take(&mut self.spare);
        {
            let mut pending = self.pending.lock();
            std::mem::swap(&mut pending.frames, &mut frames);
            pending.records = 0;
        }
        let mut rest = frames.as_slice();
        while !rest.is_empty() {
            let len = decode::frame_len(rest).unwrap_or(rest.len());
            let (frame, tail) = rest.split_at(len);
            self.append(frame);
            rest = tail;
        }
        frames.clear();
        self.spare = frames;
    }

    fn append(&mut self, frame: &[u8]) {
        if self.err.is_some() {
            self.stats.lost += 1;
            return;
        }
        if let Err(e) = self.file.write_all(frame) {
            self.fail(e);
            self.stats.lost += 1;
            return;
        }
        self.next_seq += 1;
        self.seg_bytes += frame.len() as u64;
        self.seg_records += 1;
        self.stats.records += 1;
        self.stats.bytes += frame.len() as u64;
        self.unflushed += 1;
        if self.seg_bytes >= self.cfg.segment_bytes {
            self.rotate();
        } else if self.unflushed >= self.cfg.flush_every {
            self.flush();
        }
    }

    /// Flush on the clock interval when records are buffered.
    fn tick(&mut self) {
        if self.unflushed > 0
            && self.cfg.clock.now().millis_since(self.last_flush) >= self.cfg.flush_interval_ms
        {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.err.is_some() {
            return;
        }
        match self.file.flush() {
            Ok(()) => {
                if self.unflushed > 0 {
                    self.stats.flushes += 1;
                }
                self.unflushed = 0;
                self.last_flush = self.cfg.clock.now();
            }
            Err(e) => self.fail(e),
        }
    }

    fn fsync(&mut self) {
        if self.err.is_some() || !self.cfg.fsync {
            return;
        }
        if let Err(e) = self.file.get_ref().sync_all() {
            self.fail(e);
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.flush();
        if self.err.is_none() {
            if let Err(e) = self.file.get_ref().sync_all() {
                self.fail(e);
            }
        }
        self.check_segment();
        match self.error() {
            Some(e) => Err(e),
            None => {
                self.stats.syncs += 1;
                Ok(())
            }
        }
    }

    fn rotate(&mut self) {
        self.flush();
        self.fsync();
        // the segment being left may be gone with its directory, and every
        // record in it with it
        self.check_segment();
        if self.err.is_some() {
            return;
        }
        match open_segment(&self.cfg.dir, self.seg_index + 1, self.next_seq) {
            Ok((file, seg_bytes)) => {
                self.file = file;
                self.seg_index += 1;
                self.seg_bytes = seg_bytes;
                self.seg_records = 0;
                self.stats.rotations += 1;
            }
            Err(e) => self.fail(e),
        }
    }

    /// Fail if the open segment's file is gone, as when its directory was
    /// removed under the writer: writes into the unlinked file still
    /// succeed, but every record in it exists nowhere on disk, so they are
    /// counted lost.
    fn check_segment(&mut self) {
        if self.err.is_some() {
            return;
        }
        let path = segment_path(&self.cfg.dir, self.seg_index);
        if let Err(e) = fs::metadata(&path) {
            if e.kind() == io::ErrorKind::NotFound {
                self.stats.lost += self.seg_records;
                let msg = format!("open segment {} is gone: {e}", path.display());
                self.fail(io::Error::new(e.kind(), msg));
            }
        }
    }

    fn fail(&mut self, e: io::Error) {
        if self.err.is_none() {
            self.err = Some(e);
        }
    }

    /// The sticky error, saying how many appends were lost after it.
    fn error(&self) -> Option<io::Error> {
        self.err
            .as_ref()
            .map(|e| io::Error::new(e.kind(), format!("{e}; {} appends lost", self.stats.lost)))
    }
}

/// Path of segment `index` inside `dir`.
fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.{SEGMENT_EXT}"))
}

/// Create segment `index` with a header starting at `first_seq`.
fn open_segment(dir: &Path, index: u64, first_seq: u64) -> io::Result<(BufWriter<File>, u64)> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(segment_path(dir, index))?;
    let mut writer = BufWriter::new(file);
    let mut header = Vec::with_capacity(encode::HEADER_LEN);
    encode::put_header(&mut header, first_seq);
    writer.write_all(&header)?;
    Ok((writer, header.len() as u64))
}

/// Sorted indexes of the live segment files in `dir`.
fn list_segment_indices(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("segment-")
            .and_then(|rest| rest.strip_suffix(&format!(".{SEGMENT_EXT}")))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push(index);
    }
    out.sort_unstable();
    Ok(out)
}

/// WAL-style repair on reopen: returns `(next segment index, next seq)`.
///
/// Works backwards from the last segment: a readable segment has its torn
/// or corrupt tail truncated in place and writing continues after its last
/// valid record; a segment whose header never made it to disk is renamed to
/// `*.corrupt` (kept for forensics, ignored by readers) and the previous
/// segment is consulted instead. An empty or fully corrupt directory starts
/// over at segment 0, sequence 0.
fn recover_writer_state(dir: &Path) -> io::Result<(u64, u64)> {
    let mut indices = list_segment_indices(dir)?;
    let mut bytes = Vec::new();
    while let Some(&last) = indices.last() {
        let path = segment_path(dir, last);
        read_segment(&path, &mut bytes)?;
        let mut records = 0u64;
        let verdict = decode_segment(&bytes, 0, |_, _| records += 1);
        if verdict.header_ok {
            // validity ends at the torn or corrupt frame, if any
            let damage = verdict.torn.or(verdict.error);
            let valid_end = damage.map_or(bytes.len(), |at| at.offset);
            if valid_end < bytes.len() {
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_end as u64)?;
                file.sync_all()?;
            }
            return Ok((last + 1, verdict.first_seq + records));
        }
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        fs::rename(&path, PathBuf::from(corrupt))?;
        indices.pop();
    }
    Ok((0, 0))
}

/// Streaming reader over a journal directory.
#[derive(Debug, Clone)]
pub struct JournalReader {
    paths: Vec<PathBuf>,
}

impl JournalReader {
    /// Snapshot the segment list of `dir` (sorted in replay order).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<JournalReader> {
        let dir = dir.as_ref();
        let paths = list_segment_indices(dir)?
            .into_iter()
            .map(|i| segment_path(dir, i))
            .collect();
        Ok(JournalReader { paths })
    }

    /// The segment files, in replay order.
    pub fn segment_paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Strict replay: hand every recoverable record to `visit`, in journal
    /// order, as an [`EventRef`] borrowing its segment's bytes, and return
    /// what recovery saw. It stops at the first corruption or sequence gap,
    /// counts the decodable records after it as dropped, and truncates a
    /// torn final tail silently (see `DESIGN.md` §8). Segment files are
    /// read one at a time into one reused buffer, so memory is bounded by
    /// the largest segment plus what `visit` keeps.
    pub fn replay(&self, visit: impl FnMut(EventRef<'_>)) -> RecoveryStats {
        let paths = self.paths.iter().map(PathBuf::as_path);
        decode::replay_segments(paths, read_segment, visit)
    }
}

/// Read the segment file at `path` into `buf`, replacing its contents and
/// reusing its allocation, so a reader that walks many segments holds one
/// buffer of the largest.
pub fn read_segment(path: &Path, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    File::open(path)?.read_to_end(buf)?;
    Ok(())
}

/// Replay a journal held entirely in memory: decode `segments` in order,
/// with the same strict replay as [`JournalReader::replay`], and return
/// the recovered prefix plus stats. This is the pure entry point the
/// corruption fuzz campaign drives.
pub fn recover_events(segments: Vec<Vec<u8>>) -> (Vec<Event>, RecoveryStats) {
    let mut events = Vec::new();
    let stats = decode::replay_segments(
        segments.into_iter(),
        |segment, buf| {
            *buf = segment;
            Ok(())
        },
        |event| events.push(event.to_event()),
    );
    (events, stats)
}

/// Replay a journal directory into a fresh [`EventStore`] (appended through
/// the normal `append_locked` path), returning the store and what recovery
/// saw.
///
/// This materializes the whole journal in memory; it stays available for
/// forensics (per-source session reconstruction, ad-hoc store queries).
/// Report generation folds the same [`JournalReader::replay`] instead
/// (`Report::from_journal_streaming` in `decoy-core`), so its peak memory is
/// bounded by one segment plus the fold, and its [`RecoveryStats`] equal
/// this function's.
pub fn recover_full_store(dir: impl AsRef<Path>) -> io::Result<(Arc<EventStore>, RecoveryStats)> {
    let store = EventStore::new();
    let stats = JournalReader::open(dir)?.replay(|event| store.log(event.to_event()));
    Ok((store, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ConfigVariant, Dbms, EventKind, HoneypotId, InteractionLevel};
    use std::net::IpAddr;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let dir = std::env::temp_dir().join(format!(
            "decoy-journal-{tag}-{}-{}-{}",
            std::process::id(),
            nanos,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn ev(i: u64) -> Event {
        Event {
            ts: Timestamp::from_millis(i),
            honeypot: HoneypotId::new(
                Dbms::Redis,
                InteractionLevel::Medium,
                ConfigVariant::FakeData,
                3,
            ),
            src: IpAddr::from([203, 0, 113, (i % 251) as u8]),
            session: i,
            kind: match i % 4 {
                0 => EventKind::Connect,
                1 => EventKind::LoginAttempt {
                    username: format!("user{i}"),
                    password: format!("pw{i}"),
                    success: i % 8 == 1,
                },
                2 => EventKind::Command {
                    action: "KEYS".into(),
                    raw: format!("KEYS pattern-{i}"),
                },
                _ => EventKind::Disconnect,
            },
        }
    }

    fn tiny_config(dir: &Path) -> JournalConfig {
        JournalConfig {
            dir: dir.to_path_buf(),
            segment_bytes: 256, // force rotation every few records
            flush_every: 4,
            flush_interval_ms: 1,
            fsync: false,
            clock: Clock::Wall,
        }
    }

    fn write_journal(dir: &Path, n: u64) -> WriterStats {
        let writer = JournalWriter::open(tiny_config(dir)).expect("open");
        for i in 0..n {
            writer.append(&ev(i));
        }
        writer.close().expect("close")
    }

    /// Last segment that actually holds record bytes. A rotation right at
    /// the final record leaves a trailing header-only segment; the tests
    /// that tear the tail remove it so the torn frame is in the final
    /// segment, as in a real crash.
    fn last_data_segment(dir: &Path) -> PathBuf {
        let reader = JournalReader::open(dir).expect("reader");
        let mut paths = reader.segment_paths().to_vec();
        loop {
            let p = paths.pop().expect("a data segment");
            if fs::read(&p).expect("read").len() > encode::HEADER_LEN {
                return p;
            }
            fs::remove_file(&p).expect("remove empty trailing segment");
        }
    }

    #[test]
    fn write_rotate_replay_roundtrip() {
        let dir = temp_dir("roundtrip");
        let stats = write_journal(&dir, 50);
        assert_eq!(stats.records, 50);
        assert!(stats.rotations > 0, "256-byte segments must rotate");

        let reader = JournalReader::open(&dir).expect("reader");
        assert!(reader.segment_paths().len() > 1);
        let mut events = Vec::new();
        let recovered = reader.replay(|event| events.push(event.to_event()));
        assert_eq!(events, (0..50).map(ev).collect::<Vec<_>>());
        assert!(recovered.is_clean(), "{}", recovered.summary());
        assert_eq!(recovered.records_kept, 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_silently() {
        let dir = temp_dir("torn");
        write_journal(&dir, 10);
        let last = last_data_segment(&dir);
        // chop the last 3 bytes: a torn final record
        let bytes = fs::read(&last).expect("read");
        assert!(bytes.len() > encode::HEADER_LEN + 3);
        fs::write(&last, &bytes[..bytes.len() - 3]).expect("write");

        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert!(recovered.error.is_none(), "torn tail is not an error");
        assert!(recovered.bytes_truncated > 0);
        assert_eq!(store.len() as u64, recovered.records_kept);
        assert_eq!(recovered.records_kept, 9, "exactly the torn record lost");
        assert_eq!(store.all(), (0..9).map(ev).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_journal_corruption_reports_structured_error() {
        let dir = temp_dir("corrupt");
        write_journal(&dir, 40);
        let reader = JournalReader::open(&dir).expect("reader");
        let first = reader.segment_paths().first().expect("segments").clone();
        let mut bytes = fs::read(&first).expect("read");
        // flip one bit inside the first record body
        bytes[encode::HEADER_LEN + 2] ^= 0x40;
        fs::write(&first, &bytes).expect("write");

        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert_eq!(store.len(), 0, "corruption in record 0 yields empty prefix");
        assert!(
            recovered.records_dropped > 0,
            "later records counted: {}",
            recovered.summary()
        );
        let err = recovered.error.expect("structured error");
        assert_eq!(err.segment, 0);
        assert!(matches!(
            err.kind,
            JournalErrorKind::CrcMismatch { .. } | JournalErrorKind::BadVarint
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_sequence_numbers() {
        let dir = temp_dir("reopen");
        write_journal(&dir, 7);
        {
            let writer = JournalWriter::open(tiny_config(&dir)).expect("reopen");
            for i in 7..12 {
                writer.append(&ev(i));
            }
            writer.close().expect("close");
        }
        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert!(recovered.is_clean(), "{}", recovered.summary());
        assert_eq!(store.len(), 12);
        assert_eq!(store.all(), (0..12).map(ev).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_repairs_torn_tail_and_appends() {
        let dir = temp_dir("repair");
        write_journal(&dir, 10);
        // simulate a crash mid-write: tear the last record
        let last = last_data_segment(&dir);
        let bytes = fs::read(&last).expect("read");
        fs::write(&last, &bytes[..bytes.len() - 2]).expect("write");

        {
            let writer = JournalWriter::open(tiny_config(&dir)).expect("reopen");
            // the torn record 9 was repaired away; re-append it and more
            for i in 9..14 {
                writer.append(&ev(i));
            }
            writer.close().expect("close");
        }
        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert!(recovered.is_clean(), "repair must leave a clean journal");
        assert_eq!(store.len(), 14);
        assert_eq!(store.all(), (0..14).map(ev).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_sets_aside_headerless_trailing_segment() {
        let dir = temp_dir("headerless");
        write_journal(&dir, 6);
        // a rotation that died before the header hit the disk
        let indices = list_segment_indices(&dir).expect("list");
        let next = indices.last().expect("segments") + 1;
        fs::write(segment_path(&dir, next), [0x44u8, 0x43]).expect("write stub");

        {
            let writer = JournalWriter::open(tiny_config(&dir)).expect("reopen");
            writer.append(&ev(6));
            writer.close().expect("close");
        }
        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert!(recovered.is_clean(), "{}", recovered.summary());
        assert_eq!(store.len(), 7);
        assert!(
            fs::read_dir(&dir)
                .expect("dir")
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().ends_with(".corrupt")),
            "the headerless segment is kept for forensics"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_makes_records_readable_while_open() {
        let dir = temp_dir("sync");
        let writer = JournalWriter::open(tiny_config(&dir)).expect("open");
        for i in 0..5 {
            writer.append(&ev(i));
        }
        writer.sync().expect("sync");
        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert_eq!(store.len(), 5);
        assert!(recovered.error.is_none());
        drop(writer);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_splice_is_detected_as_sequence_gap() {
        let events: Vec<Event> = (0..8).map(ev).collect();
        let seg_a = encode::encode_segment(0, &events[..4]);
        let seg_b = encode::encode_segment(4, &events[4..]);
        // duplicate segment A: replay must not yield events twice
        let (got, stats) = recover_events(vec![seg_a.clone(), seg_a.clone(), seg_b.clone()]);
        assert_eq!(got, events[..4].to_vec());
        assert!(matches!(
            stats.error.as_ref().map(|e| &e.kind),
            Some(JournalErrorKind::SequenceGap { .. })
        ));
        // dropped segment: same story
        let (got, stats) = recover_events(vec![seg_b]);
        assert!(got.is_empty());
        assert!(stats.error.is_some());
        // clean pair replays fully
        let (got, stats) = recover_events(vec![seg_a, encode::encode_segment(4, &events[4..])]);
        assert_eq!(got, events);
        assert!(stats.is_clean());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let events: Vec<Event> = (0..2).map(ev).collect();
        let mut seg = encode::encode_segment(0, &events);
        // splice a frame that claims a 1 GiB body
        seg.truncate(encode::HEADER_LEN);
        encode::put_varint(&mut seg, 1 << 30);
        seg.extend_from_slice(&[0u8; 8]);
        let (got, stats) = recover_events(vec![seg]);
        assert!(got.is_empty());
        assert!(matches!(
            stats.error.as_ref().map(|e| &e.kind),
            Some(JournalErrorKind::OversizedRecord { .. })
        ));
    }

    #[test]
    fn store_mirrors_appends_through_the_choke_point() {
        let dir = temp_dir("store");
        let store = EventStore::new();
        // drop every fourth append before it reaches store or journal
        let n = AtomicU64::new(0);
        store.set_fault_hook(move |_| n.fetch_add(1, Ordering::Relaxed) % 4 == 3);
        store.with_journal(JournalWriter::open(tiny_config(&dir)).expect("open"));
        for i in 0..20 {
            store.log(ev(i));
        }
        store.log_many((20..24).map(ev));
        store.journal_sync().expect("sync");
        let stats = store.close_journal().expect("close").expect("attached");
        assert_eq!(stats.records, 18, "6 of 24 appends fault-dropped");

        let (replayed, recovered) = recover_full_store(&dir).expect("recover");
        assert!(recovered.is_clean(), "{}", recovered.summary());
        assert!(
            replayed.events_eq(&store),
            "journal replay must equal the in-memory store"
        );
        // double close is an explicit no-op
        assert!(store.close_journal().expect("idempotent").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_sink_writes_the_bytes_of_encode_segment() {
        let dir = temp_dir("sink-bytes");
        let events: Vec<Event> = (0..60).map(ev).collect();
        let store = EventStore::new();
        store.with_journal(JournalWriter::open(tiny_config(&dir)).expect("open"));
        for event in &events[..25] {
            store.log(event.clone());
        }
        store.journal_sync().expect("sync");
        store.log_many(events[25..].iter().cloned());
        let stats = store.close_journal().expect("close").expect("attached");
        assert_eq!(stats.records, 60);
        assert!(stats.rotations > 2, "256-byte segments must rotate");

        let reader = JournalReader::open(&dir).expect("reader");
        let segments: Vec<Vec<u8>> = reader
            .segment_paths()
            .iter()
            .map(|path| fs::read(path).expect("read"))
            .collect();
        let firsts: Vec<usize> = segments
            .iter()
            .map(|segment| decode::parse_header(segment).expect("header") as usize)
            .collect();
        assert_eq!(firsts[0], 0);
        for (i, segment) in segments.iter().enumerate() {
            let (first, end) = (firsts[i], firsts.get(i + 1).copied().unwrap_or(60));
            let chunk = &events[first..end];
            assert_eq!(
                segment,
                &encode::encode_segment(first as u64, chunk),
                "segment {i}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rotation_reports_the_appends_it_lost() {
        let dir = temp_dir("lost");
        let events: Vec<Event> = (0..40).map(ev).collect();
        let writer = JournalWriter::open(tiny_config(&dir)).expect("open");
        writer.append(&events[0]);
        writer.sync().expect("sync");
        fs::remove_dir_all(&dir).expect("remove the journal directory");
        // the open segment takes records until it holds 256 bytes; the
        // rotation after that finds it unlinked, so the records in it are
        // lost, and so is every later append: none of the 40 is on disk
        assert!(
            encode::encode_segment(0, &events).len() >= 256,
            "the records fill a segment"
        );
        for event in &events[1..] {
            writer.append(event);
        }
        let err = writer.sync().expect_err("sync after the failed rotation");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().ends_with("; 40 appends lost"), "{err}");
        let err = writer.close().expect_err("close after the failed rotation");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().ends_with("; 40 appends lost"), "{err}");
    }

    #[test]
    fn a_removed_journal_directory_fails_sync_and_close() {
        let dir = temp_dir("removed");
        let writer = JournalWriter::open(JournalConfig::spool(&dir)).expect("open");
        writer.append(&ev(0));
        writer.sync().expect("sync while the directory exists");
        fs::remove_dir_all(&dir).expect("remove the journal directory");
        // the open segment still takes writes, but it is unlinked: the
        // record synced before the removal and both after it are lost
        writer.append(&ev(1));
        writer.append(&ev(2));
        let err = writer.sync().expect_err("sync after the removal");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().ends_with("; 3 appends lost"), "{err}");
        let err = writer.close().expect_err("close after the removal");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().ends_with("; 3 appends lost"), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn empty_directory_replays_empty() {
        let dir = temp_dir("empty");
        let (store, recovered) = recover_full_store(&dir).expect("recover");
        assert!(store.is_empty());
        assert!(recovered.is_clean());
        assert_eq!(recovered.segments_scanned, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
