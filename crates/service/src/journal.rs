//! Segmented on-disk commit journals: the durable half of the service
//! plane.
//!
//! Each shard owns one journal directory holding **append-only segment
//! files** (`seg-00000000.log`, `seg-00000001.log`, …). A segment is a
//! 16-byte header followed by up to `segment_records` fixed-width
//! records; when a segment fills, the writer rolls to the next index.
//! The format is deliberately fsync-free and byte-deterministic: the
//! bytes on disk after appending facts `f_0..f_k` are a pure function
//! of `(facts, segment_records)` — never of timing, threads, or how
//! many times the process died and reopened in between. That is what
//! makes the kill-and-reopen crash-recovery suite able to demand
//! *byte-identical* journals, not merely equivalent ones.
//!
//! ## Byte format
//!
//! Segment header (16 bytes):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"NCJRNL01"
//! 8       8     segment index, u64 LE
//! ```
//!
//! Record (32 bytes, all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     instance id, u64
//! 8       4     decision round, u32 (0 when undecided)
//! 12      1     value: 0 / 1 / 0xFF (undecided)
//! 13      3     zero padding
//! 16      8     total ops, u64
//! 24      8     CRC-64/XZ over bytes 0..24
//! ```
//!
//! ## Recovery
//!
//! [`JournalReader::replay`] walks segments in index order, validates
//! every header and record CRC, and stops at the first invalid or
//! short record. A **torn tail** — a final record cut short or failing
//! its CRC, the signature of a crash mid-append — is *dropped*, not an
//! error: the instance it described was never durably decided, so the
//! service re-runs it and (determinism) produces the identical fact.
//! [`JournalWriter::open`] truncates the torn bytes away before
//! resuming appends, restoring the pure-function-of-facts byte layout.
//! Corruption *before* the tail (a bad CRC with valid data after it)
//! is a real [`JournalError::Corrupt`], because silently dropping
//! interior facts would un-decide instances later records contradict.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use nc_memory::Bit;

use crate::CommitFact;

/// Magic leading every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"NCJRNL01";
/// Bytes in a segment header.
pub(crate) const HEADER_LEN: usize = 16;
/// Bytes in one journal record.
pub(crate) const RECORD_LEN: usize = 32;
/// Default records per segment ([`crate::ServiceConfigBuilder`] can
/// override; small capacities are useful to exercise segment rolls).
pub const DEFAULT_SEGMENT_RECORDS: usize = 256;

/// Why a journal could not be written or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The failing operation's error.
        source: std::io::Error,
    },
    /// A segment's bytes contradict the format somewhere *before* the
    /// torn-tail position (bad magic, wrong index, interior CRC
    /// mismatch), or a service's journal does not fit the config it is
    /// reopened with (see [`crate::NcService::open`]). Torn tails are
    /// recovered, never reported here.
    Corrupt {
        /// The offending segment file, shard directory, or journal root.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O error at {}: {source}", path.display())
            }
            JournalError::Corrupt { path, detail } => {
                write!(f, "corrupt journal at {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// CRC-64/XZ lookup table: entry `b` is byte `b` pushed through the
/// reflected polynomial `0x42F0E1EBA9EA3693` bit by bit.
const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xC96C_5795_D787_0F42 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ (reflected, poly `0x42F0E1EBA9EA3693`), one table lookup
/// per byte — no dependency.
pub(crate) fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Serializes one fact into its fixed-width record.
pub(crate) fn encode_record(fact: &CommitFact) -> [u8; RECORD_LEN] {
    let mut rec = [0u8; RECORD_LEN];
    rec[0..8].copy_from_slice(&fact.id.to_le_bytes());
    rec[8..12].copy_from_slice(&(fact.round as u32).to_le_bytes());
    rec[12] = match fact.value {
        Some(Bit::Zero) => 0,
        Some(Bit::One) => 1,
        None => 0xFF,
    };
    rec[16..24].copy_from_slice(&fact.ops.to_le_bytes());
    let crc = crc64(&rec[..24]);
    rec[24..32].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Deserializes one record; `None` means the CRC or a field encoding
/// is invalid (a torn or corrupt record).
pub(crate) fn decode_record(rec: &[u8; RECORD_LEN]) -> Option<CommitFact> {
    let stored = u64::from_le_bytes(rec[24..32].try_into().unwrap());
    if crc64(&rec[..24]) != stored {
        return None;
    }
    let value = match rec[12] {
        0 => Some(Bit::Zero),
        1 => Some(Bit::One),
        0xFF => None,
        _ => return None,
    };
    if rec[13..16] != [0, 0, 0] {
        return None;
    }
    Some(CommitFact {
        id: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
        value,
        round: u32::from_le_bytes(rec[8..12].try_into().unwrap()) as usize,
        ops: u64::from_le_bytes(rec[16..24].try_into().unwrap()),
    })
}

/// The file name of segment `index`.
pub(crate) fn segment_name(index: u64) -> String {
    format!("seg-{index:08}.log")
}

fn segment_header(index: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&SEGMENT_MAGIC);
    header[8..16].copy_from_slice(&index.to_le_bytes());
    header
}

/// What [`JournalReader::replay`] recovered from a journal directory.
#[derive(Debug)]
pub struct Replay {
    /// Every durably committed fact, in append order.
    pub facts: Vec<CommitFact>,
    /// Whether a torn final record (or torn final-segment header) was
    /// dropped.
    pub torn_tail: bool,
    /// Segment index the next append belongs to.
    pub next_segment: u64,
    /// Records already in that segment.
    pub in_segment: usize,
    /// Valid byte length of that segment's file (torn bytes excluded);
    /// [`JournalWriter::open`] truncates the file to this length.
    pub valid_len: u64,
    /// The final segment's header must be (re)written from scratch:
    /// either the journal is fresh, or the process died during a
    /// segment roll before the new header landed.
    pub rewrite_header: bool,
}

/// Read side: replays a journal directory into the facts it holds.
#[derive(Debug)]
pub struct JournalReader;

impl JournalReader {
    /// Replays every segment under `dir` in index order. A missing or
    /// empty directory replays to zero facts (a fresh journal). The
    /// torn-tail rule is described in the module docs.
    pub fn replay(dir: &Path) -> Result<Replay, JournalError> {
        let mut facts = Vec::new();
        let mut torn_tail = false;
        let mut next_segment = 0u64;
        let mut in_segment = 0usize;
        let mut valid_len = HEADER_LEN as u64;
        loop {
            let path = dir.join(segment_name(next_segment));
            let mut file = match File::open(&path) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
                Err(e) => return Err(io_err(&path, e)),
            };
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes).map_err(|e| io_err(&path, e))?;
            if bytes.len() < HEADER_LEN || bytes[..HEADER_LEN] != segment_header(next_segment) {
                // A final segment whose bytes are a *prefix* of its
                // expected header is the signature of a crash mid-roll
                // (the file was created but the one-shot header write
                // was torn): recover by rewriting it. Anything else —
                // wrong magic, wrong index, garbled short bytes, or a
                // bad header on a non-final segment — is corruption.
                let expected = segment_header(next_segment);
                let is_final = !dir.join(segment_name(next_segment + 1)).exists();
                if is_final && bytes.len() < HEADER_LEN && expected.starts_with(&bytes) {
                    return Ok(Replay {
                        facts,
                        torn_tail: true,
                        next_segment,
                        in_segment: 0,
                        valid_len: HEADER_LEN as u64,
                        rewrite_header: true,
                    });
                }
                return Err(JournalError::Corrupt {
                    path,
                    detail: format!(
                        "bad header (want magic {SEGMENT_MAGIC:?} + index {next_segment})"
                    ),
                });
            }
            let body = &bytes[HEADER_LEN..];
            let whole = body.len() / RECORD_LEN;
            let partial_tail = body.len() % RECORD_LEN != 0;
            let mut seg_facts = Vec::with_capacity(whole);
            let mut first_bad: Option<usize> = None;
            for r in 0..whole {
                let rec: &[u8; RECORD_LEN] = body[r * RECORD_LEN..(r + 1) * RECORD_LEN]
                    .try_into()
                    .unwrap();
                match decode_record(rec) {
                    Some(fact) => {
                        if let Some(bad) = first_bad {
                            // Valid data after an invalid record is
                            // interior corruption, not a torn tail.
                            return Err(JournalError::Corrupt {
                                path,
                                detail: format!("record {bad} invalid but later records decode"),
                            });
                        }
                        seg_facts.push(fact);
                    }
                    None => {
                        if first_bad.is_none() {
                            first_bad = Some(r);
                        }
                    }
                }
            }
            // A crash tears at most the single final append: either
            // the last whole record fails its CRC, or trailing partial
            // bytes exist — never both, and never more than one bad
            // whole record.
            let torn_here = match first_bad {
                None => partial_tail,
                Some(bad) if bad + 1 == whole && !partial_tail => true,
                Some(bad) => {
                    return Err(JournalError::Corrupt {
                        path,
                        detail: format!(
                            "invalid record {bad} is not a lone torn tail \
                             ({whole} whole records, partial tail: {partial_tail})"
                        ),
                    });
                }
            };
            // A later segment existing means this one's tail was not
            // the journal's tail: any invalidity here is corruption.
            let next_path = dir.join(segment_name(next_segment + 1));
            if torn_here && next_path.exists() {
                return Err(JournalError::Corrupt {
                    path,
                    detail: "torn record in a non-final segment".into(),
                });
            }
            in_segment = seg_facts.len();
            valid_len = (HEADER_LEN + in_segment * RECORD_LEN) as u64;
            torn_tail = torn_here;
            facts.extend(seg_facts);
            next_segment += 1;
        }
        if next_segment == 0 {
            // Fresh journal: the writer will create segment 0.
            return Ok(Replay {
                facts,
                torn_tail: false,
                next_segment: 0,
                in_segment: 0,
                valid_len: HEADER_LEN as u64,
                rewrite_header: true,
            });
        }
        Ok(Replay {
            facts,
            torn_tail,
            next_segment: next_segment - 1,
            in_segment,
            valid_len,
            rewrite_header: false,
        })
    }
}

/// Write side: appends fixed-width records, rolling segments at
/// `segment_records`. Each call writes straight to the file, one
/// `write_all` per segment it touches (no buffering across calls), so
/// a dropped service leaves at worst one torn final record.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    segment_records: usize,
    segment: u64,
    in_segment: usize,
    file: File,
    /// Encoding scratch, reused across calls.
    buf: Vec<u8>,
}

impl JournalWriter {
    /// Opens (creating if needed) the journal under `dir`, replays it,
    /// truncates any torn tail, and positions for appending. Returns
    /// the writer together with the replayed facts.
    ///
    /// `segment_records` must match the value the journal was written
    /// with — it is part of the byte format (a mismatch is reported as
    /// [`JournalError::Corrupt`] when an overfull segment proves it).
    pub fn open(
        dir: &Path,
        segment_records: usize,
    ) -> Result<(Self, Vec<CommitFact>), JournalError> {
        assert!(segment_records >= 1, "need at least one record per segment");
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let replay = JournalReader::replay(dir)?;
        if replay.in_segment > segment_records {
            return Err(JournalError::Corrupt {
                path: dir.join(segment_name(replay.next_segment)),
                detail: format!(
                    "{} records in one segment but segment_records = {segment_records}",
                    replay.in_segment
                ),
            });
        }
        let path = dir.join(segment_name(replay.next_segment));
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        // A fresh journal (or one killed mid-roll) needs its final
        // segment's header written; an existing one needs its torn
        // tail (if any) cut off.
        if replay.rewrite_header {
            file.set_len(0).map_err(|e| io_err(&path, e))?;
            let mut f = &file;
            f.write_all(&segment_header(replay.next_segment))
                .map_err(|e| io_err(&path, e))?;
        } else {
            file.set_len(replay.valid_len)
                .map_err(|e| io_err(&path, e))?;
        }
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(&path, e))?;
        Ok((
            JournalWriter {
                dir: dir.to_path_buf(),
                segment_records,
                segment: replay.next_segment,
                in_segment: replay.in_segment,
                file,
                buf: Vec::new(),
            },
            replay.facts,
        ))
    }

    /// Appends one fact, rolling to a new segment first if the current
    /// one is full.
    pub fn append(&mut self, fact: &CommitFact) -> Result<(), JournalError> {
        self.append_batch(std::slice::from_ref(fact))
    }

    /// Appends `facts` in order with one `write_all` per segment they
    /// touch. Segments roll lazily — the next file is created only when
    /// a record needs it — so the files are byte-identical to one
    /// [`append`](Self::append) per fact, and an empty batch writes
    /// nothing. After an error the facts up to some prefix may be on
    /// disk; the writer should not be appended to again.
    pub(crate) fn append_batch(&mut self, facts: &[CommitFact]) -> Result<(), JournalError> {
        let mut rest = facts;
        while !rest.is_empty() {
            if self.in_segment == self.segment_records {
                self.segment += 1;
                self.in_segment = 0;
                self.file = File::create(self.dir.join(segment_name(self.segment)))
                    .map_err(|e| self.segment_err(e))?;
                self.buf.extend_from_slice(&segment_header(self.segment));
            }
            let take = rest.len().min(self.segment_records - self.in_segment);
            for fact in &rest[..take] {
                self.buf.extend_from_slice(&encode_record(fact));
            }
            let written = self.file.write_all(&self.buf);
            self.buf.clear();
            written.map_err(|e| self.segment_err(e))?;
            self.in_segment += take;
            rest = &rest[take..];
        }
        Ok(())
    }

    /// An I/O error on the current segment (its path is formatted only
    /// here, on failure).
    fn segment_err(&self, source: std::io::Error) -> JournalError {
        io_err(&self.dir.join(segment_name(self.segment)), source)
    }

    /// Total facts durable across all segments.
    pub(crate) fn len(&self) -> u64 {
        self.segment * self.segment_records as u64 + self.in_segment as u64
    }

    /// Segments on disk (the current, possibly partial, one included).
    pub(crate) fn segments(&self) -> u64 {
        self.segment + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "nc-journal-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn fact(id: u64) -> CommitFact {
        CommitFact {
            id,
            value: if id.is_multiple_of(3) {
                None
            } else {
                Some(Bit::from(id % 2 == 1))
            },
            round: (id % 7) as usize,
            ops: id * 13 + 1,
        }
    }

    #[test]
    fn record_round_trips_and_crc_rejects_flips() {
        for id in 0..20 {
            let f = fact(id);
            let rec = encode_record(&f);
            assert_eq!(decode_record(&rec), Some(f));
            for byte in 0..RECORD_LEN {
                let mut bad = rec;
                bad[byte] ^= 0x40;
                assert_eq!(decode_record(&bad), None, "flip at byte {byte} undetected");
            }
        }
    }

    #[test]
    fn crc64_reference_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn write_replay_round_trip_across_segment_rolls() {
        let dir = TempDir::new("roundtrip");
        let facts: Vec<CommitFact> = (0..10).map(fact).collect();
        {
            let (mut writer, replayed) = JournalWriter::open(&dir.0, 3).unwrap();
            assert!(replayed.is_empty());
            for f in &facts {
                writer.append(f).unwrap();
            }
            assert_eq!(writer.len(), 10);
            assert_eq!(writer.segments(), 4); // 3+3+3+1
        }
        let replay = JournalReader::replay(&dir.0).unwrap();
        assert_eq!(replay.facts, facts);
        assert!(!replay.torn_tail);
    }

    /// Every file under `dir`, name -> bytes, sorted by name.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn batches_write_the_bytes_of_per_record_appends() {
        let facts: Vec<CommitFact> = (0..40).map(fact).collect();
        for cap in [1usize, 3, 256] {
            let single = TempDir::new(&format!("single-{cap}"));
            let batched = TempDir::new(&format!("batched-{cap}"));
            {
                let (mut w, _) = JournalWriter::open(&single.0, cap).unwrap();
                for f in &facts {
                    w.append(f).unwrap();
                }
            }
            let mut empty_after_full = 0;
            {
                let (mut w, _) = JournalWriter::open(&batched.0, cap).unwrap();
                let mut rest = &facts[..];
                for split in [0, 1, 2, 3, 4, 7, usize::MAX] {
                    let (batch, tail) = rest.split_at(split.min(rest.len()));
                    w.append_batch(batch).unwrap();
                    rest = tail;
                    if w.len() > 0 && w.len() % cap as u64 == 0 {
                        // A full segment: an empty batch must not roll.
                        w.append_batch(&[]).unwrap();
                        assert!(!batched.0.join(segment_name(w.segments())).exists());
                        empty_after_full += 1;
                    }
                }
                assert_eq!(w.len(), facts.len() as u64);
            }
            assert!(
                cap == 256 || empty_after_full > 0,
                "cap {cap}: no full segment"
            );
            assert_eq!(files(&single.0), files(&batched.0), "cap {cap}");
            assert_eq!(JournalReader::replay(&batched.0).unwrap().facts, facts);
        }
    }

    #[test]
    fn reopen_resumes_byte_identically() {
        let straight = TempDir::new("straight");
        let resumed = TempDir::new("resumed");
        let facts: Vec<CommitFact> = (0..8).map(fact).collect();
        {
            let (mut w, _) = JournalWriter::open(&straight.0, 3).unwrap();
            for f in &facts {
                w.append(f).unwrap();
            }
        }
        {
            let (mut w, _) = JournalWriter::open(&resumed.0, 3).unwrap();
            for f in &facts[..5] {
                w.append(f).unwrap();
            }
        }
        {
            let (mut w, replayed) = JournalWriter::open(&resumed.0, 3).unwrap();
            assert_eq!(replayed, facts[..5]);
            for f in &facts[5..] {
                w.append(f).unwrap();
            }
        }
        for seg in 0..3u64 {
            let name = segment_name(seg);
            assert_eq!(
                std::fs::read(straight.0.join(&name)).unwrap(),
                std::fs::read(resumed.0.join(&name)).unwrap(),
                "{name} differs between straight and killed-and-resumed runs"
            );
        }
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = TempDir::new("torn");
        let facts: Vec<CommitFact> = (0..5).map(fact).collect();
        {
            let (mut w, _) = JournalWriter::open(&dir.0, 100).unwrap();
            for f in &facts {
                w.append(f).unwrap();
            }
        }
        // Tear the final record: cut 7 bytes off.
        let path = dir.0.join(segment_name(0));
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 7).unwrap();
        drop(file);

        let replay = JournalReader::replay(&dir.0).unwrap();
        assert_eq!(replay.facts, facts[..4]);
        assert!(replay.torn_tail);

        // Reopening truncates the torn bytes and re-appending the lost
        // fact restores the byte-identical file.
        let (mut w, replayed) = JournalWriter::open(&dir.0, 100).unwrap();
        assert_eq!(replayed, facts[..4]);
        w.append(&facts[4]).unwrap();
        drop(w);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        let replay = JournalReader::replay(&dir.0).unwrap();
        assert_eq!(replay.facts, facts);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_tail() {
        let dir = TempDir::new("interior");
        {
            let (mut w, _) = JournalWriter::open(&dir.0, 100).unwrap();
            for id in 0..4 {
                w.append(&fact(id)).unwrap();
            }
        }
        let path = dir.0.join(segment_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + RECORD_LEN + 2] ^= 0xFF; // corrupt record 1 of 4
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            JournalReader::replay(&dir.0),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn torn_segment_roll_is_recovered() {
        let dir = TempDir::new("roll");
        {
            let (mut w, _) = JournalWriter::open(&dir.0, 2).unwrap();
            for id in 0..2 {
                w.append(&fact(id)).unwrap();
            }
        }
        // Simulate a crash between creating seg 1 and writing its
        // header: an empty file.
        std::fs::write(dir.0.join(segment_name(1)), b"").unwrap();
        let replay = JournalReader::replay(&dir.0).unwrap();
        assert_eq!(replay.facts, vec![fact(0), fact(1)]);
        assert!(replay.torn_tail && replay.rewrite_header);
        let (mut w, replayed) = JournalWriter::open(&dir.0, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        w.append(&fact(2)).unwrap();
        drop(w);
        let replay = JournalReader::replay(&dir.0).unwrap();
        assert_eq!(replay.facts, vec![fact(0), fact(1), fact(2)]);
    }

    #[test]
    fn bad_header_is_an_error() {
        let dir = TempDir::new("header");
        std::fs::write(dir.0.join(segment_name(0)), b"NOTJRNL0\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            JournalReader::replay(&dir.0),
            Err(JournalError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = std::env::temp_dir().join("nc-journal-definitely-missing-xyz");
        let replay = JournalReader::replay(&dir).unwrap();
        assert!(replay.facts.is_empty());
        assert!(!replay.torn_tail);
    }
}
