//! Compact binary page-trace format for zero-copy cached replay.
//!
//! The matrix engine replays the same (spec, seed) trace for every
//! policy of a cell row; regenerating it access-by-access is the single
//! largest fixed cost of a cold run. This module gives a generated
//! trace a durable on-disk form so it is synthesized **once** and then
//! replayed from fixed-size records with no per-access decode
//! allocation.
//!
//! # Layout
//!
//! All integers are little-endian. A file is a 40-byte header, the
//! canonical spec JSON, `count` fixed 8-byte records, and an 8-byte
//! checksum trailer over the records:
//!
//! ```text
//! offset  size  field
//!      0     8  magic        b"HMTRACE1"
//!      8     4  version      format version (currently 4)
//!     12     4  spec_len     byte length of the spec JSON that follows
//!     16     8  seed         generator seed the trace was produced with
//!     24     8  fingerprint  cache key of (spec JSON, seed)
//!     32     8  count        number of records
//!     40   spec_len          canonical spec JSON (collision verification)
//!     40+spec_len   8*count  records
//!     then     8  checksum   four-lane FNV-1a 64 over the records
//! ```
//!
//! Each record is one `u64`, `page << 1 | write`: bit 0 carries the op
//! (0 = read, 1 = write) and the upper 63 bits the page id, so a record
//! holds page ids up to [`MAX_PAGE`] (2^63 − 1). Generated traces number
//! their pages below their working set and imported ones by
//! `address / 4096`, below 2^52.
//!
//! # Checksum trailer
//!
//! The trailer runs four FNV-1a 64 chains with a word in place of a
//! byte. Each lane starts at [`FNV1A64_SEED`], and record *i* folds into
//! lane *i* mod 4: `lane = (lane ^ word) * prime`. The trailer then folds
//! the four lanes, in order, into [`FNV1A64_SEED`] with the same step.
//! Writer and readers fold each record as they encode or decode it, and
//! the four chains do not wait on each other, so the check costs about
//! one multiply per record with no serial chain through the body. Each
//! step is a bijection of its lane and of its word (xor with a fixed
//! value, then multiplication by an odd constant modulo 2^64), so two
//! bodies that differ in a single word end in different lanes and
//! different trailers: every single-bit flip is caught. A bit-flipped,
//! mid-record-truncated or over-long body is reported as
//! [`Error::ParseTrace`] — the trace cache counts that as a spill miss
//! and regenerates instead of trusting a corrupt file.
//!
//! Readers accept exactly version 4. Version 1 (no trailer), version 2
//! (16-byte records under FNV-1a 64 over the body's *bytes*) and
//! version 3 (16-byte `{ page, flags }` records under one word-wise
//! FNV-1a 64 chain) fail with "unsupported format version". These files
//! are trace-cache spills, which the generator can always reproduce, so
//! the cache counts a miss, regenerates the trace and renames a
//! version-4 file over the old one.
//!
//! The full spec JSON rides in the header (not just its fingerprint) so
//! a reader can verify the file really holds the trace it asked for —
//! the same collision discipline the in-memory
//! `TraceCache` applies to its slots.
//!
//! # Streamed replay
//!
//! The workspace forbids `unsafe`, so the reader does not `mmap`.
//! [`BinTraceStream`] is the one decoder: it hands out the body one
//! fixed-size chunk of records at a time from a reused buffer, which
//! oversize traces replay from directly, and reads each chunk's bytes in
//! pieces of at most 64 KiB (8 192 records) through one fixed staging
//! buffer, decoding each piece and then folding it into the lanes. A
//! caller that wants the whole trace (the trace cache's spill load)
//! drains the chunks into its own buffer and calls
//! [`BinTraceStream::finish`], which also rejects bytes after the
//! trailer. Lengths in the header are unverified input, so a stream
//! allocates for at most one chunk and one piece, never for the declared
//! `count` or `spec_len`.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use hybridmem_types::{AccessKind, Error, PageAccess, PageId};

/// File magic: `HMTRACE1`.
pub const MAGIC: [u8; 8] = *b"HMTRACE1";

/// Format version, the only one the readers accept.
pub const VERSION: u32 = 4;

/// Size of the fixed header in bytes (the spec JSON follows it).
pub const HEADER_BYTES: usize = 40;

/// Size of one record in bytes.
pub const RECORD_BYTES: usize = 8;

/// Size of the checksum trailer.
pub const TRAILER_BYTES: usize = 8;

/// The largest page id a record holds: bit 0 of the word is the op.
pub const MAX_PAGE: u64 = u64::MAX >> 1;

/// FNV-1a 64 offset basis — the seed of an incremental checksum.
pub const FNV1A64_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an incremental FNV-1a 64 state. Start from
/// [`FNV1A64_SEED`]; feeding the same bytes in any chunking yields the
/// same digest. Shared with the resume journal's record CRCs; the trace
/// trailer folds whole words instead (see the module docs).
#[must_use]
pub fn fnv1a64_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
    hash
}

/// One FNV-1a 64 step with a whole word in place of a byte.
const fn fold_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV1A64_PRIME)
}

/// One fixed-size trace record: the word `page << 1 | write`, in memory
/// as on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record(u64);

const _: () = assert!(std::mem::size_of::<Record>() == RECORD_BYTES);

impl Record {
    /// Packs a page access into a record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the page id exceeds
    /// [`MAX_PAGE`].
    pub fn from_access(access: PageAccess) -> Result<Self, Error> {
        let page = access.page.value();
        if page > MAX_PAGE {
            return Err(Error::invalid_input(format!(
                "page {page} exceeds the largest page id a trace record holds, {MAX_PAGE}"
            )));
        }
        Ok(Self(page << 1 | u64::from(access.kind.is_write())))
    }

    /// True when the record is a write.
    #[must_use]
    pub const fn is_write(self) -> bool {
        self.0 & 1 != 0
    }

    /// Unpacks the record back into a page access.
    #[must_use]
    pub fn access(self) -> PageAccess {
        let kind = if self.is_write() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        PageAccess::new(PageId::new(self.0 >> 1), kind)
    }
}

impl From<Record> for PageAccess {
    fn from(record: Record) -> Self {
        record.access()
    }
}

/// The trailer checksum's four FNV-1a 64 lanes: record *i* of the body
/// folds into lane *i* mod 4.
#[derive(Debug, Clone, Copy)]
struct Lanes([u64; 4]);

impl Lanes {
    const fn new() -> Self {
        Self([FNV1A64_SEED; 4])
    }

    /// Folds `records`, the body's records from position `first` on.
    /// The lanes are rotated so that `records[0]`'s lane comes first, and
    /// each group of four then folds into the four lanes in order.
    #[expect(clippy::indexing_slicing, reason = "groups of exactly four records")]
    fn fold(&mut self, first: u64, records: &[Record]) {
        let shift = (first % 4) as usize;
        let mut lanes = self.0;
        lanes.rotate_left(shift);
        let mut groups = records.chunks_exact(4);
        for group in &mut groups {
            lanes[0] = fold_word(lanes[0], group[0].0);
            lanes[1] = fold_word(lanes[1], group[1].0);
            lanes[2] = fold_word(lanes[2], group[2].0);
            lanes[3] = fold_word(lanes[3], group[3].0);
        }
        for (lane, record) in lanes.iter_mut().zip(groups.remainder()) {
            *lane = fold_word(*lane, record.0);
        }
        lanes.rotate_right(shift);
        self.0 = lanes;
    }

    /// Folds the one record at position `index` of the body.
    #[expect(clippy::indexing_slicing, reason = "index % 4 picks one of four lanes")]
    fn fold_one(&mut self, index: u64, record: Record) {
        let lane = &mut self.0[(index % 4) as usize];
        *lane = fold_word(*lane, record.0);
    }

    /// The trailer: the four lanes folded in order into [`FNV1A64_SEED`].
    fn digest(self) -> u64 {
        self.0.into_iter().fold(FNV1A64_SEED, fold_word)
    }
}

/// Identity block of a binary trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Generator seed.
    pub seed: u64,
    /// Cache fingerprint of (spec JSON, seed).
    pub fingerprint: u64,
    /// Number of records in the file.
    pub count: u64,
    /// Canonical spec JSON the trace was generated from.
    pub spec_json: String,
}

impl TraceHeader {
    /// True when the file identifies as the trace for `spec_json` at
    /// `seed` — the collision check callers must apply before trusting
    /// a fingerprint-named file.
    #[must_use]
    pub fn matches(&self, spec_json: &str, seed: u64) -> bool {
        self.seed == seed && self.spec_json == spec_json
    }
}

/// Streaming writer producing the binary format.
///
/// The record count is not known up front, so `create` writes a header
/// with a zero count and [`TraceWriter::finish`] seeks back to patch it
/// — which is why the sink must implement [`Seek`]. Records are staged
/// through an internal 64 KiB buffer, so wrapping the sink in a
/// `BufWriter` is unnecessary.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    count: u64,
    buffer: Vec<u8>,
    lanes: Lanes,
}

/// Bytes staged in the writer's buffer before a flush: 8 192 records.
const WRITER_BUFFER_BYTES: usize = 64 << 10;

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace file on `sink`: writes the header (count 0) and
    /// the spec JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the spec JSON exceeds
    /// `u32::MAX` bytes or the sink fails.
    pub fn create(
        mut sink: W,
        spec_json: &str,
        seed: u64,
        fingerprint: u64,
    ) -> Result<Self, Error> {
        let spec_len = u32::try_from(spec_json.len())
            .map_err(|_| Error::invalid_input("spec JSON exceeds u32::MAX bytes"))?;
        let mut header = [0u8; HEADER_BYTES];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&spec_len.to_le_bytes());
        header[16..24].copy_from_slice(&seed.to_le_bytes());
        header[24..32].copy_from_slice(&fingerprint.to_le_bytes());
        // count (bytes 32..40) stays zero until `finish` patches it.
        sink.write_all(&header).map_err(io_err)?;
        sink.write_all(spec_json.as_bytes()).map_err(io_err)?;
        Ok(Self {
            sink,
            count: 0,
            buffer: Vec::with_capacity(WRITER_BUFFER_BYTES),
            lanes: Lanes::new(),
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] when the page id exceeds
    /// [`MAX_PAGE`], and propagates sink failures as
    /// [`Error::InvalidInput`].
    pub fn push(&mut self, access: PageAccess) -> Result<(), Error> {
        let record = Record::from_access(access)?;
        self.lanes.fold_one(self.count, record);
        self.buffer.extend_from_slice(&record.0.to_le_bytes());
        self.count += 1;
        if self.buffer.len() >= WRITER_BUFFER_BYTES {
            self.sink.write_all(&self.buffer).map_err(io_err)?;
            self.buffer.clear();
        }
        Ok(())
    }

    /// Flushes buffered records, writes the checksum trailer, patches
    /// the header's record count, and returns the number of records
    /// written.
    ///
    /// # Errors
    ///
    /// Propagates sink failures as [`Error::InvalidInput`].
    pub fn finish(mut self) -> Result<u64, Error> {
        if !self.buffer.is_empty() {
            self.sink.write_all(&self.buffer).map_err(io_err)?;
            self.buffer.clear();
        }
        self.sink
            .write_all(&self.lanes.digest().to_le_bytes())
            .map_err(io_err)?;
        self.sink.seek(SeekFrom::Start(32)).map_err(io_err)?;
        self.sink
            .write_all(&self.count.to_le_bytes())
            .map_err(io_err)?;
        self.sink.flush().map_err(io_err)?;
        Ok(self.count)
    }
}

/// Writes a whole trace to `path` in one call.
///
/// # Errors
///
/// Propagates file-system failures as [`Error::InvalidInput`].
pub fn write_trace_file<I>(
    path: &Path,
    spec_json: &str,
    seed: u64,
    fingerprint: u64,
    accesses: I,
) -> Result<u64, Error>
where
    I: IntoIterator<Item = PageAccess>,
{
    let file = File::create(path).map_err(io_err)?;
    let mut writer = TraceWriter::create(file, spec_json, seed, fingerprint)?;
    for access in accesses {
        writer.push(access)?;
    }
    writer.finish()
}

/// Default chunk size (in records) for [`BinTraceStream`].
pub const STREAM_CHUNK_RECORDS: usize = 1 << 16;

/// Most record-body bytes a stream reads at a time: 4 096 records.
const PIECE_BYTES: usize = 64 << 10;

/// Chunked reader: replays the file through one reused fixed-size
/// buffer. Traces too large to hold in memory replay from it directly,
/// and a whole-trace load drains it and then calls
/// [`BinTraceStream::finish`].
#[derive(Debug)]
pub struct BinTraceStream<R: Read = BufReader<File>> {
    source: R,
    header: TraceHeader,
    remaining: u64,
    chunk_records: usize,
    /// Staging buffer for one piece of a chunk's bytes: a whole number of
    /// records, at most [`PIECE_BYTES`] and at most one chunk, allocated
    /// once.
    bytes: Vec<u8>,
    chunk: Vec<Record>,
    /// Trailer lanes folded over the records decoded so far.
    lanes: Lanes,
    /// True once the trailer has been read and verified, so the check
    /// fires exactly once.
    trailer_checked: bool,
}

impl BinTraceStream<BufReader<File>> {
    /// Opens a stream over the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for I/O failures and
    /// [`Error::ParseTrace`] for a corrupt header.
    pub fn open(path: &Path, chunk_records: usize) -> Result<Self, Error> {
        let file = File::open(path).map_err(io_err)?;
        Self::from_reader(BufReader::new(file), chunk_records)
    }
}

impl<R: Read> BinTraceStream<R> {
    /// Starts a stream over any byte source; `chunk_records` caps the
    /// records resident per chunk (0 is clamped to 1).
    ///
    /// # Errors
    ///
    /// Same contract as [`BinTraceStream::open`].
    pub fn from_reader(mut source: R, chunk_records: usize) -> Result<Self, Error> {
        let header = read_header(&mut source)?;
        let chunk_records = chunk_records.max(1);
        let piece_records = chunk_records.min(PIECE_BYTES / RECORD_BYTES);
        Ok(Self {
            remaining: header.count,
            header,
            source,
            chunk_records,
            bytes: vec![0; piece_records * RECORD_BYTES],
            chunk: Vec::new(),
            lanes: Lanes::new(),
            trailer_checked: false,
        })
    }

    /// The file's identity header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Records not yet yielded.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next chunk into the reused buffer, 64 KiB of file at a
    /// time, returning `None` once the declared record count has been
    /// delivered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseTrace`] when the file ends before the
    /// header's record count is satisfied or the checksum trailer does
    /// not match the streamed records, and [`Error::InvalidInput`] for
    /// I/O failures. The trailer check runs as soon as the declared
    /// count is exhausted, so the final chunk is only handed out once
    /// the whole body has verified.
    #[expect(
        clippy::indexing_slicing,
        reason = "a piece fits the staging buffer, and `fill` reads at most the piece"
    )]
    pub fn next_chunk(&mut self) -> Result<Option<&[Record]>, Error> {
        if self.remaining == 0 {
            self.check_trailer()?;
            return Ok(None);
        }
        // `take` ≤ `chunk_records` bounds this reservation, so the chunk is
        // sized once here, never from the header's unverified count.
        let take = self.remaining.min(self.chunk_records as u64) as usize;
        self.chunk.clear();
        self.chunk.reserve_exact(take);
        let piece_records = self.bytes.len() / RECORD_BYTES;
        while self.chunk.len() < take {
            let piece =
                &mut self.bytes[..(take - self.chunk.len()).min(piece_records) * RECORD_BYTES];
            let read = fill(&mut self.source, piece)?;
            let first = self.header.count - self.remaining + self.chunk.len() as u64;
            decode_records(&piece[..read], first, &mut self.lanes, &mut self.chunk);
            if read < piece.len() {
                return Err(Error::parse_trace(
                    self.header.count - self.remaining + self.chunk.len() as u64 + 1,
                    "truncated record body",
                ));
            }
        }
        self.remaining -= take as u64;
        if self.remaining == 0 {
            self.check_trailer()?;
        }
        Ok(Some(&self.chunk))
    }

    /// Ends a stream whose records have all been delivered and returns its
    /// header: checks the trailer (if [`next_chunk`](Self::next_chunk) has
    /// not yet) and that no byte follows it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseTrace`] when the trailer is missing or does
    /// not match or a byte follows it, and [`Error::InvalidInput`] for I/O
    /// failures or when records remain undelivered.
    pub fn finish(mut self) -> Result<TraceHeader, Error> {
        if self.remaining != 0 {
            return Err(Error::invalid_input(format!(
                "stream finished with {} of its records undelivered",
                self.remaining
            )));
        }
        self.check_trailer()?;
        let mut trailing = [0u8; 1];
        if self.source.read(&mut trailing).map_err(io_err)? != 0 {
            return Err(Error::parse_trace(
                self.header.count + 1,
                "trailing bytes after the declared record count",
            ));
        }
        Ok(self.header)
    }

    /// Reads the trailer and compares it against the lanes folded over
    /// the records actually read, exactly once.
    fn check_trailer(&mut self) -> Result<(), Error> {
        if self.trailer_checked {
            return Ok(());
        }
        self.trailer_checked = true;
        let mut trailer = [0u8; TRAILER_BYTES];
        #[expect(clippy::wildcard_enum_match_arm, reason = "other kinds pass through")]
        self.source
            .read_exact(&mut trailer)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => {
                    Error::parse_trace(0, "truncated checksum trailer")
                }
                _ => io_err(e),
            })?;
        let stored = u64::from_le_bytes(trailer);
        let computed = self.lanes.digest();
        if stored != computed {
            return Err(Error::parse_trace(
                0,
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        Ok(())
    }
}

/// Decodes the whole records in `bytes` onto `out`, then folds them into
/// `lanes`; `first` is the body position of the first of them.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "chunks_exact(RECORD_BYTES) yields 8-byte records, appended from `start` on"
)]
fn decode_records(bytes: &[u8], first: u64, lanes: &mut Lanes, out: &mut Vec<Record>) {
    let start = out.len();
    out.extend(bytes.chunks_exact(RECORD_BYTES).map(|raw| {
        Record(u64::from_le_bytes(
            raw.try_into().expect("an 8-byte record"),
        ))
    }));
    lanes.fold(first, &out[start..]);
}

/// Reads and validates the fixed header plus the spec JSON.
#[expect(clippy::expect_used, reason = "constant ranges of the header")]
fn read_header<R: Read>(reader: &mut R) -> Result<TraceHeader, Error> {
    let mut fixed = [0u8; HEADER_BYTES];
    reader
        .read_exact(&mut fixed)
        .map_err(|e| Error::parse_trace(0, format!("truncated header: {e}")))?;
    if fixed[..8] != MAGIC {
        return Err(Error::parse_trace(0, "bad magic: not a binary trace file"));
    }
    let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(Error::parse_trace(
            0,
            format!("unsupported format version {version} (expected {VERSION})"),
        ));
    }
    let spec_len = u32::from_le_bytes(fixed[12..16].try_into().expect("4-byte slice"));
    let seed = u64::from_le_bytes(fixed[16..24].try_into().expect("8-byte slice"));
    let fingerprint = u64::from_le_bytes(fixed[24..32].try_into().expect("8-byte slice"));
    let count = u64::from_le_bytes(fixed[32..40].try_into().expect("8-byte slice"));
    let mut spec_bytes = Vec::new();
    if !read_declared(reader, u64::from(spec_len), &mut spec_bytes)? {
        return Err(Error::parse_trace(0, "truncated spec JSON"));
    }
    let spec_json = String::from_utf8(spec_bytes)
        .map_err(|_| Error::parse_trace(0, "spec JSON is not valid UTF-8"))?;
    Ok(TraceHeader {
        seed,
        fingerprint,
        count,
        spec_json,
    })
}

/// Reads into `buf` until it is full or the input ends, and returns how
/// many bytes it read.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize, Error> {
    let mut read = 0;
    while let Some(rest) = buf.get_mut(read..).filter(|rest| !rest.is_empty()) {
        match reader.read(rest) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(read)
}

/// Appends up to `len` bytes from `reader` to `buf` and reports whether
/// all `len` were there. Header lengths are unverified, so `buf` grows
/// with the bytes actually read instead of being allocated from `len`
/// up front.
fn read_declared<R: Read>(reader: &mut R, len: u64, buf: &mut Vec<u8>) -> Result<bool, Error> {
    let read = reader.take(len).read_to_end(buf).map_err(io_err)?;
    Ok(read as u64 == len)
}

fn io_err(e: std::io::Error) -> Error {
    Error::invalid_input(format!("I/O error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample(n: u64) -> Vec<PageAccess> {
        (0..n)
            .map(|i| {
                let page = PageId::new(i * 37 % 101);
                if i % 3 == 0 {
                    PageAccess::write(page)
                } else {
                    PageAccess::read(page)
                }
            })
            .collect()
    }

    fn encode(accesses: &[PageAccess], spec: &str, seed: u64, fp: u64) -> Vec<u8> {
        let mut bytes = Cursor::new(Vec::new());
        let mut writer = TraceWriter::create(&mut bytes, spec, seed, fp).unwrap();
        for access in accesses {
            writer.push(*access).unwrap();
        }
        writer.finish().unwrap();
        bytes.into_inner()
    }

    /// Pulls chunks until the stream ends or fails, returning what it
    /// yielded and how it stopped.
    fn drain<R: Read>(stream: &mut BinTraceStream<R>) -> (Vec<PageAccess>, Result<(), Error>) {
        let mut yielded = Vec::new();
        loop {
            match stream.next_chunk() {
                Ok(Some(chunk)) => yielded.extend(chunk.iter().map(|r| r.access())),
                Ok(None) => return (yielded, Ok(())),
                Err(e) => return (yielded, Err(e)),
            }
        }
    }

    /// Reads a whole trace as the trace cache loads a spill: every chunk
    /// at the default size, then `finish`.
    fn read_whole<R: Read>(source: R) -> Result<(TraceHeader, Vec<PageAccess>), Error> {
        let mut stream = BinTraceStream::from_reader(source, STREAM_CHUNK_RECORDS)?;
        let mut accesses = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            accesses.extend(chunk.iter().map(|r| r.access()));
        }
        Ok((stream.finish()?, accesses))
    }

    /// The error a stream over `bytes` in `chunk`-record chunks stops with.
    fn stream_error(bytes: &[u8], chunk: usize) -> Error {
        match BinTraceStream::from_reader(bytes, chunk) {
            Ok(mut stream) => drain(&mut stream).1.unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn record_packs_and_unpacks() {
        let widest = [
            PageAccess::read(PageId::new(MAX_PAGE)),
            PageAccess::write(PageId::new(MAX_PAGE)),
        ];
        for access in sample(7).into_iter().chain(widest) {
            let record = Record::from_access(access).unwrap();
            assert_eq!(record.access(), access);
            assert_eq!(PageAccess::from(record), access);
            assert_eq!(record.is_write(), access.kind.is_write());
        }
    }

    #[test]
    fn a_page_beyond_63_bits_is_refused() {
        for page in [MAX_PAGE + 1, u64::MAX] {
            let access = PageAccess::write(PageId::new(page));
            let err = Record::from_access(access).unwrap_err();
            assert!(matches!(err, Error::InvalidInput { .. }), "{err}");
            let mut bytes = Cursor::new(Vec::new());
            let mut writer = TraceWriter::create(&mut bytes, "{}", 1, 2).unwrap();
            writer
                .push(PageAccess::read(PageId::new(MAX_PAGE)))
                .unwrap();
            let err = writer.push(access).unwrap_err();
            assert!(matches!(err, Error::InvalidInput { .. }), "{err}");
            assert!(err.to_string().contains("largest page id"), "{err}");
        }
    }

    #[test]
    fn roundtrip_through_a_whole_read() {
        let trace = sample(1000);
        let bytes = encode(&trace, "{\"spec\":1}", 42, 0xfeed);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + "{\"spec\":1}".len() + trace.len() * RECORD_BYTES + TRAILER_BYTES
        );
        let (header, back) = read_whole(bytes.as_slice()).unwrap();
        assert_eq!(header.seed, 42);
        assert_eq!(header.fingerprint, 0xfeed);
        assert_eq!(header.count, 1000);
        assert!(header.matches("{\"spec\":1}", 42));
        assert!(!header.matches("{\"spec\":1}", 43));
        assert!(!header.matches("{\"spec\":2}", 42));
        assert_eq!(back, trace);
    }

    #[test]
    fn roundtrip_through_stream_in_uneven_chunks() {
        let trace = sample(997);
        let bytes = encode(&trace, "{}", 7, 9);
        let mut stream = BinTraceStream::from_reader(bytes.as_slice(), 100).unwrap();
        assert_eq!(stream.remaining(), 997);
        let mut back = Vec::new();
        while let Some(chunk) = stream.next_chunk().unwrap() {
            assert!(chunk.len() <= 100);
            back.extend(chunk.iter().map(|r| r.access()));
        }
        assert_eq!(back, trace);
        assert_eq!(stream.remaining(), 0);
        assert!(stream.next_chunk().unwrap().is_none(), "stream stays done");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[], "{}", 0, 0);
        let (_, back) = read_whole(bytes.as_slice()).unwrap();
        assert!(back.is_empty());
        let mut stream = BinTraceStream::from_reader(bytes.as_slice(), 8).unwrap();
        assert!(stream.next_chunk().unwrap().is_none());
    }

    #[test]
    fn trailer_matches_the_known_answer() {
        // Five records, so lane 0 folds twice. The fold is written out
        // here step by step, and its value is pinned too, so a change to
        // the record packing, the lane order, the seed or the prime shows.
        let trace = [
            PageAccess::read(PageId::new(0)),
            PageAccess::write(PageId::new(MAX_PAGE)),
            PageAccess::read(PageId::new(0x0123_4567_89ab_cdef)),
            PageAccess::write(PageId::new(7)),
            PageAccess::read(PageId::new(1 << 40)),
        ];
        let words: [u64; 5] = [0, u64::MAX, 0x0246_8acf_1357_9bde, 15, 1 << 41];
        let step = |hash: u64, word: u64| (hash ^ word).wrapping_mul(FNV1A64_PRIME);
        let l0 = step(step(FNV1A64_SEED, words[0]), words[4]);
        let l1 = step(FNV1A64_SEED, words[1]);
        let l2 = step(FNV1A64_SEED, words[2]);
        let l3 = step(FNV1A64_SEED, words[3]);
        let trailer = step(step(step(step(FNV1A64_SEED, l0), l1), l2), l3);
        assert_eq!(trailer, 0xcf2d_62ff_ea11_76e5);

        let bytes = encode(&trace, "{}", 1, 2);
        assert_eq!(bytes[8..12], VERSION.to_le_bytes());
        let body = HEADER_BYTES + "{}".len();
        for (record, word) in bytes[body..].chunks_exact(RECORD_BYTES).zip(words) {
            assert_eq!(record, word.to_le_bytes());
        }
        assert_eq!(bytes[bytes.len() - TRAILER_BYTES..], trailer.to_le_bytes());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample(3), "{}", 1, 2);
        bytes[0] ^= 0xff;
        let err = read_whole(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    /// Encodes `trace` in an older layout: every one has 16-byte
    /// `{ page, flags }` records; version 1 has no trailer, version 2 a
    /// byte-wise FNV-1a 64 trailer over the body, version 3 one word-wise
    /// FNV-1a 64 chain over the records' words.
    fn encode_old(trace: &[PageAccess], spec: &str, version: u32) -> Vec<u8> {
        let mut bytes = encode(trace, spec, 1, 2);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        bytes.truncate(HEADER_BYTES + spec.len());
        let words: Vec<u64> = trace
            .iter()
            .flat_map(|access| [access.page.value(), u64::from(access.kind.is_write())])
            .collect();
        let body = bytes.len();
        bytes.extend(words.iter().flat_map(|word| word.to_le_bytes()));
        let trailer = match version {
            1 => return bytes,
            2 => fnv1a64_update(FNV1A64_SEED, &bytes[body..]),
            _ => words.iter().fold(FNV1A64_SEED, |hash, &word| {
                (hash ^ word).wrapping_mul(FNV1A64_PRIME)
            }),
        };
        bytes.extend(trailer.to_le_bytes());
        bytes
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let trace = sample(3);
        let mut future = encode(&trace, "{}", 1, 2);
        future[8] = 9;
        for bytes in [
            encode_old(&trace, "{}", 1),
            encode_old(&trace, "{}", 2),
            encode_old(&trace, "{}", 3),
            future,
        ] {
            let err = read_whole(bytes.as_slice()).unwrap_err();
            assert!(
                err.to_string().contains("unsupported format version"),
                "{err}"
            );
            let err = stream_error(&bytes, 2);
            assert!(
                err.to_string().contains("unsupported format version"),
                "{err}"
            );
        }
    }

    #[test]
    fn truncated_header_is_rejected() {
        let bytes = encode(&sample(3), "{}", 1, 2);
        let err = read_whole(&bytes[..HEADER_BYTES - 5]).unwrap_err();
        assert!(err.to_string().contains("truncated header"), "{err}");
    }

    #[test]
    fn truncated_spec_json_is_rejected() {
        let bytes = encode(&sample(3), "{\"name\":\"x\"}", 1, 2);
        let cut = bytes[..HEADER_BYTES + 3].to_vec();
        // A spec length far beyond the file must fail as a short read,
        // not as a 4 GiB allocation.
        let mut huge = bytes;
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        for bytes in [cut, huge] {
            let err = read_whole(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
            assert!(err.to_string().contains("truncated spec JSON"), "{err}");
            let err = stream_error(&bytes, 2);
            assert!(err.to_string().contains("truncated spec JSON"), "{err}");
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        let bytes = encode(&sample(10), "{}", 1, 2);
        // Cut past the trailer and into the last record.
        let cut = &bytes[..bytes.len() - TRAILER_BYTES - 7];
        let err = read_whole(cut).unwrap_err();
        assert!(err.to_string().contains("truncated record body"), "{err}");
        assert!(err.to_string().contains("at record 10"), "{err}");

        let err = stream_error(cut, 4);
        assert!(err.to_string().contains("truncated record body"), "{err}");
        assert!(err.to_string().contains("at record 10"), "{err}");
    }

    #[test]
    fn truncated_trailer_is_rejected() {
        let bytes = encode(&sample(6), "{}", 1, 2);
        let cut = &bytes[..bytes.len() - 3];
        let err = read_whole(cut).unwrap_err();
        assert!(
            err.to_string().contains("truncated checksum trailer"),
            "{err}"
        );

        let err = stream_error(cut, 4);
        assert!(
            err.to_string().contains("truncated checksum trailer"),
            "{err}"
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Nine records: every lane folds at least twice, and lane 0 three
        // times, and chunks of 3 and 5 start pieces at every lane.
        let bytes = encode(&sample(9), "{}", 1, 2);
        let body = HEADER_BYTES + "{}".len();
        assert_eq!(bytes.len(), body + 9 * RECORD_BYTES + TRAILER_BYTES);
        for at in body..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let err = read_whole(flipped.as_slice()).unwrap_err();
                assert!(
                    matches!(err, Error::ParseTrace { .. }),
                    "byte {at} bit {bit}"
                );
                assert!(err.to_string().contains("checksum mismatch"), "{err}");
                for chunk in [1, 3, 5, 64] {
                    let err = stream_error(&flipped, chunk);
                    assert!(
                        matches!(err, Error::ParseTrace { .. }),
                        "byte {at} bit {bit} chunk {chunk}: {err}"
                    );
                    assert!(err.to_string().contains("checksum mismatch"), "{err}");
                }
            }
        }
    }

    /// Overwrites the header's record-count field (bytes 32..40).
    fn patch_count(bytes: &mut [u8], count: u64) {
        bytes[32..40].copy_from_slice(&count.to_le_bytes());
    }

    #[test]
    fn count_larger_than_body_is_rejected() {
        // One record too many reads the trailer's 8 bytes as a sixth
        // record and then finds no trailer. 1 << 44 records would be a
        // 128 TiB body: the readers must report the short read instead of
        // allocating for it.
        for (count, error) in [
            (6, "truncated checksum trailer"),
            (1 << 44, "truncated record body"),
        ] {
            let mut bytes = encode(&sample(5), "{}", 1, 2);
            patch_count(&mut bytes, count);
            let err = read_whole(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
            assert!(err.to_string().contains(error), "{err}");

            for chunk in [2, STREAM_CHUNK_RECORDS] {
                let err = stream_error(&bytes, chunk);
                assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
                assert!(err.to_string().contains(error), "{err}");
            }
        }
    }

    #[test]
    fn count_smaller_than_body_is_rejected() {
        let trace = sample(5);
        let mut bytes = encode(&trace, "{}", 1, 2);
        patch_count(&mut bytes, 4);
        // Both reads stop at the declared four records, so the bytes
        // where the trailer should sit are the undeclared fifth record
        // — the checksum check rejects the file.
        let err = read_whole(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let mut stream = BinTraceStream::from_reader(bytes.as_slice(), 3).unwrap();
        let (back, end) = drain(&mut stream);
        let err = end.unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(back, trace[..3], "the poisoned final chunk is withheld");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&sample(4), "{}", 1, 2);
        bytes.push(0);
        let err = read_whole(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn finish_before_the_last_record_is_refused() {
        let bytes = encode(&sample(5), "{}", 1, 2);
        let mut stream = BinTraceStream::from_reader(bytes.as_slice(), 3).unwrap();
        stream.next_chunk().unwrap();
        let err = stream.finish().unwrap_err();
        assert!(
            err.to_string().contains("2 of its records undelivered"),
            "{err}"
        );
    }

    #[test]
    fn a_cut_in_a_later_piece_names_its_record() {
        // A chunk of 65 536 records is read in 8 192-record pieces: cut 7
        // bytes into record 10 000, inside the second piece.
        let bytes = encode(&sample(20_000), "{}", 1, 2);
        let body = HEADER_BYTES + "{}".len();
        let cut = &bytes[..body + 10_000 * RECORD_BYTES + 7];
        for err in [read_whole(cut).unwrap_err(), stream_error(cut, 6_000)] {
            assert!(err.to_string().contains("truncated record body"), "{err}");
            assert!(err.to_string().contains("at record 10001"), "{err}");
        }
    }

    #[test]
    fn the_staging_buffer_stays_one_piece_over_whole_chunks() {
        let trace = sample(3 * STREAM_CHUNK_RECORDS as u64);
        let bytes = encode(&trace, "{}", 1, 2);
        let mut stream =
            BinTraceStream::from_reader(bytes.as_slice(), STREAM_CHUNK_RECORDS).unwrap();
        let mut chunks = 0;
        let mut back = Vec::with_capacity(trace.len());
        while let Some(chunk) = stream.next_chunk().unwrap() {
            assert_eq!(chunk.len(), STREAM_CHUNK_RECORDS);
            back.extend(chunk.iter().map(|r| r.access()));
            chunks += 1;
            assert!(
                stream.bytes.capacity() <= 64 << 10,
                "{}",
                stream.bytes.capacity()
            );
        }
        assert_eq!(chunks, 3);
        assert_eq!(stream.finish().unwrap().count, trace.len() as u64);
        assert_eq!(back, trace);
    }

    #[test]
    fn non_utf8_spec_json_is_rejected() {
        let mut bytes = encode(&sample(2), "ab", 1, 2);
        bytes[HEADER_BYTES] = 0xff;
        bytes[HEADER_BYTES + 1] = 0xfe;
        let err = read_whole(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("not valid UTF-8"), "{err}");
    }

    #[test]
    fn file_roundtrip_via_write_trace_file() {
        let dir = std::env::temp_dir().join(format!("hmtrace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.hmtrace");
        let trace = sample(123);
        let written = write_trace_file(&path, "{\"w\":true}", 5, 6, trace.iter().copied()).unwrap();
        assert_eq!(written, 123);
        let (header, back) = read_whole(File::open(&path).unwrap()).unwrap();
        assert!(header.matches("{\"w\":true}", 5));
        assert_eq!(back, trace);
        let mut stream = BinTraceStream::open(&path, 50).unwrap();
        let mut streamed = Vec::new();
        while let Some(chunk) = stream.next_chunk().unwrap() {
            streamed.extend(chunk.iter().map(|r| r.access()));
        }
        assert_eq!(streamed, trace);
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    mod properties {
        use super::*;
        use hybridmem_types::{for_each_case, StdRng};
        use std::cell::Cell;
        use std::rc::Rc;

        /// `Read` adapter that tallies every byte pulled from `inner`
        /// into a shared counter, so a test can audit how far a
        /// consumer that takes ownership of its source actually read.
        struct CountingReader<R> {
            inner: R,
            read: Rc<Cell<u64>>,
        }

        impl<R: Read> Read for CountingReader<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.read.set(self.read.get() + n as u64);
                Ok(n)
            }
        }

        /// A random trace of `len` accesses over the whole range of page
        /// ids a record holds, its largest id one draw in eight.
        fn arb_trace(rng: &mut StdRng, len: std::ops::Range<u64>) -> Vec<PageAccess> {
            (0..rng.gen_range(len))
                .map(|_| {
                    let page = match rng.gen_range(0..8) {
                        0 => PageId::new(MAX_PAGE),
                        _ => PageId::new(rng.next_u64() >> 1),
                    };
                    if rng.gen_range(0..2) == 1 {
                        PageAccess::write(page)
                    } else {
                        PageAccess::read(page)
                    }
                })
                .collect()
        }

        fn arb_usize(rng: &mut StdRng, range: std::ops::Range<u64>) -> usize {
            usize::try_from(rng.gen_range(range)).unwrap()
        }

        #[test]
        fn write_then_read_equals_source() {
            for_each_case(256, |rng| {
                let trace = arb_trace(rng, 0..512);
                let seed = rng.next_u64();
                let fp = rng.next_u64();
                let chunk = arb_usize(rng, 1..300);
                let spec = format!("{{\"seed\":{seed}}}");
                let bytes = encode(&trace, &spec, seed, fp);

                let (header, back) = read_whole(bytes.as_slice()).unwrap();
                assert_eq!(header.count, trace.len() as u64);
                assert!(header.matches(&spec, seed));
                assert_eq!(&back, &trace);

                let mut stream = BinTraceStream::from_reader(bytes.as_slice(), chunk).unwrap();
                let mut streamed = Vec::new();
                while let Some(records) = stream.next_chunk().unwrap() {
                    streamed.extend(records.iter().map(|r| r.access()));
                }
                assert_eq!(&streamed, &trace);
            });
        }

        #[test]
        fn any_truncation_is_an_error_never_a_wrong_trace() {
            for_each_case(256, |rng| {
                let trace = arb_trace(rng, 1..64);
                let bytes = encode(&trace, "{}", 3, 4);
                let cut = arb_usize(rng, 0..bytes.len() as u64);
                assert!(read_whole(&bytes[..cut]).is_err());
            });
        }

        #[test]
        fn stream_never_reads_past_the_declared_count() {
            for_each_case(256, |rng| {
                let trace = arb_trace(rng, 0..128);
                let chunk = arb_usize(rng, 1..64);
                let garbage: Vec<u8> = (0..rng.gen_range(0..64))
                    .map(|_| rng.next_u64().to_le_bytes()[0])
                    .collect();
                let spec = "{\"bounded\":true}";
                let bytes = encode(&trace, spec, 9, 9);
                let declared_len = bytes.len() as u64;
                assert_eq!(
                    declared_len,
                    (HEADER_BYTES + spec.len() + trace.len() * RECORD_BYTES + TRAILER_BYTES) as u64
                );
                let mut padded = bytes;
                padded.extend_from_slice(&garbage);

                let read = Rc::new(Cell::new(0u64));
                let source = CountingReader {
                    inner: padded.as_slice(),
                    read: Rc::clone(&read),
                };
                let mut stream = BinTraceStream::from_reader(source, chunk).unwrap();
                let mut yielded = 0u64;
                while let Some(records) = stream.next_chunk().unwrap() {
                    yielded += records.len() as u64;
                }
                assert_eq!(yielded, trace.len() as u64, "exactly `count` records");
                assert_eq!(
                    read.get(),
                    declared_len,
                    "stream stops at header + spec + records + trailer"
                );
            });
        }
    }
}
