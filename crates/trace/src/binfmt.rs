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
//! canonical spec JSON, `count` fixed 16-byte records, and an 8-byte
//! checksum trailer over the records:
//!
//! ```text
//! offset  size  field
//!      0     8  magic        b"HMTRACE1"
//!      8     4  version      format version (currently 3)
//!     12     4  spec_len     byte length of the spec JSON that follows
//!     16     8  seed         generator seed the trace was produced with
//!     24     8  fingerprint  cache key of (spec JSON, seed)
//!     32     8  count        number of records
//!     40   spec_len          canonical spec JSON (collision verification)
//!     40+spec_len  16*count  records
//!     then     8  checksum   FNV-1a 64 over the records' u64 words
//! ```
//!
//! Each record is `{ page: u64, flags: u64 }` with flag bit 0 carrying
//! the op (0 = read, 1 = write); the remaining flag bits are reserved
//! for future op/size packing and must be zero.
//!
//! # Checksum trailer
//!
//! The trailer folds the body as little-endian `u64` words — each
//! record's `page`, then its `flags` — into FNV-1a 64: starting from
//! [`FNV1A64_SEED`], every word does `h = (h ^ word) * prime`. Writer
//! and readers fold each record as they encode or decode it, so the
//! check costs two multiplies per record and no second pass over the
//! bytes. Each step is a bijection of `h` (xor with a fixed word, then
//! multiplication by an odd constant modulo 2^64), so two bodies that
//! differ in a single word always digest differently: every single-bit
//! flip is caught. A bit-flipped, mid-record-truncated or over-long
//! body is reported as [`Error::ParseTrace`] — the trace cache counts
//! that as a spill miss and regenerates instead of trusting a corrupt
//! file.
//!
//! Readers accept exactly version 3. Version 1 (no trailer) and
//! version 2 (FNV-1a 64 over the body's *bytes*, 16 dependent
//! multiplies per record) fail with "unsupported format version". These
//! files are trace-cache spills, which the generator can always
//! reproduce, so the cache counts a miss, regenerates the trace and
//! renames a version-3 file over the old one.
//!
//! The full spec JSON rides in the header (not just its fingerprint) so
//! a reader can verify the file really holds the trace it asked for —
//! the same collision discipline the in-memory
//! `TraceCache` applies to its slots.
//!
//! # Zero-copy replay
//!
//! The workspace forbids `unsafe`, so the reader does not `mmap`.
//! [`BinTraceStream`] is the one decoder: it reads the body one
//! fixed-size chunk at a time into a reused buffer and decodes each
//! chunk in a single pass, which oversize traces replay from directly.
//! [`BinTraceReader`] drains a stream into one `Box<[Record]>`, after
//! which [`BinTraceReader::records`] hands out borrowed `&[Record]`
//! slices — no per-access decode, no per-access allocation. Lengths in
//! the header are unverified input, so both allocate for at most one
//! chunk plus the records actually decoded, never for the declared
//! `count` or `spec_len`.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use hybridmem_types::{AccessKind, Error, PageAccess, PageId};

/// File magic: `HMTRACE1`.
pub const MAGIC: [u8; 8] = *b"HMTRACE1";

/// Format version, the only one the readers accept.
pub const VERSION: u32 = 3;

/// Size of the fixed header in bytes (the spec JSON follows it).
pub const HEADER_BYTES: usize = 40;

/// Size of one record in bytes.
pub const RECORD_BYTES: usize = 16;

/// Size of the checksum trailer.
pub const TRAILER_BYTES: usize = 8;

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

/// Record flag bit 0: the access is a write.
const FLAG_WRITE: u64 = 1;

/// One fixed-size trace record: a page id plus packed op flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Page id of the access.
    pub page: u64,
    /// Packed fields; bit 0 is the op (0 = read, 1 = write).
    pub flags: u64,
}

impl Record {
    /// Packs a page access into a record.
    #[must_use]
    pub fn from_access(access: PageAccess) -> Self {
        Self {
            page: access.page.value(),
            flags: u64::from(access.kind.is_write()) * FLAG_WRITE,
        }
    }

    /// True when the record is a write.
    #[must_use]
    pub const fn is_write(self) -> bool {
        self.flags & FLAG_WRITE != 0
    }

    /// Unpacks the record back into a page access.
    #[must_use]
    pub fn access(self) -> PageAccess {
        let kind = if self.is_write() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        PageAccess::new(PageId::new(self.page), kind)
    }

    /// Folds the record's two words, `page` then `flags`, into the
    /// trailer checksum: FNV-1a 64 with a word in place of a byte.
    fn fold_into(self, hash: u64) -> u64 {
        let hash = (hash ^ self.page).wrapping_mul(FNV1A64_PRIME);
        (hash ^ self.flags).wrapping_mul(FNV1A64_PRIME)
    }
}

impl From<PageAccess> for Record {
    fn from(access: PageAccess) -> Self {
        Self::from_access(access)
    }
}

impl From<Record> for PageAccess {
    fn from(record: Record) -> Self {
        record.access()
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
/// through an internal buffer, so wrapping the sink in a `BufWriter` is
/// unnecessary.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    count: u64,
    buffer: Vec<u8>,
    checksum: u64,
}

/// Records staged in the writer's buffer before a flush.
const WRITER_BUFFER_RECORDS: usize = 4096;

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
            buffer: Vec::with_capacity(WRITER_BUFFER_RECORDS * RECORD_BYTES),
            checksum: FNV1A64_SEED,
        })
    }

    /// Appends one access.
    ///
    /// # Errors
    ///
    /// Propagates sink failures as [`Error::InvalidInput`].
    pub fn push(&mut self, access: PageAccess) -> Result<(), Error> {
        let record = Record::from_access(access);
        self.checksum = record.fold_into(self.checksum);
        self.buffer.extend_from_slice(&record.page.to_le_bytes());
        self.buffer.extend_from_slice(&record.flags.to_le_bytes());
        self.count += 1;
        if self.buffer.len() >= WRITER_BUFFER_RECORDS * RECORD_BYTES {
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
            .write_all(&self.checksum.to_le_bytes())
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

/// Whole-trace reader: drains a [`BinTraceStream`] into one record
/// slice, then hands out borrowed zero-copy record slices.
#[derive(Debug)]
pub struct BinTraceReader {
    header: TraceHeader,
    records: Box<[Record]>,
}

impl BinTraceReader {
    /// Opens and fully decodes the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidInput`] for I/O failures and
    /// [`Error::ParseTrace`] for a corrupt header, a truncated body, a
    /// checksum mismatch or bytes after the trailer.
    pub fn open(path: &Path) -> Result<Self, Error> {
        let file = File::open(path).map_err(io_err)?;
        Self::from_reader(file)
    }

    /// Decodes a trace from any byte source.
    ///
    /// # Errors
    ///
    /// Same contract as [`BinTraceReader::open`].
    pub fn from_reader<R: Read>(reader: R) -> Result<Self, Error> {
        let mut stream = BinTraceStream::from_reader(reader, STREAM_CHUNK_RECORDS)?;
        let mut records = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            records.extend_from_slice(chunk);
        }
        let mut trailing = [0u8; 1];
        if stream.source.read(&mut trailing).map_err(io_err)? != 0 {
            return Err(Error::parse_trace(
                stream.header.count + 1,
                "trailing bytes after the declared record count",
            ));
        }
        Ok(Self {
            header: stream.header,
            records: records.into_boxed_slice(),
        })
    }

    /// The file's identity header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// All records, borrowed — replay iterates this slice directly.
    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Consumes the reader, returning the decoded records.
    #[must_use]
    pub fn into_records(self) -> Box<[Record]> {
        self.records
    }
}

/// Default chunk size (in records) for [`BinTraceStream`].
pub const STREAM_CHUNK_RECORDS: usize = 1 << 16;

/// Chunked reader: replays the file through one reused fixed-size
/// buffer. Traces too large to hold in memory replay from it directly;
/// [`BinTraceReader`] drains it.
#[derive(Debug)]
pub struct BinTraceStream<R: Read = BufReader<File>> {
    source: R,
    header: TraceHeader,
    remaining: u64,
    chunk_records: usize,
    bytes: Vec<u8>,
    chunk: Vec<Record>,
    /// Trailer checksum folded over the records decoded so far.
    checksum: u64,
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
        Ok(Self {
            remaining: header.count,
            header,
            source,
            chunk_records,
            bytes: Vec::new(),
            chunk: Vec::new(),
            checksum: FNV1A64_SEED,
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

    /// Reads the next chunk into the reused buffer, returning `None`
    /// once the declared record count has been delivered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParseTrace`] when the file ends before the
    /// header's record count is satisfied or the checksum trailer does
    /// not match the streamed records, and [`Error::InvalidInput`] for
    /// I/O failures. The trailer check runs as soon as the declared
    /// count is exhausted, so the final chunk is only handed out once
    /// the whole body has verified.
    pub fn next_chunk(&mut self) -> Result<Option<&[Record]>, Error> {
        if self.remaining == 0 {
            self.check_trailer()?;
            return Ok(None);
        }
        let take = (self.chunk_records as u64).min(self.remaining);
        let len = take
            .checked_mul(RECORD_BYTES as u64)
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| Error::parse_trace(0, "record count overflows the address space"))?;
        // `take` ≤ `chunk_records` bounds this reservation, so the buffer
        // is sized once here rather than grown by the read.
        self.bytes.clear();
        self.bytes.reserve_exact(len);
        if !read_declared(&mut self.source, len as u64, &mut self.bytes)? {
            let complete = (self.bytes.len() / RECORD_BYTES) as u64;
            return Err(Error::parse_trace(
                self.header.count - self.remaining + complete + 1,
                "truncated record body",
            ));
        }
        self.chunk.clear();
        self.checksum = decode_records(&self.bytes, self.checksum, &mut self.chunk);
        self.remaining -= take;
        if self.remaining == 0 {
            self.check_trailer()?;
        }
        Ok(Some(&self.chunk))
    }

    /// Reads the trailer and compares it against the checksum folded
    /// over the records actually read, exactly once.
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
        let computed = self.checksum;
        if stored != computed {
            return Err(Error::parse_trace(
                0,
                format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
            ));
        }
        Ok(())
    }
}

/// Decodes the whole records in `bytes` onto `out`, folding each into
/// the trailer checksum `hash` in the same pass, and returns the
/// updated checksum.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "chunks_exact(RECORD_BYTES) yields 16-byte records"
)]
fn decode_records(bytes: &[u8], mut hash: u64, out: &mut Vec<Record>) -> u64 {
    out.extend(bytes.chunks_exact(RECORD_BYTES).map(|raw| {
        let page = u64::from_le_bytes(raw[..8].try_into().expect("8-byte slice"));
        let flags = u64::from_le_bytes(raw[8..].try_into().expect("8-byte slice"));
        let record = Record { page, flags };
        hash = record.fold_into(hash);
        record
    }));
    hash
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

    /// The error a stream over `bytes` in `chunk`-record chunks stops with.
    fn stream_error(bytes: &[u8], chunk: usize) -> Error {
        match BinTraceStream::from_reader(bytes, chunk) {
            Ok(mut stream) => drain(&mut stream).1.unwrap_err(),
            Err(e) => e,
        }
    }

    #[test]
    fn record_packs_and_unpacks() {
        for access in sample(7) {
            let record = Record::from_access(access);
            assert_eq!(record.access(), access);
            assert_eq!(record.is_write(), access.kind.is_write());
        }
    }

    #[test]
    fn roundtrip_through_reader() {
        let trace = sample(1000);
        let bytes = encode(&trace, "{\"spec\":1}", 42, 0xfeed);
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + "{\"spec\":1}".len() + trace.len() * RECORD_BYTES + TRAILER_BYTES
        );
        let reader = BinTraceReader::from_reader(bytes.as_slice()).unwrap();
        assert_eq!(reader.header().seed, 42);
        assert_eq!(reader.header().fingerprint, 0xfeed);
        assert_eq!(reader.header().count, 1000);
        assert!(reader.header().matches("{\"spec\":1}", 42));
        assert!(!reader.header().matches("{\"spec\":1}", 43));
        assert!(!reader.header().matches("{\"spec\":2}", 42));
        let back: Vec<PageAccess> = reader.records().iter().map(|r| r.access()).collect();
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
        let reader = BinTraceReader::from_reader(bytes.as_slice()).unwrap();
        assert!(reader.records().is_empty());
        let mut stream = BinTraceStream::from_reader(bytes.as_slice(), 8).unwrap();
        assert!(stream.next_chunk().unwrap().is_none());
    }

    #[test]
    fn trailer_matches_the_known_answer() {
        // Pinned from an independent fold of the six words below, so a
        // change to the word order, the seed or the prime shows here.
        let trace = [
            PageAccess::read(PageId::new(0)),
            PageAccess::write(PageId::new(u64::MAX)),
            PageAccess::read(PageId::new(0x0123_4567_89ab_cdef)),
        ];
        let bytes = encode(&trace, "{}", 1, 2);
        assert_eq!(bytes[8..12], VERSION.to_le_bytes());
        assert_eq!(
            bytes[bytes.len() - TRAILER_BYTES..],
            0x86ac_c705_0419_208a_u64.to_le_bytes()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&sample(3), "{}", 1, 2);
        bytes[0] ^= 0xff;
        let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    /// Rewrites a version-3 file in an older layout: version 1 has no
    /// trailer, version 2 a byte-wise FNV-1a 64 trailer over the body.
    fn downgrade(mut bytes: Vec<u8>, version: u32, spec_len: usize) -> Vec<u8> {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let trailer = bytes.len() - TRAILER_BYTES;
        if version == 1 {
            bytes.truncate(trailer);
        } else {
            let body = &bytes[HEADER_BYTES + spec_len..trailer];
            let bytewise = fnv1a64_update(FNV1A64_SEED, body);
            bytes[trailer..].copy_from_slice(&bytewise.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let current = encode(&sample(3), "{}", 1, 2);
        let mut future = current.clone();
        future[8] = 9;
        for bytes in [
            downgrade(current.clone(), 1, 2),
            downgrade(current, 2, 2),
            future,
        ] {
            let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
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
        let err = BinTraceReader::from_reader(&bytes[..HEADER_BYTES - 5]).unwrap_err();
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
            let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
            assert!(err.to_string().contains("truncated spec JSON"), "{err}");
            let err = stream_error(&bytes, 2);
            assert!(err.to_string().contains("truncated spec JSON"), "{err}");
        }
    }

    #[test]
    fn truncated_body_is_rejected_by_reader_and_stream() {
        let bytes = encode(&sample(10), "{}", 1, 2);
        // Cut past the trailer and into the last record.
        let cut = &bytes[..bytes.len() - TRAILER_BYTES - 7];
        let err = BinTraceReader::from_reader(cut).unwrap_err();
        assert!(err.to_string().contains("truncated record body"), "{err}");
        assert!(err.to_string().contains("at record 10"), "{err}");

        let err = stream_error(cut, 4);
        assert!(err.to_string().contains("truncated record body"), "{err}");
        assert!(err.to_string().contains("at record 10"), "{err}");
    }

    #[test]
    fn truncated_trailer_is_rejected_by_reader_and_stream() {
        let bytes = encode(&sample(6), "{}", 1, 2);
        let cut = &bytes[..bytes.len() - 3];
        let err = BinTraceReader::from_reader(cut).unwrap_err();
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
    fn every_single_bit_flip_is_detected_by_reader_and_stream() {
        let bytes = encode(&sample(4), "{}", 1, 2);
        let body = HEADER_BYTES + "{}".len();
        assert_eq!(bytes.len(), body + 4 * RECORD_BYTES + TRAILER_BYTES);
        for at in body..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let err = BinTraceReader::from_reader(flipped.as_slice()).unwrap_err();
                assert!(
                    matches!(err, Error::ParseTrace { .. }),
                    "byte {at} bit {bit}"
                );
                assert!(err.to_string().contains("checksum mismatch"), "{err}");
                for chunk in [1, 3, 64] {
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
    fn count_larger_than_body_is_rejected_by_reader_and_stream() {
        // 1 << 44 records would be a 256 TiB body: the readers must
        // report the short read instead of allocating for it.
        for count in [6, 1 << 44] {
            let mut bytes = encode(&sample(5), "{}", 1, 2);
            patch_count(&mut bytes, count);
            let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
            assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
            assert!(err.to_string().contains("truncated record body"), "{err}");

            for chunk in [2, STREAM_CHUNK_RECORDS] {
                let err = stream_error(&bytes, chunk);
                assert!(matches!(err, Error::ParseTrace { .. }), "{err}");
                assert!(err.to_string().contains("truncated record body"), "{err}");
            }
        }
    }

    #[test]
    fn count_smaller_than_body_is_rejected_by_reader_and_stream() {
        let trace = sample(5);
        let mut bytes = encode(&trace, "{}", 1, 2);
        patch_count(&mut bytes, 4);
        // Both readers stop at the declared four records, so the bytes
        // where the trailer should sit are the undeclared fifth record
        // — the checksum check rejects the file.
        let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
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
        let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn non_utf8_spec_json_is_rejected() {
        let mut bytes = encode(&sample(2), "ab", 1, 2);
        bytes[HEADER_BYTES] = 0xff;
        bytes[HEADER_BYTES + 1] = 0xfe;
        let err = BinTraceReader::from_reader(bytes.as_slice()).unwrap_err();
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
        let reader = BinTraceReader::open(&path).unwrap();
        assert!(reader.header().matches("{\"w\":true}", 5));
        let back: Vec<PageAccess> = reader.records().iter().map(|r| r.access()).collect();
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

        /// A random trace of `len` accesses over the whole page-id range.
        fn arb_trace(rng: &mut StdRng, len: std::ops::Range<u64>) -> Vec<PageAccess> {
            (0..rng.gen_range(len))
                .map(|_| {
                    let page = PageId::new(rng.next_u64());
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

                let reader = BinTraceReader::from_reader(bytes.as_slice()).unwrap();
                assert_eq!(reader.header().count, trace.len() as u64);
                assert!(reader.header().matches(&spec, seed));
                let back: Vec<PageAccess> = reader.records().iter().map(|r| r.access()).collect();
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
                assert!(BinTraceReader::from_reader(&bytes[..cut]).is_err());
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
