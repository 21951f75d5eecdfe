//! Trace serialization: a human-readable text format and a compact binary
//! format.
//!
//! # Text format
//!
//! One access per line: `R` or `W`, the hexadecimal byte address, and the
//! core index, separated by single spaces. Lines starting with `#` and
//! blank lines are ignored.
//!
//! ```text
//! # kind address core
//! R 0x1000 0
//! W 0x2008 3
//! ```
//!
//! # Binary format
//!
//! Fixed 11-byte records: address as `u64` little-endian, core as `u16`
//! little-endian, and one kind byte (`0` read, `1` write). No header; the
//! record count is the file length divided by 11.

use std::io::{self, BufRead, Read, Write};

use hybridmem_types::{Access, AccessKind, Address, CoreId, Error};

/// Size of one binary trace record in bytes.
pub const BINARY_RECORD_SIZE: usize = 11;

/// Writes accesses in the text format.
///
/// Note that a `&mut W` can be passed where a writer is expected.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::io::write_text;
/// use hybridmem_types::{Access, Address, CoreId};
///
/// let mut out = Vec::new();
/// write_text([Access::read(Address::new(0x1000), CoreId::new(2))], &mut out)?;
/// assert_eq!(String::from_utf8(out).unwrap(), "R 0x1000 2\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_text<I, W>(accesses: I, mut writer: W) -> io::Result<()>
where
    I: IntoIterator<Item = Access>,
    W: Write,
{
    for access in accesses {
        let kind = if access.kind.is_write() { 'W' } else { 'R' };
        writeln!(
            writer,
            "{kind} {:#x} {}",
            access.address,
            access.core.index()
        )?;
    }
    Ok(())
}

/// Reads a text-format trace fully into memory.
///
/// Note that a `&mut R` can be passed where a reader is expected.
///
/// # Errors
///
/// Returns [`Error::ParseTrace`] (with a 1-based line number) for malformed
/// lines and [`Error::InvalidInput`] for underlying I/O failures.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::io::read_text;
///
/// let trace = read_text("R 0x1000 0\nW 0x2008 1\n".as_bytes())?;
/// assert_eq!(trace.len(), 2);
/// assert!(trace[1].kind.is_write());
/// # Ok::<(), hybridmem_types::Error>(())
/// ```
pub fn read_text<R: BufRead>(reader: R) -> Result<Vec<Access>, Error> {
    let mut accesses = Vec::new();
    for (index, line) in reader.lines().enumerate() {
        let record = index as u64 + 1;
        let line = line.map_err(|e| Error::invalid_input(format!("I/O error: {e}")))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        accesses.push(parse_text_line(trimmed, record)?);
    }
    Ok(accesses)
}

fn parse_text_line(line: &str, record: u64) -> Result<Access, Error> {
    let mut parts = line.split_ascii_whitespace();
    let kind = match parts.next() {
        Some("R") | Some("r") => AccessKind::Read,
        Some("W") | Some("w") => AccessKind::Write,
        other => {
            return Err(Error::parse_trace(
                record,
                format!("expected kind R or W, got {other:?}"),
            ))
        }
    };
    let addr_text = parts
        .next()
        .ok_or_else(|| Error::parse_trace(record, "missing address"))?;
    let addr_digits = addr_text
        .strip_prefix("0x")
        .or_else(|| addr_text.strip_prefix("0X"))
        .unwrap_or(addr_text);
    let address = u64::from_str_radix(addr_digits, 16)
        .map_err(|e| Error::parse_trace(record, format!("bad address {addr_text:?}: {e}")))?;
    let core = match parts.next() {
        Some(text) => text
            .parse::<u16>()
            .map_err(|e| Error::parse_trace(record, format!("bad core {text:?}: {e}")))?,
        None => 0,
    };
    if let Some(extra) = parts.next() {
        return Err(Error::parse_trace(
            record,
            format!("unexpected trailing field {extra:?}"),
        ));
    }
    Ok(Access::new(Address::new(address), kind, CoreId::new(core)))
}

/// Writes accesses in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<I, W>(accesses: I, mut writer: W) -> io::Result<()>
where
    I: IntoIterator<Item = Access>,
    W: Write,
{
    for access in accesses {
        let mut record = [0u8; BINARY_RECORD_SIZE];
        record[..8].copy_from_slice(&access.address.value().to_le_bytes());
        record[8..10].copy_from_slice(&access.core.index().to_le_bytes());
        record[10] = u8::from(access.kind.is_write());
        writer.write_all(&record)?;
    }
    Ok(())
}

/// Reads a binary-format trace fully into memory.
///
/// # Errors
///
/// Returns [`Error::ParseTrace`] on a truncated final record or an invalid
/// kind byte, and [`Error::InvalidInput`] for underlying I/O failures.
///
/// # Examples
///
/// ```
/// use hybridmem_trace::io::{read_binary, write_binary};
/// use hybridmem_types::{Access, Address, CoreId};
///
/// let original = vec![Access::write(Address::new(4096), CoreId::new(1))];
/// let mut buffer = Vec::new();
/// write_binary(original.iter().copied(), &mut buffer)?;
/// assert_eq!(read_binary(buffer.as_slice())?, original);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn read_binary<R: Read>(mut reader: R) -> Result<Vec<Access>, Error> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| Error::invalid_input(format!("I/O error: {e}")))?;
    if bytes.len() % BINARY_RECORD_SIZE != 0 {
        return Err(Error::parse_trace(
            (bytes.len() / BINARY_RECORD_SIZE) as u64 + 1,
            format!(
                "truncated record: {} trailing bytes",
                bytes.len() % BINARY_RECORD_SIZE
            ),
        ));
    }
    let mut accesses = Vec::with_capacity(bytes.len() / BINARY_RECORD_SIZE);
    #[expect(clippy::indexing_slicing, reason = "records are 11-byte chunks")]
    for (index, record) in bytes.chunks_exact(BINARY_RECORD_SIZE).enumerate() {
        let short = |field: &str| {
            Error::parse_trace(index as u64 + 1, format!("record too short for {field}"))
        };
        let address = u64::from_le_bytes(record[..8].try_into().map_err(|_| short("address"))?);
        let core = u16::from_le_bytes(record[8..10].try_into().map_err(|_| short("core id"))?);
        let kind = match record[10] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => {
                return Err(Error::parse_trace(
                    index as u64 + 1,
                    format!("invalid kind byte {other}"),
                ))
            }
        };
        accesses.push(Access::new(Address::new(address), kind, CoreId::new(core)));
    }
    Ok(accesses)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Access> {
        vec![
            Access::read(Address::new(0x1000), CoreId::new(0)),
            Access::write(Address::new(0x2008), CoreId::new(3)),
            Access::read(Address::new(0), CoreId::new(1)),
        ]
    }

    #[test]
    fn text_roundtrip() {
        let mut buffer = Vec::new();
        write_text(sample(), &mut buffer).unwrap();
        let back = read_text(buffer.as_slice()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn text_accepts_comments_blanks_and_lowercase() {
        let text = "# header\n\nr 0x10 0\nw 20 1\n";
        let trace = read_text(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[1].address, Address::new(0x20));
        assert!(trace[1].kind.is_write());
    }

    #[test]
    fn text_core_defaults_to_zero() {
        let trace = read_text("R 0x40\n".as_bytes()).unwrap();
        assert_eq!(trace[0].core, CoreId::new(0));
    }

    #[test]
    fn text_rejects_malformed_lines() {
        for (bad, needle) in [
            ("X 0x10 0", "expected kind"),
            ("R", "missing address"),
            ("R zz 0", "bad address"),
            ("R 0x10 core", "bad core"),
            ("R 0x10 0 extra", "trailing"),
        ] {
            let err = read_text(bad.as_bytes()).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{bad:?} → {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn text_reports_line_numbers() {
        let err = read_text("R 0x10 0\nBAD\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("record 2"), "{err}");
    }

    #[test]
    fn binary_roundtrip() {
        let mut buffer = Vec::new();
        write_binary(sample(), &mut buffer).unwrap();
        assert_eq!(buffer.len(), 3 * BINARY_RECORD_SIZE);
        assert_eq!(read_binary(buffer.as_slice()).unwrap(), sample());
    }

    #[test]
    fn binary_rejects_truncation_and_bad_kind() {
        let mut buffer = Vec::new();
        write_binary(sample(), &mut buffer).unwrap();
        let err = read_binary(&buffer[..buffer.len() - 1]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        buffer[10] = 9; // corrupt the kind byte of record 1
        let err = read_binary(buffer.as_slice()).unwrap_err();
        assert!(err.to_string().contains("invalid kind byte"), "{err}");
        assert!(err.to_string().contains("record 1"), "{err}");
    }
}
