//! Versioned binary snapshots for deterministic checkpoint/restore.
//!
//! Long sweeps (multi-billion-cycle figure runs) need crash recovery that
//! is O(checkpoint interval), not O(run). This module is the in-tree
//! codec every stateful layer serializes through — no serde, no external
//! crates, bit-exact round-trips (floats travel as IEEE-754 bits).
//!
//! # Format
//!
//! ```text
//! magic "FQMS" | version u16 | config fingerprint u64 | section*
//! section := name_len u16 | name bytes | payload_len u32 | payload | crc32 u32
//! ```
//!
//! Sections are named, ordered, and individually CRC-protected, so a
//! truncated or bit-flipped snapshot is rejected with a typed
//! [`SnapshotError`] *naming the failing section* — never a panic, never
//! a silent wrong restore. The config fingerprint binds a snapshot to the
//! exact configuration that produced it: restoring into a system built
//! with a different scheduler, geometry, seed, or workload mix fails with
//! [`SnapshotError::ConfigMismatch`] instead of resuming nonsense.
//!
//! # Safety against hostile bytes
//!
//! Every length field is validated against the remaining buffer *before*
//! any allocation or slicing, so corrupt lengths cannot trigger OOM or
//! out-of-bounds reads. [`SectionReader::seq_len`] additionally bounds
//! element counts by the bytes left in the section.
//!
//! # Example
//!
//! ```
//! use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new(0xfeed);
//! w.section("clock", |s| s.put_u64(42));
//! let bytes = w.into_bytes();
//!
//! let mut r = SnapshotReader::new(&bytes, 0xfeed)?;
//! let cycle = r.section("clock", |s| s.get_u64())?;
//! r.finish()?;
//! assert_eq!(cycle, 42);
//! # Ok::<(), fqms_sim::snapshot::SnapshotError>(())
//! ```

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"FQMS";

/// Current snapshot format version. Bump on any layout change; restore
/// rejects other versions with [`SnapshotError::UnsupportedVersion`].
pub const VERSION: u16 = 2;

/// Why a snapshot could not be restored. Every variant that concerns a
/// section carries that section's name, so tooling can report *where*
/// corruption struck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot does not start with the `FQMS` magic bytes.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the snapshot header.
        found: u16,
        /// Version this build reads and writes.
        expected: u16,
    },
    /// The snapshot was taken under a different configuration (scheduler,
    /// geometry, timing, seed, workloads, ...).
    ConfigMismatch {
        /// Fingerprint the restoring configuration computes.
        expected: u64,
        /// Fingerprint recorded in the snapshot header.
        found: u64,
    },
    /// The snapshot ends before the named section is complete.
    Truncated {
        /// Section (or `"header"`) that ran out of bytes.
        section: &'static str,
    },
    /// The named section's payload fails its CRC — bytes were flipped.
    CorruptSection {
        /// Section whose checksum failed.
        section: &'static str,
    },
    /// The reader expected one section but found another (or a corrupted
    /// section name).
    WrongSection {
        /// Section the restoring code asked for.
        expected: &'static str,
        /// Section name actually present at this position.
        found: String,
    },
    /// The named section decoded but its contents are not a valid state
    /// (impossible enum tag, cursor past its timeline, ...).
    Malformed {
        /// Section whose contents failed validation.
        section: &'static str,
        /// What was wrong.
        what: String,
    },
    /// Extra bytes follow the final section.
    TrailingData,
    /// A component in the restore path cannot be snapshotted (e.g. a
    /// custom trace source without state hooks).
    Unsupported {
        /// The component lacking snapshot support.
        what: String,
    },
    /// An I/O error while loading or storing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an FQMS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (expected {expected})"
                )
            }
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot taken under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated in section `{section}`")
            }
            SnapshotError::CorruptSection { section } => {
                write!(f, "section `{section}` failed its checksum")
            }
            SnapshotError::WrongSection { expected, found } => {
                write!(f, "expected section `{expected}`, found `{found}`")
            }
            SnapshotError::Malformed { section, what } => {
                write!(f, "section `{section}` is malformed: {what}")
            }
            SnapshotError::TrailingData => write!(f, "trailing bytes after the final section"),
            SnapshotError::Unsupported { what } => {
                write!(f, "{what} does not support snapshotting")
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A stateful component that can serialize its mutable state into a
/// section payload and later restore it bit-exactly.
///
/// Implementations write *only* run-time mutable state; configuration
/// (geometry, timing, policies) is validated out-of-band through the
/// snapshot's config fingerprint and rebuilt by the owner. Derived caches
/// that can be recomputed (e.g. scheduler proposal memos) should be
/// invalidated on restore rather than serialized.
pub trait Snapshot {
    /// Appends this component's state to a section payload.
    fn save(&self, w: &mut SectionWriter);
    /// Restores state previously written by [`Snapshot::save`] into an
    /// identically-configured component.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the failing section when the
    /// payload is truncated or decodes to an invalid state.
    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError>;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, table-driven)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the per-section checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Config fingerprints
// ---------------------------------------------------------------------------

/// Incremental FNV-1a hasher for configuration fingerprints.
///
/// A fingerprint digests everything that determines a simulation's
/// future: scheduler, shares, geometry, timing, seed, workload names,
/// channel count, ... Two configurations with equal fingerprints produce
/// interchangeable snapshots.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    hash: u64,
}

impl Fingerprint {
    /// Starts a fingerprint from a domain label (e.g. `"fqms-system"`).
    pub fn new(domain: &str) -> Self {
        let mut f = Fingerprint {
            hash: 0xCBF2_9CE4_8422_2325,
        };
        f.push_bytes(domain.as_bytes());
        f
    }

    /// Folds raw bytes into the fingerprint.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a `u64` into the fingerprint.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` into the fingerprint, bit-exactly.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Folds a string (length-delimited, so `"ab","c"` ≠ `"a","bc"`).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes())
    }

    /// The 64-bit fingerprint.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a snapshot: header then named, CRC-protected sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a snapshot bound to a configuration `fingerprint`.
    pub fn new(fingerprint: u64) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one named section whose payload is produced by `f`.
    ///
    /// # Panics
    ///
    /// Panics if `name` exceeds `u16::MAX` bytes or the payload exceeds
    /// `u32::MAX` bytes (no realistic snapshot approaches either).
    pub fn section(&mut self, name: &str, f: impl FnOnce(&mut SectionWriter)) {
        let name_len = u16::try_from(name.len()).expect("section name fits u16");
        let mut sw = SectionWriter { buf: Vec::new() };
        f(&mut sw);
        let payload = sw.buf;
        let payload_len = u32::try_from(payload.len()).expect("section payload fits u32");
        self.buf.extend_from_slice(&name_len.to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.extend_from_slice(&payload_len.to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    }

    /// Finishes the snapshot and returns its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Appends primitive values to one section's payload.
#[derive(Debug)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` bit-exactly (IEEE-754 bits, little-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes `Some(v)`/`None` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a sequence length prefix (pair with per-element writes).
    pub fn put_seq_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_seq_len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Validates and decodes a snapshot: header check, then sections in the
/// order they were written.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot, validating magic, version, and the configuration
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`], [`SnapshotError::UnsupportedVersion`],
    /// [`SnapshotError::ConfigMismatch`], or
    /// [`SnapshotError::Truncated`]`{section: "header"}`.
    pub fn new(bytes: &'a [u8], expected_fingerprint: u64) -> Result<Self, SnapshotError> {
        if bytes.len() < 4 + 2 + 8 {
            // Too short to even hold a header: bad magic if the prefix
            // mismatches, truncated otherwise.
            if bytes.len() >= 4 && bytes[..4] != MAGIC {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated { section: "header" });
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: VERSION,
            });
        }
        let found = u64::from_le_bytes(bytes[6..14].try_into().expect("8 header bytes"));
        if found != expected_fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                expected: expected_fingerprint,
                found,
            });
        }
        Ok(SnapshotReader {
            buf: bytes,
            pos: 14,
        })
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated { section });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes the next section, which must be named `name`, handing its
    /// CRC-verified payload to `f`. `f` must consume the payload exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WrongSection`] on a name mismatch,
    /// [`SnapshotError::CorruptSection`] on a CRC failure,
    /// [`SnapshotError::Truncated`]/[`SnapshotError::Malformed`] from
    /// decoding, each naming `name`.
    pub fn section<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut SectionReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let name_len =
            u16::from_le_bytes(self.take(2, name)?.try_into().expect("2 bytes")) as usize;
        let found_name = self.take(name_len, name)?;
        if found_name != name.as_bytes() {
            return Err(SnapshotError::WrongSection {
                expected: name,
                found: String::from_utf8_lossy(found_name).into_owned(),
            });
        }
        let payload_len =
            u32::from_le_bytes(self.take(4, name)?.try_into().expect("4 bytes")) as usize;
        let payload = self.take(payload_len, name)?;
        let crc_stored = u32::from_le_bytes(self.take(4, name)?.try_into().expect("4 bytes"));
        if crc32(payload) != crc_stored {
            return Err(SnapshotError::CorruptSection { section: name });
        }
        let mut sr = SectionReader {
            section: name,
            buf: payload,
            pos: 0,
        };
        let out = f(&mut sr)?;
        if sr.pos != sr.buf.len() {
            return Err(SnapshotError::Malformed {
                section: name,
                what: format!("{} unread payload bytes", sr.buf.len() - sr.pos),
            });
        }
        Ok(out)
    }

    /// Asserts the snapshot has been fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingData`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingData);
        }
        Ok(())
    }
}

/// Reads primitive values from one CRC-verified section payload. Every
/// accessor is bounds-checked and reports the owning section on failure.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// The section this reader decodes (for error construction in
    /// [`Snapshot::restore`] implementations).
    pub fn section_name(&self) -> &'static str {
        self.section
    }

    /// Builds a [`SnapshotError::Malformed`] naming this section.
    pub fn malformed(&self, what: impl Into<String>) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.section,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Truncated {
                section: self.section,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` written by [`SectionWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the value overflows this
    /// platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.malformed(format!("usize value {v} overflows")))
    }

    /// Reads an `f64` bit-exactly.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads an `Option<u64>` written by [`SectionWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            b => Err(self.malformed(format!("invalid option tag {b}"))),
        }
    }

    /// Reads a sequence length, bounded by the bytes remaining in the
    /// section (every element occupies at least one byte), so corrupt
    /// lengths cannot drive huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let len = self.get_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(self.malformed(format!(
                "sequence length {len} exceeds {remaining} remaining bytes"
            )));
        }
        Ok(len as usize)
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.seq_len()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| self.malformed("invalid UTF-8 string"))
    }
}

// ---------------------------------------------------------------------------
// Atomic snapshot files
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: the content lands in a temporary
/// file in the same directory which is then renamed over the target, so a
/// process killed mid-write can never leave a partial file at `path` —
/// readers see the old content or the new content, nothing in between.
///
/// # Errors
///
/// Propagates I/O errors; a failed write removes its temporary file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic target has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Loads a snapshot file written by [`save_to_file`].
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be read.
pub fn load_from_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

/// Atomically stores snapshot `bytes` at `path` (see [`write_atomic`]).
///
/// # Errors
///
/// [`SnapshotError::Io`] when the write fails.
pub fn save_to_file(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    write_atomic(path, bytes).map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new(7);
        w.section("alpha", |s| {
            s.put_u64(123);
            s.put_f64(0.25);
            s.put_bool(true);
            s.put_str("hello");
        });
        w.section("beta", |s| {
            s.put_seq_len(3);
            for i in 0..3u64 {
                s.put_u64(i * i);
            }
            s.put_opt_u64(None);
            s.put_opt_u64(Some(9));
        });
        w.into_bytes()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        r.section("alpha", |s| {
            assert_eq!(s.get_u64()?, 123);
            assert_eq!(s.get_f64()?, 0.25);
            assert!(s.get_bool()?);
            assert_eq!(s.get_str()?, "hello");
            Ok(())
        })
        .unwrap();
        r.section("beta", |s| {
            let n = s.seq_len()?;
            assert_eq!(n, 3);
            for i in 0..3u64 {
                assert_eq!(s.get_u64()?, i * i);
            }
            assert_eq!(s.get_opt_u64()?, None);
            assert_eq!(s.get_opt_u64()?, Some(9));
            Ok(())
        })
        .unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn header_checks() {
        let bytes = sample();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            SnapshotReader::new(&bad, 7).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            SnapshotReader::new(&bad, 7).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 99, .. }
        ));
        assert!(matches!(
            SnapshotReader::new(&bytes, 8).unwrap_err(),
            SnapshotError::ConfigMismatch {
                expected: 8,
                found: 7
            }
        ));
        assert_eq!(
            SnapshotReader::new(&bytes[..3], 7).unwrap_err(),
            SnapshotError::Truncated { section: "header" }
        );
    }

    #[test]
    fn crc_catches_payload_flips() {
        let bytes = sample();
        // Flip one bit in the first section's payload (past the header
        // and section name).
        let mut bad = bytes.clone();
        bad[14 + 2 + 5 + 4] ^= 0x40;
        let mut r = SnapshotReader::new(&bad, 7).unwrap();
        assert_eq!(
            r.section("alpha", |s| s.get_u64()).unwrap_err(),
            SnapshotError::CorruptSection { section: "alpha" }
        );
    }

    #[test]
    fn wrong_section_is_named() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        let err = r.section("beta", |s| s.get_u64()).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongSection {
                expected: "beta",
                found: "alpha".into()
            }
        );
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let r = SnapshotReader::new(&bytes[..cut], 7);
            let outcome = r.and_then(|mut r| {
                r.section("alpha", |s| {
                    s.get_u64()?;
                    s.get_f64()?;
                    s.get_bool()?;
                    s.get_str()?;
                    Ok(())
                })?;
                r.section("beta", |s| {
                    let n = s.seq_len()?;
                    for _ in 0..n {
                        s.get_u64()?;
                    }
                    s.get_opt_u64()?;
                    s.get_opt_u64()?;
                    Ok(())
                })?;
                r.finish()
            });
            assert!(outcome.is_err(), "cut at {cut} was not rejected");
        }
    }

    #[test]
    fn unread_payload_bytes_are_malformed() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        let err = r.section("alpha", |s| s.get_u64()).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed {
                section: "alpha",
                ..
            }
        ));
    }

    #[test]
    fn trailing_data_is_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        let mut r = SnapshotReader::new(&bytes, 7).unwrap();
        r.section("alpha", |s| {
            s.get_u64()?;
            s.get_f64()?;
            s.get_bool()?;
            s.get_str()?;
            Ok(())
        })
        .unwrap();
        r.section("beta", |s| {
            let n = s.seq_len()?;
            for _ in 0..n {
                s.get_u64()?;
            }
            s.get_opt_u64()?;
            s.get_opt_u64()?;
            Ok(())
        })
        .unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapshotError::TrailingData);
    }

    #[test]
    fn corrupt_sequence_length_cannot_allocate() {
        let mut w = SnapshotWriter::new(1);
        w.section("seq", |s| {
            s.put_seq_len(usize::MAX);
        });
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes, 1).unwrap();
        let err = r.section("seq", |s| s.seq_len()).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Malformed { section: "seq", .. }
        ));
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let mut a = Fingerprint::new("t");
        a.push_str("ab").push_str("c");
        let mut b = Fingerprint::new("t");
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new("t");
        c.push_str("ab").push_str("c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn crc32_known_value() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn atomic_write_replaces_or_preserves() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("fqms-snap-atomic-{}.bin", std::process::id()));
        std::fs::write(&path, b"old").unwrap();
        write_atomic(&path, b"new contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        // A stale temp file from a killed writer does not break the next
        // atomic write.
        let stale = dir.join(format!(
            ".fqms-snap-atomic-{}.bin.tmp-{}",
            std::process::id(),
            std::process::id()
        ));
        std::fs::write(&stale, b"partial").unwrap();
        write_atomic(&path, b"after crash").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"after crash");
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(&stale);
    }

    #[test]
    fn save_and_load_file_round_trip() {
        let path = std::env::temp_dir().join(format!("fqms-snap-file-{}.bin", std::process::id()));
        let bytes = sample();
        save_to_file(&path, &bytes).unwrap();
        assert_eq!(load_from_file(&path).unwrap(), bytes);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load_from_file(&path).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }
}
