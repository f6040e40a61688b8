//! Out-of-core storage for epoch segments: the on-disk `HBFS` column
//! format and the `FrameStore` that spills and reloads segments under
//! a resident-byte budget.
//!
//! Each epoch segment of the incremental frame (see
//! [`crate::analysis::incremental`]) is a block of immutable
//! fixed-width columns over interned symbols. Everything variable-width
//! (URL texts, eTLD+1 strings, cookie keys) lives in the builder's
//! monotonically growing global tables, which always stay resident —
//! so a segment serializes as a handful of plain `u32`/`u8` arrays and
//! reads back with `read`-into-`Vec`. No memory mapping, no `unsafe`.
//!
//! # File layout (version 1)
//!
//! ```text
//! offset  size          field
//! 0       4             magic  b"HBFS"
//! 4       2             format version, u16 LE (currently 1)
//! 6       2             reserved (zero)
//! 8       4             n_ex   exchange count, u32 LE
//! 12      4             n_rows cookie-row count, u32 LE
//! 16      8             FNV-1a checksum of the payload, u64 LE
//! 24      ...           payload, in fixed column order:
//!                         url_sym      u32 LE × n_ex
//!                         etld1_sym    u32 LE × n_ex
//!                         channel      u32 LE × n_ex
//!                         chan_label   u32 LE × n_ex
//!                         content_type u8     × n_ex
//!                         flags        u8     × n_ex
//!                         cookie_off   u32 LE × (n_ex + 1)
//!                         cookie_key   u32 LE × n_rows
//!                         cookie_domain u32 LE × n_rows
//! ```
//!
//! A reader rejects (loudly, with `InvalidData`) a wrong magic, an
//! unknown version, a byte length that disagrees with the header
//! counts, and a payload whose checksum does not match — a truncated or
//! bit-flipped spill file must never silently skew a report.

use std::fs;
use std::io::{Error, ErrorKind, Result};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes opening every spill file.
pub(crate) const HBFS_MAGIC: [u8; 4] = *b"HBFS";
/// Current format version.
pub(crate) const HBFS_VERSION: u16 = 1;
/// Header length in bytes.
const HEADER_LEN: usize = 24;

/// One epoch segment's immutable columns. Exchange-indexed columns are
/// parallel (`n_ex` entries); `cookie_off` holds `n_ex + 1` prefix
/// offsets into the row-indexed columns (`n_rows` entries), so exchange
/// `i` owns rows `cookie_off[i]..cookie_off[i + 1]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct SegmentCols {
    /// Interned URL-text symbol per exchange.
    pub(crate) url_sym: Vec<u32>,
    /// Interned eTLD+1 symbol of the request URL per exchange.
    pub(crate) etld1_sym: Vec<u32>,
    /// Channel id per exchange; `u32::MAX` when unattributed.
    pub(crate) channel: Vec<u32>,
    /// Interned `ch:`-label symbol per exchange; `u32::MAX` when the
    /// exchange has no channel.
    pub(crate) chan_label: Vec<u32>,
    /// Response content type, as the enum's discriminant.
    pub(crate) content_type: Vec<u8>,
    /// Per-exchange bit flags (see the `FLAG_*` constants).
    pub(crate) flags: Vec<u8>,
    /// Cookie-row prefix offsets, `n_ex + 1` entries.
    pub(crate) cookie_off: Vec<u32>,
    /// Interned cookie-key symbol per row.
    pub(crate) cookie_key: Vec<u32>,
    /// Interned cookie-domain eTLD+1 symbol per row.
    pub(crate) cookie_domain: Vec<u32>,
}

/// Flag bit: the §V-D1 tracking-pixel heuristic fired.
pub(crate) const FLAG_PIXEL: u8 = 1;
/// Flag bit: the §V-D2 fingerprint-script heuristic fired.
pub(crate) const FLAG_FINGERPRINT: u8 = 2;
/// Flag bit: some bundled list flags the URL as a third-party image
/// (the §V-C canonical tracking probe).
pub(crate) const FLAG_CANONICAL: u8 = 4;

impl SegmentCols {
    /// An empty block with room for `rows` exchanges and `cookie_rows`
    /// cookie rows.
    pub(crate) fn with_capacity(rows: usize, cookie_rows: usize) -> Self {
        let mut cookie_off = Vec::with_capacity(rows + 1);
        cookie_off.push(0);
        SegmentCols {
            url_sym: Vec::with_capacity(rows),
            etld1_sym: Vec::with_capacity(rows),
            channel: Vec::with_capacity(rows),
            chan_label: Vec::with_capacity(rows),
            content_type: Vec::with_capacity(rows),
            flags: Vec::with_capacity(rows),
            cookie_off,
            cookie_key: Vec::with_capacity(cookie_rows),
            cookie_domain: Vec::with_capacity(cookie_rows),
        }
    }

    /// Joins the blocks of consecutive exchange ranges, in order, into
    /// one block.
    pub(crate) fn concat(mut parts: Vec<SegmentCols>) -> SegmentCols {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let rows = parts.iter().map(SegmentCols::len).sum();
        let cookie_rows = parts.iter().map(|p| p.cookie_key.len()).sum();
        let mut all = SegmentCols::with_capacity(rows, cookie_rows);
        for p in &parts {
            let base = all.cookie_key.len() as u32;
            all.url_sym.extend_from_slice(&p.url_sym);
            all.etld1_sym.extend_from_slice(&p.etld1_sym);
            all.channel.extend_from_slice(&p.channel);
            all.chan_label.extend_from_slice(&p.chan_label);
            all.content_type.extend_from_slice(&p.content_type);
            all.flags.extend_from_slice(&p.flags);
            all.cookie_off
                .extend(p.cookie_off[1..].iter().map(|o| o + base));
            all.cookie_key.extend_from_slice(&p.cookie_key);
            all.cookie_domain.extend_from_slice(&p.cookie_domain);
        }
        all
    }

    /// Number of exchanges in the segment.
    pub(crate) fn len(&self) -> usize {
        self.url_sym.len()
    }

    /// Resident heap footprint of the columns, in bytes.
    pub(crate) fn byte_size(&self) -> usize {
        4 * (self.url_sym.len()
            + self.etld1_sym.len()
            + self.channel.len()
            + self.chan_label.len()
            + self.cookie_off.len()
            + self.cookie_key.len()
            + self.cookie_domain.len())
            + self.content_type.len()
            + self.flags.len()
    }

    /// The cookie-row range of exchange `i`.
    pub(crate) fn rows_of(&self, i: usize) -> std::ops::Range<usize> {
        self.cookie_off[i] as usize..self.cookie_off[i + 1] as usize
    }
}

fn push_u32s(buf: &mut Vec<u8>, col: &[u32]) {
    for v in col {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_u32s(bytes: &[u8], pos: &mut usize, n: usize) -> Vec<u32> {
    let out = bytes[*pos..*pos + 4 * n]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    *pos += 4 * n;
    out
}

/// FNV-1a over a byte slice — tiny, dependency-free, and plenty for
/// detecting truncation and bit rot in spill files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn bad(msg: String) -> Error {
    Error::new(ErrorKind::InvalidData, msg)
}

/// Serializes a segment into the version-1 `HBFS` byte layout.
pub(crate) fn encode(cols: &SegmentCols) -> Vec<u8> {
    let n_ex = cols.len();
    let n_rows = cols.cookie_key.len();
    debug_assert_eq!(cols.cookie_off.len(), n_ex + 1);
    debug_assert_eq!(cols.cookie_domain.len(), n_rows);

    let payload_len = 4 * (4 * n_ex + (n_ex + 1) + 2 * n_rows) + 2 * n_ex;
    let mut payload = Vec::with_capacity(payload_len);
    push_u32s(&mut payload, &cols.url_sym);
    push_u32s(&mut payload, &cols.etld1_sym);
    push_u32s(&mut payload, &cols.channel);
    push_u32s(&mut payload, &cols.chan_label);
    payload.extend_from_slice(&cols.content_type);
    payload.extend_from_slice(&cols.flags);
    push_u32s(&mut payload, &cols.cookie_off);
    push_u32s(&mut payload, &cols.cookie_key);
    push_u32s(&mut payload, &cols.cookie_domain);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&HBFS_MAGIC);
    out.extend_from_slice(&HBFS_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(n_ex as u32).to_le_bytes());
    out.extend_from_slice(&(n_rows as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a version-1 `HBFS` byte buffer back into columns, verifying
/// magic, version, length, and checksum.
pub(crate) fn decode(bytes: &[u8]) -> Result<SegmentCols> {
    if bytes.len() < HEADER_LEN {
        return Err(bad(format!(
            "HBFS header truncated: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[0..4] != HBFS_MAGIC {
        return Err(bad(format!("bad HBFS magic {:?}", &bytes[0..4])));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != HBFS_VERSION {
        return Err(bad(format!(
            "unsupported HBFS version {version} (expected {HBFS_VERSION})"
        )));
    }
    let n_ex = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let n_rows = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload_len = 4 * (4 * n_ex + (n_ex + 1) + 2 * n_rows) + 2 * n_ex;
    if bytes.len() != HEADER_LEN + payload_len {
        return Err(bad(format!(
            "HBFS length mismatch: {} bytes for n_ex={n_ex} n_rows={n_rows} (expected {})",
            bytes.len(),
            HEADER_LEN + payload_len
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    let actual = fnv1a(payload);
    if actual != checksum {
        return Err(bad(format!(
            "HBFS checksum mismatch: stored {checksum:#018x}, computed {actual:#018x}"
        )));
    }

    let mut pos = 0usize;
    let url_sym = read_u32s(payload, &mut pos, n_ex);
    let etld1_sym = read_u32s(payload, &mut pos, n_ex);
    let channel = read_u32s(payload, &mut pos, n_ex);
    let chan_label = read_u32s(payload, &mut pos, n_ex);
    let content_type = payload[pos..pos + n_ex].to_vec();
    pos += n_ex;
    let flags = payload[pos..pos + n_ex].to_vec();
    pos += n_ex;
    let cookie_off = read_u32s(payload, &mut pos, n_ex + 1);
    let cookie_key = read_u32s(payload, &mut pos, n_rows);
    let cookie_domain = read_u32s(payload, &mut pos, n_rows);
    debug_assert_eq!(pos, payload.len());

    Ok(SegmentCols {
        url_sym,
        etld1_sym,
        channel,
        chan_label,
        content_type,
        flags,
        cookie_off,
        cookie_key,
        cookie_domain,
    })
}

/// Monotone counter so concurrent studies in one process get distinct
/// spill directories.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The spill backend: writes evicted segments to per-segment `HBFS`
/// files in a private temporary directory and reads them back on
/// demand. Residency policy (what to evict when) lives with the caller;
/// the store only moves immutable bytes. Columns never change after a
/// segment is sealed, so each segment is written at most once and
/// re-evictions just drop the resident copy.
#[derive(Debug)]
pub(crate) struct FrameStore {
    /// Spill directory, created on first write.
    dir: Option<PathBuf>,
    /// Which segments have a spill file on disk.
    written: Vec<bool>,
    /// Resident-byte budget; `None` = unlimited (never spill).
    pub(crate) budget: Option<usize>,
    /// Segments written to disk (telemetry: `frame.spill_writes`).
    pub(crate) spill_writes: u64,
    /// Segments read back (telemetry: `frame.spill_loads`).
    pub(crate) spill_loads: u64,
}

impl FrameStore {
    /// A store with an explicit budget (`None` = keep everything
    /// resident).
    pub(crate) fn new(budget: Option<usize>) -> Self {
        FrameStore {
            dir: None,
            written: Vec::new(),
            budget,
            spill_writes: 0,
            spill_loads: 0,
        }
    }

    fn seg_path(dir: &std::path::Path, i: usize) -> PathBuf {
        dir.join(format!("seg_{i}.hbfs"))
    }

    /// Ensures segment `i` has a spill file, writing it if this is the
    /// first eviction. Returns the on-disk byte length.
    pub(crate) fn spill(&mut self, i: usize, cols: &SegmentCols) -> Result<usize> {
        if self.written.len() <= i {
            self.written.resize(i + 1, false);
        }
        let dir = match &self.dir {
            Some(d) => d.clone(),
            None => {
                let d = std::env::temp_dir().join(format!(
                    "hbbtv-frame-{}-{}",
                    std::process::id(),
                    STORE_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                fs::create_dir_all(&d)?;
                self.dir = Some(d.clone());
                d
            }
        };
        let path = Self::seg_path(&dir, i);
        if self.written[i] {
            return Ok(fs::metadata(&path)?.len() as usize);
        }
        let bytes = encode(cols);
        fs::write(&path, &bytes)?;
        self.written[i] = true;
        self.spill_writes += 1;
        Ok(bytes.len())
    }

    /// Loads segment `i` back from its spill file.
    pub(crate) fn load(&mut self, i: usize) -> Result<SegmentCols> {
        let dir = self
            .dir
            .as_ref()
            .ok_or_else(|| bad(format!("segment {i} was never spilled (no store dir)")))?;
        if !self.written.get(i).copied().unwrap_or(false) {
            return Err(bad(format!("segment {i} was never spilled")));
        }
        let bytes = fs::read(Self::seg_path(dir, i))?;
        let cols = decode(&bytes)?;
        self.spill_loads += 1;
        Ok(cols)
    }
}

impl Drop for FrameStore {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SegmentCols {
        SegmentCols {
            url_sym: vec![0, 1, 1, 2],
            etld1_sym: vec![0, 1, 1, 0],
            channel: vec![7, u32::MAX, 9, 9],
            chan_label: vec![0, u32::MAX, 1, 1],
            content_type: vec![0, 1, 2, 6],
            flags: vec![0, FLAG_PIXEL, FLAG_FINGERPRINT | FLAG_CANONICAL, 0],
            cookie_off: vec![0, 2, 2, 3, 3],
            cookie_key: vec![0, 1, 2],
            cookie_domain: vec![0, 0, 1],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cols = sample();
        let bytes = encode(&cols);
        assert_eq!(&bytes[0..4], b"HBFS");
        assert_eq!(decode(&bytes).unwrap(), cols);
        // Empty segments round-trip too (cookie_off keeps its sentinel).
        let empty = SegmentCols {
            cookie_off: vec![0],
            ..SegmentCols::default()
        };
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn corruption_is_rejected_loudly() {
        let bytes = encode(&sample());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode(&bad_magic)
            .unwrap_err()
            .to_string()
            .contains("magic"));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(decode(&bad_version)
            .unwrap_err()
            .to_string()
            .contains("version"));

        let truncated = &bytes[..bytes.len() - 1];
        assert!(decode(truncated)
            .unwrap_err()
            .to_string()
            .contains("length mismatch"));

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(decode(&flipped)
            .unwrap_err()
            .to_string()
            .contains("checksum"));

        assert!(decode(&bytes[..10])
            .unwrap_err()
            .to_string()
            .contains("truncated"));
    }

    #[test]
    fn store_spills_and_reloads() {
        let cols = sample();
        let mut store = FrameStore::new(Some(16));
        let written = store.spill(3, &cols).unwrap();
        assert!(written > HEADER_LEN);
        // Second spill of an immutable segment is a no-op re-using the
        // existing file.
        store.spill(3, &cols).unwrap();
        assert_eq!(store.spill_writes, 1);
        assert_eq!(store.load(3).unwrap(), cols);
        assert_eq!(store.spill_loads, 1);
        assert!(store.load(0).is_err(), "never-spilled segment is an error");
    }
}
