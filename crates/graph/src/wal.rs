//! Append-only, CRC-checksummed segment files: the durability layer
//! under [`crate::snapshot::ShardedSnapshotStore`] and the serve-loop
//! completion journal.
//!
//! # Layout
//!
//! A durable store directory holds one write-once `MANIFEST` (store
//! configuration + format version), one write-once `base.seg` (the base
//! [`crate::partition::PartitionSet`]), one `store.seg` (the vertex-level
//! commit log), and one `shard-N.seg` per shard (that shard's
//! partition-level delta chain).  Every file is a *segment*: a fixed
//! header followed by length-prefixed frames.
//!
//! ```text
//! segment  := header frame*
//! header   := magic "CGWL" (4) | format version u32-le (4)
//! frame    := len u32-le | hcrc u32-le | pcrc u32-le | payload (len bytes)
//!             hcrc = crc32(len-le bytes)   -- guards the length field
//!             pcrc = crc32(payload)        -- guards the payload
//! payload  := kind u8 | kind-specific body (see `crate::snapshot`)
//! ```
//!
//! The separate header CRC means a corrupted *length* field is detected
//! as corruption rather than silently misdirecting the scan; the payload
//! CRC catches bit rot in the body.
//!
//! # Torn-tail policy
//!
//! A crash mid-append leaves a prefix of the final frame.  On scan, a
//! frame whose header or payload extends past end-of-file is a **torn
//! tail**: the scan stops, reports the clean length, and recovery
//! truncates the segment there — the log is exactly the committed
//! prefix.  Anything else malformed — a bad header CRC, a complete
//! frame whose payload CRC mismatches — is **mid-log corruption**:
//! the scan refuses with a typed [`StoreError::Corruption`], never a
//! panic, because silently replaying past a bad record would fabricate
//! state (the log is only as trustworthy as its weakest frame).
//!
//! [`scan_segment`] reads and verifies every payload up front.
//! [`FrameCursor`] is the streaming alternative: it walks frame
//! *headers* (which is all torn-tail detection and frame-boundary
//! recovery need, since the header CRC vouches every length field) and
//! leaves payload bytes on disk unless the caller pulls them — store
//! recovery uses it on shard segments so payloads the checkpoint
//! policy keeps lazy are never read, checksummed, or decoded at open,
//! making recovery I/O O(post-checkpoint tail) instead of O(chain).
//! An unread payload carries exactly the trust of a spilled one: it
//! verifies when a historical walk actually decodes it.
//!
//! # Fsync points
//!
//! `persist_to` syncs every created segment and the directory once.
//! Each `apply` then appends its shard frames, the store-level commit
//! frame, and any checkpoint/spill frames, and finally syncs every
//! dirty shard segment *before* the store segment — so a store-level
//! commit frame on disk implies its shard frames are too.  Recovery
//! reconciles the remaining crash window (shard frames without a
//! commit frame) by truncating the uncommitted suffix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::fault::{FaultHandle, FaultInjector, StoreFaultBoundary};
use crate::obs::{ObsHandle, StoreObserver};
use crate::partition::Partition;
use crate::snapshot::SnapshotError;

/// On-disk format version stamped into every segment header and the
/// manifest.  Bump on any incompatible layout change; `open` refuses a
/// mismatch with [`StoreError::VersionMismatch`].
pub const FORMAT_VERSION: u32 = 2;

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: [u8; 4] = *b"CGWL";

/// Bytes of the segment header (magic + format version).
pub const SEG_HEADER_LEN: u64 = 8;

/// Bytes of a frame header (`len | hcrc | pcrc`).
pub const FRAME_HEADER_LEN: u64 = 12;

// Frame payload kinds.  The store-specific bodies are encoded and
// decoded by `crate::snapshot`; the serve journal uses `K_SERVE_DONE`.
pub(crate) const K_MANIFEST: u8 = 1;
pub(crate) const K_BASE_META: u8 = 2;
pub(crate) const K_BASE_PART: u8 = 3;
pub(crate) const K_APPLY: u8 = 4;
pub(crate) const K_VERTEX_CP: u8 = 5;
pub(crate) const K_SPILL: u8 = 6;
pub(crate) const K_SHARD_REC: u8 = 7;
pub(crate) const K_SHARD_CP: u8 = 8;
/// One completed serve-loop job (public: `core`'s journal reuses the
/// frame codec).
pub const K_SERVE_DONE: u8 = 9;

/// Which segment file an error refers to (kept `Copy` so error paths
/// never allocate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentId {
    /// The write-once `MANIFEST`.
    Manifest,
    /// The write-once `base.seg` (base partition set).
    Base,
    /// The vertex-level commit log `store.seg`.
    Store,
    /// One shard's chain `shard-N.seg`.
    Shard(u32),
    /// A serve-loop completion journal.
    Journal,
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentId::Manifest => write!(f, "MANIFEST"),
            SegmentId::Base => write!(f, "base.seg"),
            SegmentId::Store => write!(f, "store.seg"),
            SegmentId::Shard(s) => write!(f, "shard-{s}.seg"),
            SegmentId::Journal => write!(f, "journal.seg"),
        }
    }
}

/// Errors surfaced by the durable store: recovery, durable `apply`/
/// `compact`, and the serve journal.  Semantic apply failures stay
/// [`SnapshotError`]s, wrapped in [`StoreError::Snapshot`]; everything
/// else is a log-integrity or I/O fault.  In-memory stores construct
/// only the allocation-free variants.
#[derive(Debug)]
pub enum StoreError {
    /// A semantic apply failure (bad delta), unchanged from the
    /// in-memory store.
    Snapshot(SnapshotError),
    /// A frame strictly before the log tail failed its CRC or decoded
    /// inconsistently: replaying past it would fabricate state, so
    /// recovery refuses.
    Corruption {
        /// Segment the bad frame lives in.
        segment: SegmentId,
        /// Byte offset of the bad frame (or field) in that segment.
        offset: u64,
        /// What check failed.
        detail: &'static str,
    },
    /// A segment is too short to hold its mandatory structure (header,
    /// or a write-once segment's frames) — distinct from a tolerated
    /// torn *tail*, which recovery silently truncates.
    Truncated {
        /// The short segment.
        segment: SegmentId,
        /// Its observed length in bytes.
        len: u64,
    },
    /// The on-disk format version is not the one this build writes.
    VersionMismatch {
        /// Version found on disk.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// An underlying filesystem error.
    Io(io::Error),
    /// A fan-out worker thread panicked mid-apply; the store refused to
    /// install a partial result.
    WorkerPanic(&'static str),
}

impl PartialEq for StoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (StoreError::Snapshot(a), StoreError::Snapshot(b)) => a == b,
            (
                StoreError::Corruption { segment, offset, detail },
                StoreError::Corruption { segment: s2, offset: o2, detail: d2 },
            ) => segment == s2 && offset == o2 && detail == d2,
            (
                StoreError::Truncated { segment, len },
                StoreError::Truncated { segment: s2, len: l2 },
            ) => segment == s2 && len == l2,
            (
                StoreError::VersionMismatch { found, supported },
                StoreError::VersionMismatch { found: f2, supported: s2 },
            ) => found == f2 && supported == s2,
            (StoreError::Io(a), StoreError::Io(b)) => a.kind() == b.kind(),
            (StoreError::WorkerPanic(a), StoreError::WorkerPanic(b)) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Snapshot(e) => write!(f, "{e}"),
            StoreError::Corruption { segment, offset, detail } => {
                write!(f, "corrupt frame in {segment} at offset {offset}: {detail}")
            }
            StoreError::Truncated { segment, len } => {
                write!(f, "{segment} truncated to {len} bytes")
            }
            StoreError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "log format version {found}, this build supports {supported}"
                )
            }
            StoreError::Io(e) => write!(f, "log i/o error: {e}"),
            StoreError::WorkerPanic(what) => write!(f, "worker panicked during {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Snapshot(e) => Some(e),
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — implemented in-repo; no external
// crates.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
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
};

// Slice-by-8 companion tables: CRC_TABLES[k][b] advances the CRC of
// byte `b` through `k` further zero bytes, letting the hot loop fold
// 8 input bytes per iteration instead of 1.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    t[0] = CRC_TABLE;
    let mut i = 0;
    while i < 256 {
        let mut c = t[0][i];
        let mut k = 1;
        while k < 8 {
            c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            t[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    t
};

/// IEEE CRC32 of `bytes` (slice-by-8: segment scans are CRC-bound).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Little-endian wire helpers.
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked little-endian reader over one frame payload.  Every
/// short read is a typed [`StoreError::Corruption`] carrying the
/// segment and frame offset, never a panic.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    segment: SegmentId,
    /// Segment offset of `buf[0]` (for error reporting).
    base: u64,
}

impl<'a> WireReader<'a> {
    /// Wraps `buf`, which starts at byte `base` of `segment`.
    pub fn new(buf: &'a [u8], segment: SegmentId, base: u64) -> Self {
        WireReader { buf, pos: 0, segment, base }
    }

    /// The corruption error for the current position.
    pub fn corrupt(&self, detail: &'static str) -> StoreError {
        StoreError::Corruption {
            segment: self.segment,
            offset: self.base + self.pos as u64,
            detail,
        }
    }

    /// Current offset within the payload.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt("payload shorter than its encoding claims"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32` length field, sanity-bounded by the bytes actually
    /// remaining divided by `min_elem_bytes` (so a corrupt length can't
    /// drive a huge allocation).
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(self.corrupt("length field exceeds remaining payload"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Segment writer and scanner.
// ---------------------------------------------------------------------

/// Append handle for one segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    segment: SegmentId,
    len: u64,
    dirty: bool,
}

impl SegmentWriter {
    /// Creates a fresh segment (truncating any existing file) and writes
    /// its header.
    pub fn create(path: &Path, segment: SegmentId) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&SEG_MAGIC)?;
        file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(SegmentWriter { file, segment, len: SEG_HEADER_LEN, dirty: true })
    }

    /// Opens an existing segment for appending, truncating it to
    /// `clean_len` first (discarding any torn or uncommitted tail the
    /// scan rejected).
    pub fn open_clean(path: &Path, segment: SegmentId, clean_len: u64) -> Result<Self, StoreError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(clean_len)?;
        Ok(SegmentWriter { file, segment, len: clean_len, dirty: true })
    }

    /// The segment this writer appends to.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Current segment length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds only its header.
    pub fn is_empty(&self) -> bool {
        self.len <= SEG_HEADER_LEN
    }

    /// Appends one frame; returns the segment offset of the payload's
    /// first byte.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
        let len_le = len.to_le_bytes();
        let mut header = [0u8; FRAME_HEADER_LEN as usize];
        header[..4].copy_from_slice(&len_le);
        header[4..8].copy_from_slice(&crc32(&len_le).to_le_bytes());
        header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&header)?;
        self.file.write_all(payload)?;
        let payload_offset = self.len + FRAME_HEADER_LEN;
        self.len += FRAME_HEADER_LEN + payload.len() as u64;
        self.dirty = true;
        Ok(payload_offset)
    }

    /// Whether frames were appended since the last [`sync`](Self::sync).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Flushes appended frames to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// One frame read back by [`scan_segment`].
#[derive(Debug)]
pub struct Frame {
    /// The payload bytes (CRC-verified).
    pub payload: Vec<u8>,
    /// Segment offset of the payload's first byte.
    pub payload_offset: u64,
    /// Segment offset one past the frame's last byte.
    pub end_offset: u64,
}

impl Frame {
    /// The payload's kind byte (first byte; every kind's body follows).
    pub fn kind(&self) -> u8 {
        self.payload.first().copied().unwrap_or(0)
    }

    /// A reader over the body (everything after the kind byte).
    pub fn body(&self, segment: SegmentId) -> WireReader<'_> {
        WireReader::new(&self.payload[1..], segment, self.payload_offset + 1)
    }
}

/// A scanned segment: the valid frame prefix plus where it ends.
#[derive(Debug)]
pub struct ScannedSegment {
    /// Every CRC-verified frame, in append order.
    pub frames: Vec<Frame>,
    /// Length of the valid prefix; recovery truncates the file here
    /// when `torn` (or cuts further after cross-file reconciliation).
    pub clean_len: u64,
    /// Whether a torn tail frame was dropped.
    pub torn: bool,
}

/// Reads and CRC-verifies every frame of the segment at `path`.
///
/// A frame extending past end-of-file is a torn tail: the scan stops
/// cleanly (`torn = true`).  A bad header CRC, a bad payload CRC on a
/// *complete* frame, a bad magic, or a missing header is refused with a
/// typed error (see the module docs for the policy).
pub fn scan_segment(path: &Path, segment: SegmentId) -> Result<ScannedSegment, StoreError> {
    let mut cur = FrameCursor::open(path, segment)?;
    let mut frames = Vec::new();
    while let Some(head) = cur.next_frame()? {
        frames.push(Frame {
            payload: cur.read_payload(&head)?,
            payload_offset: head.payload_offset,
            end_offset: head.end_offset,
        });
    }
    Ok(ScannedSegment { frames, clean_len: cur.clean_len(), torn: cur.torn() })
}

/// Boundaries of one frame located by a [`FrameCursor`] walk; the
/// payload has not been read or verified yet.
#[derive(Clone, Copy, Debug)]
pub struct FrameHead {
    /// Segment offset of the frame header.
    pub header_offset: u64,
    /// Segment offset of the payload's first byte.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Segment offset one past the frame's last byte.
    pub end_offset: u64,
    /// Stored payload CRC, checked by [`FrameCursor::read_payload`].
    pcrc: u32,
}

/// A streaming, header-verifying walk over a segment's frames.
///
/// Frame boundaries and the torn-tail cut are exactly those of
/// [`scan_segment`] (the header CRC vouches every length field), but
/// payload bytes stay on disk: a caller can stream selected fields with
/// the `u8`/`u32`/`u64` readers, [`skip`](Self::skip) spans it does not
/// need, or pull (and CRC-verify) a whole payload with
/// [`read_payload`](Self::read_payload) — seeking backwards to revisit
/// a frame is allowed.  Store recovery leans on this to scan shard
/// segments without touching the partition payloads the checkpoint
/// policy keeps lazy.
#[derive(Debug)]
pub struct FrameCursor {
    file: BufReader<File>,
    segment: SegmentId,
    /// Stream position (mirrors the buffered file cursor).
    pos: u64,
    file_len: u64,
    /// Header offset of the next unvisited frame.
    next_header: u64,
    torn: bool,
    done: bool,
}

impl FrameCursor {
    /// Opens the segment at `path`, validating its header.
    pub fn open(path: &Path, segment: SegmentId) -> Result<Self, StoreError> {
        let f = File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut file = BufReader::new(f);
        if file_len < SEG_HEADER_LEN {
            return Err(StoreError::Truncated { segment, len: file_len });
        }
        let mut hdr = [0u8; SEG_HEADER_LEN as usize];
        file.read_exact(&mut hdr)?;
        if hdr[..4] != SEG_MAGIC {
            return Err(StoreError::Corruption { segment, offset: 0, detail: "bad segment magic" });
        }
        let version = u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(StoreError::VersionMismatch { found: version, supported: FORMAT_VERSION });
        }
        Ok(FrameCursor {
            file,
            segment,
            pos: SEG_HEADER_LEN,
            file_len,
            next_header: SEG_HEADER_LEN,
            torn: false,
            done: false,
        })
    }

    fn seek_to(&mut self, target: u64) -> Result<(), StoreError> {
        if target != self.pos {
            self.file.seek_relative(target as i64 - self.pos as i64)?;
            self.pos = target;
        }
        Ok(())
    }

    /// Advances to the next frame, verifying its header CRC.  Returns
    /// `None` at the clean end of the log *or* at a torn tail (query
    /// [`torn`](Self::torn)); a corrupt header is a typed error.
    pub fn next_frame(&mut self) -> Result<Option<FrameHead>, StoreError> {
        if self.done {
            return Ok(None);
        }
        if self.next_header == self.file_len {
            self.done = true;
            return Ok(None);
        }
        if self.file_len - self.next_header < FRAME_HEADER_LEN {
            // Torn mid-header.
            self.torn = true;
            self.done = true;
            return Ok(None);
        }
        self.seek_to(self.next_header)?;
        let mut hdr = [0u8; FRAME_HEADER_LEN as usize];
        self.file.read_exact(&mut hdr)?;
        self.pos += FRAME_HEADER_LEN;
        let len_le: [u8; 4] = hdr[0..4].try_into().expect("4 bytes");
        if crc32(&len_le) != u32::from_le_bytes(hdr[4..8].try_into().expect("4 bytes")) {
            return Err(StoreError::Corruption {
                segment: self.segment,
                offset: self.next_header,
                detail: "frame length checksum mismatch",
            });
        }
        let len = u32::from_le_bytes(len_le);
        let start = self.next_header + FRAME_HEADER_LEN;
        if self.file_len - start < len as u64 {
            // Torn mid-payload (the header CRC vouches the length field,
            // so the frame really does extend past EOF).
            self.torn = true;
            self.done = true;
            return Ok(None);
        }
        let head = FrameHead {
            header_offset: self.next_header,
            payload_offset: start,
            payload_len: len,
            end_offset: start + len as u64,
            pcrc: u32::from_le_bytes(hdr[8..12].try_into().expect("4 bytes")),
        };
        self.next_header = head.end_offset;
        Ok(Some(head))
    }

    /// Whether the walk ended at a torn tail frame.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Length of the valid frame prefix walked so far (see
    /// [`ScannedSegment::clean_len`]).
    pub fn clean_len(&self) -> u64 {
        self.next_header
    }

    /// Current stream offset within the segment.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// The corruption error for segment offset `at`.
    pub fn corrupt_at(&self, at: u64, detail: &'static str) -> StoreError {
        StoreError::Corruption { segment: self.segment, offset: at, detail }
    }

    /// Reads `frame`'s full payload — seeking back if the caller already
    /// streamed past it — and checks the payload CRC.
    pub fn read_payload(&mut self, frame: &FrameHead) -> Result<Vec<u8>, StoreError> {
        self.seek_to(frame.payload_offset)?;
        let mut payload = vec![0u8; frame.payload_len as usize];
        self.file.read_exact(&mut payload)?;
        self.pos += frame.payload_len as u64;
        if crc32(&payload) != frame.pcrc {
            return Err(self.corrupt_at(frame.header_offset, "frame payload checksum mismatch"));
        }
        Ok(payload)
    }

    /// Skips `n` bytes without reading them.
    pub fn skip(&mut self, n: u64) -> Result<(), StoreError> {
        self.seek_to(self.pos + n)
    }

    fn read_arr<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let mut b = [0u8; N];
        self.file.read_exact(&mut b)?;
        self.pos += N as u64;
        Ok(b)
    }

    /// Streams one byte at the cursor.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.read_arr::<1>()?[0])
    }

    /// Streams a little-endian `u32` at the cursor.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.read_arr::<4>()?))
    }

    /// Streams a little-endian `u64` at the cursor.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.read_arr::<8>()?))
    }
}

// ---------------------------------------------------------------------
// The store's write-ahead handle.
// ---------------------------------------------------------------------

/// Location of one partition payload inside a shard segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PayloadLoc {
    pub shard: u32,
    pub offset: u64,
    pub len: u32,
}

/// The open durable state of a [`crate::snapshot::ShardedSnapshotStore`]:
/// one append handle per segment plus per-shard read handles for
/// rehydrating spilled or lazily-recovered payloads.
#[derive(Debug)]
pub(crate) struct StoreWal {
    dir: PathBuf,
    store: SegmentWriter,
    shards: Vec<SegmentWriter>,
    readers: Vec<Mutex<File>>,
    /// A deferred write error (from a context that could not propagate,
    /// e.g. the `with_capacity` builder): surfaced by the next durable
    /// operation.
    poison: Option<String>,
    /// Observability hook: appends, fsyncs, and rehydration reads
    /// report here when set.  `None` (the default) costs one branch
    /// per durable operation.
    observer: ObsHandle,
    /// Fault-plane hook: every durable boundary notifies it (fail-open;
    /// see [`crate::fault`]).  Same one-branch default as the observer.
    faults: FaultHandle,
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

pub(crate) fn base_path(dir: &Path) -> PathBuf {
    dir.join("base.seg")
}

pub(crate) fn store_path(dir: &Path) -> PathBuf {
    dir.join("store.seg")
}

pub(crate) fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s}.seg"))
}

impl StoreWal {
    /// Creates a fresh store directory: manifest, base segment, and
    /// empty store/shard segments, all synced (including the directory).
    pub(crate) fn create(
        dir: &Path,
        shards: usize,
        manifest_payload: &[u8],
        base_frames: &[Vec<u8>],
    ) -> Result<Self, StoreError> {
        fs::create_dir_all(dir)?;
        let mut mf = SegmentWriter::create(&manifest_path(dir), SegmentId::Manifest)?;
        mf.append(manifest_payload)?;
        mf.sync()?;
        let mut base = SegmentWriter::create(&base_path(dir), SegmentId::Base)?;
        for f in base_frames {
            base.append(f)?;
        }
        base.sync()?;
        let mut store = SegmentWriter::create(&store_path(dir), SegmentId::Store)?;
        store.sync()?;
        let mut shard_writers = Vec::with_capacity(shards);
        for s in 0..shards {
            let mut w = SegmentWriter::create(&shard_path(dir, s), SegmentId::Shard(s as u32))?;
            w.sync()?;
            shard_writers.push(w);
        }
        // Sync the directory so the file names themselves are durable.
        File::open(dir)?.sync_all()?;
        Self::attach(dir.to_path_buf(), store, shard_writers)
    }

    /// Re-attaches to an existing directory after recovery decided the
    /// clean length of every appendable segment.
    pub(crate) fn open_clean(
        dir: PathBuf,
        store_clean: u64,
        shard_clean: &[u64],
    ) -> Result<Self, StoreError> {
        let store = SegmentWriter::open_clean(&store_path(&dir), SegmentId::Store, store_clean)?;
        let mut shard_writers = Vec::with_capacity(shard_clean.len());
        for (s, &clean) in shard_clean.iter().enumerate() {
            shard_writers.push(SegmentWriter::open_clean(
                &shard_path(&dir, s),
                SegmentId::Shard(s as u32),
                clean,
            )?);
        }
        Self::attach(dir, store, shard_writers)
    }

    fn attach(
        dir: PathBuf,
        store: SegmentWriter,
        shards: Vec<SegmentWriter>,
    ) -> Result<Self, StoreError> {
        let mut readers = Vec::with_capacity(shards.len());
        for s in 0..shards.len() {
            readers.push(Mutex::new(File::open(shard_path(&dir, s))?));
        }
        Ok(StoreWal {
            dir,
            store,
            shards,
            readers,
            poison: None,
            observer: ObsHandle::none(),
            faults: FaultHandle::none(),
        })
    }

    /// Attaches the observability hook; durable operations from here on
    /// report append bytes, fsync timings, and rehydration reads.
    pub(crate) fn set_observer(&mut self, obs: Arc<dyn StoreObserver>) {
        self.observer.set(obs);
    }

    /// Attaches the fault-plane hook; every durable boundary notifies
    /// it from here on (fail-open, see [`crate::fault`]).
    pub(crate) fn set_faults(&mut self, inj: Arc<dyn FaultInjector>) {
        self.faults.set(inj);
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records a deferred error; [`check`](Self::check) surfaces it.
    pub(crate) fn poison(&mut self, e: &StoreError) {
        if self.poison.is_none() {
            self.poison = Some(e.to_string());
        }
    }

    /// Fails if a previous durable write error was deferred.
    pub(crate) fn check(&self) -> Result<(), StoreError> {
        match &self.poison {
            Some(msg) => Err(StoreError::Io(io::Error::other(msg.clone()))),
            None => Ok(()),
        }
    }

    /// Appends a frame to the store-level segment; returns the payload
    /// offset.
    pub(crate) fn append_store(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.faults
            .notify(StoreFaultBoundary::WalAppend, None, payload.len() as u64);
        let t0 = self.observer.get().map(|_| Instant::now());
        let off = self.store.append(payload)?;
        if let (Some(obs), Some(t0)) = (self.observer.get(), t0) {
            obs.wal_append(None, payload.len() as u64, t0.elapsed().as_micros() as u64);
        }
        Ok(off)
    }

    /// Appends a frame to shard `s`'s segment; returns the payload
    /// offset.
    pub(crate) fn append_shard(&mut self, s: usize, payload: &[u8]) -> Result<u64, StoreError> {
        self.faults
            .notify(StoreFaultBoundary::WalAppend, Some(s), payload.len() as u64);
        let t0 = self.observer.get().map(|_| Instant::now());
        let off = self.shards[s].append(payload)?;
        if let (Some(obs), Some(t0)) = (self.observer.get(), t0) {
            obs.wal_append(
                Some(s),
                payload.len() as u64,
                t0.elapsed().as_micros() as u64,
            );
        }
        Ok(off)
    }

    /// Syncs every dirty shard segment, then the store segment — the
    /// ordering that makes a durable commit frame imply durable shard
    /// frames.
    pub(crate) fn sync_dirty(&mut self) -> Result<(), StoreError> {
        for (s, w) in self.shards.iter_mut().enumerate() {
            // `sync` is a no-op on clean segments; only real fsyncs
            // report (matching the fsync *count* dashboards watch).
            if w.is_dirty() {
                self.faults.notify(StoreFaultBoundary::WalFsync, Some(s), 0);
            }
            let t0 = (self.observer.get().is_some() && w.is_dirty()).then(Instant::now);
            w.sync()?;
            if let (Some(obs), Some(t0)) = (self.observer.get(), t0) {
                obs.wal_fsync(Some(s), t0.elapsed().as_micros() as u64);
            }
        }
        if self.store.is_dirty() {
            self.faults.notify(StoreFaultBoundary::WalFsync, None, 0);
        }
        let t0 = (self.observer.get().is_some() && self.store.is_dirty()).then(Instant::now);
        self.store.sync()?;
        if let (Some(obs), Some(t0)) = (self.observer.get(), t0) {
            obs.wal_fsync(None, t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Reads back and decodes one partition payload (read-through
    /// rehydration of a spilled or lazily-recovered record).  The frame
    /// was CRC-verified when the segment was scanned, so this is a raw
    /// positioned read.
    pub(crate) fn read_partition(&self, loc: PayloadLoc) -> Result<Partition, StoreError> {
        self.faults.notify(
            StoreFaultBoundary::Rehydrate,
            Some(loc.shard as usize),
            loc.offset,
        );
        let t0 = self.observer.get().map(|_| Instant::now());
        let mut buf = vec![0u8; loc.len as usize];
        {
            let mut f = self.readers[loc.shard as usize]
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            f.seek(SeekFrom::Start(loc.offset))?;
            f.read_exact(&mut buf)?;
        }
        let mut r = WireReader::new(&buf, SegmentId::Shard(loc.shard), loc.offset);
        let part = Partition::decode(&mut r)?;
        if let (Some(obs), Some(t0)) = (self.observer.get(), t0) {
            obs.rehydrate(
                loc.shard as usize,
                loc.len as u64,
                t0.elapsed().as_micros() as u64,
            );
        }
        Ok(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, FaultPlan, FaultyFile};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cgraph-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 reference values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("seg");
        let mut w = SegmentWriter::create(&path, SegmentId::Store).unwrap();
        let off_a = w.append(b"\x04hello").unwrap();
        let off_b = w.append(b"\x04").unwrap();
        w.append(&[]).unwrap();
        w.sync().unwrap();
        assert_eq!(off_a, SEG_HEADER_LEN + FRAME_HEADER_LEN);
        assert!(off_b > off_a);
        let scan = scan_segment(&path, SegmentId::Store).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert!(!scan.torn);
        assert_eq!(scan.clean_len, w.len());
        assert_eq!(scan.frames[0].payload, b"\x04hello");
        assert_eq!(scan.frames[0].payload_offset, off_a);
        assert_eq!(scan.frames[0].kind(), K_APPLY);
        assert_eq!(scan.frames[2].payload, b"");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_cut() {
        let dir = temp_dir("torn");
        let path = dir.join("seg");
        let mut w = SegmentWriter::create(&path, SegmentId::Store).unwrap();
        w.append(b"\x04first").unwrap();
        let clean = w.len();
        w.append(b"\x04second-frame-payload").unwrap();
        w.sync().unwrap();
        let full = fault::file_len(&path).unwrap();
        // Any cut strictly inside the second frame must scan as one
        // clean frame plus a torn tail ending at `clean`.  Descending so
        // each `set_len` shrinks (growing would pad with zero bytes).
        for cut in (clean + 1..full).rev() {
            fault::truncate_at(&path, cut).unwrap();
            let scan = scan_segment(&path, SegmentId::Store).unwrap();
            assert!(scan.torn, "cut {cut}");
            assert_eq!(scan.frames.len(), 1, "cut {cut}");
            assert_eq!(scan.clean_len, clean, "cut {cut}");
        }
        // Cutting exactly at the frame boundary is a clean log.
        fault::truncate_at(&path, clean).unwrap();
        let scan = scan_segment(&path, SegmentId::Store).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.frames.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_bit_flip_is_corruption_not_panic() {
        let dir = temp_dir("flip");
        let path = dir.join("seg");
        let mut w = SegmentWriter::create(&path, SegmentId::Shard(3)).unwrap();
        w.append(b"\x07abcdefgh").unwrap();
        w.append(b"\x07tail").unwrap();
        w.sync().unwrap();
        // Flip a payload bit of the FIRST frame (mid-log): corruption.
        let payload_off = SEG_HEADER_LEN + FRAME_HEADER_LEN + 2;
        fault::flip_bit(&path, payload_off, 0).unwrap();
        let err = scan_segment(&path, SegmentId::Shard(3)).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Corruption { segment: SegmentId::Shard(3), .. }
            ),
            "{err:?}"
        );
        // Flip it back; flip a bit in the first frame's LENGTH field:
        // still corruption (the header CRC guards the length).
        fault::flip_bit(&path, payload_off, 0).unwrap();
        fault::flip_bit(&path, SEG_HEADER_LEN, 1).unwrap();
        let err = scan_segment(&path, SegmentId::Shard(3)).unwrap_err();
        assert!(matches!(err, StoreError::Corruption { .. }), "{err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let dir = temp_dir("version");
        let path = dir.join("seg");
        SegmentWriter::create(&path, SegmentId::Store).unwrap();
        // Bump the on-disk version byte.
        fault::flip_bit(&path, 4, 1).unwrap();
        let err = scan_segment(&path, SegmentId::Store).unwrap_err();
        assert_eq!(
            err,
            StoreError::VersionMismatch { found: FORMAT_VERSION ^ 2, supported: FORMAT_VERSION }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn headerless_segment_is_truncated_error() {
        let dir = temp_dir("short");
        let path = dir.join("seg");
        fs::write(&path, b"CGW").unwrap();
        let err = scan_segment(&path, SegmentId::Base).unwrap_err();
        assert_eq!(
            err,
            StoreError::Truncated { segment: SegmentId::Base, len: 3 }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The failpoint writer reproduces the three fault shapes on an
    /// in-memory sink: dropped tails scan torn, flipped bits scan
    /// corrupt.
    #[test]
    fn faulty_file_drops_truncates_and_flips() {
        let frame = |payload: &[u8]| {
            let len = (payload.len() as u32).to_le_bytes();
            let mut f = Vec::new();
            f.extend_from_slice(&len);
            f.extend_from_slice(&crc32(&len).to_le_bytes());
            f.extend_from_slice(&crc32(payload).to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let header = {
            let mut h = SEG_MAGIC.to_vec();
            h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            h
        };
        let write_through = |plan: FaultPlan| {
            let mut w = FaultyFile::new(Vec::new(), plan);
            w.write_all(&header).unwrap();
            w.write_all(&frame(b"\x04one")).unwrap();
            w.write_all(&frame(b"\x04two")).unwrap();
            (w.tripped(), w.into_inner())
        };
        let dir = temp_dir("faulty");
        let path = dir.join("seg");
        // Drop from the middle of frame two: torn tail.
        let cut = (header.len() + frame(b"\x04one").len() + 5) as u64;
        let (tripped, bytes) = write_through(FaultPlan::DropFrom { at: cut });
        assert!(tripped);
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path, SegmentId::Store).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.frames.len(), 1);
        // Flip a bit inside frame one's payload: corruption.
        let at = (header.len() + FRAME_HEADER_LEN as usize + 1) as u64;
        let (tripped, bytes) = write_through(FaultPlan::FlipBitAt { at, bit: 3 });
        assert!(tripped);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            scan_segment(&path, SegmentId::Store),
            Err(StoreError::Corruption { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
