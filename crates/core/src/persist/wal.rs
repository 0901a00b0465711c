//! The ingestion write-ahead log.
//!
//! A WAL segment records the writer-path mutation stream — edge
//! batches, new events, occurrence appends — so a crash between
//! snapshots loses nothing that was acknowledged. The durability
//! contract is *log before publish*: a record is appended and fsync'd
//! before the corresponding context version becomes visible to
//! readers, so any version a client ever observed is recoverable.
//!
//! Segment layout (`wal-<base_version:016x>.tlog`):
//!
//! ```text
//! u8 × 8   magic "TESCWAL1"
//! u64      base version (the context version the segment starts from)
//! record*  each framed as:
//!            u32  payload length
//!            u32  CRC-32 of the payload
//!            payload:
//!              u64 seq  — the context version this record produces
//!              u8  op   — 1 AddEdges, 2 AddEvent, 3 AddOccurrences
//!              op-specific body (see [`WalRecord`])
//! ```
//!
//! A crash can tear the final record: the reader stops at the first
//! frame whose length field runs past EOF or whose CRC disagrees, and
//! reports the byte length of the clean prefix — a torn tail is an
//! expected condition, not an error.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use tesc_graph::NodeId;

use super::codec::{put_u32, put_u64, Cursor, DecodeError};
use super::crc::crc32;

/// Magic prefix of every WAL segment (8 bytes, version-suffixed).
pub const WAL_MAGIC: &[u8; 8] = b"TESCWAL1";

/// Byte length of a segment header (magic + base version).
pub const WAL_HEADER_LEN: usize = 16;

/// One logged writer-path mutation. `seq` is carried by the frame, not
/// the record: a record at sequence `s` transforms context version
/// `s − 1` into version `s`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// An `add_edges` batch, already normalized (`u < v`, sorted,
    /// deduplicated, all novel at append time).
    AddEdges {
        /// The normalized edge batch.
        edges: Vec<(NodeId, NodeId)>,
    },
    /// An `add_event` registration.
    AddEvent {
        /// Event name (unique within the store).
        name: String,
        /// Occurrence nodes as submitted (store sorts/dedups).
        nodes: Vec<NodeId>,
    },
    /// An `add_event_occurrences` append to an existing event.
    AddOccurrences {
        /// Dense id of the target event.
        event: u32,
        /// Occurrence nodes to merge in.
        nodes: Vec<NodeId>,
    },
}

const OP_ADD_EDGES: u8 = 1;
const OP_ADD_EVENT: u8 = 2;
const OP_ADD_OCCURRENCES: u8 = 3;

/// Encode one record frame (length + CRC + payload) for sequence `seq`.
pub fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    put_u64(&mut payload, seq);
    match record {
        WalRecord::AddEdges { edges } => {
            payload.push(OP_ADD_EDGES);
            put_u64(&mut payload, edges.len() as u64);
            for &(u, v) in edges {
                put_u32(&mut payload, u);
                put_u32(&mut payload, v);
            }
        }
        WalRecord::AddEvent { name, nodes } => {
            payload.push(OP_ADD_EVENT);
            put_u64(&mut payload, name.len() as u64);
            payload.extend_from_slice(name.as_bytes());
            put_u64(&mut payload, nodes.len() as u64);
            for &n in nodes {
                put_u32(&mut payload, n);
            }
        }
        WalRecord::AddOccurrences { event, nodes } => {
            payload.push(OP_ADD_OCCURRENCES);
            put_u32(&mut payload, *event);
            put_u64(&mut payload, nodes.len() as u64);
            for &n in nodes {
                put_u32(&mut payload, n);
            }
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Decode one record payload (the bytes after the length/CRC frame).
pub fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord), DecodeError> {
    let mut c = Cursor::new(payload);
    let seq = c.u64()?;
    let op = c.u8()?;
    let record = match op {
        OP_ADD_EDGES => {
            let n = c.len_prefix(8)?;
            let mut edges = Vec::with_capacity(n);
            for _ in 0..n {
                let u = c.u32()?;
                let v = c.u32()?;
                if u >= v {
                    return Err(DecodeError {
                        offset: c.pos(),
                        message: "edge endpoints out of order".into(),
                    });
                }
                edges.push((u, v));
            }
            WalRecord::AddEdges { edges }
        }
        OP_ADD_EVENT => {
            let name_len = c.len_prefix(1)?;
            let name = std::str::from_utf8(c.take(name_len)?)
                .map_err(|_| DecodeError {
                    offset: c.pos(),
                    message: "event name is not UTF-8".into(),
                })?
                .to_string();
            let n = c.len_prefix(4)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(c.u32()?);
            }
            WalRecord::AddEvent { name, nodes }
        }
        OP_ADD_OCCURRENCES => {
            let event = c.u32()?;
            let n = c.len_prefix(4)?;
            let mut nodes = Vec::with_capacity(n);
            for _ in 0..n {
                nodes.push(c.u32()?);
            }
            WalRecord::AddOccurrences { event, nodes }
        }
        other => {
            return Err(DecodeError {
                offset: c.pos(),
                message: format!("unknown WAL opcode {other}"),
            })
        }
    };
    if !c.is_empty() {
        return Err(DecodeError {
            offset: c.pos(),
            message: "trailing bytes in WAL record".into(),
        });
    }
    Ok((seq, record))
}

/// File name of the segment starting at `base_version`.
pub fn segment_file_name(base_version: u64) -> String {
    format!("wal-{base_version:016x}.tlog")
}

/// Parse a `wal-<hex>.tlog` file name back into its base version.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".tlog")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Context version the segment starts from.
    pub base_version: u64,
    /// Sequenced records of the clean prefix, in file order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset at which record `i` ends — so truncating the file
    /// to `ends[i]` keeps exactly records `0..=i`.
    pub ends: Vec<u64>,
    /// Byte length of the clean prefix (header + intact frames). Bytes
    /// past this point are a torn tail and can be truncated away.
    pub clean_len: u64,
    /// Whether bytes past the clean prefix were present (torn tail,
    /// CRC mismatch, or undecodable payload).
    pub torn: bool,
}

/// Scan a segment image. Fails only if the *header* is unusable; torn
/// or corrupt record tails stop the scan cleanly instead.
pub fn scan_segment(bytes: &[u8]) -> Result<SegmentScan, DecodeError> {
    if bytes.len() < WAL_HEADER_LEN {
        return Err(DecodeError {
            offset: bytes.len(),
            message: "segment shorter than its header".into(),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(DecodeError {
            offset: 0,
            message: "bad WAL magic".into(),
        });
    }
    let base_version = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = false;
    while pos < bytes.len() {
        let Some(frame_head) = bytes.get(pos..pos + 8) else {
            torn = true;
            break;
        };
        let len = u32::from_le_bytes(frame_head[..4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(frame_head[4..8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            torn = true;
            break;
        };
        if crc32(payload) != stored_crc {
            torn = true;
            break;
        }
        match decode_payload(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // CRC passed but the payload is malformed — treat it
                // like any other corrupt tail rather than trusting it.
                torn = true;
                break;
            }
        }
        pos += 8 + len;
        ends.push(pos as u64);
    }
    Ok(SegmentScan {
        base_version,
        records,
        ends,
        clean_len: pos as u64,
        torn,
    })
}

/// Append handle on the active WAL segment.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    fsync: bool,
    records: u64,
    bytes: u64,
    /// Set when a failed append could not be rolled back: the segment
    /// may still hold the rejected frame, so every later append fails
    /// without writing.
    failed: bool,
    /// Test failpoint: how many upcoming syncs fail.
    #[cfg(test)]
    pub(crate) fail_syncs: u32,
}

impl WalWriter {
    /// Create a fresh segment at `path` starting from `base_version`,
    /// truncating anything already there. The header is written and
    /// (if `fsync`) synced before returning.
    pub fn create(path: &Path, base_version: u64, fsync: bool) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        put_u64(&mut header, base_version);
        file.write_all(&header)?;
        if fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync,
            records: 0,
            bytes: WAL_HEADER_LEN as u64,
            failed: false,
            #[cfg(test)]
            fail_syncs: 0,
        })
    }

    /// Re-open an existing segment for appends after `clean_len` bytes
    /// (torn tail beyond it is truncated away), counting `records`
    /// already present.
    pub fn reopen(path: &Path, clean_len: u64, records: u64, fsync: bool) -> std::io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(clean_len)?;
        if fsync {
            file.sync_data()?;
        }
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            fsync,
            records,
            bytes: clean_len,
            failed: false,
            #[cfg(test)]
            fail_syncs: 0,
        })
    }

    /// Append one record and flush it to stable storage (when `fsync`
    /// is on). Returns only after the bytes are durable — callers
    /// publish the new version strictly after this returns.
    ///
    /// A failed append leaves no trace: the segment is truncated back
    /// to its last acknowledged frame (and synced), so recovery never
    /// replays a record its writer was told had failed. If that
    /// rollback fails too, the writer is marked failed and refuses
    /// every later append.
    pub fn append(&mut self, seq: u64, record: &WalRecord) -> std::io::Result<()> {
        if self.failed {
            return Err(std::io::Error::other(
                "WAL writer failed: an earlier rejected record could not be rolled back",
            ));
        }
        let frame = encode_record(seq, record);
        if let Err(e) = self.write_frame(&frame) {
            if self.roll_back().is_err() {
                self.failed = true;
            }
            return Err(e);
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::Start(self.bytes))?;
        self.file.write_all(frame)?;
        self.sync()
    }

    /// Truncate the segment back to its acknowledged length.
    fn roll_back(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.bytes)?;
        self.sync()
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if !self.fsync {
            return Ok(());
        }
        #[cfg(test)]
        if self.fail_syncs > 0 {
            self.fail_syncs -= 1;
            return Err(std::io::Error::other("injected sync failure"));
        }
        self.file.sync_data()
    }

    /// Records appended to this segment (including pre-existing ones
    /// counted at [`WalWriter::reopen`]).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current segment length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Path of the segment file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Has a failed append's rollback failed too? Such a writer
    /// refuses every later append.
    pub fn failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(u64, WalRecord)> {
        vec![
            (
                2,
                WalRecord::AddEdges {
                    edges: vec![(0, 1), (1, 4), (2, 3)],
                },
            ),
            (
                3,
                WalRecord::AddEvent {
                    name: "db".into(),
                    nodes: vec![4, 1, 1],
                },
            ),
            (
                4,
                WalRecord::AddOccurrences {
                    event: 0,
                    nodes: vec![2],
                },
            ),
        ]
    }

    fn sample_segment(base: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        put_u64(&mut bytes, base);
        for (seq, rec) in sample_records() {
            bytes.extend_from_slice(&encode_record(seq, &rec));
        }
        bytes
    }

    #[test]
    fn records_round_trip() {
        for (seq, rec) in sample_records() {
            let frame = encode_record(seq, &rec);
            let payload = &frame[8..];
            assert_eq!(
                crc32(payload),
                u32::from_le_bytes(frame[4..8].try_into().unwrap())
            );
            let (seq2, rec2) = decode_payload(payload).unwrap();
            assert_eq!(seq2, seq);
            assert_eq!(rec2, rec);
        }
    }

    #[test]
    fn scan_reads_a_clean_segment() {
        let bytes = sample_segment(1);
        let scan = scan_segment(&bytes).unwrap();
        assert_eq!(scan.base_version, 1);
        assert_eq!(scan.records, sample_records());
        assert_eq!(scan.clean_len, bytes.len() as u64);
        assert!(!scan.torn);
    }

    #[test]
    fn every_truncation_yields_a_clean_record_prefix() {
        let bytes = sample_segment(1);
        let full = sample_records();
        // Byte offsets at which each frame ends.
        let mut frame_ends = vec![WAL_HEADER_LEN];
        for (seq, rec) in &full {
            frame_ends.push(frame_ends.last().unwrap() + encode_record(*seq, rec).len());
        }
        for k in WAL_HEADER_LEN..bytes.len() {
            let scan = scan_segment(&bytes[..k]).unwrap();
            // Largest number of whole frames that fit in k bytes.
            let whole = frame_ends.iter().filter(|&&e| e <= k).count() - 1;
            assert_eq!(scan.records, full[..whole], "truncation at byte {k}");
            assert_eq!(scan.clean_len as usize, frame_ends[whole]);
            // Torn iff the cut falls inside a frame.
            assert_eq!(scan.torn, k != frame_ends[whole]);
        }
        // Below the header it is a hard error.
        assert!(scan_segment(&bytes[..WAL_HEADER_LEN - 1]).is_err());
    }

    #[test]
    fn bit_flips_never_corrupt_decoded_records() {
        let bytes = sample_segment(1);
        let full = sample_records();
        for k in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[k] ^= 0x40;
            match scan_segment(&flipped) {
                Ok(scan) => {
                    // Whatever prefix survives must be an exact prefix
                    // of the true record stream — never a mutation.
                    assert!(
                        scan.records == full[..scan.records.len()],
                        "flip at byte {k} altered a decoded record"
                    );
                    assert!(scan.torn || scan.records.len() == full.len());
                }
                Err(_) => assert!(k < WAL_HEADER_LEN, "only header flips may hard-fail"),
            }
        }
    }

    #[test]
    fn writer_appends_are_scannable() {
        let dir = std::env::temp_dir().join(format!(
            "tesc-wal-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(segment_file_name(5));
        let mut w = WalWriter::create(&path, 5, true).unwrap();
        for (seq, rec) in sample_records() {
            w.append(seq + 4, &rec).unwrap();
        }
        assert_eq!(w.records(), 3);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(w.bytes(), bytes.len() as u64);
        let scan = scan_segment(&bytes).unwrap();
        assert_eq!(scan.base_version, 5);
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn);

        // Reopen after a simulated torn tail: chop 3 bytes, reopen at
        // the clean prefix, append again.
        let mut chopped = bytes.clone();
        chopped.truncate(bytes.len() - 3);
        std::fs::write(&path, &chopped).unwrap();
        let scan = scan_segment(&chopped).unwrap();
        assert!(scan.torn);
        let mut w =
            WalWriter::reopen(&path, scan.clean_len, scan.records.len() as u64, true).unwrap();
        w.append(
            9,
            &WalRecord::AddEdges {
                edges: vec![(7, 9)],
            },
        )
        .unwrap();
        let scan = scan_segment(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn);
        assert_eq!(
            scan.records.last().unwrap(),
            &(
                9,
                WalRecord::AddEdges {
                    edges: vec![(7, 9)]
                }
            )
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(
            parse_segment_file_name(&segment_file_name(0x1234)),
            Some(0x1234)
        );
        assert_eq!(parse_segment_file_name("wal-zz.tlog"), None);
        assert_eq!(parse_segment_file_name("snapshot-0.tsnap"), None);
    }
}
