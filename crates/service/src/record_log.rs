//! The checksummed, append-only record log under both files of a cache
//! directory: the result store's `results.log` ([`crate::store`]) and
//! the named-graph delta log `graphs.log` ([`crate::graphs`]).
//!
//! A log is told apart from the other only by its [`LogFormat`]: the
//! file name, the 8-byte magic, the checksum's domain tag and the
//! fault-point prefix. Payloads are opaque here; each owner encodes and
//! validates its own.
//!
//! # On-disk format
//!
//! ```text
//! file     := magic record*
//! magic    := 8 bytes, one per log ("DSASTOR1", "DSAGRPH1")
//! record   := len payload checksum
//! len      := u32 BE, length of payload (at most MAX_PAYLOAD)
//! checksum := u64 BE FNV-1a over tag ‖ payload, where the tag is one
//!             per log ("dsa-store-record-v1", "dsa-graph-record-v1")
//! ```
//!
//! # Corruption recovery
//!
//! The log is append-only, so damage concentrates at the tail (a crash
//! mid-append) but the reader assumes nothing: on open it streams the
//! records (peak memory is one record, not the file) and
//!
//! * a record whose checksum is wrong, or whose payload the owner
//!   rejects, is **skipped** (its framing still locates the next
//!   record);
//! * a tail too short to contain the record its length prefix claims —
//!   or a length prefix that is itself garbage — ends the walk and the
//!   file is **truncated** back to the last well-formed boundary, so
//!   future appends land on a clean frame;
//! * a missing or foreign magic header drops the whole file and starts
//!   it afresh.
//!
//! Every dropped record is counted ([`RecordLog::dropped`]); recovery
//! never fails the open, only real IO errors do. A missing file is an
//! empty log: the file (and its magic) is created by the first append,
//! so a cache directory holds only the logs that were written to.
//!
//! # Fault injection
//!
//! Appends pass through three [`dsa_runtime::fault`] points named
//! after the log (`<name>` is `store` or `graphs`):
//!
//! * `<name>.append.err` — the append fails before touching disk
//!   (ENOSPC-shaped);
//! * `<name>.append.short` — half the frame reaches disk and stays
//!   there, and the append fails (crash-shaped: the next open's
//!   recovery walk has to cope with the ragged tail);
//! * `<name>.append.corrupt` — the append "succeeds" with one checksum
//!   byte flipped (silent-rot-shaped: point reads miss and the next
//!   open drops the record; wrong bytes are never served).

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dsa_graphs::canon::Fnv1a;
use dsa_runtime::FaultInjector;

use crate::wire;

/// Upper bound on one record payload. A record carries at most one
/// wire frame's worth of job or graph text plus (for the store) an
/// encoded run smaller than the instance it came from; twice the frame
/// cap leaves margin while keeping a corrupt length prefix from
/// directing an absurd read.
pub(crate) const MAX_PAYLOAD: usize = 2 * wire::MAX_FRAME;

/// Length of the magic header every log starts with.
const MAGIC_LEN: u64 = 8;

/// What tells one record log from another, on disk and in fault plans.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LogFormat {
    /// File name inside the cache directory.
    pub file: &'static str,
    /// The file's first 8 bytes.
    pub magic: &'static [u8; 8],
    /// Domain tag hashed ahead of every payload into its checksum.
    pub tag: &'static str,
    /// Prefix of the log's append fault points (`<faults>.append.*`).
    pub faults: &'static str,
}

/// Where one record lives: the offset of its length prefix plus its
/// payload length, so a point read is one seek and one read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RecordRef {
    offset: u64,
    len: u32,
}

impl RecordRef {
    /// Bytes the whole frame occupies: length prefix, payload,
    /// checksum.
    fn frame_len(self) -> u64 {
        4 + u64::from(self.len) + 8
    }
}

/// An open record log.
pub(crate) struct RecordLog {
    format: LogFormat,
    path: PathBuf,
    /// `None` until the log has a file with a valid header: created by
    /// the first append when the open found none.
    file: Option<File>,
    fault: Arc<FaultInjector>,
    /// End of the last well-formed record; appends land here.
    end: u64,
    /// Records dropped while opening.
    dropped: u64,
}

fn checksum(tag: &str, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(tag.as_bytes());
    h.write_bytes(payload);
    h.finish()
}

impl RecordLog {
    /// Opens `dir/<format.file>` (creating `dir`, but not the file),
    /// recovering as described in the module docs. Each intact record
    /// is handed to `visit` in append order, with its location for
    /// later point reads; `visit` returns false to reject a payload,
    /// which counts it dropped.
    pub fn open(
        dir: &Path,
        format: LogFormat,
        fault: Arc<FaultInjector>,
        mut visit: impl FnMut(RecordRef, &[u8]) -> bool,
    ) -> std::io::Result<RecordLog> {
        std::fs::create_dir_all(dir)?;
        let mut log = RecordLog {
            format,
            path: dir.join(format.file),
            file: None,
            fault,
            end: MAGIC_LEN,
            dropped: 0,
        };
        let file = match OpenOptions::new().read(true).write(true).open(&log.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(log),
            Err(e) => return Err(e),
        };
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            return Ok(log);
        }
        let mut reader = BufReader::new(&file);
        let mut magic = [0u8; 8];
        let magic_ok = file_len >= MAGIC_LEN && {
            reader.read_exact(&mut magic)?;
            &magic == format.magic
        };
        if !magic_ok {
            // Foreign or garbage header: nothing in the file can be
            // trusted. Count it as one dropped record and start afresh.
            drop(reader);
            log.dropped = 1;
            file.set_len(0)?;
            return Ok(log);
        }
        let mut pos = MAGIC_LEN;
        let mut payload = Vec::new();
        while pos < file_len {
            let remaining = file_len - pos;
            if remaining < 4 {
                log.dropped += 1; // trailing fragment of a length prefix
                break;
            }
            let mut len_bytes = [0u8; 4];
            reader.read_exact(&mut len_bytes)?;
            let len = u32::from_be_bytes(len_bytes);
            let at = RecordRef { offset: pos, len };
            let payload_len = usize::try_from(len).unwrap_or(usize::MAX);
            if payload_len > MAX_PAYLOAD || remaining < at.frame_len() {
                // A garbage length prefix and a truncated tail are
                // indistinguishable; either way the walk cannot find
                // another trustworthy boundary.
                log.dropped += 1;
                break;
            }
            payload.resize(payload_len, 0);
            reader.read_exact(&mut payload)?;
            let mut sum_bytes = [0u8; 8];
            reader.read_exact(&mut sum_bytes)?;
            pos += at.frame_len();
            log.end = pos;
            if checksum(format.tag, &payload) != u64::from_be_bytes(sum_bytes)
                || !visit(at, &payload)
            {
                // The framing held (the next record starts right
                // after), only this record's bytes are bad: skip it.
                log.dropped += 1;
            }
        }
        drop(reader);
        // Drop any unparseable tail so the next append starts on a
        // clean frame.
        if log.end < file_len {
            file.set_len(log.end)?;
        }
        log.file = Some(file);
        Ok(log)
    }

    /// Records dropped while opening.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// End of the last well-formed record.
    #[cfg(test)]
    pub fn end(&self) -> u64 {
        self.end
    }

    /// The fault point `<faults>.append.<what>`, as an error if it
    /// fires on this append.
    fn injected(&self, what: &str) -> Option<std::io::Error> {
        self.fault
            .io_error(&format!("{}.append.{what}", self.format.faults))
    }

    /// The backing file, created with its magic header on first use.
    fn file(&mut self) -> std::io::Result<&mut File> {
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&self.path)?;
                if file.metadata()?.len() < MAGIC_LEN {
                    file.write_all(self.format.magic)?;
                    file.flush()?;
                }
                file
            }
        };
        Ok(self.file.insert(file))
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
        let file = self.file()?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(bytes)?;
        file.flush()
    }

    /// Appends one record and returns where it landed. On error the
    /// record is not persisted: a real write failure truncates the log
    /// back to its previous end (best effort) so the tail stays
    /// well-formed, and the error is returned for the caller's degrade
    /// path. A payload over [`MAX_PAYLOAD`] could never be replayed,
    /// so it is refused before touching disk.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<RecordRef> {
        if let Some(e) = self.injected("err") {
            return Err(e);
        }
        let len = match u32::try_from(payload.len()) {
            Ok(len) if payload.len() <= MAX_PAYLOAD => len,
            _ => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "{}: record exceeds {MAX_PAYLOAD} bytes",
                        self.path.display()
                    ),
                ))
            }
        };
        let at = RecordRef {
            offset: self.end,
            len,
        };
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&checksum(self.format.tag, payload).to_be_bytes());
        if let Some(e) = self.injected("short") {
            // Half the frame stays on disk, untruncated, exactly as
            // after a real crash.
            let _ = self.write_at(at.offset, &frame[..frame.len() / 2]);
            return Err(e);
        }
        if self.injected("corrupt").is_some() {
            if let Some(last) = frame.last_mut() {
                *last ^= 0xff;
            }
        }
        match self.write_at(at.offset, &frame) {
            Ok(()) => {
                self.end += at.frame_len();
                Ok(at)
            }
            Err(e) => {
                if let Some(file) = &self.file {
                    let _ = file.set_len(self.end);
                }
                Err(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", self.path.display()),
                ))
            }
        }
    }

    /// Reads the payload of the record at `at`; `None` when the read
    /// fails or the checksum does not match.
    pub fn read(&self, at: RecordRef) -> Option<Vec<u8>> {
        let len = usize::try_from(at.len).ok()?;
        let mut file = self.file.as_ref()?;
        let mut buf = vec![0u8; len + 8];
        file.seek(SeekFrom::Start(at.offset + 4)).ok()?;
        file.read_exact(&mut buf).ok()?;
        let stored = u64::from_be_bytes(buf.get(len..)?.try_into().ok()?);
        buf.truncate(len);
        (checksum(self.format.tag, &buf) == stored).then_some(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64, written out here so the test pins the checksum
    /// independently of the hasher the log uses.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// A log file holding `payload` as its one record, byte by byte.
    fn one_record_file(magic: &[u8], tag: &str, payload: &[u8]) -> Vec<u8> {
        let mut file = magic.to_vec();
        file.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        file.extend_from_slice(payload);
        let mut summed = tag.as_bytes().to_vec();
        summed.extend_from_slice(payload);
        file.extend_from_slice(&fnv1a(&summed).to_be_bytes());
        file
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsa-record-log-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path, format: LogFormat) -> (RecordLog, Vec<(RecordRef, Vec<u8>)>) {
        let mut records = Vec::new();
        let log = RecordLog::open(dir, format, Arc::new(FaultInjector::disabled()), |at, p| {
            records.push((at, p.to_vec()));
            true
        })
        .unwrap();
        (log, records)
    }

    #[test]
    fn on_disk_format_is_pinned_for_both_logs() {
        let cases = [
            (
                crate::store::RESULTS_LOG,
                "results.log",
                &b"DSASTOR1"[..],
                "dsa-store-record-v1",
            ),
            (
                crate::graphs::GRAPHS_LOG,
                "graphs.log",
                &b"DSAGRPH1"[..],
                "dsa-graph-record-v1",
            ),
        ];
        for (format, file, magic, tag) in cases {
            let payload = b"one record".as_slice();
            let bytes = one_record_file(magic, tag, payload);
            // A hand-built file opens and replays its one record...
            let dir = test_dir(file);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(file), &bytes).unwrap();
            let (log, records) = open(&dir, format);
            assert_eq!(log.dropped(), 0, "{file}");
            assert_eq!(records.len(), 1, "{file}");
            assert_eq!(records[0].1, payload, "{file}");
            assert_eq!(log.read(records[0].0).as_deref(), Some(payload), "{file}");
            drop(log);
            // ...and appending the same record to an empty directory
            // writes exactly those bytes.
            let _ = std::fs::remove_dir_all(&dir);
            let (mut log, _) = open(&dir, format);
            assert!(!dir.join(file).exists(), "{file}: created lazily");
            log.append(payload).unwrap();
            assert_eq!(std::fs::read(dir.join(file)).unwrap(), bytes, "{file}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
