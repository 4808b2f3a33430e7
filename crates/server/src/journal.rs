//! Per-tenant durability: an append-only event journal.
//!
//! One file per tenant under the server's journal directory. The
//! first line is a versioned header recording everything needed to
//! rebuild the session shape (algorithm, backend, grid, shards,
//! telemetry); every line after it is one accepted event in the shared
//! [`dbp_proto`] line format — the same bytes a stream CLI trace uses.
//!
//! The durability contract: an event's journal line is written and
//! flushed **before** the placement response is sent, so any event a
//! client saw acknowledged survives a crash. Recovery replays the
//! journal through the identical session machinery, which makes the
//! resumed tenant bit-identical to one that never stopped — the
//! property the crash-recovery integration test pins down.

use dbp_proto::{fast, parse_event_line, Backend, Event, TickGrid, WIRE_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The session shape recorded in a journal header (everything a
/// restart needs besides the events themselves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Tenant key.
    pub tenant: String,
    /// Canonical algorithm name (as `Session::algorithm` reports it).
    pub algo: String,
    /// Engine backend.
    pub backend: Backend,
    /// Declared tick grid, if any.
    pub grid: Option<TickGrid>,
    /// Shard count (1 = single session).
    pub shards: u32,
    /// Whether per-session telemetry was on.
    pub telemetry: bool,
}

impl Serialize for JournalHeader {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("tenant".to_string(), Value::Str(self.tenant.clone())),
            ("algo".to_string(), Value::Str(self.algo.clone())),
            ("backend".to_string(), self.backend.to_value()),
            ("shards".to_string(), Value::Int(self.shards as i128)),
            ("telemetry".to_string(), Value::Bool(self.telemetry)),
        ];
        if let Some(grid) = &self.grid {
            fields.push(("grid".to_string(), grid.to_value()));
        }
        Value::Object(vec![
            ("v".to_string(), Value::Int(WIRE_VERSION)),
            ("journal".to_string(), Value::Object(fields)),
        ])
    }
}

impl Deserialize for JournalHeader {
    fn from_value(v: &Value) -> Result<JournalHeader, serde::Error> {
        let body = v
            .get("journal")
            .ok_or_else(|| serde::Error::missing_field("journal", "journal header"))?;
        let get = |name: &str| {
            body.get(name)
                .ok_or_else(|| serde::Error::missing_field(name, "journal header"))
        };
        Ok(JournalHeader {
            tenant: String::from_value(get("tenant")?)?,
            algo: String::from_value(get("algo")?)?,
            backend: Backend::from_value(get("backend")?)?,
            grid: match body.get("grid") {
                Some(Value::Null) | None => None,
                Some(g) => Some(TickGrid::from_value(g)?),
            },
            shards: u32::from_value(get("shards")?)?,
            telemetry: bool::from_value(get("telemetry")?)?,
        })
    }
}

/// An open per-tenant journal, appending accepted events.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
    // One frame's encoded lines, reused across appends.
    lines: Vec<u8>,
}

/// The journal file for `tenant` under `dir`. Tenant keys are
/// sanitized to a filename-safe alphabet so a hostile tenant name
/// can't traverse paths.
pub fn journal_path(dir: &Path, tenant: &str) -> PathBuf {
    let safe: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("{safe}.journal"))
}

impl Journal {
    /// Creates a fresh journal for a new tenant, writing its header.
    ///
    /// Distinct tenant keys can sanitize to the same file name (`a.b`
    /// and `a_b` both map to `a_b.journal`). When the file exists and
    /// its header names another tenant, the call fails with
    /// [`io::ErrorKind::AlreadyExists`] and leaves the file alone;
    /// a tenant re-creating its own journal truncates it.
    pub fn create(dir: &Path, header: &JournalHeader) -> io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = journal_path(dir, &header.tenant);
        if let Some(owner) = journal_owner(&path).filter(|owner| *owner != header.tenant) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "journal {} belongs to tenant `{owner}`, not `{}`",
                    path.display(),
                    header.tenant
                ),
            ));
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut journal = Journal {
            path,
            writer: BufWriter::new(file),
            lines: Vec::new(),
        };
        let line =
            serde_json::to_string(&header.to_value()).expect("journal headers always serialize");
        journal.writer.write_all(line.as_bytes())?;
        journal.writer.write_all(b"\n")?;
        journal.writer.flush()?;
        Ok(journal)
    }

    /// Reopens an existing journal for appending (after recovery).
    ///
    /// A torn last line — bytes after the final newline, left by a
    /// process killed mid-append — is cut off first, so the next
    /// append starts a line of its own instead of fusing onto the
    /// fragment. That line was never acknowledged: the ack follows the
    /// flush of the whole line.
    pub fn reopen(dir: &Path, tenant: &str) -> io::Result<Journal> {
        let path = journal_path(dir, tenant);
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let complete = complete_len(&mut file)?;
        if complete < file.metadata()?.len() {
            file.set_len(complete)?;
        }
        Ok(Journal {
            path,
            writer: BufWriter::new(file),
            lines: Vec::new(),
        })
    }

    /// Appends accepted events and flushes — must complete before the
    /// events are acknowledged on the wire. The lines are the bytes
    /// [`dbp_proto::event_to_line`] renders, each ending in `\n`.
    pub fn append(&mut self, events: &[Event]) -> io::Result<()> {
        self.lines.clear();
        for event in events {
            fast::write_event_request(&mut self.lines, event);
            self.lines.push(b'\n');
        }
        self.writer.write_all(&self.lines)?;
        self.writer.flush()
    }

    /// Removes the journal file (after a successful finish — the
    /// tenant's history is sealed in its outcome, nothing to recover).
    pub fn remove(self) -> io::Result<()> {
        let path = self.path.clone();
        drop(self);
        fs::remove_file(path)
    }
}

/// The tenant named by the header of the journal at `path`, if the
/// file exists and its first line parses as a header.
fn journal_owner(path: &Path) -> Option<String> {
    let mut line = String::new();
    BufReader::new(File::open(path).ok()?)
        .read_line(&mut line)
        .ok()?;
    let value = serde_json::parse(line.trim_end()).ok()?;
    JournalHeader::from_value(&value).ok().map(|h| h.tenant)
}

/// A parsed journal: the header plus every event it recorded.
#[derive(Debug)]
pub struct RecoveredJournal {
    /// Session shape to rebuild.
    pub header: JournalHeader,
    /// Events in acceptance order.
    pub events: Vec<Event>,
}

/// Length of `file` up to and including its last newline (0 when it
/// has none), found by reading backwards from the end.
fn complete_len(file: &mut File) -> io::Result<u64> {
    let mut end = file.metadata()?.len();
    let mut block = [0u8; 4096];
    while end > 0 {
        let start = end.saturating_sub(block.len() as u64);
        let chunk = &mut block[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

/// Reads one journal file back.
///
/// Every complete (newline-terminated) line must parse. A torn final
/// line without its newline was never acknowledged and is dropped;
/// [`Journal::reopen`] truncates it before appending.
pub fn read_journal(path: &Path) -> io::Result<RecoveredJournal> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    let header_line = complete_line(&mut reader, &mut buf)?
        .ok_or_else(|| bad(format!("{}: empty journal", path.display())))?;
    let header_value = serde_json::parse(header_line)
        .map_err(|e| bad(format!("{}: bad journal header: {e}", path.display())))?;
    let header = JournalHeader::from_value(&header_value)
        .map_err(|e| bad(format!("{}: bad journal header: {e}", path.display())))?;
    let mut events = Vec::new();
    while let Some(line) = complete_line(&mut reader, &mut buf)? {
        match parse_event_line(line) {
            Some(Ok(event)) => events.push(event),
            Some(Err(e)) => return Err(bad(format!("{}: bad journal line: {e}", path.display()))),
            None => {}
        }
    }
    Ok(RecoveredJournal { header, events })
}

// The next line without its newline; `None` at the end of the file and
// at a final line that has no newline.
fn complete_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<&'a str>> {
    buf.clear();
    reader.read_until(b'\n', buf)?;
    if buf.pop() != Some(b'\n') {
        return Ok(None);
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Every journal found under `dir`, in deterministic (path-sorted)
/// order. Missing directory means no tenants to recover.
pub fn scan_journals(dir: &Path) -> io::Result<Vec<RecoveredJournal>> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "journal"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    paths.sort();
    paths.iter().map(|p| read_journal(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::ItemId;
    use dbp_numeric::rat;

    fn header() -> JournalHeader {
        JournalHeader {
            tenant: "acme".into(),
            algo: "FirstFit".into(),
            backend: Backend::Auto,
            grid: Some(TickGrid::new(1, 64)),
            shards: 2,
            telemetry: true,
        }
    }

    #[test]
    fn journal_round_trips_header_and_events() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let events = vec![
            Event::Arrive {
                id: ItemId(0),
                size: rat(1, 2),
                time: rat(0, 1),
            },
            Event::Depart {
                id: ItemId(0),
                time: rat(3, 1),
            },
        ];
        let mut journal = Journal::create(&dir, &header()).unwrap();
        journal.append(&events[..1]).unwrap();
        // Reopen mid-life, as recovery does, and keep appending.
        drop(journal);
        let mut journal = Journal::reopen(&dir, "acme").unwrap();
        journal.append(&events[1..]).unwrap();

        let recovered = scan_journals(&dir).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].header, header());
        assert_eq!(recovered[0].events, events);

        journal.remove().unwrap();
        assert!(scan_journals(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    fn events(n: u32) -> Vec<Event> {
        (0..n)
            .map(|i| match i % 3 {
                2 => Event::Depart {
                    id: ItemId(i - 2),
                    time: rat(i as i128, 7),
                },
                _ => Event::Arrive {
                    id: ItemId(i),
                    size: rat(1 + i as i128 % 5, 8),
                    time: rat(i as i128, 7),
                },
            })
            .collect()
    }

    #[test]
    fn appended_bytes_are_the_event_lines() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-bytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let events = events(40);
        let mut journal = Journal::create(&dir, &header()).unwrap();
        let header_bytes = fs::read(journal_path(&dir, "acme")).unwrap();
        for frame in [&events[..1], &events[1..25], &events[25..25], &events[25..]] {
            journal.append(frame).unwrap();
        }
        let mut expected = header_bytes;
        for event in &events {
            expected.extend_from_slice(dbp_proto::event_to_line(event).as_bytes());
            expected.push(b'\n');
        }
        assert_eq!(fs::read(journal_path(&dir, "acme")).unwrap(), expected);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_before_appending() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let events = events(6);
        Journal::create(&dir, &header())
            .unwrap()
            .append(&events[..4])
            .unwrap();
        let path = journal_path(&dir, "acme");
        let whole = fs::read(&path).unwrap();
        let line = dbp_proto::event_to_line(&events[3]).len() + 1;
        for cut in [1, line / 2, line - 1] {
            // Keep `cut` bytes of the last line: three complete events
            // and a fragment without its newline.
            fs::write(&path, &whole[..whole.len() - line + cut]).unwrap();
            assert_eq!(read_journal(&path).unwrap().events, &events[..3]);

            let mut journal = Journal::reopen(&dir, "acme").unwrap();
            assert_eq!(
                fs::read(&path).unwrap(),
                &whole[..whole.len() - line],
                "reopen cuts the fragment"
            );
            journal.append(&events[3..]).unwrap();
            let recovered = read_journal(&path).unwrap();
            assert_eq!(
                (recovered.header, recovered.events),
                (header(), events.clone())
            );
            fs::write(&path, &whole).unwrap();
        }

        // A bad line that does end in a newline is still an error.
        let mut damaged = whole[..whole.len() - line].to_vec();
        damaged.extend_from_slice(b"{\"v\":1,\"arrive\":\n");
        fs::write(&path, &damaged).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_another_tenants_file_but_resets_its_own() {
        let dir = std::env::temp_dir().join(format!("dbp-journal-owner-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let owner = JournalHeader {
            tenant: "a.b".into(),
            ..header()
        };
        let event = Event::Depart {
            id: ItemId(0),
            time: rat(1, 1),
        };
        Journal::create(&dir, &owner)
            .unwrap()
            .append(&[event])
            .unwrap();

        let intruder = JournalHeader {
            tenant: "a_b".into(),
            ..header()
        };
        let err = Journal::create(&dir, &intruder).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists, "{err}");
        let kept = read_journal(&journal_path(&dir, "a.b")).unwrap();
        assert_eq!((kept.header, kept.events), (owner.clone(), vec![event]));

        // The owner itself may start over.
        Journal::create(&dir, &owner).unwrap();
        assert!(read_journal(&journal_path(&dir, "a.b"))
            .unwrap()
            .events
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_tenant_names_stay_in_the_directory() {
        let dir = Path::new("/tmp/journals");
        let path = journal_path(dir, "../../etc/passwd");
        assert!(path.starts_with(dir));
        assert_eq!(path.file_name().unwrap(), "______etc_passwd.journal");
    }

    #[test]
    fn missing_directory_scans_empty() {
        let dir = Path::new("/tmp/definitely-not-a-dbp-journal-dir-12345");
        assert!(scan_journals(dir).unwrap().is_empty());
    }
}
