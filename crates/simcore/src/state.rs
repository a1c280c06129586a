//! Exact-integer state serialization and the on-disk armor shared by
//! every file the simulator writes.
//!
//! Checkpoints snapshot live simulator state — server queues, disk arms,
//! RNG streams, pending events — so a run can be forked or resumed
//! without replaying its prefix; result-cache entries store finished
//! reports. The non-negotiable requirement is that anything read back is
//! *bit-identical* to what was written, so this codec never round-trips
//! through decimal floats: every quantity is written as an integer
//! (`SimTime`/`Duration` as nanoseconds, `f64` via [`f64::to_bits`]), one
//! `key value` line per field.
//!
//! The body format is deliberately dumb: a flat sequence of lines
//! consumed in writing order by [`StateReader`]. Counts read from the
//! input never size an allocation ([`StateReader::counted`]), so a
//! hostile count is an error at the first missing item, not an abort.
//!
//! # Armor
//!
//! Every file (`.report` and `.load` cache entries, `.ckpt` checkpoints)
//! wraps its body in one armor, written by [`seal`] and verified by
//! [`open`]:
//!
//! ```text
//! <schema>
//! sum <FNV-1a 64 of everything below, 16 hex digits>
//! key <the full key material the body was computed from>
//! <body lines>
//! ```
//!
//! A schema mismatch, a checksum that is not exactly the canonical one,
//! or a key that differs from the caller's is a clean miss (a file is a
//! cache entry, never the only copy of anything). [`publish`] installs a
//! file atomically: temp file, then rename.
//!
//! # Example
//!
//! ```
//! use simcore::state::{open, seal, StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.field("cursor", 42u64);
//! w.f64_field("credit", 0.1 + 0.2); // bit-exact, not "0.30000000000000004"
//! w.list("lanes", [3u64, 1, 4]);
//! let file = seal("demo/v1", "run=1", &w.finish());
//!
//! let (key, body) = open("demo/v1", &file).unwrap();
//! assert_eq!(key, "run=1");
//! let mut r = StateReader::new(body);
//! assert_eq!(r.num::<u64>("cursor").unwrap(), 42);
//! assert_eq!(r.f64_field("credit").unwrap(), 0.1 + 0.2);
//! assert_eq!(r.nums::<u64>("lanes").unwrap(), vec![3, 1, 4]);
//! assert!(r.done());
//! assert!(open("demo/v1", &file.replace("42", "43")).is_none());
//! ```

use std::collections::HashMap;
use std::fmt::{self, Display, Write as _};
use std::io;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Error raised when state text does not match the expected shape.
///
/// Readers treat any `StateError` as "this file is unusable" — the
/// caller falls back to simulating from scratch, never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateError(String);

impl StateError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        StateError(msg.into())
    }
}

impl Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state decode error: {}", self.0)
    }
}

impl std::error::Error for StateError {}

/// Serializes state as a flat sequence of `key value` lines.
///
/// Field order is the schema: [`StateReader`] consumes lines in the same
/// order they were written. Keys are for human debuggability and as a
/// cheap corruption check (a reader verifies each key it consumes).
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: String,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes `key value` for any `Display` value (integers, mostly).
    pub fn field(&mut self, key: &str, value: impl Display) {
        debug_assert!(!key.contains([' ', '\n']), "key {key:?} must be atomic");
        let _ = writeln!(self.buf, "{key} {value}");
    }

    /// Writes a string field. The value must not contain newlines (tags
    /// and resource names in this repository never do).
    pub fn str_field(&mut self, key: &str, value: &str) {
        assert!(
            !value.contains('\n'),
            "string field {key:?} contains newline"
        );
        self.field(key, value);
    }

    /// Writes a bool as `key 0` or `key 1`.
    pub fn flag(&mut self, key: &str, value: bool) {
        self.field(key, u8::from(value));
    }

    /// Writes `key ns name`: nanoseconds first, so the name (the rest of
    /// the line) may contain spaces.
    pub fn named(&mut self, key: &str, ns: u64, name: &str) {
        debug_assert!(!key.contains([' ', '\n']), "key {key:?} must be atomic");
        assert!(!name.contains('\n'), "name {name:?} contains newline");
        let _ = writeln!(self.buf, "{key} {ns} {name}");
    }

    /// Writes an `f64` exactly, as its IEEE-754 bit pattern.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.field(key, value.to_bits());
    }

    /// Writes a whitespace-separated list on one line: `key v1 v2 ...`.
    /// An empty list writes just the key.
    pub fn list<T: Display>(&mut self, key: &str, values: impl IntoIterator<Item = T>) {
        debug_assert!(!key.contains([' ', '\n']), "key {key:?} must be atomic");
        let _ = write!(self.buf, "{key}");
        for v in values {
            let _ = write!(self.buf, " {v}");
        }
        self.buf.push('\n');
    }

    /// Consumes the writer, returning the serialized text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sequential reader over text produced by [`StateWriter`].
///
/// Each accessor consumes exactly one line and verifies its key; a key
/// mismatch, parse failure, or premature end of input yields a
/// [`StateError`].
#[derive(Debug)]
pub struct StateReader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over serialized state text.
    pub fn new(text: &'a str) -> Self {
        StateReader {
            lines: text.lines(),
        }
    }

    /// Consumes one line, verifying its key; returns the raw value text
    /// (empty for a bare key).
    pub fn field(&mut self, key: &str) -> Result<&'a str, StateError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| StateError(format!("missing field {key:?}")))?;
        match line.strip_prefix(key) {
            Some("") => Ok(""),
            Some(rest) if rest.starts_with(' ') => Ok(&rest[1..]),
            _ => Err(StateError(format!("expected field {key:?}, got {line:?}"))),
        }
    }

    /// Consumes one `key value` line and parses the value.
    pub fn num<T: FromStr>(&mut self, key: &str) -> Result<T, StateError> {
        let raw = self.field(key)?;
        raw.parse()
            .map_err(|_| StateError(format!("field {key:?} has unparsable value {raw:?}")))
    }

    /// Consumes an `f64` written by [`StateWriter::f64_field`].
    pub fn f64_field(&mut self, key: &str) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.num::<u64>(key)?))
    }

    /// Consumes a line written by [`StateWriter::flag`]; any value but
    /// `0` or `1` is an error.
    pub fn flag(&mut self, key: &str) -> Result<bool, StateError> {
        match self.field(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            raw => Err(StateError(format!(
                "field {key:?} needs 0 or 1, got {raw:?}"
            ))),
        }
    }

    /// Consumes a line written by [`StateWriter::named`].
    pub fn named(&mut self, key: &str) -> Result<(u64, &'a str), StateError> {
        let raw = self.field(key)?;
        let (ns, name) = raw
            .split_once(' ')
            .ok_or_else(|| StateError(format!("field {key:?} needs `<ns> <name>`, got {raw:?}")))?;
        let ns = ns
            .parse()
            .map_err(|_| StateError(format!("field {key:?} has unparsable nanoseconds {ns:?}")))?;
        Ok((ns, name))
    }

    /// Consumes a `key n` count line, then `n` items read by `item`. The
    /// count never sizes an allocation: the items grow the vector one by
    /// one, so a hostile count fails at the first missing line.
    pub fn counted<T>(
        &mut self,
        key: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, StateError>,
    ) -> Result<Vec<T>, StateError> {
        let n: u64 = self.num(key)?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Consumes a list written by [`StateWriter::list`].
    pub fn nums<T: FromStr>(&mut self, key: &str) -> Result<Vec<T>, StateError> {
        let raw = self.field(key)?;
        raw.split_ascii_whitespace()
            .map(|tok| {
                tok.parse()
                    .map_err(|_| StateError(format!("list {key:?} has unparsable item {tok:?}")))
            })
            .collect()
    }

    /// True when every line has been consumed.
    pub fn done(&mut self) -> bool {
        self.lines.clone().next().is_none()
    }

    /// Fails unless every line has been consumed (trailing-data check).
    pub fn expect_done(&mut self) -> Result<(), StateError> {
        match self.lines.clone().next() {
            None => Ok(()),
            Some(line) => Err(StateError(format!("trailing data: {line:?}"))),
        }
    }
}

/// FNV-1a 64-bit hash — small, dependency-free, stable across runs and
/// platforms. The armor checksum, the content address of cache entries,
/// and the run manifests' `config_hash`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps `body` in the armor (see the module docs): the `schema` line, a
/// checksum over the rest, and the `key` line.
pub fn seal(schema: &str, key: &str, body: &str) -> String {
    debug_assert!(!key.contains('\n'), "key must be one line");
    let payload = format!("key {key}\n{body}");
    let sum = fnv1a64(payload.as_bytes());
    format!("{schema}\nsum {sum:016x}\n{payload}")
}

/// Verifies text written by [`seal`] under `schema` and returns its key
/// and body. `None` unless the schema matches and the checksum line is
/// exactly the one [`seal`] would write for the rest of the text.
pub fn open<'a>(schema: &str, text: &'a str) -> Option<(&'a str, &'a str)> {
    let mut sections = text.splitn(3, '\n');
    if sections.next()? != schema {
        return None;
    }
    let sum_line = sections.next()?;
    let payload = sections.next()?;
    if sum_line != format!("sum {:016x}", fnv1a64(payload.as_bytes())) {
        return None; // truncated, bit-flipped, or hand-edited
    }
    let (key_line, body) = payload.split_once('\n')?;
    Some((key_line.strip_prefix("key ")?, body))
}

/// Writes `contents` to `path` atomically: a uniquely named temp file
/// next to it, then a rename, so concurrent writers of one path each
/// install a complete file and readers never see a partial one. Creates
/// the parent directory if needed.
pub fn publish(path: &Path, contents: &str) -> io::Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Interns a string, returning a `&'static str` with stable content.
///
/// Resource tags, span labels, and report names (task, architecture,
/// phase) are `&'static str` throughout the simulator (so hot-path
/// accounting can compare pointers); state read back from a checkpoint or
/// a cache entry must materialize equivalent statics. The interner leaks
/// one copy of each distinct string per process — files carry a small,
/// closed set of names, so the leak is bounded.
///
/// Interning the same content twice returns the same pointer, and interned
/// copies of compile-time literals compare equal by content everywhere the
/// simulator falls back from pointer identity to string comparison.
pub fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = table.lock().expect("intern table poisoned");
    if let Some(&interned) = map.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_fields_lists_and_floats() {
        let mut w = StateWriter::new();
        w.field("a", 7u64);
        w.str_field("name", "disk read");
        w.f64_field("x", -0.0);
        w.f64_field("y", f64::MAX);
        w.list("empty", std::iter::empty::<u64>());
        w.list("vals", [1u64, 2, 3]);
        w.flag("on", true);
        let text = w.finish();

        let mut r = StateReader::new(&text);
        assert_eq!(r.num::<u64>("a").unwrap(), 7);
        assert_eq!(r.field("name").unwrap(), "disk read");
        assert_eq!(r.f64_field("x").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_field("y").unwrap(), f64::MAX);
        assert_eq!(r.nums::<u64>("empty").unwrap(), Vec::<u64>::new());
        assert_eq!(r.nums::<u64>("vals").unwrap(), vec![1, 2, 3]);
        assert!(r.flag("on").unwrap());
        assert!(r.done());
        assert!(r.expect_done().is_ok());
        assert!(StateReader::new("on 2\n").flag("on").is_err());
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308] {
            let mut w = StateWriter::new();
            w.f64_field("v", v);
            let text = w.finish();
            let got = StateReader::new(&text).f64_field("v").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn key_mismatch_and_missing_fields_error() {
        let mut w = StateWriter::new();
        w.field("a", 1u64);
        let text = w.finish();

        let mut r = StateReader::new(&text);
        assert!(r.num::<u64>("b").is_err());

        let mut r = StateReader::new(&text);
        r.num::<u64>("a").unwrap();
        assert!(r.num::<u64>("a").is_err(), "input exhausted");
    }

    #[test]
    fn prefix_keys_do_not_alias() {
        // "ab 1" must not satisfy a request for key "a".
        let mut w = StateWriter::new();
        w.field("ab", 1u64);
        let text = w.finish();
        assert!(StateReader::new(&text).num::<u64>("a").is_err());
    }

    #[test]
    fn trailing_data_is_detected() {
        let mut w = StateWriter::new();
        w.field("a", 1u64);
        w.field("b", 2u64);
        let text = w.finish();
        let mut r = StateReader::new(&text);
        r.num::<u64>("a").unwrap();
        assert!(!r.done());
        assert!(r.expect_done().is_err());
    }

    #[test]
    fn garbage_values_error_instead_of_panicking() {
        let mut r = StateReader::new("a not-a-number\n");
        assert!(r.num::<u64>("a").is_err());
        let mut r = StateReader::new("vals 1 x 3\n");
        assert!(r.nums::<u64>("vals").is_err());
    }

    #[test]
    fn counted_reads_items_and_survives_hostile_counts() {
        let mut w = StateWriter::new();
        w.field("tags", 2u64);
        w.named("tag", 5, "disk read");
        w.named("tag", 7, "x");
        let text = w.finish();
        let mut r = StateReader::new(&text);
        let got = r.counted("tags", |r| r.named("tag")).unwrap();
        assert_eq!(got, vec![(5, "disk read"), (7, "x")]);
        assert!(r.done());

        // A count of u64::MAX fails at the first missing item instead of
        // reserving memory for it.
        let hostile = text.replace("tags 2", &format!("tags {}", u64::MAX));
        let mut r = StateReader::new(&hostile);
        assert!(r.counted("tags", |r| r.named("tag")).is_err());
        let mut r = StateReader::new("tag 5\n");
        assert!(r.named("tag").is_err(), "a name is required");
    }

    #[test]
    fn fnv_hash_is_stable() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn armor_round_trips_and_rejects_any_edit() {
        let file = seal("demo/v1", "a=1 | b=2", "x 1\ny 2\n");
        assert_eq!(
            file,
            format!(
                "demo/v1\nsum {:016x}\nkey a=1 | b=2\nx 1\ny 2\n",
                fnv1a64(b"key a=1 | b=2\nx 1\ny 2\n")
            )
        );
        assert_eq!(open("demo/v1", &file), Some(("a=1 | b=2", "x 1\ny 2\n")));
        assert_eq!(open("demo/v2", &file), None, "schema mismatch");
        for cut in 0..file.len() {
            assert_eq!(open("demo/v1", &file[..cut]), None, "truncated at {cut}");
        }
        for i in 0..file.len() {
            for bit in 0..8 {
                let mut bytes = file.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_eq!(open("demo/v1", text), None, "bit {bit} of byte {i}");
                }
            }
        }
        // Upper-case hex parses to the same checksum but is not what
        // `seal` writes: the bytes differ, so the file is rejected.
        let sum_line = file.lines().nth(1).unwrap();
        let upper = file.replacen(
            sum_line,
            &format!("sum {}", sum_line[4..].to_uppercase()),
            1,
        );
        if upper != file {
            assert_eq!(open("demo/v1", &upper), None);
        }
    }

    #[test]
    fn publish_replaces_files_atomically() {
        let dir = std::env::temp_dir().join(format!("simcore-publish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("entry.report");
        publish(&path, "first").unwrap();
        publish(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["entry.report"], "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn intern_is_stable_and_content_equal() {
        let a = intern("howsim-test-tag");
        let b = intern("howsim-test-tag");
        assert!(std::ptr::eq(a, b), "same content interns to same pointer");
        assert_eq!(a, "howsim-test-tag");
    }
}
