//! Durable on-disk snapshots: the binary file format, crash-safe writes and
//! corruption-detecting reads for [`ServeSnapshot`] artifacts.
//!
//! ## File format
//!
//! One little-endian, sectioned layout in which every byte is covered by a
//! length check and a CRC-32 ([`crc32`]) and nothing may follow the last
//! section. A flipped bit, a torn write or a truncated tail therefore fails
//! the read with a typed [`ServeError::Corrupt`] naming what broke (`header`,
//! a section such as `params/<name>`, or `trailer`) — never a panic, never a
//! silently-wrong model. Where the CPU has carry-less multiply, checking
//! every byte of a ~0.7 MB file costs tens of microseconds.
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `MVISNAP\0` |
//! | 4 | file format version (`1`) |
//! | 8 | header body length `h` |
//! | `h` | header body (below) |
//! | 4 | CRC-32 of all the bytes above |
//! | … | one section per weight tensor, then five cache sections if present |
//!
//! The header body holds the tenant id (empty unless a
//! [`crate::ModelRegistry`] spilled the file), the model config and the
//! dimensions (each as its serde JSON text), the trained and live lengths,
//! the window width, the retained start, the retention window, the trained
//! std-dev, the number of weight sections and, when the warm cache follows,
//! its dataset name. Integers are `u64`, strings a `u64` byte length plus
//! UTF-8, optional values a `0`/`1` flag byte plus the value.
//!
//! A section is its name (`params/<name>`, then `cache.values`,
//! `cache.available`, `cache.imputed`, `cache.fresh`, `cache.watermark`),
//! its shape (`u64` rank, then one `u64` per axis), its payload length, the
//! payload (f64s and watermarks as little-endian words, masks and freshness
//! bits packed LSB-first) and a CRC-32 of the section's preceding bytes.
//! Payloads decode straight into tensor storage, then pass the same
//! validation as the JSON encoding.
//!
//! Writes are atomic (temp file, sync, `rename` over the real name, then a
//! sync of the directory), and
//! [`crate::ImputationEngine::restore_with_fallback`] walks snapshot
//! generations newest-first, serving the first that loads clean.

use crate::engine::ServeError;
use crate::snapshot::{bit_mask, bit_rows, f64_tensor, put_bits, put_f64s};
use crate::snapshot::{CacheSnapshot, ServeSnapshot};
use mvi_autograd::params::StoreSnapshot;
use std::fs;
use std::io::Write;
use std::path::Path;

/// First bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"MVISNAP\0";

/// Version of the file layout written by [`ServeSnapshot::to_path`].
const FORMAT_VERSION: u32 = 1;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`: the digest of
/// every snapshot section (file and JSON alike) and of the network frame
/// codec, exposed so external tooling (and the fault-injection suite) can
/// produce or verify digests. It is [`mvi_kernels::crc32::crc32`], which
/// runs a carry-less-multiply fold on x86-64 hosts with `pclmulqdq` and a
/// slice-by-8 table loop elsewhere; both give the same digest.
pub fn crc32(bytes: &[u8]) -> u32 {
    mvi_kernels::crc32::crc32(bytes)
}

fn corrupt(section: &str, detail: String) -> ServeError {
    ServeError::Corrupt { section: section.to_string(), detail }
}

fn check_crc(covered: &[u8], recorded: u32) -> Result<(), String> {
    let actual = crc32(covered);
    if actual == recorded {
        Ok(())
    } else {
        Err(format!("crc32 {actual:08x} does not match recorded {recorded:08x}"))
    }
}

/// Little-endian encoder for the header body and the sections.
#[derive(Default)]
struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn put(&mut self, bytes: impl AsRef<[u8]>) {
        self.out.extend_from_slice(bytes.as_ref());
    }

    fn len(&mut self, v: usize) {
        self.put((v as u64).to_le_bytes());
    }

    fn flag(&mut self, v: bool) {
        self.put([u8::from(v)]);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.put(s);
    }

    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.flag(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    /// Appends the CRC-32 of everything written since `start`.
    fn seal(&mut self, start: usize) {
        let crc = crc32(self.out.get(start..).unwrap_or_default());
        self.put(crc.to_le_bytes());
    }

    /// Appends one sealed section whose payload `fill` writes (`len` bytes).
    fn section(
        &mut self,
        name: &str,
        shape: &[usize],
        len: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.out.len();
        self.str(name);
        self.len(shape.len());
        shape.iter().for_each(|&d| self.len(d));
        self.len(len);
        fill(&mut self.out);
        self.seal(start);
    }
}

/// Little-endian decoder over untrusted bytes: every read is bounds-checked
/// and fails with a description instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let bytes = end.and_then(|end| self.buf.get(self.pos..end)).ok_or_else(|| {
            format!("needs {n} bytes at offset {} but {} remain", self.pos, self.remaining())
        })?;
        self.pos += n;
        Ok(bytes)
    }

    fn le<const N: usize>(&mut self) -> Result<[u8; N], String> {
        self.take(N)?.try_into().map_err(|_| format!("short read of {N} bytes"))
    }

    fn len(&mut self) -> Result<usize, String> {
        let v = u64::from_le_bytes(self.le()?);
        usize::try_from(v).map_err(|_| format!("{v} does not fit a usize"))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.le()?))
    }

    fn flag(&mut self) -> Result<bool, String> {
        match self.le()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(format!("flag byte {b} is neither 0 nor 1")),
        }
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| "string is not UTF-8".to_string())
    }

    fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.flag()? {
            get(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The bytes read since offset `start` — what a CRC covers.
    fn since(&self, start: usize) -> &'a [u8] {
        self.buf.get(start..self.pos).unwrap_or_default()
    }
}

/// Encodes `snap` as a snapshot file whose header records `tenant`.
fn encode(snap: &ServeSnapshot, tenant: &str) -> Result<Vec<u8>, ServeError> {
    let json = |e| ServeError::Snapshot(format!("cannot serialize the snapshot header: {e:?}"));
    let mut head = Writer::default();
    head.str(tenant);
    head.str(&serde_json::to_string(&snap.config).map_err(json)?);
    head.str(&serde_json::to_string(&snap.dims).map_err(json)?);
    for v in [snap.t_len, snap.live_t_len, snap.window, snap.retained_start] {
        head.len(v);
    }
    head.opt(snap.retention, Writer::len);
    head.opt(snap.shared_std, |w, v| w.put(v.to_le_bytes()));
    head.len(snap.params.params.len());
    head.opt(snap.cache.as_ref().map(|c| c.name.as_str()), Writer::str);

    let weights: usize = snap.params.params.iter().map(|(_, t)| 8 * t.len()).sum();
    let cache = snap.cache.as_ref().map_or(0, |c| 17 * c.values.len());
    let mut w = Writer { out: Vec::with_capacity(head.out.len() + weights + cache + 4096) };
    w.put(MAGIC);
    w.put(FORMAT_VERSION.to_le_bytes());
    w.len(head.out.len());
    w.put(&head.out);
    w.seal(0);
    for (name, t) in &snap.params.params {
        w.section(&format!("params/{name}"), t.shape(), 8 * t.len(), |o| put_f64s(o, t.data()));
    }
    if let Some(c) = &snap.cache {
        let (values, available, imputed) = (&c.values, &c.available, &c.imputed);
        w.section("cache.values", values.shape(), 8 * values.len(), |o| put_f64s(o, values.data()));
        w.section("cache.available", available.shape(), available.len().div_ceil(8), |o| {
            put_bits(o, available.data())
        });
        w.section("cache.imputed", imputed.shape(), 8 * imputed.len(), |o| {
            put_f64s(o, imputed.data())
        });
        let bits: usize = c.fresh.iter().map(Vec::len).sum();
        let shape = [c.fresh.len(), c.fresh.first().map_or(0, Vec::len)];
        w.section("cache.fresh", &shape, bits.div_ceil(8), |o| {
            put_bits(o, c.fresh.iter().flatten())
        });
        w.section("cache.watermark", &[c.watermark.len()], 8 * c.watermark.len(), |o| {
            c.watermark.iter().for_each(|&wm| o.extend_from_slice(&(wm as u64).to_le_bytes()))
        });
    }
    Ok(w.out)
}

/// The decoded header: the snapshot's scalar fields (weights and cache
/// still empty) plus what the sections that follow must hold.
struct Header {
    tenant: String,
    head: ServeSnapshot,
    n_params: usize,
    cache_name: Option<String>,
}

fn read_header(r: &mut Reader<'_>) -> Result<Header, ServeError> {
    let bad = |detail: String| corrupt("header", detail);
    if r.take(MAGIC.len()).map_err(bad)? != MAGIC {
        return Err(bad("not a snapshot file (bad magic)".into()));
    }
    let version = u32::from_le_bytes(r.le().map_err(bad)?);
    let len = r.len().map_err(bad)?;
    let body = r.take(len).map_err(bad)?;
    let covered = r.since(0);
    check_crc(covered, u32::from_le_bytes(r.le().map_err(bad)?)).map_err(bad)?;
    if version != FORMAT_VERSION {
        return Err(ServeError::Snapshot(format!(
            "unsupported snapshot file version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let mut body = Reader::new(body);
    let header = header_fields(&mut body).map_err(bad)?;
    if body.remaining() != 0 {
        return Err(bad(format!("{} unread bytes after the header fields", body.remaining())));
    }
    Ok(header)
}

fn header_fields(r: &mut Reader<'_>) -> Result<Header, String> {
    let tenant = r.str()?.to_string();
    let config = serde_json::from_str(r.str()?).map_err(|e| format!("config: {e:?}"))?;
    let dims = serde_json::from_str(r.str()?).map_err(|e| format!("dims: {e:?}"))?;
    let head = ServeSnapshot {
        config,
        dims,
        t_len: r.len()?,
        live_t_len: r.len()?,
        window: r.len()?,
        retained_start: r.len()?,
        retention: r.opt(Reader::len)?,
        shared_std: r.opt(Reader::f64)?,
        params: StoreSnapshot { params: Vec::new() },
        cache: None,
    };
    let n_params = r.len()?;
    let cache_name = r.opt(|r| r.str().map(str::to_string))?;
    Ok(Header { tenant, head, n_params, cache_name })
}

/// One CRC-verified section.
struct Section<'a> {
    name: &'a str,
    shape: Vec<usize>,
    payload: &'a [u8],
}

/// Reads one section and verifies its CRC. Errors name the section, or
/// `fallback` while its name is unreadable.
fn read_section<'a>(r: &mut Reader<'a>, fallback: &str) -> Result<Section<'a>, ServeError> {
    let start = r.pos;
    let name = r.str().map_err(|d| corrupt(fallback, d))?;
    let rest = |r: &mut Reader<'a>| -> Result<(Vec<usize>, &'a [u8]), String> {
        let shape = (0..r.len()?).map(|_| r.len()).collect::<Result<Vec<_>, _>>()?;
        let len = r.len()?;
        let payload = r.take(len)?;
        let covered = r.since(start);
        check_crc(covered, u32::from_le_bytes(r.le()?))?;
        Ok((shape, payload))
    };
    let (shape, payload) = rest(r).map_err(|d| corrupt(name, d))?;
    Ok(Section { name, shape, payload })
}

/// Reads the next section, which must be the cache section `name`.
fn cache_section<'a>(r: &mut Reader<'a>, name: &str) -> Result<Section<'a>, ServeError> {
    let section = read_section(r, name)?;
    if section.name != name {
        return Err(corrupt(name, format!("found section `{}` in its place", section.name)));
    }
    Ok(section)
}

/// Decodes a snapshot file: its snapshot, and the tenant id its header
/// records (empty when it was written outside a registry).
fn decode(bytes: &[u8]) -> Result<(ServeSnapshot, String), ServeError> {
    let mut r = Reader::new(bytes);
    let Header { tenant, head: mut snap, n_params, cache_name } = read_header(&mut r)?;
    for i in 0..n_params {
        let Section { name, shape, payload } = read_section(&mut r, &format!("params[{i}]"))?;
        let Some(param) = name.strip_prefix("params/") else {
            return Err(corrupt(name, format!("weight section {i} is not `params/…`")));
        };
        let tensor = f64_tensor(payload, shape, &format!("parameter `{param}`"))?;
        snap.params.params.push((param.to_string(), tensor));
    }
    if let Some(name) = cache_name {
        let values = cache_section(&mut r, "cache.values")?;
        let available = cache_section(&mut r, "cache.available")?;
        let imputed = cache_section(&mut r, "cache.imputed")?;
        let fresh = cache_section(&mut r, "cache.fresh")?;
        let marks = cache_section(&mut r, "cache.watermark")?;
        let (words, rest) = marks.payload.as_chunks::<8>();
        let watermark = words
            .iter()
            .map(|w| usize::try_from(u64::from_le_bytes(*w)).ok())
            .collect::<Option<Vec<_>>>()
            .filter(|_| rest.is_empty() && marks.shape == [words.len()])
            .ok_or_else(|| {
                let detail =
                    format!("{} bytes do not hold shape {:?}", marks.payload.len(), marks.shape);
                corrupt("cache.watermark", detail)
            })?;
        snap.cache = Some(CacheSnapshot {
            name,
            values: f64_tensor(values.payload, values.shape, "cache.values")?,
            available: bit_mask(available.payload, available.shape, "cache.available")?,
            imputed: f64_tensor(imputed.payload, imputed.shape, "cache.imputed")?,
            fresh: bit_rows(fresh.payload, &fresh.shape, "cache.fresh")?,
            watermark,
        });
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailer", format!("{} bytes after the last section", r.remaining())));
    }
    snap.validate()?;
    Ok((snap, tenant))
}

/// Writes `snap` to `path` with `tenant` in its header, atomically: the
/// bytes land in a temporary sibling file, are synced to disk, and only then
/// renamed over `path`. A failed attempt removes the temporary file.
pub(crate) fn write_file(
    snap: &ServeSnapshot,
    path: &Path,
    tenant: &str,
) -> Result<(), ServeError> {
    let io_err = |what: &str, e: std::io::Error| {
        ServeError::Snapshot(format!("{what} `{}`: {e}", path.display()))
    };
    let bytes = encode(snap, tenant)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let staged = fs::File::create(&tmp)
        .map_err(|e| io_err("cannot create temp file for", e))
        .and_then(|mut file| {
            file.write_all(&bytes).map_err(|e| io_err("cannot write", e))?;
            file.sync_all().map_err(|e| io_err("cannot sync", e))
        })
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| io_err("cannot rename into", e)));
    if let Err(e) = staged {
        // Best effort: the error that matters is the one being returned.
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // The rename survives a crash only once the directory entry is on disk.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("cannot sync the directory of", e))
}

/// Reads the snapshot file at `path`, returning the snapshot and the tenant
/// id its header records.
pub(crate) fn read_file(path: &Path) -> Result<(ServeSnapshot, String), ServeError> {
    let bytes = fs::read(path)
        .map_err(|e| ServeError::Snapshot(format!("cannot read `{}`: {e}", path.display())))?;
    decode(&bytes)
}

impl ServeSnapshot {
    /// Writes the snapshot to `path` in the binary file format —
    /// **atomically**: the bytes land in a temporary sibling file, are synced
    /// to disk, and only then renamed over `path`, so a crash mid-write can
    /// never leave a half-written snapshot under the real name.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] wrapping the underlying I/O failure.
    pub fn to_path(&self, path: &Path) -> Result<(), ServeError> {
        write_file(self, path, "")
    }

    /// Reads a snapshot file written by [`ServeSnapshot::to_path`], checking
    /// every length and every CRC.
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] naming the broken part (`header`, a section
    /// such as `params/<name>` or `cache.values`, or `trailer`);
    /// [`ServeError::Snapshot`] for I/O failures, an unsupported file
    /// version, and contents inconsistent with the snapshot geometry.
    pub fn from_path(path: &Path) -> Result<Self, ServeError> {
        read_file(path).map(|(snap, _)| snap)
    }
}

impl crate::ImputationEngine {
    /// Captures the warm serving state ([`crate::ImputationEngine::snapshot`])
    /// and persists it durably at `path` in the binary file format, via
    /// temp-file + atomic rename ([`ServeSnapshot::to_path`]).
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] wrapping the underlying I/O failure.
    pub fn snapshot_to_path(&self, path: &Path) -> Result<(), ServeError> {
        self.snapshot().to_path(path)
    }

    /// Warm-restarts an engine from a durable snapshot file: reads and
    /// integrity-checks `path` ([`ServeSnapshot::from_path`]), then restores
    /// as [`crate::ImputationEngine::from_snapshot`], moving the decoded
    /// tensors into the engine.
    ///
    /// # Errors
    /// Every corruption is a typed error naming what broke — see
    /// [`ServeSnapshot::from_path`] — plus the restore errors of
    /// [`crate::ImputationEngine::from_snapshot`].
    pub fn from_snapshot_path(path: &Path) -> Result<Self, ServeError> {
        Self::from_owned_snapshot(ServeSnapshot::from_path(path)?)
    }

    /// Walks `paths` (order them newest-first) and warm-restarts from the
    /// first snapshot that loads clean, returning the engine together with
    /// the index of the path that served it — a corrupt newest generation
    /// degrades the restart to slightly-older state instead of no state.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] listing every candidate's failure when none
    /// of the paths yields a loadable snapshot (including an empty `paths`).
    pub fn restore_with_fallback<P: AsRef<Path>>(paths: &[P]) -> Result<(Self, usize), ServeError> {
        let mut failures = Vec::with_capacity(paths.len());
        for (i, path) in paths.iter().enumerate() {
            match Self::from_snapshot_path(path.as_ref()) {
                Ok(engine) => return Ok((engine, i)),
                Err(e) => failures.push(format!("`{}`: {e}", path.as_ref().display())),
            }
        }
        Err(ServeError::Snapshot(format!(
            "no loadable snapshot among {} candidate(s): [{}]",
            paths.len(),
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_fails_typed_on_every_short_read() {
        assert!(Reader::new(&[1, 0, 0]).le::<4>().is_err(), "3 bytes cannot hold a u32");
        assert!(Reader::new(&[2]).flag().is_err(), "a flag byte is 0 or 1");
        assert!(Reader::new(&[0xff; 8]).str().is_err(), "a string longer than the buffer");
        let mut w = Writer::default();
        w.str("tenant");
        w.opt(Some(7), Writer::len);
        let mut r = Reader::new(&w.out);
        assert_eq!(r.str().unwrap(), "tenant");
        assert_eq!(r.opt(Reader::len).unwrap(), Some(7));
        assert_eq!(r.remaining(), 0);
    }
}
