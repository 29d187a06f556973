//! Sharded on-disk corpus, the one on-disk corpus format: many apps per
//! file, streamed back one shard buffer at a time.
//!
//! At paper scale (146.8K apps) a file per app would mean 146.8K tiny files
//! and one open/read/close per app. The shard format packs N apps per file
//! so the streaming pipeline reads one file into one buffer and hands out
//! zero-copy container windows into it:
//!
//! ```text
//! <dir>/shards/shard-00000.wshard
//! <dir>/shards/shard-00001.wshard
//! ...
//! ```
//!
//! Each `.wshard` file is:
//!
//! ```text
//! +--------+---------+----------+--------------------------------------+
//! | "WSHD" | version | checksum | checksummed region:                  |
//! | 4 B    | u16 LE  | u32 LE   |   n_entries  uvarint                 |
//! |        |         |          |   payload_len uvarint                |
//! |        |         |          |   n_entries × entry metadata         |
//! |        |         |          |     (package, on_play, downloads,    |
//! |        |         |          |      category, last_update_day,      |
//! |        |         |          |      payload off, payload len)       |
//! |        |         |          |   payload: concatenated SAPK bytes   |
//! +--------+---------+----------+--------------------------------------+
//! ```
//!
//! using the same wire primitives as SAPK/SDEX (LEB128 varints, length-
//! prefixed UTF-8, Adler-32 over everything after the checksum field).
//! Offsets are relative to the payload start and 64-bit on the wire, so a
//! single shard may exceed 4 GiB. Writes are atomic (temp file + rename),
//! and [`write_sharded_corpus`] removes the shards an earlier, larger write
//! left behind, so the directory holds exactly the corpus just written.
//! [`read_shard_stamp`] reads just the 10-byte prefix so a resume manifest
//! can cheaply check that a shard is still the one it analyzed.

use crate::generator::GeneratedApp;
use crate::playstore::{AppMeta, PlayCategory};
use bytes::{Buf as _, Bytes};
use std::collections::HashSet;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use wla_apk::wire::{adler32, get_string, get_uvarint, put_string, put_uvarint};
use wla_apk::ApkError;

/// Leading magic bytes of a shard file.
pub const SHARD_MAGIC: [u8; 4] = *b"WSHD";
/// Current shard format version.
pub const SHARD_VERSION: u16 = 1;
/// Subdirectory of a corpus dir holding the shard files.
pub const SHARD_SUBDIR: &str = "shards";
/// Bytes before the checksummed region: magic + version + checksum.
const SHARD_PREFIX: usize = 10;

/// A shard failure: either the file could not be accessed, or its bytes
/// are not a valid shard.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem-level failure (open, read).
    Io(io::Error),
    /// The file's bytes do not parse as a shard.
    Format(ApkError),
}

impl ShardError {
    /// Stable taxonomy label, compatible with `ApkError::kind` labels.
    pub fn kind(&self) -> &'static str {
        match self {
            ShardError::Io(_) => "shard-io",
            ShardError::Format(e) => e.kind(),
        }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard io error: {e}"),
            ShardError::Format(e) => write!(f, "shard format error: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> ShardError {
        ShardError::Io(e)
    }
}

impl From<ApkError> for ShardError {
    fn from(e: ApkError) -> ShardError {
        ShardError::Format(e)
    }
}

/// One entry's metadata plus the location of its container bytes within
/// the shard payload.
#[derive(Debug, Clone)]
pub struct ShardEntry {
    /// Play metadata, exactly as written.
    pub meta: AppMeta,
    off: u64,
    len: u64,
}

/// An open shard: parsed entry table plus the one buffer holding the
/// whole file, which every container window aliases.
#[derive(Debug)]
pub struct Shard {
    entries: Vec<ShardEntry>,
    data: Bytes,
    payload_base: usize,
    checksum: u32,
}

impl Shard {
    /// Read the whole shard file into one buffer and fully validate it.
    /// Once open, the shard no longer touches the file: a later truncation
    /// or rewrite cannot reach the windows it hands out.
    pub fn open(path: &Path) -> Result<Shard, ShardError> {
        Shard::parse(Bytes::from(fs::read(path)?))
    }

    fn parse(data: Bytes) -> Result<Shard, ShardError> {
        if data.len() < SHARD_PREFIX {
            return Err(ApkError::Truncated {
                context: "shard header",
            }
            .into());
        }
        if data[..4] != SHARD_MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&data[..4]);
            return Err(ApkError::BadMagic {
                expected: "WSHD",
                found,
            }
            .into());
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != SHARD_VERSION {
            return Err(ApkError::UnsupportedVersion(version).into());
        }
        let stored = u32::from_le_bytes([data[6], data[7], data[8], data[9]]);
        let computed = adler32(&data[SHARD_PREFIX..]);
        if stored != computed {
            return Err(ApkError::ChecksumMismatch { stored, computed }.into());
        }
        let mut cur = &data[SHARD_PREFIX..];
        let n = get_uvarint(&mut cur)? as usize;
        // Each entry costs at least 7 bytes of metadata, so a count the
        // rest of the file cannot hold is bogus; refuse before allocating
        // the table.
        if n > cur.len() / 7 {
            return Err(ApkError::Invalid("shard entry count exceeds file size").into());
        }
        let payload_len = get_uvarint(&mut cur)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let package = get_string(&mut cur)?;
            if !cur.has_remaining() {
                return Err(ApkError::Truncated {
                    context: "shard entry flags",
                }
                .into());
            }
            let on_play_store = match cur.get_u8() {
                0 => false,
                1 => true,
                _ => return Err(ApkError::Invalid("shard entry bool out of range").into()),
            };
            let downloads = get_uvarint(&mut cur)?;
            let label = get_string(&mut cur)?;
            let category = PlayCategory::from_label(&label)
                .ok_or(ApkError::Invalid("unknown category label"))?;
            let last_update_day = u32::try_from(get_uvarint(&mut cur)?)
                .map_err(|_| ApkError::Invalid("update day exceeds u32"))?;
            let off = get_uvarint(&mut cur)?;
            let len = get_uvarint(&mut cur)?;
            if off.checked_add(len).is_none_or(|end| end > payload_len) {
                return Err(ApkError::Invalid("shard entry outside payload").into());
            }
            entries.push(ShardEntry {
                meta: AppMeta {
                    package,
                    on_play_store,
                    downloads,
                    category,
                    last_update_day,
                },
                off,
                len,
            });
        }
        if cur.len() as u64 != payload_len {
            return Err(ApkError::Invalid("shard payload length mismatch").into());
        }
        let payload_base = data.len() - cur.len();
        Ok(Shard {
            entries,
            data,
            payload_base,
            checksum: stored,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The parsed entry table, in written order.
    pub fn entries(&self) -> &[ShardEntry] {
        &self.entries
    }

    /// Metadata of entry `i`.
    pub fn entry_meta(&self, i: usize) -> &AppMeta {
        &self.entries[i].meta
    }

    /// Container bytes of entry `i` — a zero-copy window into the shard
    /// buffer.
    pub fn entry_bytes(&self, i: usize) -> Bytes {
        let e = &self.entries[i];
        let start = self.payload_base + e.off as usize;
        self.data.slice(start..start + e.len as usize)
    }

    /// The shard's stored checksum (validated against the bytes on open).
    pub fn checksum(&self) -> u32 {
        self.checksum
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.data.len() as u64
    }
}

/// The cheap identity of a shard file: its stored checksum and length,
/// read from the 10-byte prefix without touching the payload. A resume
/// manifest stores this stamp and rechecks it before trusting cached
/// results for the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStamp {
    /// Checksum recorded in the shard header.
    pub checksum: u32,
    /// Total file size in bytes.
    pub file_len: u64,
}

/// Read a shard's [`ShardStamp`] without reading its body.
pub fn read_shard_stamp(path: &Path) -> io::Result<ShardStamp> {
    let mut file = fs::File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut prefix = [0u8; SHARD_PREFIX];
    file.read_exact(&mut prefix)?;
    if prefix[..4] != SHARD_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a shard file",
        ));
    }
    let checksum = u32::from_le_bytes([prefix[6], prefix[7], prefix[8], prefix[9]]);
    Ok(ShardStamp { checksum, file_len })
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, then rename
/// it into place. A crash between the two steps leaves only the temp file,
/// never a truncated target.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// File name of shard `index` within [`SHARD_SUBDIR`].
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.wshard")
}

/// Serialize `entries` into a single shard at `path`, atomically.
pub fn write_shard(path: &Path, entries: &[(&AppMeta, &[u8])]) -> io::Result<()> {
    let payload_len: u64 = entries.iter().map(|(_, b)| b.len() as u64).sum();
    let mut file = Vec::with_capacity(payload_len as usize + entries.len() * 64 + 64);
    file.extend_from_slice(&SHARD_MAGIC);
    file.extend_from_slice(&SHARD_VERSION.to_le_bytes());
    file.extend_from_slice(&[0u8; 4]); // checksum, patched below
    put_uvarint(&mut file, entries.len() as u64);
    put_uvarint(&mut file, payload_len);
    let mut off: u64 = 0;
    for (meta, bytes) in entries {
        put_string(&mut file, &meta.package);
        file.push(meta.on_play_store as u8);
        put_uvarint(&mut file, meta.downloads);
        put_string(&mut file, meta.category.label());
        put_uvarint(&mut file, u64::from(meta.last_update_day));
        put_uvarint(&mut file, off);
        put_uvarint(&mut file, bytes.len() as u64);
        off += bytes.len() as u64;
    }
    for (_, bytes) in entries {
        file.extend_from_slice(bytes);
    }
    let checksum = adler32(&file[SHARD_PREFIX..]);
    file[6..SHARD_PREFIX].copy_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &file)
}

/// Write `apps` under `dir/shards/` with `per_shard` apps per file.
/// Returns the shard paths in order. Each shard is written atomically;
/// afterwards every other `.wshard` in `dir/shards/` — left by an earlier
/// write of a larger corpus — is removed, so [`list_shards`] returns
/// exactly the returned paths. The resume manifest is left alone: a cache
/// file whose shard is gone is never read.
pub fn write_sharded_corpus(
    dir: &Path,
    apps: &[GeneratedApp],
    per_shard: usize,
) -> io::Result<Vec<PathBuf>> {
    if per_shard == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "per_shard must be at least 1",
        ));
    }
    let shard_dir = dir.join(SHARD_SUBDIR);
    fs::create_dir_all(&shard_dir)?;
    let mut paths = Vec::new();
    for (i, chunk) in apps.chunks(per_shard).enumerate() {
        let entries: Vec<(&AppMeta, &[u8])> = chunk
            .iter()
            .map(|a| (&a.spec.meta, a.bytes.as_slice()))
            .collect();
        let path = shard_dir.join(shard_file_name(i));
        write_shard(&path, &entries)?;
        paths.push(path);
    }
    let written: HashSet<&PathBuf> = paths.iter().collect();
    for path in list_shards(dir)? {
        if !written.contains(&path) {
            fs::remove_file(path)?;
        }
    }
    Ok(paths)
}

/// List the `.wshard` files under `dir/shards/`, sorted by file name.
/// Stray files (including interrupted-write `.tmp` leftovers) are ignored.
pub fn list_shards(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let shard_dir = dir.join(SHARD_SUBDIR);
    let mut out = Vec::new();
    for entry in fs::read_dir(&shard_dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("wshard") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, Generator};
    use wla_sdk_index::SdkIndex;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wla-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_corpus(seed: u64) -> Vec<GeneratedApp> {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 8_000,
            seed,
            ..CorpusConfig::default()
        };
        Generator::new(&catalog, cfg).generate()
    }

    #[test]
    fn roundtrip_preserves_every_entry_in_order() {
        let apps = small_corpus(21);
        assert!(apps.len() >= 10, "need a multi-shard corpus");
        let dir = temp_dir("roundtrip");
        let paths = write_sharded_corpus(&dir, &apps, 4).unwrap();
        assert_eq!(paths, list_shards(&dir).unwrap());

        let mut streamed = 0usize;
        for path in &paths {
            let shard = Shard::open(path).unwrap();
            for i in 0..shard.len() {
                let app = &apps[streamed];
                assert_eq!(shard.entry_meta(i), &app.spec.meta);
                assert_eq!(&shard.entry_bytes(i)[..], &app.bytes[..]);
                streamed += 1;
            }
        }
        assert_eq!(streamed, apps.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_windows_are_zero_copy_views_of_the_shard_buffer() {
        let apps = small_corpus(3);
        let dir = temp_dir("zerocopy");
        let paths = write_sharded_corpus(&dir, &apps, apps.len()).unwrap();
        let shard = Shard::open(&paths[0]).unwrap();
        // Every entry window must point inside the one shard buffer — no
        // per-app copies.
        let w0 = shard.entry_bytes(0);
        let w1 = shard.entry_bytes(1);
        let base = w0.as_ref().as_ptr() as usize;
        let next = w1.as_ref().as_ptr() as usize;
        assert_eq!(next, base + w0.len());
        // Windows outlive the shard handle (refcounted buffer).
        let window = shard.entry_bytes(0);
        let expect = apps[0].bytes.clone();
        drop(shard);
        assert_eq!(&window[..], &expect[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decodes_straight_from_the_shard_window() {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 8_000,
            seed: 9,
            corrupt_fraction: 0.0,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let dir = temp_dir("decode");
        let paths = write_sharded_corpus(&dir, &apps, 6).unwrap();
        for path in paths {
            let shard = Shard::open(&path).unwrap();
            for i in 0..shard.len() {
                wla_apk::Sapk::decode_bytes(shard.entry_bytes(i))
                    .unwrap_or_else(|e| panic!("{}: {e}", shard.entry_meta(i).package));
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncating_the_file_after_open_leaves_its_windows_intact() {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 8_000,
            seed: 17,
            corrupt_fraction: 0.0,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let dir = temp_dir("truncate-after-open");
        let paths = write_sharded_corpus(&dir, &apps, apps.len()).unwrap();
        let shard = Shard::open(&paths[0]).unwrap();
        fs::OpenOptions::new()
            .write(true)
            .open(&paths[0])
            .unwrap()
            .set_len(0)
            .unwrap();
        assert_eq!(shard.len(), apps.len());
        for (i, app) in apps.iter().enumerate() {
            let window = shard.entry_bytes(i);
            assert_eq!(&window[..], &app.bytes[..]);
            wla_apk::Sapk::decode_bytes(window)
                .unwrap_or_else(|e| panic!("{}: {e}", app.spec.meta.package));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_shard_io_error() {
        let path = temp_dir("missing").join("shard-00000.wshard");
        match Shard::open(&path) {
            Err(e @ ShardError::Io(_)) => assert_eq!(e.kind(), "shard-io"),
            other => panic!("expected ShardError::Io, got {other:?}"),
        }
    }

    #[test]
    fn empty_shard_roundtrips() {
        let dir = temp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-00000.wshard");
        write_shard(&path, &[]).unwrap();
        let shard = Shard::open(&path).unwrap();
        assert!(shard.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_are_rejected() {
        let apps = small_corpus(8);
        let dir = temp_dir("bitflip");
        let paths = write_sharded_corpus(&dir, &apps, apps.len()).unwrap();
        let pristine = fs::read(&paths[0]).unwrap();
        // Flip a byte in each region: header, entry table, payload.
        for pos in [0usize, 5, 8, 16, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x40;
            fs::write(&paths[0], &bad).unwrap();
            assert!(
                Shard::open(&paths[0]).is_err(),
                "flip at {pos} went unnoticed"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let apps = small_corpus(13);
        let dir = temp_dir("truncate");
        let paths = write_sharded_corpus(&dir, &apps, apps.len()).unwrap();
        let pristine = fs::read(&paths[0]).unwrap();
        // Sampled cuts (every cut is O(file) to validate).
        for cut in (0..pristine.len()).step_by(pristine.len() / 23 + 1) {
            fs::write(&paths[0], &pristine[..cut]).unwrap();
            assert!(Shard::open(&paths[0]).is_err(), "cut at {cut} accepted");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_entry_count_the_file_cannot_hold_is_refused_before_any_entry() {
        // A valid prefix and checksum over a claimed count, a zero payload
        // length and zero filler: every entry would need at least 7 bytes.
        let restamped = |n: u64, filler: usize| {
            let mut raw = SHARD_MAGIC.to_vec();
            raw.extend_from_slice(&SHARD_VERSION.to_le_bytes());
            raw.extend_from_slice(&[0u8; 4]);
            put_uvarint(&mut raw, n);
            put_uvarint(&mut raw, 0);
            raw.resize(raw.len() + filler, 0);
            let checksum = adler32(&raw[SHARD_PREFIX..]);
            raw[6..SHARD_PREFIX].copy_from_slice(&checksum.to_le_bytes());
            Bytes::from(raw)
        };
        // After the 1-byte count, the rest is the 1-byte payload length
        // and the filler.
        let filler = 68;
        let rest = 1 + filler;
        match Shard::parse(restamped((rest / 7 + 1) as u64, filler)) {
            Err(
                e @ ShardError::Format(ApkError::Invalid("shard entry count exceeds file size")),
            ) => {
                assert_eq!(e.kind(), "invalid-structure")
            }
            other => panic!("expected the entry-count refusal, got {other:?}"),
        }
        // One entry fewer passes the count check and fails on the first
        // entry's empty category label instead.
        match Shard::parse(restamped((rest / 7) as u64, filler)) {
            Err(ShardError::Format(ApkError::Invalid(what))) => {
                assert_eq!(what, "unknown category label")
            }
            other => panic!("expected a bad first entry, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let dir = temp_dir("version");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.wshard");
        write_shard(&path, &[]).unwrap();
        let mut raw = fs::read(&path).unwrap();
        raw[4] = 0xff;
        fs::write(&path, &raw).unwrap();
        match Shard::open(&path) {
            Err(ShardError::Format(ApkError::UnsupportedVersion(_))) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stamp_matches_open_shard_and_detects_rewrite() {
        let apps = small_corpus(5);
        let dir = temp_dir("stamp");
        let paths = write_sharded_corpus(&dir, &apps, 3).unwrap();
        let stamp = read_shard_stamp(&paths[0]).unwrap();
        let shard = Shard::open(&paths[0]).unwrap();
        assert_eq!(stamp.checksum, shard.checksum());
        assert_eq!(stamp.file_len, shard.file_len());
        drop(shard);
        // Rewriting the shard with different contents changes the stamp.
        let entries: Vec<(&AppMeta, &[u8])> = apps
            .iter()
            .take(1)
            .map(|a| (&a.spec.meta, a.bytes.as_slice()))
            .collect();
        write_shard(&paths[0], &entries).unwrap();
        assert_ne!(read_shard_stamp(&paths[0]).unwrap(), stamp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_smaller_rewrite_removes_stale_shards_and_leaves_no_temp_files() {
        let apps = small_corpus(4);
        assert!(apps.len() >= 3, "need a 3-shard corpus");
        let dir = temp_dir("rewrite");
        let per_shard = apps.len().div_ceil(3);
        assert_eq!(
            write_sharded_corpus(&dir, &apps, per_shard).unwrap().len(),
            3
        );
        let paths = write_sharded_corpus(&dir, &apps[..per_shard], per_shard).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(list_shards(&dir).unwrap(), paths);
        for entry in fs::read_dir(dir.join(SHARD_SUBDIR)).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "temp file {name} left behind");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_shards_sorted_and_ignores_stray_files() {
        let apps = small_corpus(2);
        let dir = temp_dir("list");
        write_sharded_corpus(&dir, &apps, 2).unwrap();
        let shard_dir = dir.join(SHARD_SUBDIR);
        // Interrupted-write leftover and unrelated files must be invisible.
        fs::write(shard_dir.join("shard-99999.wshard.tmp"), b"partial").unwrap();
        fs::write(shard_dir.join("notes.txt"), b"hi").unwrap();
        let listed = list_shards(&dir).unwrap();
        assert!(!listed.is_empty());
        let names: Vec<_> = listed
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(names.iter().all(|n| n.ends_with(".wshard")));
        fs::remove_dir_all(&dir).unwrap();
    }
}
