//! Per-shard resume cache: serialized analysis results keyed to a shard's
//! identity, so a rerun over a partially-analyzed corpus skips the shards
//! it already finished.
//!
//! A cache file (`manifest/<shard stem>.done`) stores the shard's
//! [`ShardStamp`] (header checksum + file length) followed by every row of
//! the shard's [`ResultTable`] — one per entry, its analysis or its
//! `ApkError` — with **symbols resolved to strings** against the writing
//! worker's lexicon. The format is version 2, and it does not depend on
//! how rows are stored: a WebView site is written with its method name
//! and load flag, both derived from its method index, and
//! `resume_cache_bytes_are_pinned` (the root `tests/pins.rs`) pins
//! the bytes, since a writer that drifted would turn every existing cache
//! into a miss. Loading parses each entry straight into the
//! loading worker's table, re-interning the strings into its lexicon;
//! because the pipeline's join-time symbol merge assigns global ids purely
//! by first-occurrence input order of the *strings*, a resumed run
//! produces bit-identical results to a fresh one.
//!
//! A site is written with its caller package after its caller class, as
//! format 2 has always stored it, but the package is not a field of the
//! site: the writer derives it from the class
//! ([`package_of_into`]), the way the recorder derived the package it
//! labeled, and the loader checks the stored package against the one its
//! class derives and does not intern it.
//!
//! The loader is strictly best-effort: a missing file, stale stamp, bad
//! checksum, unknown version, or any parse failure is a cache miss, and
//! the table is left exactly as it was: rows committed before the failure
//! are dropped. The shard is simply re-analyzed. A parse failure includes
//! a WebView site whose method name or load flag disagrees with its method
//! index, a site whose stored caller package is not the one its caller
//! class derives, and an SDK label at or past the loading worker's
//! catalog, which aggregation would index out of bounds. Nothing here can
//! corrupt a run, only fail to accelerate it.

use crate::analyze::{AnalysisCtx, AppView, CtSiteSummary, WebViewSiteSummary};
use crate::table::ResultTable;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use wla_apk::names::{package_of_into, WEBVIEW_CONTENT_METHODS};
use wla_apk::wire::{adler32, get_uvarint, put_string, put_uvarint};
use wla_apk::ApkError;
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::PlayCategory;
use wla_corpus::shard::{write_atomic, ShardStamp};
use wla_intern::{LocalInterner, Symbol};
use wla_sdk_index::LabelId;

/// Leading magic bytes of a result-cache file.
const CACHE_MAGIC: [u8; 4] = *b"WRES";
/// Current cache format version. Version 2 stores each analysis's Play
/// category label where version 1 stored its whole Play metadata; a file
/// of any other version is a miss.
const CACHE_VERSION: u16 = 2;
/// magic + version + stamp (checksum u32 + file_len u64) + body checksum.
const CACHE_PREFIX: usize = 4 + 2 + 4 + 8 + 4;

/// Re-own a string as `&'static str` through a process-global dedup table.
///
/// `ApkError` carries several `&'static str` fields (truncation contexts,
/// section names); reloading them from a cache file needs *some* static
/// string. The table leaks each distinct string once — bounded in
/// practice by the finite set of literals the parsers embed.
fn leak_static(s: &str) -> &'static str {
    static TABLE: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut table = TABLE.lock().unwrap();
    if let Some(&existing) = table.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

fn put_opt_str(buf: &mut Vec<u8>, text: Option<&str>) {
    match text {
        None => buf.push(0),
        Some(text) => {
            buf.push(1);
            put_string(buf, text);
        }
    }
}

/// A site's caller class, then the package it derives (through
/// `scratch`).
fn put_caller(buf: &mut Vec<u8>, class: &str, scratch: &mut String) {
    put_string(buf, class);
    put_opt_str(buf, package_of_into(class, scratch).then_some(scratch));
}

fn put_label(buf: &mut Vec<u8>, label: LabelId) {
    match label {
        LabelId::CoreAndroid => buf.push(0),
        LabelId::Obfuscated => buf.push(1),
        LabelId::Unlabeled => buf.push(2),
        LabelId::Sdk(i) => {
            buf.push(3);
            put_uvarint(buf, u64::from(i));
        }
    }
}

fn put_error(buf: &mut Vec<u8>, e: &ApkError) {
    match e {
        ApkError::BadMagic { expected, found } => {
            buf.push(0);
            put_string(buf, expected);
            buf.extend_from_slice(found);
        }
        ApkError::UnsupportedVersion(v) => {
            buf.push(1);
            put_uvarint(buf, u64::from(*v));
        }
        ApkError::Truncated { context } => {
            buf.push(2);
            put_string(buf, context);
        }
        ApkError::ChecksumMismatch { stored, computed } => {
            buf.push(3);
            put_uvarint(buf, u64::from(*stored));
            put_uvarint(buf, u64::from(*computed));
        }
        ApkError::IndexOutOfRange { table, index, len } => {
            buf.push(4);
            put_string(buf, table);
            put_uvarint(buf, u64::from(*index));
            put_uvarint(buf, u64::from(*len));
        }
        ApkError::BadVarint => buf.push(5),
        ApkError::BadUtf8 => buf.push(6),
        ApkError::BadOpcode(op) => {
            buf.push(7);
            buf.push(*op);
        }
        ApkError::BadSectionTag(t) => {
            buf.push(8);
            buf.push(*t);
        }
        ApkError::SectionOutOfBounds { offset, len, total } => {
            buf.push(9);
            put_uvarint(buf, u64::from(*offset));
            put_uvarint(buf, u64::from(*len));
            put_uvarint(buf, u64::from(*total));
        }
        ApkError::SpanOverflow { offset, len } => {
            buf.push(10);
            put_uvarint(buf, *offset);
            put_uvarint(buf, *len);
        }
        ApkError::MissingSection(name) => {
            buf.push(11);
            put_string(buf, name);
        }
        ApkError::Invalid(what) => {
            buf.push(12);
            put_string(buf, what);
        }
        ApkError::AnalysisPanic { message } => {
            buf.push(13);
            put_string(buf, message);
        }
    }
}

fn put_analysis(buf: &mut Vec<u8>, a: AppView<'_>, lex: &LocalInterner, scratch: &mut String) {
    put_string(buf, a.category.label());
    put_string(buf, a.package);
    put_uvarint(buf, a.webview_sites.len() as u64);
    for s in a.webview_sites {
        put_string(buf, s.method());
        buf.push(s.method_idx);
        put_caller(buf, lex.resolve(s.caller_class), scratch);
        put_label(buf, s.label);
        buf.push(s.in_deep_link_activity as u8);
        buf.push(s.is_load_method() as u8);
        put_opt_str(buf, s.argument.map(|a| lex.resolve(a)));
        buf.push(s.origin as u8);
    }
    put_uvarint(buf, a.ct_sites.len() as u64);
    for s in a.ct_sites {
        put_string(buf, lex.resolve(s.method));
        buf.push(s.is_launch as u8);
        put_caller(buf, lex.resolve(s.caller_class), scratch);
        put_label(buf, s.label);
        buf.push(s.in_deep_link_activity as u8);
        put_opt_str(buf, s.argument.map(|a| lex.resolve(a)));
        buf.push(s.origin as u8);
    }
    put_uvarint(buf, a.custom_webview_classes.len() as u64);
    for c in a.custom_webview_classes {
        put_string(buf, lex.resolve(*c));
    }
    put_uvarint(buf, a.unreachable_webview_sites as u64);
}

/// Serialize every row of `table` (one shard's, in entry order) to
/// `path`, atomically, keyed to `stamp`. Symbols resolve against `lex`.
pub(crate) fn write_result_cache(
    path: &Path,
    stamp: ShardStamp,
    table: &ResultTable,
    lex: &LocalInterner,
) -> io::Result<()> {
    let mut file = Vec::new();
    file.extend_from_slice(&CACHE_MAGIC);
    file.extend_from_slice(&CACHE_VERSION.to_le_bytes());
    file.extend_from_slice(&stamp.checksum.to_le_bytes());
    file.extend_from_slice(&stamp.file_len.to_le_bytes());
    file.extend_from_slice(&[0u8; 4]); // body checksum, patched below
    put_uvarint(&mut file, table.len() as u64);
    let mut package = String::new();
    for row in table.iter() {
        match row {
            Ok(a) => {
                file.push(0);
                put_analysis(&mut file, a, lex, &mut package);
            }
            Err(e) => {
                file.push(1);
                put_error(&mut file, e);
            }
        }
    }
    let checksum = adler32(&file[CACHE_PREFIX..]);
    file[CACHE_PREFIX - 4..CACHE_PREFIX].copy_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &file)
}

fn get_u8(cur: &mut &[u8]) -> Result<u8, ApkError> {
    let (&first, rest) = cur.split_first().ok_or(ApkError::Truncated {
        context: "cache byte",
    })?;
    *cur = rest;
    Ok(first)
}

fn get_bool(cur: &mut &[u8]) -> Result<bool, ApkError> {
    match get_u8(cur)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ApkError::Invalid("cache bool out of range")),
    }
}

/// A varint-length-prefixed UTF-8 string, borrowed from the cache file.
fn get_str<'a>(cur: &mut &'a [u8]) -> Result<&'a str, ApkError> {
    let len = usize::try_from(get_uvarint(cur)?).map_err(|_| ApkError::BadVarint)?;
    if cur.len() < len {
        return Err(ApkError::Truncated { context: "string" });
    }
    let (raw, rest) = cur.split_at(len);
    *cur = rest;
    std::str::from_utf8(raw).map_err(|_| ApkError::BadUtf8)
}

fn get_symbol(cur: &mut &[u8], lex: &mut LocalInterner) -> Result<Symbol, ApkError> {
    Ok(lex.intern(get_str(cur)?))
}

fn get_opt_str<'a>(cur: &mut &'a [u8]) -> Result<Option<&'a str>, ApkError> {
    if get_bool(cur)? {
        get_str(cur).map(Some)
    } else {
        Ok(None)
    }
}

/// A site's caller class, interned, once its stored package is the one
/// the class derives (through `scratch`).
fn get_caller(
    cur: &mut &[u8],
    lex: &mut LocalInterner,
    scratch: &mut String,
) -> Result<Symbol, ApkError> {
    let class = get_str(cur)?;
    if get_opt_str(cur)? != package_of_into(class, scratch).then_some(scratch.as_str()) {
        return Err(ApkError::Invalid("cache caller package"));
    }
    Ok(lex.intern(class))
}

/// A label; an SDK's index must be one of the catalog's `sdks`, and an
/// index past `u16` is past every catalog.
fn get_label(cur: &mut &[u8], sdks: usize) -> Result<LabelId, ApkError> {
    Ok(match get_u8(cur)? {
        0 => LabelId::CoreAndroid,
        1 => LabelId::Obfuscated,
        2 => LabelId::Unlabeled,
        3 => match u16::try_from(get_uvarint(cur)?) {
            Ok(i) if (i as usize) < sdks => LabelId::Sdk(i),
            _ => return Err(ApkError::Invalid("cache sdk index")),
        },
        _ => return Err(ApkError::Invalid("cache label tag")),
    })
}

fn get_origin(cur: &mut &[u8]) -> Result<UrlOrigin, ApkError> {
    Ok(match get_u8(cur)? {
        0 => UrlOrigin::Resolved,
        1 => UrlOrigin::Unknown,
        2 => UrlOrigin::Conflict,
        _ => return Err(ApkError::Invalid("cache origin tag")),
    })
}

fn get_category(cur: &mut &[u8]) -> Result<PlayCategory, ApkError> {
    PlayCategory::from_label(get_str(cur)?).ok_or(ApkError::Invalid("cache category label"))
}

fn get_error(cur: &mut &[u8]) -> Result<ApkError, ApkError> {
    Ok(match get_u8(cur)? {
        0 => {
            let expected = leak_static(get_str(cur)?);
            let mut found = [0u8; 4];
            for b in &mut found {
                *b = get_u8(cur)?;
            }
            ApkError::BadMagic { expected, found }
        }
        1 => ApkError::UnsupportedVersion(
            u16::try_from(get_uvarint(cur)?).map_err(|_| ApkError::Invalid("cache version"))?,
        ),
        2 => ApkError::Truncated {
            context: leak_static(get_str(cur)?),
        },
        3 => ApkError::ChecksumMismatch {
            stored: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache checksum"))?,
            computed: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache checksum"))?,
        },
        4 => ApkError::IndexOutOfRange {
            table: leak_static(get_str(cur)?),
            index: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache index"))?,
            len: u32::try_from(get_uvarint(cur)?).map_err(|_| ApkError::Invalid("cache index"))?,
        },
        5 => ApkError::BadVarint,
        6 => ApkError::BadUtf8,
        7 => ApkError::BadOpcode(get_u8(cur)?),
        8 => ApkError::BadSectionTag(get_u8(cur)?),
        9 => ApkError::SectionOutOfBounds {
            offset: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache bounds"))?,
            len: u32::try_from(get_uvarint(cur)?).map_err(|_| ApkError::Invalid("cache bounds"))?,
            total: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache bounds"))?,
        },
        10 => ApkError::SpanOverflow {
            offset: get_uvarint(cur)?,
            len: get_uvarint(cur)?,
        },
        11 => ApkError::MissingSection(leak_static(get_str(cur)?)),
        12 => ApkError::Invalid(leak_static(get_str(cur)?)),
        13 => ApkError::AnalysisPanic {
            message: get_str(cur)?.to_owned(),
        },
        _ => return Err(ApkError::Invalid("cache error tag")),
    })
}

/// A count that cannot exceed the bytes left, each item taking at least
/// one.
fn get_count(cur: &mut &[u8], what: &'static str) -> Result<usize, ApkError> {
    let n = get_uvarint(cur)?;
    if n > cur.len() as u64 {
        return Err(ApkError::Invalid(what));
    }
    Ok(n as usize)
}

/// Parse one analysis and commit it as the next row of `ctx.results`.
/// `scratch` holds each site's derived caller package in turn.
fn get_analysis(
    cur: &mut &[u8],
    ctx: &mut AnalysisCtx<'_>,
    scratch: &mut String,
) -> Result<(), ApkError> {
    let sdks = ctx.catalog.sdks().len();
    let lex = &mut ctx.lexicon;
    let category = get_category(cur)?;
    let package = get_str(cur)?;
    let mut row = ctx.results.row();
    for _ in 0..get_count(cur, "cache site count")? {
        let method = get_str(cur)?;
        let method_idx = get_u8(cur)?;
        if WEBVIEW_CONTENT_METHODS.get(method_idx as usize) != Some(&method) {
            return Err(ApkError::Invalid("cache method name"));
        }
        let caller_class = get_caller(cur, lex, scratch)?;
        let label = get_label(cur, sdks)?;
        let in_deep_link_activity = get_bool(cur)?;
        let is_load_method = get_bool(cur)?;
        let argument = get_opt_str(cur)?.map(|a| lex.intern(a));
        let origin = get_origin(cur)?;
        let site = WebViewSiteSummary {
            method_idx,
            caller_class,
            label,
            in_deep_link_activity,
            argument,
            origin,
        };
        if site.is_load_method() != is_load_method {
            return Err(ApkError::Invalid("cache load flag"));
        }
        row.push_webview(site);
    }
    for _ in 0..get_count(cur, "cache site count")? {
        let method = get_symbol(cur, lex)?;
        let is_launch = get_bool(cur)?;
        let caller_class = get_caller(cur, lex, scratch)?;
        let label = get_label(cur, sdks)?;
        let in_deep_link_activity = get_bool(cur)?;
        let argument = get_opt_str(cur)?.map(|a| lex.intern(a));
        let origin = get_origin(cur)?;
        row.push_ct(CtSiteSummary {
            method,
            is_launch,
            caller_class,
            label,
            in_deep_link_activity,
            argument,
            origin,
        });
    }
    for _ in 0..get_count(cur, "cache class count")? {
        row.push_class(get_symbol(cur, lex)?);
    }
    let unreachable = u32::try_from(get_uvarint(cur)?)
        .map_err(|_| ApkError::Invalid("cache unreachable count"))?;
    row.commit(category, package, unreachable as usize);
    Ok(())
}

/// Parse a cache body, committing each entry as the next row of
/// `ctx.results`.
fn parse_body(mut cur: &[u8], ctx: &mut AnalysisCtx<'_>) -> Result<(), ApkError> {
    let mut package = String::new();
    for _ in 0..get_count(&mut cur, "cache result count")? {
        match get_u8(&mut cur)? {
            0 => get_analysis(&mut cur, ctx, &mut package)?,
            1 => {
                ctx.results.commit_error(get_error(&mut cur)?);
            }
            _ => return Err(ApkError::Invalid("cache result tag")),
        }
    }
    if !cur.is_empty() {
        return Err(ApkError::Invalid("cache trailing bytes"));
    }
    Ok(())
}

/// Load a shard's cached results as rows of the worker's table,
/// re-interning symbols into its lexicon and checking SDK labels against
/// its catalog. Returns whether it did.
///
/// A miss — the file is absent, keyed to a different [`ShardStamp`] than
/// the shard currently on disk, or damaged in any way — leaves the table
/// exactly as it was: a parse failure drops the rows it had committed.
/// It never loads part of a shard.
pub(crate) fn load_result_cache(path: &Path, stamp: ShardStamp, ctx: &mut AnalysisCtx<'_>) -> bool {
    let Ok(raw) = fs::read(path) else {
        return false;
    };
    if raw.len() < CACHE_PREFIX || raw[..4] != CACHE_MAGIC {
        return false;
    }
    if u16::from_le_bytes([raw[4], raw[5]]) != CACHE_VERSION {
        return false;
    }
    let stored_stamp = ShardStamp {
        checksum: u32::from_le_bytes([raw[6], raw[7], raw[8], raw[9]]),
        file_len: u64::from_le_bytes(raw[10..18].try_into().unwrap()),
    };
    if stored_stamp != stamp {
        return false;
    }
    let body_checksum = u32::from_le_bytes(raw[18..22].try_into().unwrap());
    if adler32(&raw[CACHE_PREFIX..]) != body_checksum {
        return false;
    }
    let mark = ctx.results.len();
    let parsed = parse_body(&raw[CACHE_PREFIX..], ctx);
    if parsed.is_err() {
        ctx.results.truncate(mark);
    }
    parsed.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_sdk_index::SdkIndex;

    fn stamp() -> ShardStamp {
        ShardStamp {
            checksum: 0xabcd_1234,
            file_len: 777,
        }
    }

    /// One analysis, then three errors.
    fn sample_table(lex: &mut LocalInterner) -> ResultTable {
        let mut table = ResultTable::new();
        let mut row = table.row();
        row.push_webview(WebViewSiteSummary {
            method_idx: 0,
            caller_class: lex.intern("com/sdk/ads/Banner"),
            label: LabelId::Sdk(3),
            in_deep_link_activity: false,
            argument: Some(lex.intern("https://ads.example/")),
            origin: UrlOrigin::Resolved,
        });
        row.push_ct(CtSiteSummary {
            method: lex.intern("launchUrl"),
            is_launch: true,
            caller_class: lex.intern("com/app/Main"),
            label: LabelId::Unlabeled,
            in_deep_link_activity: true,
            argument: None,
            origin: UrlOrigin::Unknown,
        });
        row.push_class(lex.intern("com/app/MyWebView"));
        row.commit(PlayCategory::Social, "com.cached.app", 2);
        table.commit_error(ApkError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        });
        table.commit_error(ApkError::Truncated { context: "varint" });
        table.commit_error(ApkError::AnalysisPanic {
            message: "injected".into(),
        });
        table
    }

    fn resolve_all(a: AppView<'_>, lex: &LocalInterner) -> Vec<String> {
        a.symbols()
            .into_iter()
            .map(|s| lex.resolve(s).to_owned())
            .collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wla-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_results_across_lexicons() {
        let dir = temp_dir("rt");
        let path = dir.join("shard-00000.done");

        let mut writer_lex = LocalInterner::new();
        let results = sample_table(&mut writer_lex);
        write_result_cache(&path, stamp(), &results, &writer_lex).unwrap();

        // Load into a *different* lexicon that already holds other strings
        // (so symbol ids cannot accidentally line up), after a row of its
        // own.
        let catalog = SdkIndex::paper();
        let mut reader = AnalysisCtx::new(&catalog);
        reader.lexicon.intern("unrelated");
        reader.lexicon.intern("strings");
        reader.results.commit_error(ApkError::BadVarint);
        assert!(load_result_cache(&path, stamp(), &mut reader));
        let (back, reader_lex) = (&reader.results, &reader.lexicon);
        assert_eq!(back.len(), 1 + results.len());
        match (results.get(0), back.get(1)) {
            (Ok(orig), Ok(loaded)) => {
                assert_eq!(orig.category, loaded.category);
                assert_eq!(orig.package, loaded.package);
                assert_eq!(
                    orig.unreachable_webview_sites,
                    loaded.unreachable_webview_sites
                );
                // Symbol ids differ; resolved strings must agree, in the
                // order the join ranks them (what join-time ids key on).
                assert_eq!(
                    resolve_all(orig, &writer_lex),
                    resolve_all(loaded, reader_lex)
                );
                let (o, l) = (orig.webview_sites[0], loaded.webview_sites[0]);
                assert_eq!(
                    (o.method_idx, o.label, o.in_deep_link_activity, o.origin),
                    (l.method_idx, l.label, l.in_deep_link_activity, l.origin)
                );
                let (o, l) = (orig.ct_sites[0], loaded.ct_sites[0]);
                assert_eq!(
                    (o.is_launch, o.label, o.in_deep_link_activity, o.origin),
                    (l.is_launch, l.label, l.in_deep_link_activity, l.origin)
                );
            }
            other => panic!("expected Ok/Ok, got {other:?}"),
        }
        for i in 1..results.len() {
            assert_eq!(
                results.get(i),
                back.get(1 + i),
                "error {i} did not roundtrip"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_category_label_roundtrips() {
        for category in PlayCategory::ALL {
            let mut buf = Vec::new();
            put_string(&mut buf, category.label());
            let mut cur = &buf[..];
            assert_eq!(get_category(&mut cur).unwrap(), category);
            assert!(cur.is_empty());
        }
        let mut buf = Vec::new();
        put_string(&mut buf, "Not A Category");
        assert!(get_category(&mut &buf[..]).is_err());
    }

    #[test]
    fn stale_stamp_is_a_miss() {
        let dir = temp_dir("stale");
        let path = dir.join("s.done");
        let lex = LocalInterner::new();
        write_result_cache(&path, stamp(), &ResultTable::new(), &lex).unwrap();
        let catalog = SdkIndex::paper();
        let mut ctx = AnalysisCtx::new(&catalog);
        assert!(load_result_cache(&path, stamp(), &mut ctx));
        let other = ShardStamp {
            checksum: stamp().checksum ^ 1,
            ..stamp()
        };
        assert!(!load_result_cache(&path, other, &mut ctx));
        let other = ShardStamp {
            file_len: stamp().file_len + 1,
            ..stamp()
        };
        assert!(!load_result_cache(&path, other, &mut ctx));
        assert!(ctx.results.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_is_a_miss_never_partial() {
        let dir = temp_dir("damage");
        let path = dir.join("s.done");
        let mut lex = LocalInterner::new();
        let results = sample_table(&mut lex);
        write_result_cache(&path, stamp(), &results, &lex).unwrap();
        let pristine = fs::read(&path).unwrap();
        let catalog = SdkIndex::paper();
        // Truncations and bit flips anywhere must miss, not half-load.
        for cut in (0..pristine.len()).step_by(pristine.len() / 17 + 1) {
            fs::write(&path, &pristine[..cut]).unwrap();
            let mut ctx = AnalysisCtx::new(&catalog);
            assert!(!load_result_cache(&path, stamp(), &mut ctx), "cut {cut}");
            assert!(ctx.results.is_empty(), "cut {cut}");
        }
        for pos in [0usize, 5, 12, 20, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            let mut ctx = AnalysisCtx::new(&catalog);
            assert!(!load_result_cache(&path, stamp(), &mut ctx), "flip {pos}");
            assert!(ctx.results.is_empty(), "flip {pos}");
        }
        // Missing file: miss.
        fs::remove_file(&path).unwrap();
        let mut ctx = AnalysisCtx::new(&catalog);
        assert!(!load_result_cache(&path, stamp(), &mut ctx));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Damage the checksum does not catch: each body is re-stamped with a
    /// valid Adler-32, parses part of the way (rows are committed before
    /// the damage is reached), and must still be a miss that leaves the
    /// loading table exactly as it was.
    #[test]
    fn restamped_damage_is_a_miss_that_keeps_the_table() {
        let dir = temp_dir("restamped");
        let path = dir.join("s.done");
        let mut lex = LocalInterner::new();
        let results = sample_table(&mut lex);
        let mut head = results.clone();
        head.truncate(results.len() - 1);
        write_result_cache(&path, stamp(), &head, &lex).unwrap();
        let last_tag = fs::read(&path).unwrap().len();
        write_result_cache(&path, stamp(), &results, &lex).unwrap();
        let pristine = fs::read(&path).unwrap();
        let find = |needle: &[u8]| {
            pristine
                .windows(needle.len())
                .position(|w| w == needle)
                .expect("needle in the cache file")
        };
        // The WebView site: `loadUrl` (index 0), …, package `com.sdk.ads`,
        // label `Sdk(3)`, deep-link flag, load flag.
        let method_idx = find(b"\x07loadUrl") + 8;
        let load_flag = find(b"\x0bcom.sdk.ads") + 12 + 2 + 1;
        assert_eq!((pristine[method_idx], pristine[load_flag]), (0, 1));

        let edited = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut file = pristine.clone();
            edit(&mut file);
            file
        };
        let damaged = [
            (
                "out-of-range tag of the last entry",
                edited(&|f| f[last_tag] = 7),
            ),
            // `loadData` is a load method too: only the name disagrees.
            (
                "method name of another index",
                edited(&|f| f[method_idx] = 5),
            ),
            ("load flag off", edited(&|f| f[load_flag] = 0)),
            ("trailing byte", edited(&|f| f.push(0))),
        ];
        let catalog = SdkIndex::paper();
        for (what, bad) in damaged {
            fs::write(&path, restamped(bad)).unwrap();
            let mut ctx = kept_rows(&catalog);
            let before = ctx.results.clone();
            assert!(!load_result_cache(&path, stamp(), &mut ctx), "{what}");
            assert_eq!(ctx.results, before, "{what}");
        }
        // Undamaged, the same file loads.
        fs::write(&path, &pristine).unwrap();
        let mut ctx = AnalysisCtx::new(&catalog);
        assert!(load_result_cache(&path, stamp(), &mut ctx));
        assert_eq!(ctx.results.len(), results.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `file` with its body checksum recomputed, so damage reaches the
    /// parser.
    fn restamped(mut file: Vec<u8>) -> Vec<u8> {
        let checksum = adler32(&file[CACHE_PREFIX..]);
        file[CACHE_PREFIX - 4..CACHE_PREFIX].copy_from_slice(&checksum.to_le_bytes());
        file
    }

    /// A site's stored caller package must be the package its caller
    /// class derives: a file that stores another package, or none for a
    /// class in a package, is a miss that keeps the table, however well
    /// its checksum matches.
    #[test]
    fn a_caller_package_its_class_does_not_derive_is_a_miss() {
        let dir = temp_dir("package");
        let path = dir.join("s.done");
        let mut lex = LocalInterner::new();
        let results = sample_table(&mut lex);
        write_result_cache(&path, stamp(), &results, &lex).unwrap();
        let pristine = fs::read(&path).unwrap();
        // Each site stores its class, then a package flag and the package.
        let splice = |from: &[u8], to: &[u8]| {
            let at = pristine
                .windows(from.len())
                .position(|w| w == from)
                .expect("bytes in the cache file");
            let mut file = pristine[..at].to_vec();
            file.extend_from_slice(to);
            file.extend_from_slice(&pristine[at + from.len()..]);
            restamped(file)
        };
        let damaged = [
            (
                "a WebView site's parent package",
                splice(b"\x01\x0bcom.sdk.ads", b"\x01\x07com.sdk"),
            ),
            (
                "a WebView site's dotted class",
                splice(b"\x01\x0bcom.sdk.ads", b"\x01\x12com.sdk.ads.Banner"),
            ),
            (
                "no package for a CT site's class",
                splice(b"\x0ccom/app/Main\x01\x07com.app", b"\x0ccom/app/Main\x00"),
            ),
        ];
        let catalog = SdkIndex::paper();
        for (what, bad) in damaged {
            fs::write(&path, bad).unwrap();
            let mut ctx = kept_rows(&catalog);
            let before = ctx.results.clone();
            assert!(!load_result_cache(&path, stamp(), &mut ctx), "{what}");
            assert_eq!(ctx.results, before, "{what}");
        }
        fs::write(&path, &pristine).unwrap();
        let mut ctx = kept_rows(&catalog);
        assert!(load_result_cache(&path, stamp(), &mut ctx));
        assert_eq!(ctx.results.len(), 2 + results.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A loading worker whose table already holds two rows.
    fn kept_rows(catalog: &SdkIndex) -> AnalysisCtx<'_> {
        let mut ctx = AnalysisCtx::new(catalog);
        ctx.results.commit_error(ApkError::BadUtf8);
        let mut row = ctx.results.row();
        row.push_class(ctx.lexicon.intern("com/app/Kept"));
        row.commit(PlayCategory::Tools, "com.kept", 0);
        ctx
    }

    /// An SDK label indexes the loading worker's catalog when the shard is
    /// aggregated, so a WebView or Custom-Tabs site labelled at or past the
    /// catalog's end makes the file a miss that keeps the table, while the
    /// catalog's last SDK still loads. An index past `u16`, which no
    /// [`LabelId`] can hold, is past every catalog.
    #[test]
    fn an_sdk_label_past_the_catalog_is_a_miss() {
        for (index, catalog, loads) in [(65_535, 65_536, true), (65_536, usize::MAX, false)] {
            let mut buf = vec![3];
            put_uvarint(&mut buf, index);
            let label = get_label(&mut &buf[..], catalog);
            assert_eq!(label.is_ok(), loads, "Sdk({index})");
        }
        let dir = temp_dir("sdk-label");
        let path = dir.join("s.done");
        let catalog = SdkIndex::paper();
        let sdks = catalog.sdks().len() as u16;
        for (sdk, loads) in [(sdks - 1, true), (sdks, false), (10_000, false)] {
            for on_ct in [false, true] {
                let mut lex = LocalInterner::new();
                let mut table = ResultTable::new();
                let mut row = table.row();
                let caller_class = lex.intern("com/sdk/Caller");
                if on_ct {
                    row.push_ct(CtSiteSummary {
                        method: lex.intern("launchUrl"),
                        is_launch: true,
                        caller_class,
                        label: LabelId::Sdk(sdk),
                        in_deep_link_activity: false,
                        argument: None,
                        origin: UrlOrigin::Unknown,
                    });
                } else {
                    row.push_webview(WebViewSiteSummary {
                        method_idx: 0,
                        caller_class,
                        label: LabelId::Sdk(sdk),
                        in_deep_link_activity: false,
                        argument: None,
                        origin: UrlOrigin::Unknown,
                    });
                }
                row.commit(PlayCategory::Tools, "com.labelled", 0);
                write_result_cache(&path, stamp(), &table, &lex).unwrap();

                let mut ctx = kept_rows(&catalog);
                let before = ctx.results.clone();
                let what = format!("Sdk({sdk}) on a {} site", ["WebView", "CT"][on_ct as usize]);
                assert_eq!(load_result_cache(&path, stamp(), &mut ctx), loads, "{what}");
                if loads {
                    assert_eq!(ctx.results.len(), before.len() + 1, "{what}");
                } else {
                    assert_eq!(ctx.results, before, "{what}");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
