//! Per-shard resume cache: serialized analysis results keyed to a shard's
//! identity, so a rerun over a partially-analyzed corpus skips the shards
//! it already finished.
//!
//! A cache file (`manifest/<shard stem>.done`) stores the shard's
//! [`ShardStamp`] (header checksum + file length) followed by every
//! per-entry `Result<AppAnalysis, ApkError>` with **symbols resolved to
//! strings** against the writing worker's lexicon. Loading re-interns the
//! strings into the loading worker's lexicon; because the pipeline's
//! join-time symbol remap assigns global ids purely by first-occurrence
//! input order of the *strings*, a resumed run produces bit-identical
//! results to a fresh one.
//!
//! The loader is strictly best-effort: a missing file, stale stamp, bad
//! checksum, unknown version, or any parse failure is a cache miss
//! (`None`) — the shard is simply re-analyzed. Nothing here can corrupt a
//! run, only fail to accelerate it.

use crate::analyze::{AppAnalysis, CtSiteSummary, WebViewSiteSummary};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use wla_apk::wire::{adler32, get_string, get_uvarint, put_string, put_uvarint};
use wla_apk::ApkError;
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::PlayCategory;
use wla_corpus::shard::{write_atomic, ShardStamp};
use wla_intern::{LocalInterner, PkgId, Symbol};
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

fn put_opt_symbol(buf: &mut Vec<u8>, sym: Option<Symbol>, lex: &LocalInterner) {
    match sym {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_string(buf, lex.resolve(s));
        }
    }
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

fn put_analysis(buf: &mut Vec<u8>, a: &AppAnalysis, lex: &LocalInterner) {
    put_string(buf, a.category.label());
    put_string(buf, &a.package);
    put_uvarint(buf, a.webview_sites.len() as u64);
    for s in a.webview_sites.iter() {
        put_string(buf, lex.resolve(s.method));
        buf.push(s.method_idx);
        put_string(buf, lex.resolve(s.caller_class));
        put_opt_symbol(buf, s.caller_package.map(|p| p.symbol()), lex);
        put_label(buf, s.label);
        buf.push(s.in_deep_link_activity as u8);
        buf.push(s.is_load_method as u8);
        put_opt_symbol(buf, s.argument, lex);
        buf.push(s.origin as u8);
    }
    put_uvarint(buf, a.ct_sites.len() as u64);
    for s in a.ct_sites.iter() {
        put_string(buf, lex.resolve(s.method));
        buf.push(s.is_launch as u8);
        put_string(buf, lex.resolve(s.caller_class));
        put_opt_symbol(buf, s.caller_package.map(|p| p.symbol()), lex);
        put_label(buf, s.label);
        buf.push(s.in_deep_link_activity as u8);
        put_opt_symbol(buf, s.argument, lex);
        buf.push(s.origin as u8);
    }
    put_uvarint(buf, a.custom_webview_classes.len() as u64);
    for c in a.custom_webview_classes.iter() {
        put_string(buf, lex.resolve(*c));
    }
    put_uvarint(buf, a.unreachable_webview_sites as u64);
}

/// Serialize `results` (one shard's worth, in entry order) to `path`,
/// atomically, keyed to `stamp`. Symbols resolve against `lex`.
pub(crate) fn write_result_cache(
    path: &Path,
    stamp: ShardStamp,
    results: &[Result<AppAnalysis, ApkError>],
    lex: &LocalInterner,
) -> io::Result<()> {
    let mut file = Vec::new();
    file.extend_from_slice(&CACHE_MAGIC);
    file.extend_from_slice(&CACHE_VERSION.to_le_bytes());
    file.extend_from_slice(&stamp.checksum.to_le_bytes());
    file.extend_from_slice(&stamp.file_len.to_le_bytes());
    file.extend_from_slice(&[0u8; 4]); // body checksum, patched below
    put_uvarint(&mut file, results.len() as u64);
    for result in results {
        match result {
            Ok(a) => {
                file.push(0);
                put_analysis(&mut file, a, lex);
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

fn get_opt_symbol(cur: &mut &[u8], lex: &mut LocalInterner) -> Result<Option<Symbol>, ApkError> {
    if get_bool(cur)? {
        Ok(Some(lex.intern(&get_string(cur)?)))
    } else {
        Ok(None)
    }
}

fn get_label(cur: &mut &[u8]) -> Result<LabelId, ApkError> {
    Ok(match get_u8(cur)? {
        0 => LabelId::CoreAndroid,
        1 => LabelId::Obfuscated,
        2 => LabelId::Unlabeled,
        3 => {
            let i = u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache sdk index"))?;
            LabelId::Sdk(i)
        }
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
    PlayCategory::from_label(&get_string(cur)?).ok_or(ApkError::Invalid("cache category label"))
}

fn get_error(cur: &mut &[u8]) -> Result<ApkError, ApkError> {
    Ok(match get_u8(cur)? {
        0 => {
            let expected = leak_static(&get_string(cur)?);
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
            context: leak_static(&get_string(cur)?),
        },
        3 => ApkError::ChecksumMismatch {
            stored: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache checksum"))?,
            computed: u32::try_from(get_uvarint(cur)?)
                .map_err(|_| ApkError::Invalid("cache checksum"))?,
        },
        4 => ApkError::IndexOutOfRange {
            table: leak_static(&get_string(cur)?),
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
        11 => ApkError::MissingSection(leak_static(&get_string(cur)?)),
        12 => ApkError::Invalid(leak_static(&get_string(cur)?)),
        13 => ApkError::AnalysisPanic {
            message: get_string(cur)?,
        },
        _ => return Err(ApkError::Invalid("cache error tag")),
    })
}

fn get_analysis(cur: &mut &[u8], lex: &mut LocalInterner) -> Result<AppAnalysis, ApkError> {
    let category = get_category(cur)?;
    let package = get_string(cur)?;
    let n_wv = get_uvarint(cur)? as usize;
    if n_wv > cur.len() {
        return Err(ApkError::Invalid("cache site count"));
    }
    let mut webview_sites = Vec::with_capacity(n_wv);
    for _ in 0..n_wv {
        let method = lex.intern(&get_string(cur)?);
        let method_idx = get_u8(cur)?;
        let caller_class = lex.intern(&get_string(cur)?);
        let caller_package = get_opt_symbol(cur, lex)?.map(PkgId);
        let label = get_label(cur)?;
        let in_deep_link_activity = get_bool(cur)?;
        let is_load_method = get_bool(cur)?;
        let argument = get_opt_symbol(cur, lex)?;
        let origin = get_origin(cur)?;
        webview_sites.push(WebViewSiteSummary {
            method,
            method_idx,
            caller_class,
            caller_package,
            label,
            in_deep_link_activity,
            is_load_method,
            argument,
            origin,
        });
    }
    let n_ct = get_uvarint(cur)? as usize;
    if n_ct > cur.len() {
        return Err(ApkError::Invalid("cache site count"));
    }
    let mut ct_sites = Vec::with_capacity(n_ct);
    for _ in 0..n_ct {
        let method = lex.intern(&get_string(cur)?);
        let is_launch = get_bool(cur)?;
        let caller_class = lex.intern(&get_string(cur)?);
        let caller_package = get_opt_symbol(cur, lex)?.map(PkgId);
        let label = get_label(cur)?;
        let in_deep_link_activity = get_bool(cur)?;
        let argument = get_opt_symbol(cur, lex)?;
        let origin = get_origin(cur)?;
        ct_sites.push(CtSiteSummary {
            method,
            is_launch,
            caller_class,
            caller_package,
            label,
            in_deep_link_activity,
            argument,
            origin,
        });
    }
    let n_classes = get_uvarint(cur)? as usize;
    if n_classes > cur.len() {
        return Err(ApkError::Invalid("cache class count"));
    }
    let mut custom_webview_classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        custom_webview_classes.push(lex.intern(&get_string(cur)?));
    }
    let unreachable_webview_sites = get_uvarint(cur)? as usize;
    Ok(AppAnalysis {
        category,
        package,
        webview_sites: webview_sites.into(),
        ct_sites: ct_sites.into(),
        custom_webview_classes: custom_webview_classes.into(),
        unreachable_webview_sites,
    })
}

fn parse_body(
    mut cur: &[u8],
    lex: &mut LocalInterner,
) -> Result<Vec<Result<AppAnalysis, ApkError>>, ApkError> {
    let n = get_uvarint(&mut cur)? as usize;
    if n > cur.len() {
        return Err(ApkError::Invalid("cache result count"));
    }
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        results.push(match get_u8(&mut cur)? {
            0 => Ok(get_analysis(&mut cur, lex)?),
            1 => Err(get_error(&mut cur)?),
            _ => return Err(ApkError::Invalid("cache result tag")),
        });
    }
    if !cur.is_empty() {
        return Err(ApkError::Invalid("cache trailing bytes"));
    }
    Ok(results)
}

/// Load a shard's cached results, re-interning symbols into `lex`.
///
/// Returns `None` — a cache miss — when the file is absent, keyed to a
/// different [`ShardStamp`] than the shard currently on disk, or damaged
/// in any way. Never returns partial results.
pub(crate) fn load_result_cache(
    path: &Path,
    stamp: ShardStamp,
    lex: &mut LocalInterner,
) -> Option<Vec<Result<AppAnalysis, ApkError>>> {
    let raw = fs::read(path).ok()?;
    if raw.len() < CACHE_PREFIX || raw[..4] != CACHE_MAGIC {
        return None;
    }
    if u16::from_le_bytes([raw[4], raw[5]]) != CACHE_VERSION {
        return None;
    }
    let stored_stamp = ShardStamp {
        checksum: u32::from_le_bytes([raw[6], raw[7], raw[8], raw[9]]),
        file_len: u64::from_le_bytes(raw[10..18].try_into().unwrap()),
    };
    if stored_stamp != stamp {
        return None;
    }
    let body_checksum = u32::from_le_bytes(raw[18..22].try_into().unwrap());
    if adler32(&raw[CACHE_PREFIX..]) != body_checksum {
        return None;
    }
    parse_body(&raw[CACHE_PREFIX..], lex).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> ShardStamp {
        ShardStamp {
            checksum: 0xabcd_1234,
            file_len: 777,
        }
    }

    fn sample_results(lex: &mut LocalInterner) -> Vec<Result<AppAnalysis, ApkError>> {
        let analysis = AppAnalysis {
            category: PlayCategory::Social,
            package: "com.cached.app".into(),
            webview_sites: Box::new([WebViewSiteSummary {
                method: lex.intern("loadUrl"),
                method_idx: 0,
                caller_class: lex.intern("com/sdk/ads/Banner"),
                caller_package: Some(PkgId(lex.intern("com.sdk.ads"))),
                label: LabelId::Sdk(3),
                in_deep_link_activity: false,
                is_load_method: true,
                argument: Some(lex.intern("https://ads.example/")),
                origin: UrlOrigin::Resolved,
            }]),
            ct_sites: Box::new([CtSiteSummary {
                method: lex.intern("launchUrl"),
                is_launch: true,
                caller_class: lex.intern("com/app/Main"),
                caller_package: None,
                label: LabelId::Unlabeled,
                in_deep_link_activity: true,
                argument: None,
                origin: UrlOrigin::Unknown,
            }]),
            custom_webview_classes: Box::new([lex.intern("com/app/MyWebView")]),
            unreachable_webview_sites: 2,
        };
        vec![
            Ok(analysis),
            Err(ApkError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            }),
            Err(ApkError::Truncated { context: "varint" }),
            Err(ApkError::AnalysisPanic {
                message: "injected".into(),
            }),
        ]
    }

    fn resolve_all(a: &AppAnalysis, lex: &LocalInterner) -> Vec<String> {
        let mut out = Vec::new();
        let mut a = a.clone();
        a.remap_symbols(&mut |s| {
            out.push(lex.resolve(s).to_owned());
            s
        });
        out
    }

    #[test]
    fn roundtrip_preserves_results_across_lexicons() {
        let dir = std::env::temp_dir().join(format!("wla-cache-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard-00000.done");

        let mut writer_lex = LocalInterner::new();
        let results = sample_results(&mut writer_lex);
        write_result_cache(&path, stamp(), &results, &writer_lex).unwrap();

        // Load into a *different* lexicon that already holds other strings
        // (so symbol ids cannot accidentally line up).
        let mut reader_lex = LocalInterner::new();
        reader_lex.intern("unrelated");
        reader_lex.intern("strings");
        let back = load_result_cache(&path, stamp(), &mut reader_lex).unwrap();
        assert_eq!(back.len(), results.len());
        match (&results[0], &back[0]) {
            (Ok(orig), Ok(loaded)) => {
                assert_eq!(orig.category, loaded.category);
                assert_eq!(orig.package, loaded.package);
                assert_eq!(
                    orig.unreachable_webview_sites,
                    loaded.unreachable_webview_sites
                );
                // Symbol ids differ; resolved strings must agree, in the
                // same remap traversal order (what join-time ids key on).
                assert_eq!(
                    resolve_all(orig, &writer_lex),
                    resolve_all(loaded, &reader_lex)
                );
            }
            other => panic!("expected Ok/Ok, got {other:?}"),
        }
        for i in 1..results.len() {
            assert_eq!(results[i], back[i], "error {i} did not roundtrip");
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
        let dir = std::env::temp_dir().join(format!("wla-cache-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.done");
        let lex = LocalInterner::new();
        write_result_cache(&path, stamp(), &[], &lex).unwrap();
        let mut rl = LocalInterner::new();
        assert!(load_result_cache(&path, stamp(), &mut rl).is_some());
        let other = ShardStamp {
            checksum: stamp().checksum ^ 1,
            ..stamp()
        };
        assert!(load_result_cache(&path, other, &mut rl).is_none());
        let other = ShardStamp {
            file_len: stamp().file_len + 1,
            ..stamp()
        };
        assert!(load_result_cache(&path, other, &mut rl).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_is_a_miss_never_partial() {
        let dir = std::env::temp_dir().join(format!("wla-cache-damage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.done");
        let mut lex = LocalInterner::new();
        let results = sample_results(&mut lex);
        write_result_cache(&path, stamp(), &results, &lex).unwrap();
        let pristine = fs::read(&path).unwrap();
        // Truncations and bit flips anywhere must miss, not half-load.
        for cut in (0..pristine.len()).step_by(pristine.len() / 17 + 1) {
            fs::write(&path, &pristine[..cut]).unwrap();
            let mut rl = LocalInterner::new();
            assert!(
                load_result_cache(&path, stamp(), &mut rl).is_none(),
                "cut {cut}"
            );
        }
        for pos in [0usize, 5, 12, 20, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x10;
            fs::write(&path, &bad).unwrap();
            let mut rl = LocalInterner::new();
            assert!(
                load_result_cache(&path, stamp(), &mut rl).is_none(),
                "flip {pos}"
            );
        }
        // Missing file: miss.
        fs::remove_file(&path).unwrap();
        let mut rl = LocalInterner::new();
        assert!(load_result_cache(&path, stamp(), &mut rl).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
