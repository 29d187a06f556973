//! Byte pins on what `wla` prints, on the corpus it generates, on the
//! SDK catalog, on the resume cache it writes and on the pages the crawl
//! loads.
//!
//! Each `wla` subcommand runs at its default flags and its stdout is
//! pinned by a plain FNV-1a-64 (offset basis `0xcbf2_9ce4_8422_2325`,
//! prime `0x100_0000_01b3`, one byte at a time); debug and release builds
//! print the same bytes. `wla crawl` prints only LinkedIn's and Kik's
//! Figure 6 rows, so the ten-app crawl is pinned whole by
//! `crawl_equivalence::the_whole_crawl_is_pinned`. The two `--scale 10`
//! pins are ignored here and run in release by `./ci.sh`, as is the check
//! that EXPERIMENTS.md's "paper vs measured" blocks are what `wla all
//! --scale 25` and `wla static --scale 10` print. A change that moves a
//! pinned output on purpose updates its constant and says why.

use std::path::PathBuf;
use std::process::Command;
use wla_corpus::{write_sharded_corpus, CorpusConfig, EcosystemParams, GeneratedApp, Generator};
use wla_crawler::sites::{site_page, top_100_sites};
use wla_sdk_index::catalog::paper_catalog;
use wla_sdk_index::{Sdk, SdkIndex};
use wla_static::stream::MANIFEST_SUBDIR;
use wla_static::{run_pipeline_streamed, StreamConfig};

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(&mut hash, bytes);
    hash
}

fn generate(config: CorpusConfig) -> Vec<GeneratedApp> {
    Generator::new(&SdkIndex::paper(), config).generate()
}

/// Run `wla args` and return its stdout.
fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wla"))
        .args(args)
        .output()
        .expect("spawn wla");
    assert!(
        out.status.success(),
        "wla {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("wla prints UTF-8")
}

/// Run `wla args` and return the FNV-1a-64 of its stdout, in hex.
fn stdout_digest(args: &[&str]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(&mut hash, stdout(args).as_bytes());
    format!("{hash:016x}")
}

/// Every "paper vs measured" table in `text`, in order, as its
/// experiment id and its lines: the title line `<id> — paper vs
/// measured` (an id is alphanumeric, as `table3` or `fig7`) and the
/// table's `+`/`|` lines under it.
fn comparison_blocks(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut lines = text.lines();
    let mut blocks = Vec::new();
    while let Some(line) = lines.next() {
        let id = line.strip_suffix(" — paper vs measured");
        if let Some(id) = id.filter(|id| id.bytes().all(|b| b.is_ascii_alphanumeric())) {
            let table = lines.clone().take_while(|l| l.starts_with(['+', '|']));
            blocks.push((id, std::iter::once(line).chain(table).collect()));
        }
    }
    blocks
}

#[test]
fn all_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["all"]), "0aad9efaeaa0a9da");
}

#[test]
fn static_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["static"]), "e036a1652a52aaa2");
}

#[test]
fn funnel_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["funnel"]), "0768822dd048d248");
}

#[test]
fn dynamic_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["dynamic"]), "e5aacbe4905c1ed6");
}

#[test]
fn crawl_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["crawl"]), "2d869fb010731ebb");
}

#[test]
fn labels_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["labels"]), "2b5b077af866692b");
}

#[test]
fn ablation_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["ablation"]), "2604408decdf5c86");
}

#[test]
fn whatif_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["whatif"]), "86fd0634a21a27cf");
}

#[test]
#[ignore = "14,680 apps: run in release (./ci.sh)"]
fn static_scale_10_stdout_is_pinned() {
    assert_eq!(
        stdout_digest(&["static", "--scale", "10"]),
        "a86cfe468d67d0b1"
    );
}

#[test]
#[ignore = "14,680 apps: run in release (./ci.sh)"]
fn all_scale_10_stdout_is_pinned() {
    assert_eq!(stdout_digest(&["all", "--scale", "10"]), "7790733b4080e2d1");
}

/// EXPERIMENTS.md's "paper vs measured" blocks are what the runs it
/// names print, byte for byte: Table 3's as `wla static --scale 10`
/// prints it, and every other one as `wla all --scale 25` does. The doc
/// holds one block per experiment `wla all` prints, in its order.
#[test]
#[ignore = "5,872 and 14,680 apps: run in release (./ci.sh)"]
fn experiments_blocks_are_what_their_runs_print() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("read EXPERIMENTS.md");
    let (all, static_10) = (
        stdout(&["all", "--scale", "25"]),
        stdout(&["static", "--scale", "10"]),
    );
    let (all, static_10) = (comparison_blocks(&all), comparison_blocks(&static_10));
    let documented = comparison_blocks(&doc);
    fn ids<'a>(blocks: &[(&'a str, Vec<&str>)]) -> Vec<&'a str> {
        blocks.iter().map(|b| b.0).collect()
    }
    assert_eq!(ids(&documented), ids(&all), "EXPERIMENTS.md's blocks");
    for (id, block) in &documented {
        let run = if *id == "table3" { &static_10 } else { &all };
        let printed = &run.iter().find(|b| b.0 == *id).expect("a printed block").1;
        assert!(
            printed == block,
            "EXPERIMENTS.md's {id} block:\n{}\nthe run prints:\n{}",
            block.join("\n"),
            printed.join("\n")
        );
    }
}

/// The 100 prepared pages, pinned: their summed heap, their fetch-list
/// length, and a plain FNV-1a-64 over, per site in order, the page URL,
/// each `(tag, count)` of the document's tag census (the tag's bytes,
/// then the count as a little-endian `u64`), its text content and
/// every fetch URL. A change to the markup, the parser or the fetch
/// list that moves one of them fails it.
#[test]
fn prepared_pages_are_pinned() {
    let (mut hash, mut heap, mut urls) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
    for site in top_100_sites() {
        let page = site_page(&site);
        heap += page.heap_bytes();
        urls += page.sub_urls.len();
        fnv(&mut hash, page.url.as_bytes());
        let mut tags = std::collections::BTreeMap::new();
        for tag in page.doc.walk().into_iter().filter_map(|n| page.doc.tag(n)) {
            *tags.entry(tag).or_insert(0usize) += 1;
        }
        for (tag, n) in tags {
            fnv(&mut hash, tag.as_bytes());
            fnv(&mut hash, &(n as u64).to_le_bytes());
        }
        fnv(&mut hash, page.doc.text_content().as_bytes());
        for url in &page.sub_urls {
            fnv(&mut hash, url.as_bytes());
        }
    }
    assert_eq!((heap, urls), (286_374, 930));
    assert_eq!(format!("{hash:016x}"), "37d7485d65d063a4");
}

/// The bytes of the 1:100 corpus at `wla`'s default seed, pinned by
/// FNV-1a-64 over every app's `GeneratedApp::bytes` concatenated in
/// corpus order: a change to the generator, the lowering or the container
/// encoding that moves one byte fails it.
#[test]
fn scale_100_corpus_bytes_are_pinned() {
    let apps = generate(CorpusConfig {
        scale: 100,
        seed: 0xDA7A_5EED,
        ..CorpusConfig::default()
    });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0;
    for app in &apps {
        len += app.bytes.len();
        fnv(&mut hash, &app.bytes);
    }
    assert_eq!((apps.len(), len), (1_468, 2_434_849));
    assert_eq!(format!("{hash:016x}"), "d9abe1feba2eb802");
}

/// The same pin after `wla whatif`'s last scenario, where payment,
/// identity, social and advertising SDKs move all of their WebView
/// adoption to Custom Tabs: the one path that changes
/// [`EcosystemParams`].
#[test]
fn whatif_corpus_bytes_are_pinned() {
    use wla_sdk_index::SdkCategory::*;
    let apps = generate(CorpusConfig {
        scale: 100,
        seed: 0xDA7A_5EED,
        params: EcosystemParams::default()
            .simulate_ct_migration(&[Payments, Authentication, Social, Advertising], 1.0),
        ..CorpusConfig::default()
    });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0;
    for app in &apps {
        len += app.bytes.len();
        fnv(&mut hash, &app.bytes);
    }
    assert_eq!((apps.len(), len), (1_468, 2_108_356));
    assert_eq!(format!("{hash:016x}"), "e1dfd42fc23f525a");
}

/// FNV-1a-64 over every catalog entry, in order: name, category,
/// mechanism, prefixes, both calibration targets and the obfuscation
/// flag. A dropped, reordered or retyped entry moves it.
#[test]
fn catalog_entries_are_pinned() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for s in paper_catalog() {
        let line = format!(
            "{}|{:?}|{:?}|{}|{}|{}|{}\n",
            s.name,
            s.category,
            s.mechanism,
            s.prefixes.join(","),
            s.wv_apps,
            s.ct_apps,
            s.obfuscated
        );
        fnv(&mut hash, line.as_bytes());
    }
    assert_eq!(hash, 0x0027_65ce_691d_e9fc);
}

/// No two catalog SDKs share a primary prefix. The corpus lowering names
/// an SDK's classes `{primary prefix}/…`, so two SDKs with one prefix in
/// an app would define the same class twice.
#[test]
fn catalog_primary_prefixes_are_unique() {
    let catalog = SdkIndex::paper();
    let mut prefixes: Vec<&str> = catalog.sdks().iter().map(Sdk::primary_prefix).collect();
    prefixes.sort_unstable();
    let shared: Vec<&str> = prefixes
        .windows(2)
        .filter(|w| w[0] == w[1])
        .map(|w| w[0])
        .collect();
    assert!(shared.is_empty(), "primary prefixes held twice: {shared:?}");
}

/// The resume cache's bytes are a format: a writer that drifted would
/// turn every existing cache into a miss. The 1:2000 corpus at seed 7,
/// written as 64-app shards, must produce exactly the `.done` files the
/// boxed per-app records wrote (length and FNV-1a-64 recorded then), with
/// the default broken share and with one app in ten broken.
#[test]
fn resume_cache_bytes_are_pinned() {
    let catalog = SdkIndex::paper();
    /// A cache file's name, length and digest.
    type Pinned = (&'static str, usize, u64);
    let pinned: [(f64, [Pinned; 2]); 2] = [
        (
            CorpusConfig::default().corrupt_fraction,
            [
                ("shard-00000.done", 39_893, 0xc08c_57d5_9b7d_d0cf),
                ("shard-00001.done", 6_570, 0xf5a8_482a_2eab_db01),
            ],
        ),
        (
            0.1,
            [
                ("shard-00000.done", 32_674, 0xe534_626d_b465_be79),
                ("shard-00001.done", 5_308, 0x6bf4_5ece_88fc_3285),
            ],
        ),
    ];
    for (corrupt, files) in pinned {
        let apps = generate(CorpusConfig {
            scale: 2_000,
            seed: 7,
            corrupt_fraction: corrupt,
            ..CorpusConfig::default()
        });
        let dir = temp_dir(&format!("pinned-{}", files[0].1));
        write_sharded_corpus(&dir, &apps, 64).unwrap();
        let out = run_pipeline_streamed(&dir, &catalog, StreamConfig::default()).unwrap();
        assert_eq!(out.stats.stream.entries_streamed, apps.len());
        let mut written: Vec<_> = std::fs::read_dir(dir.join(MANIFEST_SUBDIR))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        written.sort();
        assert_eq!(written.len(), files.len());
        for (path, (name, len, digest)) in written.iter().zip(files) {
            let raw = std::fs::read(path).unwrap();
            assert_eq!(path.file_name().unwrap().to_str(), Some(name));
            assert_eq!(raw.len(), len, "{name} at corrupt fraction {corrupt}");
            assert_eq!(
                fnv1a64(&raw),
                digest,
                "{name} at corrupt fraction {corrupt}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A fresh directory for `tag` under the system temp dir, unique to this
/// process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wla-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
