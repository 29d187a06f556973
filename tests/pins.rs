//! Byte pins on what `wla` prints and on the pages the crawl loads.
//!
//! Each `wla` subcommand runs at its default flags and its stdout is
//! pinned by a plain FNV-1a-64 (offset basis `0xcbf2_9ce4_8422_2325`,
//! prime `0x100_0000_01b3`, one byte at a time); debug and release builds
//! print the same bytes. `wla crawl` prints only LinkedIn's and Kik's
//! Figure 6 rows, so the ten-app crawl is pinned whole by
//! `crawl_equivalence::the_whole_crawl_is_pinned`. The two `--scale 10`
//! pins are ignored here and run in release by `./ci.sh`. A change that
//! moves a pinned output on purpose updates its constant and says why.

use std::process::Command;
use wla_crawler::sites::{site_page, top_100_sites};

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

/// Run `wla args` and return the FNV-1a-64 of its stdout, in hex.
fn stdout_digest(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wla"))
        .args(args)
        .output()
        .expect("spawn wla");
    assert!(
        out.status.success(),
        "wla {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(&mut hash, &out.stdout);
    format!("{hash:016x}")
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
        for (tag, n) in page.doc.tag_counts() {
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
