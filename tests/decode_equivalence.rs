//! Equivalence pins for the zero-copy fast paths.
//!
//! The hot pipeline decodes SDEX blobs zero-copy (`Dex::decode_bytes`,
//! span-based string pool) and computes the WebView subclass closure
//! directly on dex class tables. Both keep their slow, obviously-correct
//! counterparts as oracles: `sdex::oracle::decode` (per-entry owned
//! strings) and the lift-to-Java + re-parse route. These tests pin the
//! fast paths to the oracles on valid corpora *and* on byte-level
//! corruptions, and pin pipeline results across worker counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use whatcha_lookin_at::wla_apk::corrupt::{corrupt, CorruptionKind};
use whatcha_lookin_at::wla_apk::sdex::oracle;
use whatcha_lookin_at::wla_apk::{Dex, Sapk, SectionTag};
use whatcha_lookin_at::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use whatcha_lookin_at::wla_corpus::lowering::lower;
use whatcha_lookin_at::wla_corpus::playstore::{AppMeta, PlayCategory};
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use whatcha_lookin_at::wla_static::{run_pipeline, PipelineConfig};
use wla_oracle::{lift_dex, webview_subclasses, webview_subclasses_dex};

fn meta() -> AppMeta {
    AppMeta {
        package: "com.equiv.app".into(),
        on_play_store: true,
        downloads: 5_000_000,
        category: PlayCategory::Social,
        last_update_day: 900,
    }
}

/// The SDEX blobs of one generated app.
fn dex_blobs(seed: u64) -> Vec<Vec<u8>> {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = eco.sample_app(&mut rng, meta());
    let bytes = lower(&spec, &catalog, &mut rng).encode();
    let apk = Sapk::decode(&bytes).expect("generated app decodes");
    apk.sections()
        .iter()
        .filter(|s| s.tag == SectionTag::Dex)
        .map(|s| s.data.to_vec())
        .collect()
}

/// Zero-copy and oracle decoders must agree exactly: same structure on
/// `Ok`, same error kind on `Err`.
fn assert_decoders_agree(blob: &[u8], ctx: &str) {
    let fast = Dex::decode(blob);
    let slow = oracle::decode(blob);
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => assert_eq!(fast, slow, "{ctx}: structures differ"),
        (Err(fast), Err(slow)) => {
            assert_eq!(fast.kind(), slow.kind(), "{ctx}: error kinds differ")
        }
        (fast, slow) => panic!("{ctx}: outcomes differ: fast={fast:?} slow={slow:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every generated SDEX blob, and on every byte-level corruption of
    /// it — truncations, bit flips past the header, clobbered magic, and
    /// rechecksummed clobbers that reach the inner validators (bad UTF-8
    /// mid-pool included) — the zero-copy decoder is indistinguishable
    /// from the owning oracle.
    #[test]
    fn zero_copy_matches_oracle_under_corruption(
        seed in 0u64..24,
        kind in prop_oneof![
            (4u8..=255).prop_map(|keep_num| CorruptionKind::Truncate { keep_num }),
            any::<u8>().prop_map(|pos_num| CorruptionKind::BitFlip { pos_num }),
            Just(CorruptionKind::ClobberMagic),
            any::<u8>().prop_map(|pos_num| CorruptionKind::ClobberRechecksum { pos_num }),
            any::<u8>().prop_map(|site_num| CorruptionKind::ClobberRegister { site_num }),
            any::<u8>().prop_map(|slot_num| CorruptionKind::ClobberLookupTable { slot_num }),
        ],
    ) {
        for (i, blob) in dex_blobs(seed).iter().enumerate() {
            assert_decoders_agree(blob, &format!("seed {seed} dex {i} (valid)"));
            let bad = corrupt(blob, kind);
            assert_decoders_agree(&bad, &format!("seed {seed} dex {i} {kind:?}"));
        }
    }

    /// Arbitrary byte soup: both decoders reject (or accept) identically.
    #[test]
    fn zero_copy_matches_oracle_on_noise(raw in proptest::collection::vec(any::<u8>(), 0..300)) {
        assert_decoders_agree(&raw, "noise");
    }
}

/// The dex-direct WebView subclass closure equals the paper-faithful
/// lift-to-Java + re-parse oracle over whole generated apps.
#[test]
fn dex_direct_subclasses_match_lift_parse_oracle() {
    for seed in 0..40u64 {
        let dexes: Vec<Dex> = dex_blobs(seed)
            .iter()
            .map(|b| Dex::decode(b).expect("generated dex decodes"))
            .collect();
        let mut lifted = Vec::new();
        for dex in &dexes {
            lifted.extend(lift_dex(dex));
        }
        assert_eq!(
            webview_subclasses_dex(&dexes),
            webview_subclasses(&lifted),
            "seed {seed}"
        );
    }
}

/// Pipeline results — analyses, errors, and global symbol ids — are a
/// pure function of the corpus, independent of worker count, on corpora
/// that include corrupted containers. 1:250 is 587 apps, ten 64-app
/// claims: enough for every worker count here to run.
#[test]
fn pipeline_identical_across_worker_counts() {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 250,
        seed: 41,
        corrupt_fraction: 0.2,
        ..CorpusConfig::default()
    };
    let inputs = Generator::new(&catalog, cfg).generate();
    let baseline = run_pipeline(&inputs, &catalog, PipelineConfig { workers: 1 });
    assert!(
        baseline.stats.broken > 0,
        "corpus should include broken apps"
    );
    for workers in [2usize, 4] {
        let run = run_pipeline(&inputs, &catalog, PipelineConfig { workers });
        assert_eq!(run.stats.workers.len(), workers);
        assert_eq!(run.results().len(), baseline.results().len());
        for (i, (a, b)) in run.results().zip(baseline.results()).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "app {i}, workers {workers}"),
                (Err(x), Err(y)) => assert_eq!(x, y, "app {i}, workers {workers}"),
                other => panic!("app {i}, workers {workers}: outcome mismatch {other:?}"),
            }
        }
        assert_eq!(run.symbols.len(), baseline.symbols.len());
    }
}
