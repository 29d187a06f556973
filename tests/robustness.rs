//! Robustness properties spanning crates: the analyzer must never panic on
//! damaged or adversarial inputs, and decompile→parse must round-trip the
//! facts the study depends on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use whatcha_lookin_at::wla_apk::corrupt::{corrupt, CorruptionKind};
use whatcha_lookin_at::wla_apk::{Dex, SectionTag};
use whatcha_lookin_at::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use whatcha_lookin_at::wla_corpus::lowering::lower;
use whatcha_lookin_at::wla_corpus::playstore::{AppMeta, PlayCategory};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use wla_oracle::analyze::analyze_app;
use wla_oracle::lifter::to_source_name;
use wla_oracle::{lift_dex, parse_source};

fn meta() -> AppMeta {
    AppMeta {
        package: "com.prop.app".into(),
        on_play_store: true,
        downloads: 1_000_000,
        category: PlayCategory::Casual,
        last_update_day: 800,
    }
}

fn app_bytes(seed: u64) -> Vec<u8> {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = eco.sample_app(&mut rng, meta());
    lower(&spec, &catalog, &mut rng).encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte noise never panics the full analyzer.
    #[test]
    fn analyzer_never_panics_on_noise(raw in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = analyze_app(&meta(), &raw);
    }

    /// Every corruption of a valid container is rejected, never mis-parsed.
    #[test]
    fn corrupted_containers_always_rejected(
        seed in 0u64..32,
        kind in prop_oneof![
            (8u8..250).prop_map(|keep_num| CorruptionKind::Truncate { keep_num }),
            any::<u8>().prop_map(|pos_num| CorruptionKind::BitFlip { pos_num }),
            Just(CorruptionKind::ClobberMagic),
            any::<u8>().prop_map(|site_num| CorruptionKind::ClobberRegister { site_num }),
            any::<u8>().prop_map(|slot_num| CorruptionKind::ClobberLookupTable { slot_num }),
        ],
    ) {
        let good = app_bytes(seed);
        prop_assert!(analyze_app(&meta(), &good).is_ok());
        let bad = corrupt(&good, kind);
        prop_assert!(analyze_app(&meta(), &bad).is_err(), "corruption {kind:?} accepted");
    }

    /// Decompile→parse round-trips class name, package, and superclass for
    /// every class of every generated app.
    #[test]
    fn decompile_parse_roundtrip(seed in 0u64..48) {
        let bytes = app_bytes(seed);
        let apk = whatcha_lookin_at::wla_apk::Sapk::decode(&bytes).unwrap();
        let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
        for file in lift_dex(&dex) {
            let parsed = parse_source(&file.source)
                .unwrap_or_else(|e| panic!("{}: {e}", file.binary_name));
            let expected = to_source_name(&file.binary_name);
            prop_assert_eq!(parsed.qualified_name(), expected.clone(), "{}", file.binary_name);
            // Superclass agreement (java/lang/Object prints as no extends).
            let class = dex.class(dex.type_by_name(&file.binary_name).unwrap()).unwrap();
            let dex_super = class
                .superclass
                .map(|t| to_source_name(dex.type_name(t)))
                .filter(|s| s != "java.lang.Object");
            prop_assert_eq!(parsed.resolved_superclass(), dex_super);
        }
    }

    /// Re-encoding a decoded dex is byte-identical (canonical encoding).
    #[test]
    fn dex_encoding_is_canonical(seed in 0u64..32) {
        let bytes = app_bytes(seed);
        let apk = whatcha_lookin_at::wla_apk::Sapk::decode(&bytes).unwrap();
        let dex_bytes = apk.section(SectionTag::Dex).unwrap();
        let dex = Dex::decode(dex_bytes).unwrap();
        prop_assert_eq!(&dex.encode()[..], &dex_bytes[..]);
    }
}

#[test]
fn html_parser_survives_the_corpus_of_site_pages() {
    use whatcha_lookin_at::wla_crawler::sites::{site_html, top_100_sites};
    use whatcha_lookin_at::wla_web::html::parse;
    for site in top_100_sites() {
        let doc = parse(&site_html(&site));
        assert!(doc.body().is_some(), "{}", site.host);
        assert!(
            !doc.get_elements_by_tag_name("p").is_empty(),
            "{}",
            site.host
        );
    }
}
