//! The linear-scan SDK labeler `wla_sdk_index`'s interned trie
//! (`SdkIndex::label_id`) is pinned against, and the baseline of the
//! `sdk_labeling` ablation bench.

use wla_sdk_index::{is_obfuscated_package, LabelId, SdkIndex, CORE_ANDROID_PREFIX};

/// Linear-scan labeling with [`SdkIndex::label_id`]'s semantics over
/// `index`'s catalog: core-Android precedence, then the longest
/// segment-aligned catalog prefix, then the obfuscation heuristic.
pub fn label_linear(index: &SdkIndex, package: &str) -> LabelId {
    if package == CORE_ANDROID_PREFIX || package.starts_with("com.google.android.") {
        return LabelId::CoreAndroid;
    }
    let mut best: Option<(usize, usize)> = None;
    for (i, sdk) in index.sdks().iter().enumerate() {
        for &p in sdk.prefixes {
            let matches = package == p
                || (package.len() > p.len()
                    && package.starts_with(p)
                    && package.as_bytes()[p.len()] == b'.');
            if matches && best.is_none_or(|(l, _)| p.len() > l) {
                best = Some((p.len(), i));
            }
        }
    }
    match best {
        Some((_, i)) if index.sdks()[i].obfuscated => LabelId::Obfuscated,
        Some((_, i)) => LabelId::Sdk(i as u16),
        None if is_obfuscated_package(package) => LabelId::Obfuscated,
        None => LabelId::Unlabeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trie_and_linear_agree_on_catalog() {
        let index = SdkIndex::paper();
        let probes = [
            "com.applovin.adview",
            "com.applovin",
            "com.applovinx",
            "com.google.android",
            "com.google.android.gms",
            "com.google.android.gms.ads",
            "com.google.firebase.auth.internal",
            "io.flutter.plugins.webview",
            "zendesk.support.ui",
            "a.b",
            "ab.cd.ef",
            "com.unknownthing.x",
            "epic.mychart.android",
            "com.navercorp.nid.oauth",
        ];
        for p in probes {
            assert_eq!(
                index.label_id(p),
                label_linear(&index, p),
                "mismatch for {p}"
            );
        }
    }

    #[test]
    fn label_id_agrees_with_linear_on_every_catalog_prefix() {
        let index = SdkIndex::paper();
        for p in index.sdks().iter().flat_map(|s| s.prefixes) {
            for probe in [p.to_string(), format!("{p}.internal.ui"), format!("{p}x")] {
                assert_eq!(
                    index.label_id(&probe),
                    label_linear(&index, &probe),
                    "mismatch for {probe}"
                );
            }
        }
    }

    /// One package segment group: a whole catalog prefix, the core-Android
    /// prefix, an obfuscation-length segment, or a random segment.
    fn segment() -> impl Strategy<Value = String> {
        let prefixes: Vec<&str> = SdkIndex::paper()
            .sdks()
            .iter()
            .flat_map(|s| s.prefixes)
            .copied()
            .collect();
        prop_oneof![
            any::<prop::sample::Index>()
                .prop_map(move |i| prefixes[i.index(prefixes.len())].to_owned()),
            Just(CORE_ANDROID_PREFIX.to_owned()),
            "[a-z]{1,2}",
            "[a-z0-9_]{1,8}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The one labeler equals the linear scan on packages built around
        /// the real catalog: core-Android precedence, obfuscated catalog
        /// entries, the obfuscation heuristic and longest-prefix match.
        #[test]
        fn prop_label_id_matches_linear_on_catalog_packages(
            segments in proptest::collection::vec(segment(), 1..5)
        ) {
            let index = SdkIndex::paper();
            let package = segments.join(".");
            prop_assert_eq!(index.label_id(&package), label_linear(&index, &package), "{}", package);
        }
    }
}
