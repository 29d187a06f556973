//! Corpus assembly: sample post-filter app metadata, sample behaviour,
//! lower to bytes, and corrupt the paper's broken-APK fraction.

use crate::distributions::{log10_downloads, weighted_index};
use crate::ecosystem::{AppSpec, Ecosystem, EcosystemParams, MethodSet};
use crate::lowering::lower;
use crate::playstore::{
    package_name, AppMeta, PlayCategory, CUTOFF_2021, POPULAR_DOWNLOADS, SNAPSHOT_DAY,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wla_apk::corrupt::{corrupt, CorruptionKind};
use wla_sdk_index::SdkIndex;

/// Configuration for corpus generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Scale divisor: the corpus holds `146,800 / scale` apps. `scale = 1`
    /// is the paper's full corpus; tests use 1000, experiments 100.
    pub scale: u32,
    /// Master seed.
    pub seed: u64,
    /// The ecosystem's pool adoption totals.
    pub params: EcosystemParams,
    /// Fraction of containers to damage (paper: 242 / 146,800).
    pub corrupt_fraction: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            scale: 100,
            seed: 0xC0FF_EE00,
            params: EcosystemParams::default(),
            corrupt_fraction: crate::BROKEN_APKS as f64 / crate::POPULAR_MAINTAINED_APPS as f64,
        }
    }
}

impl CorpusConfig {
    /// Number of apps this configuration generates.
    pub fn app_count(&self) -> usize {
        (crate::POPULAR_MAINTAINED_APPS / self.scale as u64).max(1) as usize
    }
}

/// What is left of an app's [`AppSpec`] once it is lowered: its Play
/// metadata and the facts tests check the pipeline recovers. The
/// pipeline reads only `meta`.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Play metadata.
    pub meta: AppMeta,
    /// The app ships a `loadUrl` call no entry point reaches
    /// ([`AppSpec::dead_code_webview`]).
    pub dead_code_webview: bool,
    /// Some reachable code uses a WebView ([`AppSpec::uses_webview`]).
    pub uses_webview: bool,
    /// Some reachable code launches a Custom Tab
    /// ([`AppSpec::uses_custom_tabs`]).
    pub uses_custom_tabs: bool,
    /// The WebView methods the app's reachable code calls
    /// ([`AppSpec::method_census`]).
    pub method_census: MethodSet,
}

impl From<AppSpec> for GroundTruth {
    fn from(spec: AppSpec) -> Self {
        GroundTruth {
            uses_webview: spec.uses_webview(),
            uses_custom_tabs: spec.uses_custom_tabs(),
            method_census: spec.method_census(),
            dead_code_webview: spec.dead_code_webview,
            meta: spec.meta,
        }
    }
}

/// One generated app: the container bytes the pipeline sees, its Play
/// metadata and its ground truth. Nothing else of its [`AppSpec`] is
/// kept.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// Play metadata and ground truth (the pipeline reads only
    /// `spec.meta`).
    pub spec: GroundTruth,
    /// The SAPK container bytes, possibly corrupted.
    pub bytes: Vec<u8>,
    /// Whether this container was deliberately damaged.
    pub corrupted: bool,
}

/// Seeded corpus generator.
#[derive(Debug)]
pub struct Generator<'a> {
    catalog: &'a SdkIndex,
    config: CorpusConfig,
}

impl<'a> Generator<'a> {
    /// New generator over `catalog`.
    pub fn new(catalog: &'a SdkIndex, config: CorpusConfig) -> Self {
        Generator { catalog, config }
    }

    /// Sample metadata for one post-filter app (downloads ≥ 100K via
    /// rejection from the universe's log-normal; update date after the
    /// cutoff by construction); `category_weights` are
    /// [`PlayCategory::weight`] over [`PlayCategory::ALL`].
    fn sample_filtered_meta<R: Rng + ?Sized>(
        rng: &mut R,
        i: usize,
        category_weights: &[f64],
    ) -> AppMeta {
        let downloads = loop {
            let d = log10_downloads(rng);
            if d >= POPULAR_DOWNLOADS {
                break d;
            }
        };
        let cat = PlayCategory::ALL[weighted_index(rng, category_weights)];
        AppMeta {
            package: package_name(i as u64),
            on_play_store: true,
            downloads,
            category: cat,
            last_update_day: rng.gen_range(CUTOFF_2021..=SNAPSHOT_DAY),
        }
    }

    /// Generate the full corpus. Deterministic in the config seed. Each
    /// app's [`AppSpec`] is dropped once it is lowered, all but its
    /// [`GroundTruth`].
    pub fn generate(&self) -> Vec<GeneratedApp> {
        let n = self.config.app_count();
        let eco = Ecosystem::new(self.catalog, self.config.params.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let category_weights = PlayCategory::ALL.map(PlayCategory::weight);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let meta = Self::sample_filtered_meta(&mut rng, i, &category_weights);
            let spec = eco.sample_app(&mut rng, meta);
            let apk = lower(&spec, self.catalog, &mut rng);
            let clean = apk.encode();
            let corrupted = rng.gen::<f64>() < self.config.corrupt_fraction;
            let bytes = if corrupted {
                let kind = match rng.gen_range(0..4u8) {
                    0 => CorruptionKind::Truncate {
                        keep_num: rng.gen_range(8..200),
                    },
                    1 => CorruptionKind::BitFlip { pos_num: rng.gen() },
                    2 => CorruptionKind::ClobberRegister {
                        site_num: rng.gen(),
                    },
                    _ => CorruptionKind::ClobberMagic,
                };
                corrupt(&clean, kind)
            } else {
                clean
            };
            out.push(GeneratedApp {
                spec: GroundTruth::from(spec),
                bytes,
                corrupted,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::Sapk;

    fn small_corpus(scale: u32, seed: u64) -> Vec<GeneratedApp> {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale,
            seed,
            ..CorpusConfig::default()
        };
        Generator::new(&catalog, cfg).generate()
    }

    #[test]
    fn app_count_respects_scale() {
        let apps = small_corpus(1_000, 1);
        assert_eq!(apps.len(), 146); // 146,800 / 1000
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus(2_000, 9);
        let b = small_corpus(2_000, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bytes, y.bytes);
            assert_eq!(x.corrupted, y.corrupted);
        }
    }

    #[test]
    fn corruption_matches_flag() {
        // Force heavy corruption to exercise the path.
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 1_000,
            seed: 5,
            corrupt_fraction: 0.5,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let corrupted = apps.iter().filter(|a| a.corrupted).count();
        assert!(corrupted > 40 && corrupted < 110, "corrupted {corrupted}");
        for a in &apps {
            // Register clobbering is transparent to the container and only
            // fails at the dex layer, so "broken" means any layer fails.
            let ok = Sapk::decode(&a.bytes).is_ok_and(|apk| {
                apk.sections()
                    .iter()
                    .filter(|s| s.tag == wla_apk::SectionTag::Dex)
                    .all(|s| wla_apk::Dex::decode(&s.data).is_ok())
            });
            assert_eq!(ok, !a.corrupted, "decode ok={ok} corrupted={}", a.corrupted);
        }
    }

    #[test]
    fn default_corruption_fraction_is_papers() {
        let cfg = CorpusConfig::default();
        let expect = 242.0 / 146_800.0;
        assert!((cfg.corrupt_fraction - expect).abs() < 1e-9);
    }

    #[test]
    fn all_downloads_above_threshold() {
        let apps = small_corpus(2_000, 3);
        assert!(apps.iter().all(|a| a.spec.meta.downloads >= 100_000));
        assert!(apps
            .iter()
            .all(|a| a.spec.meta.last_update_day >= CUTOFF_2021));
    }
}
