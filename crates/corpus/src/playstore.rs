//! Play Store metadata model and the Table 2 funnel universe.
//!
//! The paper starts from the AndroZoo snapshot of 2023-01-13 (6,507,222
//! Play-Store apps), joins Google Play metadata, and filters to apps with
//! ≥100K downloads updated after 2021-01-01. This module generates a
//! metadata universe whose marginals are calibrated so that *running the
//! filter code* reproduces the funnel — the rows are measured, not copied.
//! [`count_funnel`] measures them on the universe's RNG stream without
//! building its records; tests pin it to the records, word for word.

use crate::distributions::{coin, log10_downloads};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

/// Days between 2020-01-01 (our epoch) and the AndroZoo snapshot date
/// (2023-01-13).
pub const SNAPSHOT_DAY: u32 = 1_108;
/// Day number of 2021-01-01 in our epoch — the paper's maintenance cutoff.
pub const CUTOFF_2021: u32 = 366;

/// Google Play app categories (the subset that covers the paper's Figure 3
/// top-10 charts plus the long tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum PlayCategory {
    Education,
    Entertainment,
    Tools,
    Music,
    Puzzle,
    Arcade,
    Action,
    Simulation,
    Casual,
    Racing,
    Communication,
    Social,
    Shopping,
    Finance,
    Productivity,
    Photography,
    Sports,
    News,
    Travel,
    Lifestyle,
    Health,
    Books,
    Business,
    Video,
    Weather,
}

impl PlayCategory {
    /// All categories, in a stable order.
    pub const ALL: [PlayCategory; 25] = [
        PlayCategory::Education,
        PlayCategory::Entertainment,
        PlayCategory::Tools,
        PlayCategory::Music,
        PlayCategory::Puzzle,
        PlayCategory::Arcade,
        PlayCategory::Action,
        PlayCategory::Simulation,
        PlayCategory::Casual,
        PlayCategory::Racing,
        PlayCategory::Communication,
        PlayCategory::Social,
        PlayCategory::Shopping,
        PlayCategory::Finance,
        PlayCategory::Productivity,
        PlayCategory::Photography,
        PlayCategory::Sports,
        PlayCategory::News,
        PlayCategory::Travel,
        PlayCategory::Lifestyle,
        PlayCategory::Health,
        PlayCategory::Books,
        PlayCategory::Business,
        PlayCategory::Video,
        PlayCategory::Weather,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PlayCategory::Education => "Education",
            PlayCategory::Entertainment => "Entertainment",
            PlayCategory::Tools => "Tools",
            PlayCategory::Music => "Music",
            PlayCategory::Puzzle => "Puzzle",
            PlayCategory::Arcade => "Arcade",
            PlayCategory::Action => "Action",
            PlayCategory::Simulation => "Simulation",
            PlayCategory::Casual => "Casual",
            PlayCategory::Racing => "Racing",
            PlayCategory::Communication => "Communication",
            PlayCategory::Social => "Social",
            PlayCategory::Shopping => "Shopping",
            PlayCategory::Finance => "Finance",
            PlayCategory::Productivity => "Productivity",
            PlayCategory::Photography => "Photography",
            PlayCategory::Sports => "Sports",
            PlayCategory::News => "News",
            PlayCategory::Travel => "Travel",
            PlayCategory::Lifestyle => "Lifestyle",
            PlayCategory::Health => "Health",
            PlayCategory::Books => "Books",
            PlayCategory::Business => "Business",
            PlayCategory::Video => "Video",
            PlayCategory::Weather => "Weather",
        }
    }

    /// Inverse of [`PlayCategory::label`], for parsing persisted corpora.
    pub fn from_label(label: &str) -> Option<PlayCategory> {
        PlayCategory::ALL
            .iter()
            .copied()
            .find(|c| c.label() == label)
    }

    /// Whether this is a gaming category (Figure 3 notes gaming apps'
    /// heavier use of CT-based social SDKs).
    pub fn is_game(self) -> bool {
        matches!(
            self,
            PlayCategory::Puzzle
                | PlayCategory::Arcade
                | PlayCategory::Action
                | PlayCategory::Simulation
                | PlayCategory::Casual
                | PlayCategory::Racing
        )
    }

    /// Relative prevalence among popular apps (unnormalized). Games and
    /// education dominate high-download populations.
    pub fn weight(self) -> f64 {
        match self {
            PlayCategory::Education => 9.0,
            PlayCategory::Entertainment => 7.0,
            PlayCategory::Tools => 7.5,
            PlayCategory::Music => 4.5,
            PlayCategory::Puzzle => 8.0,
            PlayCategory::Arcade => 6.5,
            PlayCategory::Action => 5.5,
            PlayCategory::Simulation => 5.0,
            PlayCategory::Casual => 6.0,
            PlayCategory::Racing => 3.0,
            PlayCategory::Communication => 3.5,
            PlayCategory::Social => 3.0,
            PlayCategory::Shopping => 4.0,
            PlayCategory::Finance => 4.5,
            PlayCategory::Productivity => 4.0,
            PlayCategory::Photography => 3.5,
            PlayCategory::Sports => 3.0,
            PlayCategory::News => 2.5,
            PlayCategory::Travel => 2.5,
            PlayCategory::Lifestyle => 3.5,
            PlayCategory::Health => 3.0,
            PlayCategory::Books => 2.5,
            PlayCategory::Business => 3.0,
            PlayCategory::Video => 3.5,
            PlayCategory::Weather => 1.5,
        }
    }
}

/// Metadata for one app, as scraped from the Play Store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppMeta {
    /// Application package name.
    pub package: String,
    /// Whether the Play Store still lists the app (AndroZoo retains
    /// delisted apps; the paper found metadata for only 2.45M of 6.5M).
    pub on_play_store: bool,
    /// Install count.
    pub downloads: u64,
    /// Play category.
    pub category: PlayCategory,
    /// Last update, in days since 2020-01-01.
    pub last_update_day: u32,
}

/// The package name of app `i`: `com.vendor{i / 512:05}.app{i % 512:03}`,
/// 22 bytes below 51,200,000 apps, in a `String` of exactly its length.
pub fn package_name(i: u64) -> String {
    let mut name = String::with_capacity(22);
    let _ = write!(name, "com.vendor{:05}.app{:03}", i / 512, i % 512);
    name
}

/// Minimum download count of a popular app (Table 2's 100K+ row).
pub const POPULAR_DOWNLOADS: u64 = 100_000;

/// The §3.1.1 selection filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterSpec {
    /// Minimum download count (paper: 100K).
    pub min_downloads: u64,
    /// Minimum last-update day (paper: 2021-01-01).
    pub updated_after_day: u32,
}

impl Default for FilterSpec {
    fn default() -> Self {
        FilterSpec {
            min_downloads: POPULAR_DOWNLOADS,
            updated_after_day: CUTOFF_2021,
        }
    }
}

#[cfg(test)]
impl FilterSpec {
    /// Does `meta` pass the popularity filter (ignoring maintenance)?
    pub fn is_popular(&self, meta: &AppMeta) -> bool {
        meta.on_play_store && meta.downloads >= self.min_downloads
    }

    /// Does `meta` pass the full filter?
    pub fn accepts(&self, meta: &AppMeta) -> bool {
        self.is_popular(meta) && meta.last_update_day >= self.updated_after_day
    }
}

/// The metadata universe a caller picks: its size and its seed. The
/// calibration is constants: the on-Play probability, the download model
/// ([`log10_downloads`]) and [`maintained_probability`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseConfig {
    /// Total AndroZoo Play apps to generate.
    pub total_apps: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            total_apps: crate::ANDROZOO_PLAY_APPS,
            seed: 0x5EED_AB00,
        }
    }
}

/// Probability an app's metadata is still on the Play Store: 2,454,488 /
/// 6,507,222.
const ON_PLAY_PROBABILITY: f64 = 0.377_2;
/// Base and slope per log10(download) of [`maintained_probability`], tuned
/// so that P(updated after 2021 | downloads ≥ 100K) ≈ 146,800 / 198,324 =
/// 74.0%.
const MAINTENANCE_BASE: f64 = 0.27;
/// See [`MAINTENANCE_BASE`].
const MAINTENANCE_SLOPE: f64 = 0.079;

/// Probability that an app with `downloads` was updated after the cutoff.
/// Popular apps are better maintained; the linear-in-log10 model is clamped
/// to a sane range.
pub fn maintained_probability(downloads: u64) -> f64 {
    let logd = (downloads.max(1) as f64).log10();
    (MAINTENANCE_BASE + MAINTENANCE_SLOPE * logd).clamp(0.02, 0.98)
}

/// The `last_update_day` of a record with `downloads` installs: the
/// maintenance coin, then a day on the side of the cutoff it picked. Two
/// words.
fn update_day(rng: &mut StdRng, downloads: u64) -> u32 {
    if coin(rng, maintained_probability(downloads)) {
        rng.gen_range(CUTOFF_2021..=SNAPSHOT_DAY)
    } else {
        rng.gen_range(0..CUTOFF_2021)
    }
}

/// Words of the RNG stream every record takes, whatever it holds: the
/// on-Play coin, two for the download normal, two for [`update_day`] and
/// the category pick.
const WORDS_PER_RECORD: usize = 6;

/// Advance `rng` by `words` words.
fn skip(rng: &mut StdRng, words: usize) {
    for _ in 0..words {
        rng.next_u64();
    }
}

/// Table 2's funnel counts over a metadata universe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunnelCounts {
    /// Records generated.
    pub total: u64,
    /// Records still on the Play Store.
    pub found: u64,
    /// Found records with at least `min_downloads` installs.
    pub popular: u64,
    /// Popular records updated on or after `updated_after_day`.
    pub maintained: u64,
}

/// The metadata universe `cfg` describes, counted through `filter` without
/// building a record: one RNG stream of six words a record, read only as
/// far as each record's verdict needs. An off-Play record skips its last
/// five words and a found one under `min_downloads` its last three; only a
/// popular record draws its update day.
pub fn count_funnel(cfg: &UniverseConfig, filter: &FilterSpec) -> FunnelCounts {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut counts = FunnelCounts {
        total: cfg.total_apps,
        ..FunnelCounts::default()
    };
    for _ in 0..cfg.total_apps {
        if !coin(&mut rng, ON_PLAY_PROBABILITY) {
            skip(&mut rng, WORDS_PER_RECORD - 1);
            continue;
        }
        counts.found += 1;
        let downloads = log10_downloads(&mut rng);
        if downloads < filter.min_downloads {
            skip(&mut rng, WORDS_PER_RECORD - 3);
            continue;
        }
        counts.popular += 1;
        if update_day(&mut rng, downloads) >= filter.updated_after_day {
            counts.maintained += 1;
        }
        skip(&mut rng, WORDS_PER_RECORD - 5);
    }
    counts
}

/// Streaming generator for the metadata universe, the records
/// [`count_funnel`] counts: the ecosystem and calibration tests fold it.
/// Generating 6.5M records allocates only per-record strings; memory stays
/// flat.
#[cfg(test)]
#[derive(Debug)]
pub struct MetadataUniverse {
    cfg: UniverseConfig,
    rng: StdRng,
    produced: u64,
    category_weights: Vec<f64>,
}

#[cfg(test)]
impl MetadataUniverse {
    /// New universe with the given calibration.
    pub fn new(cfg: UniverseConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let category_weights = PlayCategory::ALL.iter().map(|c| c.weight()).collect();
        MetadataUniverse {
            cfg,
            rng,
            produced: 0,
            category_weights,
        }
    }
}

#[cfg(test)]
impl Iterator for MetadataUniverse {
    type Item = AppMeta;

    fn next(&mut self) -> Option<AppMeta> {
        if self.produced >= self.cfg.total_apps {
            return None;
        }
        let i = self.produced;
        self.produced += 1;
        let rng = &mut self.rng;

        let on_play_store = coin(rng, ON_PLAY_PROBABILITY);
        // Downloads exist in AndroZoo even for delisted apps, but the paper
        // can only filter on scraped metadata; model both the same way.
        let downloads = log10_downloads(rng);
        let last_update_day = update_day(rng, downloads);
        let cat_idx = crate::distributions::weighted_index(rng, &self.category_weights);

        Some(AppMeta {
            package: package_name(i),
            on_play_store,
            downloads,
            category: PlayCategory::ALL[cat_idx],
            last_update_day,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_universe(n: u64) -> Vec<AppMeta> {
        let cfg = UniverseConfig {
            total_apps: n,
            ..UniverseConfig::default()
        };
        MetadataUniverse::new(cfg).collect()
    }

    #[test]
    fn package_names_are_exact_size() {
        for i in [0, 511, 512, 6_507_221, 51_199_999] {
            let name = package_name(i);
            assert_eq!(name, format!("com.vendor{:05}.app{:03}", i / 512, i % 512));
            assert_eq!((name.len(), name.capacity()), (22, 22), "{name}");
        }
    }

    #[test]
    fn produces_exactly_n() {
        assert_eq!(small_universe(1_000).len(), 1_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_universe(500);
        let b = small_universe(500);
        assert_eq!(a, b);
    }

    #[test]
    fn funnel_ratios_hold_on_sample() {
        let n = 400_000u64;
        let metas = small_universe(n);
        let filter = FilterSpec::default();
        let found = metas.iter().filter(|m| m.on_play_store).count() as f64;
        let popular = metas.iter().filter(|m| filter.is_popular(m)).count() as f64;
        let maintained = metas.iter().filter(|m| filter.accepts(m)).count() as f64;

        let found_ratio = found / n as f64;
        assert!((found_ratio - 0.3772).abs() < 0.01, "found {found_ratio}");

        let popular_ratio = popular / found;
        assert!(
            (popular_ratio - 0.0808).abs() < 0.006,
            "popular {popular_ratio}"
        );

        let maintained_ratio = maintained / popular;
        assert!(
            (maintained_ratio - 0.7402).abs() < 0.03,
            "maintained {maintained_ratio}"
        );
    }

    #[test]
    fn every_record_takes_six_words() {
        let cfg = UniverseConfig {
            total_apps: 20_000,
            ..UniverseConfig::default()
        };
        let mut universe = MetadataUniverse::new(cfg);
        let mut reference = StdRng::seed_from_u64(cfg.seed);
        while universe.next().is_some() {
            skip(&mut reference, WORDS_PER_RECORD);
            assert_eq!(
                universe.rng, reference,
                "after record {}",
                universe.produced
            );
        }
        assert_eq!(universe.produced, cfg.total_apps);
    }

    /// The funnel as the records count it.
    fn fold_funnel(cfg: UniverseConfig, filter: &FilterSpec) -> FunnelCounts {
        MetadataUniverse::new(cfg).fold(FunnelCounts::default(), |mut c, meta| {
            c.total += 1;
            c.found += u64::from(meta.on_play_store);
            c.popular += u64::from(filter.is_popular(&meta));
            c.maintained += u64::from(filter.accepts(&meta));
            c
        })
    }

    #[test]
    fn counting_equals_folding_the_records() {
        for (seed, total_apps) in [(0x5EED_AB00, 50_000), (1, 30_000), (0xDA7A_5EED, 30_000)] {
            let cfg = UniverseConfig { total_apps, seed };
            for filter in [
                FilterSpec::default(),
                FilterSpec {
                    min_downloads: 1_000,
                    updated_after_day: 700,
                },
            ] {
                let counted = count_funnel(&cfg, &filter);
                assert_eq!(
                    counted,
                    fold_funnel(cfg, &filter),
                    "seed {seed:#x}, {filter:?}"
                );
                assert!(
                    counted.maintained > 0,
                    "seed {seed:#x}: an empty funnel proves little"
                );
            }
        }
    }

    /// Over the full 6,507,222-record universe, at the seed `wla`'s
    /// default `--seed` gives the funnel (`0xDA7A_5EED ^ 0xFA11_FA11`,
    /// where it must read Table 2's rows), at `--seed 424242`'s, and at the
    /// universe's own default. Seconds in release, minutes in debug:
    /// `cargo test --release -q -p wla-corpus --lib -- --ignored`.
    #[test]
    #[ignore = "6.5M records three times; run in release"]
    fn counting_equals_folding_the_full_universe() {
        let filter = FilterSpec::default();
        let study_default = 0xDA7A_5EED ^ 0xFA11_FA11;
        for seed in [
            study_default,
            424_242 ^ 0xFA11_FA11,
            UniverseConfig::default().seed,
        ] {
            let cfg = UniverseConfig {
                seed,
                ..UniverseConfig::default()
            };
            let counted = count_funnel(&cfg, &filter);
            assert_eq!(counted, fold_funnel(cfg, &filter), "seed {seed:#x}");
            if seed == study_default {
                let table2 = FunnelCounts {
                    total: 6_507_222,
                    found: 2_455_175,
                    popular: 198_717,
                    maintained: 146_292,
                };
                assert_eq!(counted, table2);
            }
        }
    }

    #[test]
    fn filter_edges() {
        let filter = FilterSpec::default();
        let mut m = AppMeta {
            package: "com.x.y".into(),
            on_play_store: true,
            downloads: 100_000,
            category: PlayCategory::Tools,
            last_update_day: CUTOFF_2021,
        };
        assert!(filter.accepts(&m));
        m.downloads = 99_999;
        assert!(!filter.accepts(&m));
        m.downloads = 100_000;
        m.last_update_day = CUTOFF_2021 - 1;
        assert!(!filter.accepts(&m));
        m.last_update_day = CUTOFF_2021;
        m.on_play_store = false;
        assert!(!filter.accepts(&m));
    }

    #[test]
    fn maintenance_grows_with_popularity() {
        assert!(maintained_probability(10_000_000) > maintained_probability(100_000));
        // Clamped on both ends.
        assert!(maintained_probability(0) >= 0.02);
        assert!(maintained_probability(u64::MAX) <= 0.98);
    }

    #[test]
    fn categories_cover_games_and_apps() {
        let metas = small_universe(20_000);
        let games = metas.iter().filter(|m| m.category.is_game()).count();
        assert!(games > 2_000, "games {games}");
        assert!(games < 18_000, "games {games}");
    }
}
