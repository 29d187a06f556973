//! Study orchestration: configure once, run each campaign.

use wla_corpus::playstore::{count_funnel, FilterSpec, FunnelCounts, UniverseConfig};
use wla_corpus::{top_thousand, CorpusConfig, GeneratedApp, Generator, TopAppSpec};
use wla_crawler::sites::top_100_sites;
use wla_dynamic::classify::{classify_top_apps, ClassificationOutcome, Table6Counts};
use wla_dynamic::iab_study::{run_iab_study, IabStudy};
use wla_dynamic::{run_crawl_pipeline, CrawlConfig, CrawlOutput};
use wla_sdk_index::SdkIndex;
use wla_static::{run_pipeline_tallied, PipelineConfig, PipelineStats, StudyResults};

/// Top-level study configuration.
#[derive(Debug, Clone)]
pub struct Study {
    /// Corpus scale divisor (1 = the paper's 146.8K apps; default
    /// experiments use 100 ⇒ 1,468 apps).
    pub scale: u32,
    /// Master seed.
    pub seed: u64,
    /// SDK catalog.
    pub catalog: SdkIndex,
}

/// Output of the §3.1 static campaign.
#[derive(Debug)]
pub struct StaticRun {
    /// Generated corpus: per app its container bytes, its Play metadata
    /// and its [`GroundTruth`](wla_corpus::GroundTruth) (80 bytes an entry
    /// plus its bytes and its package name).
    pub corpus: Vec<GeneratedApp>,
    /// Aggregated pipeline results.
    pub results: StudyResults,
    /// Pipeline observability: throughput, per-stage timers, failure
    /// taxonomy (rendered by [`crate::stats::render_pipeline_stats`]).
    pub stats: PipelineStats,
    /// The popularity threshold used for "top SDK" status, rescaled from
    /// the paper's >100 apps.
    pub top_sdk_threshold: usize,
}

/// Output of the Table 2 funnel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelRun {
    /// Metadata records generated.
    pub total: u64,
    /// Found on the Play Store.
    pub found: u64,
    /// 100K+ downloads.
    pub popular: u64,
    /// …and updated after 2021.
    pub maintained: u64,
    /// Successfully analyzed (from the scaled APK corpus, rescaled).
    pub analyzed_rescaled: u64,
}

/// Output of the §3.2 dynamic campaign.
#[derive(Debug)]
pub struct DynamicRun {
    /// The top-1K population driven through the device.
    pub top_apps: Vec<TopAppSpec>,
    /// Table 6 counts.
    pub table6: Table6Counts,
    /// Per-app classification outcomes.
    pub outcomes: std::collections::BTreeMap<String, ClassificationOutcome>,
    /// The ten-IAB instrumentation study (Tables 8 & 9).
    pub iab: IabStudy,
}

/// Output of the crawl campaign (Figures 6a/6b).
pub type CrawlRun = CrawlOutput;

impl Study {
    /// New study at `scale` with `seed`.
    pub fn new(scale: u32, seed: u64) -> Study {
        Study {
            scale,
            seed,
            catalog: SdkIndex::paper(),
        }
    }

    /// Default experiment configuration (`wla`'s defaults): scale 100, fixed seed.
    pub fn default_experiment() -> Study {
        Study::new(100, 0xDA7A_5EED)
    }

    /// Factor to rescale measured counts to paper scale.
    pub fn rescale(&self, measured: usize) -> u64 {
        measured as u64 * self.scale as u64
    }

    /// The study's generated corpus: per app its container bytes, its Play
    /// metadata and its [`GroundTruth`](wla_corpus::GroundTruth).
    pub fn corpus(&self) -> Vec<GeneratedApp> {
        let cfg = CorpusConfig {
            scale: self.scale,
            seed: self.seed,
            ..CorpusConfig::default()
        };
        Generator::new(&self.catalog, cfg).generate()
    }

    /// Run the §3.1 campaign: generate the corpus, then analyze its raw
    /// bytes in place, folding each app into the aggregates as it is
    /// analyzed ([`run_pipeline_tallied`]; no per-app result is kept).
    pub fn run_static(&self) -> StaticRun {
        let corpus = self.corpus();
        // The catalog already encodes the paper's >100-apps popularity
        // criterion; any observed usage of a catalog SDK counts.
        let top_sdk_threshold = 1;
        let (results, stats) = run_pipeline_tallied(
            &corpus,
            &self.catalog,
            PipelineConfig::default(),
            top_sdk_threshold,
        );
        StaticRun {
            corpus,
            results,
            stats,
            top_sdk_threshold,
        }
    }

    /// Run the Table 2 funnel: the metadata universe is always counted at
    /// full scale ([`count_funnel`] builds no record); the analyzed row
    /// comes from the scaled byte-level corpus via `static_run`.
    pub fn run_funnel(&self, static_run: &StaticRun) -> FunnelRun {
        let cfg = UniverseConfig {
            seed: self.seed ^ 0xFA11_FA11,
            ..UniverseConfig::default()
        };
        let FunnelCounts {
            total,
            found,
            popular,
            maintained,
        } = count_funnel(&cfg, &FilterSpec::default());
        FunnelRun {
            total,
            found,
            popular,
            maintained,
            analyzed_rescaled: self.rescale(static_run.results.analyzed),
        }
    }

    /// Run the §3.2 campaign: top-1K classification + the ten-IAB
    /// controlled-page instrumentation. Always full scale.
    pub fn run_dynamic(&self) -> DynamicRun {
        let top_apps = top_thousand(self.seed ^ 0x70B_1000);
        let (table6, outcomes) = classify_top_apps(&top_apps);
        let iab = run_iab_study();
        DynamicRun {
            top_apps,
            table6,
            outcomes,
            iab,
        }
    }

    /// Run the 100-site crawl campaign for the named apps (None = all 10)
    /// on the parallel, fault-isolated pipeline — bit-identical output at
    /// any worker count.
    pub fn run_crawl_parallel(&self, apps: Option<&[&str]>, config: CrawlConfig) -> CrawlRun {
        run_crawl_pipeline(&top_100_sites(), apps, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use wla_corpus::write_sharded_corpus;
    use wla_static::{aggregate, run_pipeline_streamed, CLAIM_APPS};

    /// The §3.1 campaign through the sharded on-disk path: `study`'s corpus
    /// written as shards of [`CLAIM_APPS`] apps under `dir`, streamed, and
    /// aggregated at `run_static`'s threshold.
    fn run_streamed(study: &Study, dir: &Path) -> (StudyResults, PipelineStats) {
        write_sharded_corpus(dir, &study.corpus(), CLAIM_APPS).unwrap();
        let output = run_pipeline_streamed(dir, &study.catalog, PipelineConfig::default()).unwrap();
        (aggregate(&output, &study.catalog, 1), output.stats)
    }

    #[test]
    fn small_static_run_is_consistent() {
        let study = Study::new(2_000, 7);
        let run = study.run_static();
        assert_eq!(run.corpus.len(), 73); // 146_800 / 2_000
        assert_eq!(run.results.analyzed + run.results.broken, run.corpus.len());
        assert!(run.results.webview_apps > 0);
        // The observability layer and the aggregation must agree.
        assert_eq!(run.stats.total, run.corpus.len());
        assert_eq!(run.stats.analyzed, run.results.analyzed);
        assert_eq!(run.stats.broken, run.results.broken);
        assert!(run.stats.stage.total_ns() > 0);
    }

    #[test]
    fn streamed_static_run_matches_in_memory_and_resumes() {
        let study = Study::new(4_000, 7);
        let baseline = study.run_static();
        let dir = std::env::temp_dir().join(format!("wla-study-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (results, stats) = run_streamed(&study, &dir);
        assert_eq!(results, baseline.results);
        assert_eq!(stats.total, baseline.stats.total);
        assert!(stats.stream.entries_streamed > 0);
        assert_eq!(stats.stream.entries_cached, 0);

        // Same dir, same seed: the deterministic generator re-persists
        // identical shard bytes, so the second run is served from the
        // resume manifest — and is still identical.
        let (results, stats) = run_streamed(&study, &dir);
        assert_eq!(results, baseline.results);
        assert_eq!(stats.stream.shards_read, 0);
        assert_eq!(stats.stream.entries_cached, baseline.stats.total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_smaller_streamed_run_ignores_the_larger_runs_shards() {
        // 73 apps write two 64-app shards; 36 apps write one. The second
        // run must not analyze (or serve from the resume manifest) the
        // first run's leftover shard-00001.
        let dir = std::env::temp_dir().join(format!("wla-study-rewrite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run_streamed(&Study::new(2_000, 7), &dir);
        let study = Study::new(4_000, 7);
        let (results, stats) = run_streamed(&study, &dir);
        assert_eq!(stats.total, 36);
        assert_eq!(results, study.run_static().results);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rescale_multiplies_by_scale() {
        let study = Study::new(100, 1);
        assert_eq!(study.rescale(1_468), 146_800);
    }
}
