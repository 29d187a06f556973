//! # wla-static — the paper's §3.1 static analysis pipeline
//!
//! Implements Figure 1 end-to-end over SAPK containers:
//!
//! 1. metadata filter (done upstream by `wla-corpus`'s [`FilterSpec`]) —
//!    `(2)` download the most recent APK;
//! 2. `(3)` extract the `extends WebView` classes (the paper decompiles
//!    with JADX and parses with javalang; here the closure runs on the
//!    dex superclass links, [`wla_decompile`]);
//! 3. `(4)` generate the whole-app call graph ([`wla_callgraph`]);
//! 4. `(5)` traverse from every component entry point and record each
//!    WebView content-method call and Custom-Tabs interaction, excluding
//!    deep-link (first-party) activities;
//! 5. §3.1.4 — extract the Java package at `loadUrl` / `loadData` /
//!    `loadDataWithBaseURL` / `launchUrl` call sites and label it against
//!    the SDK index; resolve each site's URL argument register to a
//!    constant (or not) by intra-procedural constant propagation
//!    ([`dataflow`]);
//! 6. aggregate into the paper's tables and figures, including the
//!    resolved-vs-unknown URL-origin census.
//!
//! [`aggregate()`]'s string-path reference lives in `wla-oracle`.
//!
//! [`FilterSpec`]: wla_corpus::FilterSpec

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod analyze;
mod cache;
pub mod dataflow;
pub mod pipeline;
pub mod privacy;
pub mod stream;
pub mod table;

pub use aggregate::{
    aggregate, CategoryBreakdown, HeatmapRow, MethodCensusRow, SdkTypeCount, SdkUsageRow,
    StudyResults, Tally, UrlOriginCensus,
};
pub use analyze::{
    analyze_app_timed_with, AnalysisCtx, AppView, CtSiteSummary, DecodeCounters, StageTimings,
    WebViewSiteSummary,
};
pub use dataflow::{method_provenance, DataflowCounters};
pub use pipeline::{
    run_pipeline, run_pipeline_tallied, run_pipeline_with, AppInput, CorpusInput, InternerCounters,
    PipelineConfig, PipelineOutput, PipelineStats, WorkerStats, CLAIM_APPS,
};
pub use privacy::{grade_distribution, privacy_label, ExposureGrade, PrivacyLabel};
pub use stream::{run_pipeline_streamed, StreamConfig, StreamCounters, MANIFEST_SUBDIR};
pub use table::{ResultTable, RowWriter};
