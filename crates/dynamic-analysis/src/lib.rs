//! # wla-dynamic — the paper's §3.2 semi-manual dynamic analysis
//!
//! Three studies over the top-1K apps on the simulated device:
//!
//! * [`classify`] — Table 6: for each top-1K app, attempt to access the
//!   app (gates: phone-number registration, incompatibility, paywalls),
//!   find a UGC surface, post `https://example.com`, tap it, and *observe*
//!   what opens (Web URI intent → browser, WebView IAB, or CT IAB);
//! * [`iab_study`] — Tables 8 & 9: drive each WebView-IAB app through a
//!   visit to the controlled page served over real loopback HTTP with all
//!   WebView methods hooked; collect injections, bridges, redirectors,
//!   Web-API beacons, and infer the intent of each injection;
//! * [`crawl_pipeline`] — Figures 6a/6b: the 100-top-site crawl through
//!   each IAB with System-WebView-Shell baseline subtraction, on the
//!   workspace's claim pool ([`run_crawl_pipeline`]).

#![forbid(unsafe_code)]

pub mod classify;
pub mod crawl_pipeline;
pub mod iab_study;

pub use classify::{
    classify_app, classify_app_with_settings, classify_top_apps, ClassificationOutcome,
    LinkSettings, Table6Counts,
};
pub use crawl_pipeline::{
    run_crawl_pipeline, run_crawl_pipeline_with, CrawlConfig, CrawlFailure, CrawlFailureKind,
    CrawlOutput, CrawlStats, VisitRecord,
};
pub use iab_study::{run_iab_study, IabAppReport, IabStudy};
