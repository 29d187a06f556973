//! # wla-corpus — calibrated synthetic Play Store ecosystem
//!
//! The paper's raw inputs are (a) Play Store metadata for 6.5M apps and
//! (b) the APKs of the 146.8K popular, maintained ones. Neither is
//! available offline, so this crate *generates* an ecosystem whose ground
//! truth is drawn from the paper's published aggregates and then **lowers
//! every sampled behaviour to SAPK/SDEX bytes**. The analysis pipeline
//! never sees the ground truth: it must recover the aggregates from raw
//! bytes through decompilation, call-graph traversal, and SDK labeling —
//! the same inferential path as the paper. (See DESIGN.md §2 for the full
//! substitution argument.)
//!
//! Modules:
//!
//! * [`playstore`] — app metadata model and the 6.5M-record metadata
//!   universe behind Table 2's funnel;
//! * [`distributions`] — seeded samplers (normal, log-normal, weighted
//!   choice) built on plain `rand`, since `rand_distr` is not available;
//! * [`ecosystem`] — per-app behaviour sampling: SDK adoption (correlated
//!   within categories, matched to Tables 3–5 and 7), WebView API method
//!   profiles (Figure 4), app-category multipliers (Figure 3), deep-link
//!   hosting, dead code, and the top-1K attributes behind Table 6;
//! * [`lowering`] — `AppSpec` → manifest + SDEX bytecode with *reachable*
//!   call chains from component entry points to WebView/CT call sites;
//! * [`generator`] — corpus assembly, including byte-level corruption of
//!   the paper's broken-APK fraction;
//! * [`shard`] — the one on-disk corpus format: many apps per checksummed
//!   `.wshard` file, written atomically and read back one buffer per
//!   shard.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod ecosystem;
pub mod generator;
pub mod lowering;
pub mod playstore;
pub mod shard;

pub use ecosystem::{
    named_top_apps, top_thousand, AccessGate, AppSpec, DeepLinkSpec, Ecosystem, EcosystemParams,
    LinkBehavior, MethodSet, SdkUse, TopAppSpec, UgcSurface, METHODS,
};
pub use generator::{CorpusConfig, GeneratedApp, Generator, GroundTruth};
pub use playstore::{
    count_funnel, AppMeta, FilterSpec, FunnelCounts, PlayCategory, UniverseConfig,
};
pub use shard::{
    list_shards, read_shard_stamp, write_shard, write_sharded_corpus, Shard, ShardEntry,
    ShardError, ShardStamp,
};

/// Number of Play-Store apps in the AndroZoo snapshot (Table 2 row 1).
pub const ANDROZOO_PLAY_APPS: u64 = 6_507_222;
/// Popular apps also updated after 2021-01-01 (Table 2 row 4).
pub const POPULAR_MAINTAINED_APPS: u64 = 146_800;
/// Apps whose APKs decoded successfully (Table 2 row 5).
pub const ANALYZED_APPS: u64 = 146_558;
/// Broken APKs (the difference of the two rows above).
pub const BROKEN_APKS: u64 = POPULAR_MAINTAINED_APPS - ANALYZED_APPS;
