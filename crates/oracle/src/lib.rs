//! # wla-oracle — the references the production crates are pinned against
//!
//! Each module is an older or more literal way to compute what a
//! production crate computes, kept because a test or a bench compares the
//! two, or support that tests, benches and examples share ([`analyze`],
//! [`client`]). `wla` runs none of them: only the root package's tests and
//! examples and `crates/bench`'s benches depend on this crate.
//!
//! * [`lifter`], [`parser`], [`subclasses`] — the paper's §3.1 step (3)
//!   as written: lift SDEX classes to Java-ish source (the JADX analog),
//!   parse it (the javalang analog) and close over `extends WebView`
//!   through the imports. `wla_decompile`'s dex-direct closure is pinned
//!   against it;
//! * [`callgraph`] — the pre-CSR hash-based call graph and `HashSet`
//!   reachability, recording sites through `wla_callgraph`'s own
//!   `record_sites`;
//! * [`provenance`] — the linear pending-string heuristic the dataflow
//!   pass in `wla_static` is pinned against;
//! * [`aggregate`] — `wla_static::aggregate` over resolved strings, and
//!   [`analyze`], one container through the per-app pipeline with a
//!   throwaway context;
//! * [`labels`] — the linear-scan SDK labeler the interned trie in
//!   `wla_sdk_index` is pinned against;
//! * [`server`] — the thread-per-connection blocking HTTP server the
//!   readiness-loop `wla_net::Server` is pinned byte-identical against,
//!   and [`client`], the keep-alive client the `http_loop` bench drives
//!   both with;
//! * [`crawl`] — the serial string-keyed crawl and Figure 6 that
//!   `wla_dynamic`'s parallel crawl is pinned against.

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod analyze;
pub mod callgraph;
pub mod client;
pub mod crawl;
pub mod labels;
pub mod lifter;
pub mod parser;
pub mod provenance;
pub mod server;
pub mod subclasses;

pub use aggregate::aggregate_string_oracle;
pub use callgraph::{reachable_methods_oracle, record_web_calls_oracle, HashCallGraph};
pub use crawl::{crawl_app, crawl_baseline, figure6, run_visit, CrawlRecord};
pub use lifter::{lift_class, lift_dex, SourceFile};
pub use parser::{parse_source, ParseError, ParsedClass};
pub use subclasses::{
    webview_subclasses, webview_subclasses_dex, webview_subclasses_interned, WEBVIEW_SOURCE_NAME,
};
