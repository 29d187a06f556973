//! # wla-callgraph — whole-app call graphs (Androguard analog)
//!
//! Steps (4)–(5) of the paper's pipeline (Figure 1): "generate call graphs
//! for each APK and record the instances where a WebView method is called
//! or a CT is initialized", traversing "the app's entire call graph via all
//! entry points" because Android apps have no `main` (§3.1.3).
//!
//! * [`graph`] — builds the call graph from SDEX bytecode as a
//!   compressed-sparse-row edge arena over dense method indices: one node
//!   per defined method, edges from `invoke-*` sites, virtual dispatch
//!   resolved through a lazily built per-class flattened vtable
//!   (CHA-style), with every call site retained (caller, callee reference,
//!   invoke kind, URL-argument [`graph::Provenance`]);
//! * [`entrypoints`] — discovers traversal roots from the manifest:
//!   lifecycle methods of declared components (including components whose
//!   class *transitively* extends a declared component class) plus GUI/event
//!   callbacks;
//! * [`reach`] — bitset + worklist reachability over the CSR arena
//!   (reusable [`reach::ReachScratch`], allocation-free in steady state)
//!   and the recording of WebView / Custom-Tabs call sites with their
//!   reachability status. Recorded sites carry *interned* names
//!   ([`wla_intern::Symbol`]) plus record-time package labels, so later
//!   pipeline stages never touch strings.
//!
//! The references these are pinned against, the pre-CSR hash call graph
//! (recording through [`reach::record_sites`]) and the pending-string URL
//! provenance heuristic, live in `wla-oracle`.

#![forbid(unsafe_code)]

pub mod entrypoints;
pub mod graph;
pub mod reach;

pub use entrypoints::entry_points;
pub use graph::{annotate_provenance, BuildStats, CallGraph, CallSite, Provenance, UrlOrigin};
pub use reach::{
    record_web_calls_with, CallGraphCounters, CtSite, ReachScratch, WebCallRecord, WebViewSite,
};
