//! # wla-decompile — the custom-WebView-subclass closure
//!
//! Step (3) of the paper's pipeline (Figure 1): "decompile each APK (using
//! JADX) and extract the names of classes that extend the WebView class",
//! where the extraction runs a Java source parser (`javalang`) over the
//! decompiled source. The pipeline needs only the names, so it skips the
//! source: [`subclasses`] computes the transitive `extends WebView`
//! closure — the paper's "custom WebView implementations" — straight from
//! the superclass links of every dex of an app.
//!
//! The paper-faithful route (a JADX-analog lifter, a javalang-analog
//! parser, and the closure over the lifted source) lives in `wla-oracle`,
//! which pins this crate's closure against it on whole generated corpora.

#![forbid(unsafe_code)]

pub mod subclasses;

pub use subclasses::webview_subclasses_dex_interned;
