//! # wla-decompile — decompiler and Java source parser
//!
//! Step (3) of the paper's pipeline (Figure 1): "decompile each APK (using
//! JADX) and extract the names of classes that extend the WebView class",
//! where the extraction runs a Java source parser (`javalang`) over the
//! decompiled source. Both halves are real here:
//!
//! * [`lifter`] — the JADX analog: lifts SDEX classes to Java-ish source
//!   text (package declaration, imports derived from referenced types,
//!   `extends` clause, method bodies with call statements), including the
//!   cosmetic noise real decompilers emit (header comments, `/* renamed
//!   from */` markers, `@Override` annotations);
//! * [`parser`] — the javalang analog: a lexer + recursive-descent parser
//!   that recovers the package, imports, class name, and `extends` target
//!   from source text, tolerant of comments, strings, annotations, and
//!   generics;
//! * [`subclasses`] — resolves `extends` names against imports and computes
//!   the transitive `extends WebView` closure, the paper's "custom WebView
//!   implementations". Ships two routes: the lifted-source one above (the
//!   paper-faithful oracle) and a dex-direct closure over superclass links
//!   that the pipeline's hot path uses, equivalence-pinned to the oracle.
//!
//! Round-trip property: for every class the lifter emits, the parser must
//! recover exactly the class name, package, and superclass the SDEX declares
//! — enforced by property tests against generated corpora.

#![forbid(unsafe_code)]

pub mod lifter;
pub mod parser;
pub mod subclasses;

pub use lifter::{lift_class, lift_dex, SourceFile};
pub use parser::{parse_source, ParseError, ParsedClass};
pub use subclasses::{
    webview_subclasses, webview_subclasses_dex, webview_subclasses_dex_interned,
    webview_subclasses_interned,
};
