//! # wla-apk — synthetic Android package substrate
//!
//! The paper analyzes ~146.8K real APKs fetched from AndroZoo. An APK is a
//! ZIP archive whose interesting members are a binary `AndroidManifest.xml`
//! and one or more DEX bytecode files. Reproducing the study requires a
//! package format that the analysis pipeline must *parse from raw bytes*,
//! with all the failure modes that entails (the paper reports 242 broken
//! APKs it could not analyze).
//!
//! This crate defines two binary formats and implements both the writer and
//! the parser for each:
//!
//! * **SDEX** ([`sdex`]) — a compact DEX-analog bytecode container: a
//!   deduplicated string pool, a type (class) table with superclass links,
//!   a method table, and per-method code consisting of a small instruction
//!   set (`invoke-*`, `const-string`, `new-instance`, branches, returns).
//!   Everything the call-graph builder and decompiler need is recoverable
//!   from the bytes alone.
//! * **SAPK** ([`container`]) — an APK-analog outer container holding a
//!   serialized manifest section, an SDEX section, and an opaque resource
//!   section, protected by an Adler-32 checksum.
//!
//! Integrity is genuine: the [`corrupt`] module damages containers the way
//! broken AndroZoo APKs are damaged (truncation, bit flips, bad magic), and
//! the parsers are required to reject every such container with a structured
//! error instead of panicking — this is exercised heavily by property tests.
//!
//! ```
//! use wla_apk::{ClassFlags, Dex, DexBuilder, Instruction, InvokeKind, MethodDef, Reg};
//!
//! let mut b = DexBuilder::new();
//! let load_url = b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
//! let url = b.intern_string("https://example.com/");
//! let on_create = b.intern_method("com/demo/Main", "onCreate", "()V");
//! b.define_class(
//!     "com/demo/Main",
//!     Some("android/app/Activity"),
//!     ClassFlags { public: true, ..Default::default() },
//!     vec![MethodDef::new(
//!         on_create,
//!         true,
//!         false,
//!         vec![
//!             Instruction::ConstString { dst: Reg(0), string: url },
//!             Instruction::Invoke { kind: InvokeKind::Virtual, method: load_url, args: vec![Reg(0)] },
//!             Instruction::ReturnVoid,
//!         ],
//!     )],
//! ).unwrap();
//! let dex = b.build();
//!
//! // Round-trip through the wire format.
//! let bytes = dex.encode();
//! let back = Dex::decode(&bytes).unwrap();
//! assert_eq!(back.classes().len(), 1);
//! ```

#![deny(unsafe_code)]

pub mod container;
pub mod corrupt;
pub mod error;
pub mod names;
pub mod sdex;
pub mod wire;

pub use container::{Sapk, SapkSection, SectionTag};
pub use error::ApkError;
pub use sdex::{
    ClassDef, ClassFlags, Dex, DexBuilder, Instruction, InvokeKind, MethodDef, MethodId, MethodRef,
    Reg, TypeId, VerifyPreset,
};
