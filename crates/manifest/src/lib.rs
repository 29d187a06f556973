//! # wla-manifest — AndroidManifest model
//!
//! The paper's pipeline reads three things from each app's manifest:
//!
//! 1. the **component list** (activities, services, receivers, providers),
//!    which seeds entry-point discovery for the call-graph traversal;
//! 2. **deep-link activities** — `exported="true"` activities carrying an
//!    intent filter with category `android.intent.category.BROWSABLE` and an
//!    `http`/`https` data scheme. These "are likely to host first-party web
//!    content" and are *excluded* from the third-party measurements (§3.1.3);
//! 3. the **package name**.
//!
//! This crate models exactly that surface and (de)serializes it into the
//! SAPK manifest section. Serialization reuses the SDEX wire primitives so
//! the parsers share a hardened foundation.

#![forbid(unsafe_code)]

pub mod model;
pub mod wireformat;

pub use model::{Component, ComponentKind, IntentFilter, Manifest};

/// Intent action for viewing a URI.
pub const ACTION_VIEW: &str = "android.intent.action.VIEW";
/// Intent category required for deep links clickable from the web.
pub const CATEGORY_BROWSABLE: &str = "android.intent.category.BROWSABLE";
/// Intent category for the default handler.
pub const CATEGORY_DEFAULT: &str = "android.intent.category.DEFAULT";
/// Intent category marking a launcher entry.
pub const CATEGORY_LAUNCHER: &str = "android.intent.category.LAUNCHER";
