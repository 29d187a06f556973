//! # wla-web — simulated web platform
//!
//! The dynamic study instruments a *web page*: the controlled HTML5 test
//! page whose Web-API layer reports every intercepted call to the
//! measurement server, DOM manipulation by injected scripts, simhash-based
//! cloaking detection (Facebook's IAB computes locality-sensitive hashes of
//! the page, after Cloaker Catcher), and DOM-tag frequency counting.
//!
//! * [`dom`] — a DOM tree (elements, attributes, text) with the traversal
//!   and mutation operations Table 9's interfaces expose;
//! * [`html`] — an HTML parser subset sufficient for the test page and the
//!   synthetic top-site pages;
//! * [`testpage`] — the HTML5 test page (after Bracco's `html5-test-page`);
//! * [`webapi`] — the interception layer: a [`webapi::DomSession`] wraps a
//!   document, records every API call, and (when attached) reports each to
//!   the measurement server over real loopback HTTP;
//! * [`simhash`] — 64-bit simhash + Hamming distance for cloaking checks;
//! * [`script`] — injected-script effects: the behaviours Table 8 infers
//!   (autofill SDK insertion, DOM tag counts, simhash, performance logging,
//!   ad-payload probing), executed for real against the DOM session.
//!
//! §5's fingerprinting and website-defense models live in `wla-extensions`.

#![forbid(unsafe_code)]

//! ```
//! use wla_web::html::parse;
//! use wla_web::simhash::simhash_text;
//!
//! let doc = parse("<div id=\"main\"><p>hello <b>world</b></p></div>");
//! assert!(doc.get_element_by_id("main").is_some());
//! assert_eq!(doc.text_content(), "hello world");
//!
//! let a = simhash_text("the quick brown fox");
//! let b = simhash_text("the quick brown foxes");
//! assert!((a ^ b).count_ones() < 24);
//! ```

pub mod dom;
pub mod html;
pub mod script;
pub mod simhash;
pub mod testpage;
pub mod webapi;

pub use dom::{Document, NodeId};
pub use script::{ScriptEffect, ScriptOutcome};
pub use simhash::{simhash64, simhash64_scalar};
pub use webapi::{ApiCall, DomSession};
