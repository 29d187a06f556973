//! Injected-script effects.
//!
//! Each [`ScriptEffect`] models one behaviour the paper observed apps
//! injecting into their WebView-based IABs (Table 8), executed *for real*
//! against an instrumented [`DomSession`] — so the Web-API calls each
//! effect makes are exactly what the measurement server records, and the
//! Table 9 rows are measured rather than asserted.

use crate::simhash::{simhash64, simhash_text};
use crate::webapi::DomSession;
use std::collections::BTreeMap;

/// A JSON-ish Google Ads payload, as found injected by Moj, Chingari, and
/// Kik. The study observed `width`/`height` pinned to 0 with
/// `notVisibleReason: "noAdView"` on the controlled page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdPayload {
    /// Ad unit path.
    pub ad_unit: String,
    /// Network host the creative would come from.
    pub source_host: String,
    /// Requested slot width.
    pub width: u32,
    /// Requested slot height.
    pub height: u32,
}

/// One injected-script behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptEffect {
    /// Insert a `<script src=…>` element (Listing 1 — the Facebook/
    /// Instagram autofill SDK loader).
    InsertScriptElement {
        /// Script URL.
        src: String,
        /// Idempotency id (the loader returns early if it exists).
        element_id: String,
    },
    /// Return a frequency dictionary of DOM tag counts (Facebook).
    DomTagCounts,
    /// Return locality-sensitive hashes for (text+DOM, text, DOM) —
    /// Cloaker-Catcher-style cloaking detection (Facebook).
    SimHashPage,
    /// Log performance metrics: DOMContentLoaded time and AMP support
    /// (Instagram).
    LogPerformance {
        /// Simulated DOMContentLoaded timing to report.
        dom_content_loaded_ms: u64,
    },
    /// Parse an ad payload and display the ad iff a compatible ad view
    /// exists (Moj / Chingari / Kik via the Google Ads bridge). Makes no
    /// Web-API calls when the slot is zero-sized — matching the paper's
    /// observation that Moj/Chingari produced no recorded API usage.
    AdProbe(AdPayload),
    /// Read-only page scan over ad-slot selectors and meta tags (Kik).
    ReadOnlyScan,
}

/// What an effect returned to the injecting app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptOutcome {
    /// Script element inserted (or found already present).
    ScriptInserted {
        /// URL inserted.
        src: String,
        /// Whether the loader short-circuited on the idempotency id.
        already_present: bool,
    },
    /// Tag frequency dictionary.
    TagCounts(BTreeMap<String, usize>),
    /// The three locality-sensitive hashes.
    SimHashes {
        /// Text and DOM elements combined.
        text_and_dom: u64,
        /// Text only.
        text: u64,
        /// DOM elements only.
        dom: u64,
    },
    /// Performance log line.
    Performance {
        /// DOMContentLoaded, milliseconds.
        dom_content_loaded_ms: u64,
        /// Whether the page declares AMP support.
        is_amp: bool,
    },
    /// Ad probe result.
    AdResult {
        /// Whether an ad was displayed.
        displayed: bool,
        /// Reason reported when not displayed.
        not_visible_reason: Option<String>,
    },
    /// Read-only scan result.
    ScanResult {
        /// Ad-slot candidates found.
        ad_slots: usize,
        /// Meta tags inspected.
        metas: usize,
    },
}

/// Execute one effect against the session.
pub fn execute(effect: &ScriptEffect, session: &mut DomSession) -> ScriptOutcome {
    match effect {
        ScriptEffect::InsertScriptElement { src, element_id } => {
            // Mirrors Listing 1: bail if already present; otherwise insert
            // before the first <script>.
            if session.get_element_by_id(element_id).is_some() {
                return ScriptOutcome::ScriptInserted {
                    src: src.clone(),
                    already_present: true,
                };
            }
            let scripts = session.get_elements_by_tag_name("script");
            let fjs = session.collection_item(&scripts, 0);
            let js = session.create_element("script");
            session.doc_mut().set_attr(js, "id", element_id);
            session.doc_mut().set_attr(js, "src", src);
            match fjs {
                Some(fjs) => {
                    let parent = session
                        .doc
                        .parent(fjs)
                        .unwrap_or_else(|| session.doc.body().expect("body exists"));
                    session.insert_before(parent, js, fjs);
                }
                None => {
                    let body = session.doc.body().expect("body exists");
                    let first = session.doc.children(body).next();
                    match first {
                        Some(first) => session.insert_before(body, js, first),
                        None => session.doc_mut().append_child(body, js),
                    }
                }
            }
            ScriptOutcome::ScriptInserted {
                src: src.clone(),
                already_present: false,
            }
        }

        ScriptEffect::DomTagCounts => {
            let all = session.query_selector_all("*");
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for i in 0..all.len() {
                if let Some(node) = session.nodelist_item(&all, i) {
                    if let Some(tag) = session.doc.tag(node) {
                        *counts.entry(tag.to_owned()).or_insert(0) += 1;
                    }
                }
            }
            ScriptOutcome::TagCounts(counts)
        }

        ScriptEffect::SimHashPage => {
            let bodies = session.get_elements_by_tag_name("body");
            let body = session
                .collection_item(&bodies, 0)
                .expect("page has a body");
            let elements = session.element_get_elements_by_tag_name(body, "*");
            // DOM token stream: tag names plus presence of key attributes.
            let mut dom_tokens: Vec<String> = Vec::with_capacity(elements.len() * 2);
            for &el in &elements {
                if let Some(tag) = session.doc.tag(el) {
                    dom_tokens.push(tag.to_owned());
                }
                if session.has_attribute(el, "id") {
                    dom_tokens.push("#has-id".to_owned());
                }
            }
            let text = session.doc.text_content();
            let text_hash = simhash_text(&text);
            let dom_hash = simhash64(dom_tokens.iter().map(String::as_str));
            let combined = simhash64(
                text.split_whitespace()
                    .chain(dom_tokens.iter().map(String::as_str)),
            );
            ScriptOutcome::SimHashes {
                text_and_dom: combined,
                text: text_hash,
                dom: dom_hash,
            }
        }

        ScriptEffect::LogPerformance {
            dom_content_loaded_ms,
        } => {
            session.add_event_listener("DOMContentLoaded");
            session.remove_event_listener("DOMContentLoaded");
            let metas = session.get_elements_by_tag_name("meta");
            let mut is_amp = false;
            for i in 0..metas.len() {
                if let Some(meta) = session.collection_item(&metas, i) {
                    if let Some(name) = session.get_attribute(meta, "name") {
                        if name == "amp-version" || name == "amp" {
                            is_amp = true;
                        }
                    }
                }
            }
            // Drop a timing marker into the body, as the logger script does.
            let marker = session.create_element("span");
            session.doc_mut().set_attr(marker, "id", "wla-perf-marker");
            let body = session.doc.body().expect("body exists");
            if let Some(first) = session.doc.children(body).next() {
                session.insert_before(body, marker, first);
            } else {
                session.doc_mut().append_child(body, marker);
            }
            ScriptOutcome::Performance {
                dom_content_loaded_ms: *dom_content_loaded_ms,
                is_amp,
            }
        }

        ScriptEffect::AdProbe(payload) => {
            if payload.width == 0 || payload.height == 0 {
                // Zero-sized slot: the injected code bails before touching
                // the DOM — no Web-API calls are recorded.
                return ScriptOutcome::AdResult {
                    displayed: false,
                    not_visible_reason: Some("noAdView".to_owned()),
                };
            }
            let slots = session.query_selector_all(".adsbygoogle, ins");
            if slots.is_empty() {
                ScriptOutcome::AdResult {
                    displayed: false,
                    not_visible_reason: Some("noAdView".to_owned()),
                }
            } else {
                let ad = session.create_element("iframe");
                let src = format!("https://{}/ad", payload.source_host);
                session.doc_mut().set_attr(ad, "src", &src);
                let slot = slots[0];
                let children = session.doc.children(slot).next();
                match children {
                    Some(first) => session.insert_before(slot, ad, first),
                    None => session.doc_mut().append_child(slot, ad),
                }
                ScriptOutcome::AdResult {
                    displayed: true,
                    not_visible_reason: None,
                }
            }
        }

        ScriptEffect::ReadOnlyScan => {
            let slots = session.html_document_query_selector_all(".adsbygoogle, ins");
            let metas = session.query_selector_all("meta");
            let mut inspected = 0;
            for &meta in &metas {
                if session.get_attribute(meta, "name").is_some() {
                    inspected += 1;
                }
            }
            ScriptOutcome::ScanResult {
                ad_slots: slots.len(),
                metas: inspected,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testpage::{reference_tag_counts, test_page};
    use std::sync::Arc;

    fn session() -> DomSession {
        DomSession::new(test_page())
    }

    #[test]
    fn a_shared_document_is_copied_only_to_mutate() {
        let page = Arc::new(test_page());
        let read_only = [
            ScriptEffect::DomTagCounts,
            ScriptEffect::SimHashPage,
            ScriptEffect::ReadOnlyScan,
            ScriptEffect::AdProbe(AdPayload {
                ad_unit: "/1/x".into(),
                source_host: "ads.example".into(),
                width: 0,
                height: 0,
            }),
        ];
        let mut s = DomSession::new(page.clone());
        for effect in &read_only {
            execute(effect, &mut s);
            assert!(Arc::ptr_eq(&s.doc, &page), "{effect:?} copied the page");
        }
        let insert = ScriptEffect::InsertScriptElement {
            src: "//x.example/y.js".into(),
            element_id: "inserted".into(),
        };
        execute(&insert, &mut s);
        assert!(!Arc::ptr_eq(&s.doc, &page));
        assert_eq!(Arc::strong_count(&page), 1, "the session owns its copy");
        let copy = Arc::as_ptr(&s.doc);
        execute(
            &ScriptEffect::LogPerformance {
                dom_content_loaded_ms: 1,
            },
            &mut s,
        );
        assert_eq!(Arc::as_ptr(&s.doc), copy, "the copy is not copied again");
        assert_eq!(*page, test_page());
        let inserted = s.doc.get_element_by_id("inserted").expect("in the copy");
        assert_eq!(s.doc.get_attr(inserted, "src"), Some("//x.example/y.js"));
        assert!(page.get_element_by_id("inserted").is_none());
    }

    #[test]
    fn autofill_loader_inserts_once() {
        let mut s = session();
        let effect = ScriptEffect::InsertScriptElement {
            src: "//connect.facebook.net/en_US/iab.autofill.enhanced.js".into(),
            element_id: "instagram-autofill-sdk".into(),
        };
        match execute(&effect, &mut s) {
            ScriptOutcome::ScriptInserted {
                already_present, ..
            } => assert!(!already_present),
            other => panic!("{other:?}"),
        }
        // Idempotent on second run (Listing 1's getElementById guard).
        match execute(&effect, &mut s) {
            ScriptOutcome::ScriptInserted {
                already_present, ..
            } => assert!(already_present),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.doc.get_elements_by_tag_name("script").len(), 3);
        // First script lives in head → Element.insertBefore receiver.
        assert!(s
            .calls()
            .iter()
            .any(|c| c.interface == "Element" && c.method == "insertBefore"));
    }

    #[test]
    fn tag_counts_match_reference_on_pristine_page() {
        let mut s = session();
        match execute(&ScriptEffect::DomTagCounts, &mut s) {
            ScriptOutcome::TagCounts(counts) => {
                assert_eq!(counts, reference_tag_counts());
            }
            other => panic!("{other:?}"),
        }
        // NodeList.item was exercised.
        assert!(s
            .calls()
            .iter()
            .any(|c| c.interface == "NodeList" && c.method == "item"));
    }

    #[test]
    fn simhash_detects_injected_content() {
        let mut clean = session();
        let clean_hash = match execute(&ScriptEffect::SimHashPage, &mut clean) {
            ScriptOutcome::SimHashes { text_and_dom, .. } => text_and_dom,
            other => panic!("{other:?}"),
        };
        // A cloaked page: replace body text wholesale.
        let mut doc = test_page();
        let body = doc.body().unwrap();
        for _ in 0..40 {
            let spam = doc.alloc_element("div");
            doc.append_child(body, spam);
            let t = doc.alloc_text("cheap meds casino bonus winner prize claim");
            doc.append_child(spam, t);
        }
        let mut cloaked = DomSession::new(doc);
        let cloaked_hash = match execute(&ScriptEffect::SimHashPage, &mut cloaked) {
            ScriptOutcome::SimHashes { text_and_dom, .. } => text_and_dom,
            other => panic!("{other:?}"),
        };
        assert!(
            crate::simhash::hamming(clean_hash, cloaked_hash) > 8,
            "distance {}",
            crate::simhash::hamming(clean_hash, cloaked_hash)
        );
    }

    #[test]
    fn performance_logger_covers_table9_calls() {
        let mut s = session();
        match execute(
            &ScriptEffect::LogPerformance {
                dom_content_loaded_ms: 340,
            },
            &mut s,
        ) {
            ScriptOutcome::Performance {
                dom_content_loaded_ms,
                is_amp,
            } => {
                assert_eq!(dom_content_loaded_ms, 340);
                assert!(!is_amp); // test page is not AMP
            }
            other => panic!("{other:?}"),
        }
        let usage = s.distinct_api_usage();
        for (iface, method) in [
            ("Document", "addEventListener"),
            ("Document", "removeEventListener"),
            ("Document", "getElementsByTagName"),
            ("HTMLCollection", "item"),
            ("HTMLMetaElement", "getAttribute"),
            ("HTMLBodyElement", "insertBefore"),
        ] {
            assert!(
                usage.contains(&(iface.to_owned(), method.to_owned())),
                "missing {iface}.{method}: {usage:?}"
            );
        }
    }

    #[test]
    fn zero_sized_ad_probe_touches_nothing() {
        let mut s = session();
        let outcome = execute(
            &ScriptEffect::AdProbe(AdPayload {
                ad_unit: "/21775744923/example".into(),
                source_host: "doubleclick.net".into(),
                width: 0,
                height: 0,
            }),
            &mut s,
        );
        assert_eq!(
            outcome,
            ScriptOutcome::AdResult {
                displayed: false,
                not_visible_reason: Some("noAdView".into()),
            }
        );
        // The paper: "nor did our server record any Web API usage".
        assert!(s.calls().is_empty());
    }

    #[test]
    fn sized_ad_probe_without_slot_reports_no_ad_view() {
        let mut s = session();
        let outcome = execute(
            &ScriptEffect::AdProbe(AdPayload {
                ad_unit: "/x".into(),
                source_host: "doubleclick.net".into(),
                width: 320,
                height: 50,
            }),
            &mut s,
        );
        assert_eq!(
            outcome,
            ScriptOutcome::AdResult {
                displayed: false,
                not_visible_reason: Some("noAdView".into()),
            }
        );
        // This variant does scan the page.
        assert!(!s.calls().is_empty());
    }

    #[test]
    fn sized_ad_probe_with_slot_displays() {
        let mut doc = test_page();
        let body = doc.body().unwrap();
        let slot = doc.alloc_element("ins");
        doc.set_attr(slot, "class", "adsbygoogle");
        doc.append_child(body, slot);
        let mut s = DomSession::new(doc);
        let outcome = execute(
            &ScriptEffect::AdProbe(AdPayload {
                ad_unit: "/x".into(),
                source_host: "doubleclick.net".into(),
                width: 320,
                height: 50,
            }),
            &mut s,
        );
        assert_eq!(
            outcome,
            ScriptOutcome::AdResult {
                displayed: true,
                not_visible_reason: None,
            }
        );
        assert_eq!(s.doc.get_elements_by_tag_name("iframe").len(), 1);
    }

    #[test]
    fn readonly_scan_matches_kik_table9_row() {
        let mut s = session();
        execute(&ScriptEffect::ReadOnlyScan, &mut s);
        let usage = s.distinct_api_usage();
        assert_eq!(
            usage,
            vec![
                ("Document".to_owned(), "querySelectorAll".to_owned()),
                ("HTMLDocument".to_owned(), "querySelectorAll".to_owned()),
                ("HTMLMetaElement".to_owned(), "getAttribute".to_owned()),
            ]
        );
        // Read-only: the DOM is unchanged.
        assert_eq!(s.doc.tag_counts(), reference_tag_counts());
    }
}
