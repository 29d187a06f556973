//! Privacy nutrition labels from static analysis — §5's proposal made
//! executable: "Future research could consider including WebView usage for
//! third-party content as a metric in the 'privacy nutrition labels' as
//! displayed on the app store."
//!
//! [`privacy_label`] derives a per-app label from an [`AppView`]:
//! which mechanisms the app uses, which third-party SDK categories drive
//! its web content, whether a JS bridge is exposed to web content, and an
//! overall exposure grade.

use crate::analyze::AppView;
use std::collections::BTreeSet;
use wla_sdk_index::{LabelId, SdkCategory, SdkIndex};

/// Bit of `addJavascriptInterface` in [`AppView::method_mask`]
/// (position in `WEBVIEW_CONTENT_METHODS`).
const M_ADD_JS_IFACE: u8 = 1 << 1;
/// Bit of `evaluateJavascript`.
const M_EVAL_JS: u8 = 1 << 3;

/// Overall third-party web-content exposure grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExposureGrade {
    /// No third-party web content at all.
    None,
    /// Web content only via Custom Tabs (browser-isolated).
    Isolated,
    /// WebView usage without a JS bridge.
    Elevated,
    /// WebView usage with `addJavascriptInterface` exposed — the full
    /// bidirectional attack surface of Table 1.
    High,
}

impl ExposureGrade {
    /// Store-facing wording.
    pub fn label(self) -> &'static str {
        match self {
            ExposureGrade::None => "No third-party web content",
            ExposureGrade::Isolated => "Web content isolated in your browser",
            ExposureGrade::Elevated => "Displays web content inside the app",
            ExposureGrade::High => "Web content can exchange data with the app",
        }
    }
}

/// One app's privacy nutrition label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivacyLabel {
    /// Package name.
    pub package: String,
    /// Uses WebViews for (potentially) third-party content.
    pub uses_webview: bool,
    /// Uses Custom Tabs.
    pub uses_custom_tabs: bool,
    /// Exposes a JS bridge to web content.
    pub js_bridge_exposed: bool,
    /// Can execute injected JavaScript in pages (`evaluateJavascript` /
    /// `javascript:` loads).
    pub can_inject_js: bool,
    /// Third-party SDK categories driving the app's web content.
    pub sdk_categories: Vec<SdkCategory>,
    /// Overall grade.
    pub grade: ExposureGrade,
}

impl PrivacyLabel {
    /// Render the label as store-listing lines.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n  {}\n", self.package, self.grade.label());
        if self.uses_webview {
            out.push_str("  • Shows web content in an embedded WebView\n");
        }
        if self.js_bridge_exposed {
            out.push_str("  • Web pages can call into the app (JavaScript bridge)\n");
        }
        if self.can_inject_js {
            out.push_str("  • The app can run scripts inside web pages you visit\n");
        }
        if self.uses_custom_tabs {
            out.push_str("  • Opens some web content in your browser (Custom Tabs)\n");
        }
        for cat in &self.sdk_categories {
            out.push_str(&format!("  • Web content driven by {} SDKs\n", cat.label()));
        }
        out
    }
}

/// Derive the label for one analyzed app. Pure interned-IR consumer: the
/// method mask and record-time [`LabelId`]s carry everything it needs, so
/// no symbol is ever resolved here.
pub fn privacy_label(analysis: AppView<'_>, catalog: &SdkIndex) -> PrivacyLabel {
    let uses_webview = analysis.uses_webview();
    let uses_custom_tabs = analysis.uses_custom_tabs();
    let mask = analysis.method_mask();
    let js_bridge_exposed = mask & M_ADD_JS_IFACE != 0;
    let can_inject_js = mask & M_EVAL_JS != 0;

    let mut sdk_categories: BTreeSet<SdkCategory> = BTreeSet::new();
    for site in analysis.third_party_webview() {
        if let LabelId::Sdk(idx) = site.label {
            sdk_categories.insert(catalog.sdks()[idx as usize].category);
        }
    }
    for site in analysis.third_party_ct() {
        if let LabelId::Sdk(idx) = site.label {
            sdk_categories.insert(catalog.sdks()[idx as usize].category);
        }
    }

    let grade = match (uses_webview, uses_custom_tabs, js_bridge_exposed) {
        (false, false, _) => ExposureGrade::None,
        (false, true, _) => ExposureGrade::Isolated,
        (true, _, false) => ExposureGrade::Elevated,
        (true, _, true) => ExposureGrade::High,
    };

    PrivacyLabel {
        package: analysis.package.to_owned(),
        uses_webview,
        uses_custom_tabs,
        js_bridge_exposed,
        can_inject_js,
        sdk_categories: sdk_categories.into_iter().collect(),
        grade,
    }
}

/// Corpus-level label statistics (how many apps per grade).
pub fn grade_distribution(labels: &[PrivacyLabel]) -> Vec<(ExposureGrade, usize)> {
    let grades = [
        ExposureGrade::None,
        ExposureGrade::Isolated,
        ExposureGrade::Elevated,
        ExposureGrade::High,
    ];
    grades
        .iter()
        .map(|&g| (g, labels.iter().filter(|l| l.grade == g).count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use wla_corpus::{CorpusConfig, Generator};

    fn labels(scale: u32, seed: u64) -> Vec<PrivacyLabel> {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale,
            seed,
            corrupt_fraction: 0.0,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let out = run_pipeline(&apps, &catalog, PipelineConfig::default());
        out.analyzed().map(|a| privacy_label(a, &catalog)).collect()
    }

    #[test]
    fn grades_partition_the_corpus() {
        let labels = labels(500, 3);
        let dist = grade_distribution(&labels);
        let total: usize = dist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, labels.len());
        // The paper's world: most apps have *some* exposure; a meaningful
        // share is High (bridges are common — Table 7's 36.9K apps).
        let high = dist
            .iter()
            .find(|(g, _)| *g == ExposureGrade::High)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(high > 0);
        let none = dist
            .iter()
            .find(|(g, _)| *g == ExposureGrade::None)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert!(none > 0);
    }

    #[test]
    fn grade_logic() {
        let labels = labels(500, 9);
        for l in &labels {
            match l.grade {
                ExposureGrade::None => {
                    assert!(!l.uses_webview && !l.uses_custom_tabs);
                }
                ExposureGrade::Isolated => {
                    assert!(!l.uses_webview && l.uses_custom_tabs);
                }
                ExposureGrade::Elevated => {
                    assert!(l.uses_webview && !l.js_bridge_exposed);
                }
                ExposureGrade::High => {
                    assert!(l.uses_webview && l.js_bridge_exposed);
                }
            }
        }
    }

    #[test]
    fn render_mentions_the_bridge() {
        let labels = labels(500, 5);
        let high = labels
            .iter()
            .find(|l| l.grade == ExposureGrade::High)
            .expect("some high-exposure app");
        let text = high.render();
        assert!(text.contains("JavaScript bridge"), "{text}");
    }
}
