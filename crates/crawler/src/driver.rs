//! The ADB-analog visit script and the Figure 6 row.
//!
//! Per visit the paper's script "(i) launch\[es\] the app, (ii) navigate\[s\]
//! to the intended activity …, (iii) insert\[s\] the desired crawl URL,
//! (iv) tap\[s\] on the URL …, (v) swipe\[s\] upwards … Following a 20-second
//! wait …, we gather the device's network log. To ready the system for the
//! next crawl, we also purge the logs on the device, terminate the app,
//! and wait for 1 minute." [`run_visit_with_source`] executes exactly that
//! script on the simulated device, through an app's IAB or, with no
//! profile, the System WebView Shell (the baseline).
//!
//! Every visit runs on its own [`VisitSession`] — fresh netlog, fresh
//! logcat, visit-scoped source ids — so a visit is a pure function of
//! `(site, profile, page)` and the paper's "purge the logs" step is the
//! session drop itself. `wla-dynamic`'s parallel crawl visits through
//! [`run_visit_prepared`] and folds each category through [`figure6_row`];
//! the serial string-keyed crawl it is equivalence-pinned against
//! (`wla_oracle::crawl`) visits through the same script.

use crate::classify::EndpointKind;
use crate::sites::{SiteCategory, TopSite};
use std::collections::BTreeMap;
use std::sync::Arc;
use wla_device::iab::{open_in_iab, IabProfile};
use wla_device::session::VisitSession;
use wla_device::webview::{PageSource, PreparedPage, WebViewInstance};

/// One step of the scripted UI traversal (kept explicit so logcat shows
/// the same sequence a real ADB transcript would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlStep {
    /// `adb shell monkey -p <pkg> 1` — launch.
    LaunchApp,
    /// Simulated screen taps to the target activity.
    NavigateToActivity,
    /// `adb shell input text <url>` — the crawl URL comes from the visit's
    /// page source.
    InsertUrl,
    /// Tap the URL to open the IAB.
    TapUrl,
    /// Swipe to the end of the page.
    ScrollToEnd,
    /// Fixed wait for resources to load (ms).
    Wait(u64),
    /// Pull the netlog.
    CollectLog,
    /// Purge device logs.
    PurgeLogs,
    /// Force-stop the app.
    KillApp,
}

/// The canonical per-visit script.
pub const VISIT_SCRIPT: [CrawlStep; 10] = [
    CrawlStep::LaunchApp,
    CrawlStep::NavigateToActivity,
    CrawlStep::InsertUrl,
    CrawlStep::TapUrl,
    CrawlStep::ScrollToEnd,
    CrawlStep::Wait(20_000),
    CrawlStep::CollectLog,
    CrawlStep::PurgeLogs,
    CrawlStep::KillApp,
    CrawlStep::Wait(60_000),
];

/// What a single visit left behind in its session: which source id the
/// page loaded under, and how much work the script did. The caller pulls
/// hosts out of the session in whatever representation it wants (owned
/// strings for the serial reference crawl, interned symbols for the
/// pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitObservation {
    /// Netlog source id of the visit's WebView instance.
    pub source_id: u32,
    /// Script steps executed.
    pub steps: u32,
}

/// Display app id for the baseline run.
pub const BASELINE_APP: &str = "system-webview-shell";

/// Execute the visit script for `site` through `profile`'s IAB (or the
/// System WebView Shell when `None`) on the visit's own session, loading
/// the page from `source`. Pure in `(site, profile, source)`: all state
/// lives in `session`.
pub fn run_visit_with_source(
    site: &TopSite,
    source: PageSource,
    profile: Option<&IabProfile>,
    session: &mut VisitSession,
) -> VisitObservation {
    let url = site.url();
    let source_id = session.allocate_source_id();
    let logcat = session.logcat();
    let netlog = session.netlog();

    let steps = VISIT_SCRIPT.len() as u32;
    let mut source = Some(source);
    for step in VISIT_SCRIPT {
        match step {
            CrawlStep::LaunchApp => match profile {
                Some(p) => logcat.info("adb", &format!("monkey -p {} 1", p.package)),
                None => logcat.info("adb", &format!("monkey -p {BASELINE_APP} 1")),
            },
            CrawlStep::NavigateToActivity => logcat.info("adb", "input tap 540 1200"),
            CrawlStep::InsertUrl => logcat.info("adb", &format!("input text {url}")),
            CrawlStep::TapUrl => {
                let source = source.take().expect("TapUrl appears once per script");
                match profile {
                    Some(profile) => {
                        let _ = open_in_iab(
                            profile,
                            source_id,
                            source,
                            site.category.richness(),
                            session.recorder().clone(),
                            netlog.clone(),
                            logcat.clone(),
                            None,
                        );
                    }
                    None => {
                        // System WebView Shell: a bare WebView, no app logic.
                        let mut wv = WebViewInstance::new(
                            source_id,
                            "org.chromium.webview_shell",
                            session.recorder().clone(),
                            netlog.clone(),
                            logcat.clone(),
                        );
                        wv.load(source);
                    }
                }
            }
            CrawlStep::ScrollToEnd => logcat.info("adb", "input swipe 540 1600 540 400"),
            CrawlStep::Wait(ms) => netlog.advance_clock(ms),
            CrawlStep::CollectLog => {}
            // Nothing to purge: the session dies with the visit.
            CrawlStep::PurgeLogs | CrawlStep::KillApp => {}
        }
    }

    VisitObservation { source_id, steps }
}

/// [`run_visit_with_source`] over a page prepared once per site — the
/// pipeline's fast path (no re-parse, shared URL strings).
pub fn run_visit_prepared(
    site: &TopSite,
    page: &Arc<PreparedPage>,
    profile: Option<&IabProfile>,
    session: &mut VisitSession,
) -> VisitObservation {
    run_visit_with_source(site, PageSource::Prepared(page.clone()), profile, session)
}

/// One Figure 6 bar: per site category, the average number of distinct
/// endpoints contacted *specifically by the app's IAB* (baseline hosts
/// subtracted), broken down by endpoint kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure6Row {
    /// Site category.
    pub category: SiteCategory,
    /// Average IAB-specific distinct endpoints per visit.
    pub avg_endpoints: f64,
    /// Average per endpoint kind.
    pub by_kind: BTreeMap<EndpointKind, f64>,
}

/// Average per-visit kind counts into one row. `visits` is the per-visit
/// specific-endpoint tally for one category; an empty slice yields the
/// explicit all-zero row (a category crawled zero times, or one whose
/// IAB added nothing, must still appear in the figure). Public because the
/// interned pipeline in `wla-dynamic` and the string-path reference crawl
/// (`wla_oracle::crawl`) both fold their tallies through this exact
/// function — sharing the accumulation order is what makes the two
/// pipelines' figures bit-identical.
pub fn figure6_row(category: SiteCategory, visits: &[BTreeMap<EndpointKind, usize>]) -> Figure6Row {
    if visits.is_empty() {
        return Figure6Row {
            category,
            avg_endpoints: 0.0,
            by_kind: BTreeMap::new(),
        };
    }
    let n = visits.len() as f64;
    let mut by_kind: BTreeMap<EndpointKind, f64> = BTreeMap::new();
    let mut total = 0usize;
    for v in visits {
        for (&k, &c) in v {
            *by_kind.entry(k).or_insert(0.0) += c as f64;
            total += c;
        }
    }
    for v in by_kind.values_mut() {
        *v /= n;
    }
    Figure6Row {
        category,
        avg_endpoints: total as f64 / n,
        by_kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_script_matches_paper_sequence() {
        assert_eq!(VISIT_SCRIPT.len(), 10);
        assert!(matches!(VISIT_SCRIPT[0], CrawlStep::LaunchApp));
        assert!(matches!(VISIT_SCRIPT[2], CrawlStep::InsertUrl));
        assert!(matches!(VISIT_SCRIPT[5], CrawlStep::Wait(20_000)));
        assert!(matches!(VISIT_SCRIPT.last(), Some(CrawlStep::Wait(60_000))));
    }
}
