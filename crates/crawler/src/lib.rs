//! # wla-crawler — top-site crawling harness
//!
//! §3.2.2's crawl: "systematically crawl the landing pages of 100 randomly
//! selected top sites … using the ten different WebViews previously
//! identified", plus the System WebView Shell as the no-injection
//! baseline, with an ADB-scripted loop per visit (launch → navigate →
//! insert URL → tap → scroll → wait 20 s → collect netlog → purge → kill →
//! wait 1 min).
//!
//! * [`sites`] — the synthetic top-100 site list (CrUX analog) with
//!   per-category content models: page weight, subresources, and the
//!   site's *own* third-party calls, so IAB-specific endpoints must be
//!   isolated by baseline subtraction rather than assumed;
//! * [`classify`] — the endpoint classifier (Symantec Sitereview analog);
//! * [`driver`] — the ADB-analog visit script and the Figure 6 row
//!   (average distinct IAB-specific endpoints per site category);
//! * [`loadtime`] — the Figure 7 page-load-time model (CT vs Chrome vs
//!   external browser vs WebView).
//!
//! The serial crawl `wla-dynamic` is pinned against lives in `wla-oracle`.

#![forbid(unsafe_code)]

pub mod classify;
pub mod driver;
pub mod loadtime;
pub mod sites;

pub use classify::{classify_third_party, is_first_party, EndpointKind};
pub use driver::{
    figure6_row, run_visit_prepared, CrawlStep, Figure6Row, VisitObservation, BASELINE_APP,
    VISIT_SCRIPT,
};
pub use loadtime::{load_time_ms, LoadContext, LoadMode};
pub use sites::{site_page, top_100_sites, SiteCategory, TopSite};
