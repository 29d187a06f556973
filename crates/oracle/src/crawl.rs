//! The serial string-keyed crawl, the seed path `wla-dynamic`'s interned
//! parallel crawl is pinned against (`tests/crawl_equivalence.rs`): one app
//! at a time, each page re-parsed per visit, hosts kept as owned strings.

use std::collections::{BTreeMap, BTreeSet};
use wla_crawler::classify::{classify_third_party, is_first_party, EndpointKind};
use wla_crawler::driver::{
    figure6_row, run_visit_with_source, Figure6Row, VisitObservation, BASELINE_APP,
};
use wla_crawler::sites::{SiteCategory, TopSite};
use wla_device::iab::IabProfile;
use wla_device::session::VisitSession;

/// Classify `host` relative to the visited `site_host`: first party, or
/// the suffix rules' verdict.
pub fn classify_endpoint(host: &str, site_host: &str) -> EndpointKind {
    if is_first_party(host, site_host) {
        return EndpointKind::FirstParty;
    }
    classify_third_party(host)
}

/// The display label of an endpoint kind.
pub fn endpoint_label(kind: EndpointKind) -> &'static str {
    match kind {
        EndpointKind::AdNetwork => "Ad Network",
        EndpointKind::Tracker => "Tracker",
        EndpointKind::Cdn => "CDN",
        EndpointKind::FirstParty => "First Party",
        EndpointKind::AppService => "App Service",
        EndpointKind::Other => "Other",
    }
}

/// Result of one (app, site) visit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlRecord {
    /// App package (or `"system-webview-shell"` for the baseline).
    pub app: String,
    /// Site visited.
    pub site_host: String,
    /// Site category.
    pub category: SiteCategory,
    /// Distinct hosts contacted during the visit.
    pub hosts: BTreeSet<String>,
    /// Endpoint kind per host, parallel to `hosts` iteration order —
    /// classified exactly once, at record construction.
    pub kinds: Vec<EndpointKind>,
}

impl CrawlRecord {
    /// Build a record, classifying every host once.
    pub fn new(
        app: String,
        site_host: String,
        category: SiteCategory,
        hosts: BTreeSet<String>,
    ) -> CrawlRecord {
        let kinds = hosts
            .iter()
            .map(|h| classify_endpoint(h, &site_host))
            .collect();
        CrawlRecord {
            app,
            site_host,
            category,
            hosts,
            kinds,
        }
    }

    /// Hosts by kind (relative to the visited site), counted from the
    /// kinds stored at construction.
    pub fn classified(&self) -> BTreeMap<EndpointKind, usize> {
        let mut out = BTreeMap::new();
        for k in &self.kinds {
            *out.entry(*k).or_insert(0) += 1;
        }
        out
    }
}

/// [`run_visit_with_source`] over freshly generated synthetic site
/// content — the seed path, regenerating and re-parsing the page markup
/// on every visit. Kept as the oracle and the bench ablation baseline.
pub fn run_visit(
    site: &TopSite,
    profile: Option<&IabProfile>,
    session: &mut VisitSession,
) -> VisitObservation {
    run_visit_with_source(site, site.synthetic_source(), profile, session)
}

fn record_for(site: &TopSite, profile: Option<&IabProfile>) -> CrawlRecord {
    let mut session = VisitSession::new();
    let obs = run_visit(site, profile, &mut session);
    let app = profile
        .map(|p| p.package.to_owned())
        .unwrap_or_else(|| BASELINE_APP.to_owned());
    CrawlRecord::new(
        app,
        site.host.clone(),
        site.category,
        session.netlog().distinct_hosts_for(obs.source_id),
    )
}

/// Crawl every site through one app's IAB.
pub fn crawl_app(profile: &IabProfile, sites: &[TopSite]) -> Vec<CrawlRecord> {
    sites
        .iter()
        .map(|site| record_for(site, Some(profile)))
        .collect()
}

/// Crawl every site through the System WebView Shell (baseline: "the
/// network requests expected to be made from a WebView without any
/// injections").
pub fn crawl_baseline(sites: &[TopSite]) -> Vec<CrawlRecord> {
    sites.iter().map(|site| record_for(site, None)).collect()
}

/// Aggregate app-vs-baseline crawls into Figure 6 rows — one row per
/// [`SiteCategory`], in category order, zero rows included. Endpoint
/// kinds come from the records (classified once at construction), not
/// from re-running the classifier here.
pub fn figure6(app_records: &[CrawlRecord], baseline: &[CrawlRecord]) -> Vec<Figure6Row> {
    let baseline_by_site: BTreeMap<&str, &CrawlRecord> =
        baseline.iter().map(|r| (r.site_host.as_str(), r)).collect();
    let mut per_cat: BTreeMap<SiteCategory, Vec<BTreeMap<EndpointKind, usize>>> =
        SiteCategory::ALL.iter().map(|&c| (c, Vec::new())).collect();
    for rec in app_records {
        let base_hosts: &BTreeSet<String> = match baseline_by_site.get(rec.site_host.as_str()) {
            Some(b) => &b.hosts,
            None => continue,
        };
        let mut kinds: BTreeMap<EndpointKind, usize> = BTreeMap::new();
        for (h, k) in rec.hosts.iter().zip(&rec.kinds) {
            if !base_hosts.contains(h) {
                *kinds.entry(*k).or_insert(0) += 1;
            }
        }
        per_cat
            .get_mut(&rec.category)
            .expect("ALL covers every category")
            .push(kinds);
    }
    per_cat
        .into_iter()
        .map(|(category, visits)| figure6_row(category, &visits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wla_crawler::driver::run_visit_prepared;
    use wla_crawler::sites::{site_page, top_100_sites};
    use wla_device::iab::profile_for;

    #[test]
    fn split_classifier_matches_composed_one() {
        for (host, site) in [
            ("ads.mopub.com", "news0.example-1.com"),
            ("cdn.news0.example-1.com", "news0.example-1.com"),
            ("px.ads.linkedin.com", "x.com"),
            ("mopub.com.evil.net", "x.com"),
            ("om", "t.co"), // shorter than every suffix
            ("co", "t.co"),
        ] {
            let composed = classify_endpoint(host, site);
            let split = if is_first_party(host, site) {
                EndpointKind::FirstParty
            } else {
                classify_third_party(host)
            };
            assert_eq!(composed, split, "{host} vs {site}");
        }
    }

    #[test]
    fn baseline_contacts_only_site_resources() {
        let sites: Vec<TopSite> = top_100_sites().into_iter().take(10).collect();
        let records = crawl_baseline(&sites);
        assert_eq!(records.len(), 10);
        for rec in &records {
            // No IAB-specific hosts in the baseline.
            assert!(!rec.hosts.contains("radar.cedexis.com"), "{rec:?}");
            assert!(!rec.hosts.contains("ads.mopub.com"), "{rec:?}");
            assert!(rec.hosts.contains(&rec.site_host));
        }
    }

    #[test]
    fn prepared_visit_matches_synthetic_visit() {
        let sites = top_100_sites();
        let profile = profile_for("kik.android").unwrap();
        for site in sites.iter().step_by(17) {
            let page = Arc::new(site_page(site));
            for profile in [None, Some(&profile)] {
                let mut fresh = VisitSession::new();
                let a = run_visit(site, profile, &mut fresh);
                let mut prepared = VisitSession::new();
                let b = run_visit_prepared(site, &page, profile, &mut prepared);
                assert_eq!(a, b);
                // Same events in the same order — not just the same hosts.
                assert_eq!(fresh.netlog().events(), prepared.netlog().events());
                // A `Logcat` prints its lines.
                let logs = |s: &VisitSession| format!("{:?}", s.logcat());
                assert_eq!(logs(&fresh), logs(&prepared));
            }
        }
    }

    #[test]
    fn record_kinds_parallel_hosts_and_classified_agrees() {
        let sites = top_100_sites();
        let profile = profile_for("kik.android").unwrap();
        let rec = &crawl_app(&profile, &sites[..3])[0];
        assert_eq!(rec.hosts.len(), rec.kinds.len());
        for ((h, k), via_classify) in rec
            .hosts
            .iter()
            .zip(&rec.kinds)
            .map(|(h, k)| ((h, *k), classify_endpoint(h, &rec.site_host)))
        {
            assert_eq!(k, via_classify, "{h}");
        }
        let counted: usize = rec.classified().values().sum();
        assert_eq!(counted, rec.hosts.len());
    }

    #[test]
    fn linkedin_figure6_shape() {
        let sites = top_100_sites();
        let profile = profile_for("com.linkedin.android").unwrap();
        let rows = figure6(&crawl_app(&profile, &sites), &crawl_baseline(&sites));
        let get = |cat: SiteCategory| {
            rows.iter()
                .find(|r| r.category == cat)
                .expect("every category has a row")
                .avg_endpoints
        };
        // News-rich pages trigger more IAB endpoints than Search.
        assert!(get(SiteCategory::News) > get(SiteCategory::Search));
        // At least 2 trackers on rich content (§4.2.2).
        let news = rows
            .iter()
            .find(|r| r.category == SiteCategory::News)
            .unwrap();
        assert!(
            news.by_kind
                .get(&EndpointKind::Tracker)
                .copied()
                .unwrap_or(0.0)
                >= 2.0,
            "{news:?}"
        );
    }

    #[test]
    fn kik_contacts_many_ad_networks_on_rich_sites() {
        let sites = top_100_sites();
        let profile = profile_for("kik.android").unwrap();
        let rows = figure6(&crawl_app(&profile, &sites), &crawl_baseline(&sites));
        let news = rows
            .iter()
            .find(|r| r.category == SiteCategory::News)
            .unwrap();
        // "over 15 ad network endpoints" on content-rich sites.
        assert!(news.avg_endpoints >= 15.0, "{news:?}");
        assert!(
            news.by_kind
                .get(&EndpointKind::AdNetwork)
                .copied()
                .unwrap_or(0.0)
                >= 10.0,
            "{news:?}"
        );
        let search = rows
            .iter()
            .find(|r| r.category == SiteCategory::Search)
            .unwrap();
        assert!(search.avg_endpoints < news.avg_endpoints);
    }

    #[test]
    fn snapchat_is_indistinguishable_from_baseline() {
        let sites: Vec<TopSite> = top_100_sites().into_iter().take(20).collect();
        let profile = profile_for("com.snapchat.android").unwrap();
        let rows = figure6(&crawl_app(&profile, &sites), &crawl_baseline(&sites));
        assert_eq!(rows.len(), SiteCategory::ALL.len());
        for row in rows {
            assert_eq!(row.avg_endpoints, 0.0, "{row:?}");
        }
    }

    #[test]
    fn every_category_gets_a_row_even_on_subsets() {
        // The first ten sites are all News — the other nine categories
        // must still be present, as explicit zero rows.
        let sites: Vec<TopSite> = top_100_sites().into_iter().take(10).collect();
        assert!(sites.iter().all(|s| s.category == SiteCategory::News));
        let profile = profile_for("kik.android").unwrap();
        let rows = figure6(&crawl_app(&profile, &sites), &crawl_baseline(&sites));
        assert_eq!(rows.len(), SiteCategory::ALL.len());
        let news = rows
            .iter()
            .find(|r| r.category == SiteCategory::News)
            .unwrap();
        assert!(news.avg_endpoints > 0.0);
        for row in rows.iter().filter(|r| r.category != SiteCategory::News) {
            assert_eq!(row.avg_endpoints, 0.0, "{row:?}");
            assert!(row.by_kind.is_empty(), "{row:?}");
        }
    }
}
