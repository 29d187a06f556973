//! The synthetic top-site list and per-category content models.
//!
//! The paper samples 100 sites from Chrome's CrUX top-1K origins. Here the
//! list is synthesized: ten categories × ten sites, each with a content
//! model whose richness drives (a) how many subresources and third-party
//! calls the *site itself* makes and (b) how much IAB-injected machinery
//! activates (Figure 6's x-axis effect).

use wla_device::webview::{resolve_url, PageSource, PreparedPage};

/// Site categories (Sitereview-style; the x-axis of Figures 6a/6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteCategory {
    /// News sites — richest pages.
    News,
    /// Streaming/entertainment.
    Entertainment,
    /// E-commerce.
    Shopping,
    /// Social networks.
    Social,
    /// Travel booking.
    Travel,
    /// Banking/finance.
    Finance,
    /// Reference works.
    Reference,
    /// Education.
    Education,
    /// Technology vendors.
    Technology,
    /// Search engines — leanest pages.
    Search,
}

impl SiteCategory {
    /// All categories, richest first.
    pub const ALL: [SiteCategory; 10] = [
        SiteCategory::News,
        SiteCategory::Entertainment,
        SiteCategory::Shopping,
        SiteCategory::Social,
        SiteCategory::Travel,
        SiteCategory::Finance,
        SiteCategory::Reference,
        SiteCategory::Education,
        SiteCategory::Technology,
        SiteCategory::Search,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SiteCategory::News => "News",
            SiteCategory::Entertainment => "Entertainment",
            SiteCategory::Shopping => "Shopping",
            SiteCategory::Social => "Social",
            SiteCategory::Travel => "Travel",
            SiteCategory::Finance => "Finance",
            SiteCategory::Reference => "Reference",
            SiteCategory::Education => "Education",
            SiteCategory::Technology => "Technology",
            SiteCategory::Search => "Search",
        }
    }

    /// Content richness on a 0–10 scale ("for websites with rich content,
    /// such as News, Entertainment, and Shopping, LinkedIn's IAB contacted
    /// more trackers … smaller for Search or Technology websites,
    /// presumably because they contained less content", §4.2.2).
    pub fn richness(self) -> u8 {
        match self {
            SiteCategory::News => 9,
            SiteCategory::Entertainment => 8,
            SiteCategory::Shopping => 8,
            SiteCategory::Social => 7,
            SiteCategory::Travel => 6,
            SiteCategory::Finance => 5,
            SiteCategory::Reference => 4,
            SiteCategory::Education => 4,
            SiteCategory::Technology => 3,
            SiteCategory::Search => 2,
        }
    }
}

/// One crawled site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopSite {
    /// CrUX-style rank (1-based).
    pub rank: u32,
    /// Landing host.
    pub host: String,
    /// Category.
    pub category: SiteCategory,
}

impl TopSite {
    /// Landing-page URL.
    pub fn url(&self) -> String {
        format!("https://{}/", self.host)
    }

    /// Freshly generated synthetic page source for this site — regenerates
    /// the markup and re-parses on load (the seed crawl path).
    pub fn synthetic_source(&self) -> PageSource {
        PageSource::Synthetic {
            url: self.url(),
            html: site_html(self),
            extra_requests: site_extra_requests(self),
        }
    }
}

/// Prepare a site's page once — parse [`site_html`] and resolve its fetch
/// list, then [`site_extra_requests`] — for sharing across every visit to
/// that site.
pub fn site_page(site: &TopSite) -> PreparedPage {
    PreparedPage::from_markup(&site.url(), &site_html(site), site_extra_refs(site))
}

/// The 100-site list: ten per category, deterministic.
pub fn top_100_sites() -> Vec<TopSite> {
    let mut sites = Vec::with_capacity(100);
    let mut rank = 1;
    for cat in SiteCategory::ALL {
        for i in 0..10 {
            sites.push(TopSite {
                rank,
                host: format!("{}{i}.example-{}.com", cat.label().to_lowercase(), rank),
                category: cat,
            });
            rank += 1;
        }
    }
    sites
}

/// Generate the landing-page HTML for a site: headline content plus
/// richness-scaled subresources and the site's *own* third-party calls.
pub fn site_html(site: &TopSite) -> String {
    let r = site.category.richness() as usize;
    let mut html = String::with_capacity(2048);
    html.push_str(&format!(
        "<html><head><meta name=\"description\" content=\"{} landing\">\
         <link href=\"/static/site.css\"></head><body>",
        site.host
    ));
    html.push_str(&format!("<h1>{}</h1>", site.host));
    for p in 0..(2 + r) {
        html.push_str(&format!(
            "<p>Article paragraph {p} with body copy for {}.</p>",
            site.category.label()
        ));
    }
    for img in 0..(1 + r / 2) {
        html.push_str(&format!("<img src=\"/media/img{img}.jpg\">"));
    }
    // First-party app bundle.
    html.push_str("<script src=\"/static/bundle.js\"></script>");
    // The site's own third parties, richness-scaled: analytics always,
    // ad slots on rich pages.
    html.push_str("<script src=\"https://analytics.site-metrics.net/ga.js\"></script>");
    if r >= 5 {
        html.push_str("<script src=\"https://static.site-ads.net/slot.js\"></script>");
        html.push_str("<ins class=\"adsbygoogle\"></ins>");
    }
    if r >= 8 {
        html.push_str("<script src=\"https://cdn.tag-manager.net/tm.js\"></script>");
        html.push_str("<iframe src=\"https://video.player-cdn.net/embed\"></iframe>");
    }
    html.push_str("</body></html>");
    html
}

/// Extra (non-DOM) requests the site itself fires, e.g. XHR beacons.
pub fn site_extra_requests(site: &TopSite) -> Vec<String> {
    site_extra_refs(site)
        .iter()
        .map(|raw| resolve_url(raw, &site.host))
        .collect()
}

/// [`site_extra_requests`] as the site's script writes them, relative to
/// the page or absolute.
fn site_extra_refs(site: &TopSite) -> &'static [&'static str] {
    if site.category.richness() >= 6 {
        &["/api/config", "https://beacons.site-metrics.net/v1/collect"]
    } else {
        &["/api/config"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_hundred_sites_ten_per_category() {
        let sites = top_100_sites();
        assert_eq!(sites.len(), 100);
        for cat in SiteCategory::ALL {
            assert_eq!(sites.iter().filter(|s| s.category == cat).count(), 10);
        }
        // Ranks unique 1..=100.
        let mut ranks: Vec<u32> = sites.iter().map(|s| s.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn richness_ordering_matches_paper_narrative() {
        assert!(SiteCategory::News.richness() > SiteCategory::Search.richness());
        assert!(SiteCategory::Shopping.richness() > SiteCategory::Technology.richness());
    }

    #[test]
    fn rich_sites_have_more_subresources() {
        let sites = top_100_sites();
        let news = sites
            .iter()
            .find(|s| s.category == SiteCategory::News)
            .unwrap();
        let search = sites
            .iter()
            .find(|s| s.category == SiteCategory::Search)
            .unwrap();
        let news_scripts = site_html(news).matches("<script").count();
        let search_scripts = site_html(search).matches("<script").count();
        assert!(news_scripts > search_scripts);
    }

    #[test]
    fn list_is_deterministic() {
        assert_eq!(top_100_sites(), top_100_sites());
    }
}
