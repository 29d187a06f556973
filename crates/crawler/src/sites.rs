//! The synthetic top-site list and per-category content models.
//!
//! The paper samples 100 sites from Chrome's CrUX top-1K origins. Here the
//! list is synthesized: ten categories × ten sites, each with a content
//! model whose richness drives (a) how many subresources and third-party
//! calls the *site itself* makes and (b) how much IAB-injected machinery
//! activates (Figure 6's x-axis effect).

use std::sync::Arc;
use wla_device::webview::{PageSource, PreparedPage};
use wla_web::Document;

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

    /// Approximate page weight in KB (drives the Figure 7 load model).
    pub fn page_weight_kb(self) -> u32 {
        60 + self.richness() as u32 * 140
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

/// Prepare a site's page once — DOM and resolved subresource URL list —
/// for sharing across every visit to that site. Builds the document and
/// its resolved fetch list directly from the same recipe [`site_html`]
/// renders, skipping the markup/parse/DOM-walk round-trip;
/// `site_page_matches_parsed_markup` pins the two paths node-for-node and
/// URL-for-URL over the whole corpus.
pub fn site_page(site: &TopSite) -> PreparedPage {
    let r = site.category.richness() as usize;
    let mut doc = Document::new();
    let head = doc.head().expect("skeleton");
    let body = doc.body().expect("skeleton");
    // Resolved subresources accumulate in document order — the order
    // `collect_subresource_urls` walks the parsed DOM.
    let mut sub_urls: Vec<Arc<str>> = Vec::with_capacity(10 + r / 2);

    let meta = doc.alloc_element("meta");
    doc.set_attr(meta, "name", "description");
    doc.set_attr(meta, "content", &format!("{} landing", site.host));
    doc.append_child(head, meta);
    let link = doc.alloc_element("link");
    doc.set_attr(link, "href", "/static/site.css");
    doc.append_child(head, link);
    sub_urls.push(format!("https://{}/static/site.css", site.host).into());

    let h1 = doc.alloc_element("h1");
    let title = doc.alloc_text(&site.host);
    doc.append_child(h1, title);
    doc.append_child(body, h1);
    for p in 0..(2 + r) {
        let para = doc.alloc_element("p");
        let text = doc.alloc_text(&format!(
            "Article paragraph {p} with body copy for {}.",
            site.category.label()
        ));
        doc.append_child(para, text);
        doc.append_child(body, para);
    }
    for img in 0..(1 + r / 2) {
        let el = doc.alloc_element("img");
        doc.set_attr(el, "src", &format!("/media/img{img}.jpg"));
        doc.append_child(body, el);
        sub_urls.push(format!("https://{}/media/img{img}.jpg", site.host).into());
    }
    let mut script = |doc: &mut Document, src: &str, resolved: Arc<str>| {
        let el = doc.alloc_element("script");
        doc.set_attr(el, "src", src);
        doc.append_child(body, el);
        sub_urls.push(resolved);
    };
    script(
        &mut doc,
        "/static/bundle.js",
        format!("https://{}/static/bundle.js", site.host).into(),
    );
    script(
        &mut doc,
        "https://analytics.site-metrics.net/ga.js",
        "https://analytics.site-metrics.net/ga.js".into(),
    );
    if r >= 5 {
        script(
            &mut doc,
            "https://static.site-ads.net/slot.js",
            "https://static.site-ads.net/slot.js".into(),
        );
        let ins = doc.alloc_element("ins");
        doc.set_attr(ins, "class", "adsbygoogle");
        doc.append_child(body, ins);
    }
    if r >= 8 {
        script(
            &mut doc,
            "https://cdn.tag-manager.net/tm.js",
            "https://cdn.tag-manager.net/tm.js".into(),
        );
        let frame = doc.alloc_element("iframe");
        doc.set_attr(frame, "src", "https://video.player-cdn.net/embed");
        doc.append_child(body, frame);
        sub_urls.push("https://video.player-cdn.net/embed".into());
    }

    // The site's own non-DOM requests (`site_extra_requests`) close the
    // fetch list, as `PreparedPage::from_document` appends them.
    sub_urls.push(format!("https://{}/api/config", site.host).into());
    if r >= 6 {
        sub_urls.push("https://beacons.site-metrics.net/v1/collect".into());
    }

    // Freeze the page at exact capacity: it is shared, read-only, by every
    // visit to the site.
    doc.shrink_to_fit();
    sub_urls.shrink_to_fit();
    PreparedPage {
        url: site.url().into(),
        doc: Arc::new(doc),
        sub_urls,
        readonly: Default::default(),
    }
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
    let mut extra = vec![format!("https://{}/api/config", site.host)];
    if site.category.richness() >= 6 {
        extra.push("https://beacons.site-metrics.net/v1/collect".to_owned());
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_page_matches_parsed_markup() {
        // The direct document build must equal the markup round-trip
        // node-for-node (same arena order, attributes, and text), and the
        // resolved fetch list must match URL-for-URL.
        for site in top_100_sites() {
            let direct = site_page(&site);
            let parsed = PreparedPage::from_markup(
                &site.url(),
                &site_html(&site),
                &site_extra_requests(&site),
            );
            assert_eq!(*direct.doc, *parsed.doc, "{}", site.host);
            assert_eq!(direct.sub_urls, parsed.sub_urls, "{}", site.host);
            assert_eq!(direct.url, parsed.url);
        }
    }

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
