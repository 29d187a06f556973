//! Crawl campaign: visit the 100 synthetic top sites through LinkedIn's
//! and Kik's IABs plus the System WebView Shell baseline, and print the
//! Figure 6 endpoint distributions.
//!
//! ```sh
//! cargo run --release --example crawl_campaign
//! ```

use whatcha_lookin_at::wla_dynamic::CrawlConfig;
use whatcha_lookin_at::wla_report::{bar_chart, Series};
use whatcha_lookin_at::Study;
use wla_oracle::crawl::endpoint_label;

fn main() {
    let study = Study::new(100, 11);
    eprintln!("crawling 100 sites × (LinkedIn, Kik, baseline) …\n");
    let crawl = study.run_crawl_parallel(Some(&["LinkedIn", "Kik"]), CrawlConfig::default());

    for app in ["LinkedIn", "Kik"] {
        let rows = crawl.figure_for(app).expect("crawled");
        let mut total = Series::new(format!(
            "{app}: avg distinct IAB-specific endpoints per visit (baseline-subtracted)"
        ));
        for row in rows {
            total.point(row.category.label(), row.avg_endpoints);
        }
        println!("{}", bar_chart(&total, 40));

        // Per-kind breakdown for the richest category.
        if let Some(news) = rows.iter().find(|r| r.category.label() == "News") {
            println!("  on News sites, by endpoint kind:");
            for (kind, avg) in &news.by_kind {
                println!("    {:12} {avg:.1}", endpoint_label(*kind));
            }
            println!();
        }
    }

    println!("baseline sanity: the System WebView Shell contacted only site-owned hosts;");
    let symbols = &crawl.symbols;
    let baseline_foreign = crawl
        .baseline
        .iter()
        .flat_map(|r| {
            r.hosts
                .iter()
                .map(move |&h| (symbols.resolve(h), symbols.resolve(r.site)))
        })
        .filter(|(h, site)| !h.ends_with(site) && !h.contains("site-"))
        .filter(|(h, _)| !h.contains("cdn") && !h.contains("player") && !h.contains("tag-manager"))
        .count();
    println!(
        "  non-site hosts in baseline (excluding the sites' own third parties): {baseline_foreign}"
    );
}
