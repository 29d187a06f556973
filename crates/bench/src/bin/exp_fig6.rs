//! Regenerates Figures 6a/6b (distinct endpoints contacted by LinkedIn's
//! and Kik's IABs across the 100-site crawl, baseline-subtracted).

fn main() {
    let opts = wla_bench::parse_args();
    let study = wla_bench::study(opts);
    eprintln!("crawling 100 top sites through LinkedIn and Kik IABs + baseline …");
    let run = study.run_crawl_parallel(
        Some(&["LinkedIn", "Kik"]),
        wla_core::wla_dynamic::CrawlConfig::default(),
    );
    wla_bench::print_experiment(&wla_core::experiments::fig6(&run));
    eprintln!("{}", wla_core::stats::render_crawl_stats(&run.stats));
}
