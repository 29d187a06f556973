//! Runs every experiment once and prints a summary — the source of
//! EXPERIMENTS.md's measured column.

use wla_core::experiments as exp;
use wla_core::stats::{render_crawl_stats, render_pipeline_stats};

fn main() {
    let opts = wla_bench::parse_args();
    let study = wla_bench::study(opts);

    eprintln!("[1/4] static pipeline (scale 1:{}) …", study.scale);
    let static_run = study.run_static();
    eprintln!("[2/4] metadata funnel (6.5M records) …");
    let funnel = study.run_funnel(&static_run);
    eprintln!("[3/4] dynamic study (top-1K classification + 10 IABs) …");
    let dynamic_run = study.run_dynamic();
    eprintln!("[4/4] crawl study (100 sites × 10 IABs + baseline) …");
    let crawl_run = study.run_crawl_parallel(None, wla_core::wla_dynamic::CrawlConfig::default());
    eprintln!("{}", render_crawl_stats(&crawl_run.stats));

    let experiments = vec![
        exp::table2(&study, &funnel),
        exp::table3(&study, &static_run),
        exp::table4(&study, &static_run),
        exp::table5(&study, &static_run),
        exp::table6(&dynamic_run),
        exp::table7(&study, &static_run),
        exp::table8(&dynamic_run),
        exp::table9(&dynamic_run),
        exp::fig3(&study, &static_run),
        exp::fig4(&study, &static_run),
        exp::fig6(&crawl_run),
        exp::fig7(),
    ];
    for e in &experiments {
        wla_bench::print_experiment(e);
    }

    println!("=== Static pipeline observability ===\n");
    println!("{}", render_pipeline_stats(&static_run.stats));

    println!("=== Summary ===");
    for e in &experiments {
        println!(
            "{:8} {:>4.0}% of {:2} metrics within tolerance",
            e.id,
            e.comparison.match_fraction() * 100.0,
            e.comparison.rows.len()
        );
    }
}
