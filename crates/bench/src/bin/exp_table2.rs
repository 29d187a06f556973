//! Regenerates Table 2 (dataset funnel) — full-scale metadata universe
//! plus the scaled byte-level corpus for the analyzed row.

fn main() {
    let opts = wla_bench::parse_args();
    let study = wla_bench::study(opts);
    eprintln!("running static pipeline at scale 1:{} …", study.scale);
    let static_run = study.run_static();
    eprintln!("running 6.5M-record metadata funnel …");
    let funnel = study.run_funnel(&static_run);
    wla_bench::print_experiment(&wla_core::experiments::table2(&study, &funnel));
    // Observability for the run that produced the analyzed row: per-stage
    // timers, throughput, and the failure taxonomy behind "broken".
    println!(
        "{}",
        wla_core::stats::render_pipeline_stats(&static_run.stats)
    );
}
