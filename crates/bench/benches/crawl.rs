//! Crawl-study cost: the seed string-path oracle vs the interned pipeline,
//! serial and at increasing worker counts.
//!
//! `serial_seed` is the pre-pipeline shape — per-visit page regeneration
//! and re-parse, owned-`String` host sets, string-keyed figure fold — and
//! doubles as the interned-vs-string ablation baseline. `serial_interned`
//! is the pipeline at one worker (prepared pages, symbol-keyed hosts,
//! classification memo); `parallel_N` runs it on the shared claim pool at
//! N threads — explicit counts are honoured, even past the host's cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wla_core::wla_crawler::sites::top_100_sites;
use wla_core::wla_device::iab::all_profiles;
use wla_core::wla_dynamic::{run_crawl_pipeline, CrawlConfig};
use wla_oracle::{crawl_app, crawl_baseline, figure6};

const APPS: &[&str] = &["LinkedIn", "Kik", "Snapchat"];

fn bench(c: &mut Criterion) {
    let sites = top_100_sites();
    let profiles = all_profiles();

    let mut group = c.benchmark_group("crawl_study");
    group.sample_size(20);

    // The seed path: fresh synthetic source per visit, BTreeSet<String>
    // hosts, figures folded from the string records.
    group.bench_function("serial_seed", |b| {
        b.iter(|| {
            let baseline = crawl_baseline(&sites);
            let mut figures = Vec::new();
            for profile in profiles.iter().filter(|p| APPS.contains(&p.app_name)) {
                let records = crawl_app(profile, &sites);
                figures.push(figure6(&records, &baseline));
            }
            figures
        })
    });

    group.bench_function("serial_interned", |b| {
        b.iter(|| run_crawl_pipeline(&sites, Some(APPS), CrawlConfig { workers: 1 }))
    });

    for workers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_crawl_pipeline(&sites, Some(APPS), CrawlConfig { workers }))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
