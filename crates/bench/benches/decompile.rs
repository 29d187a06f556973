//! Decompiler (lifter) + source parser + subclass closure cost per app.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wla_core::wla_apk::{Dex, SectionTag};
use wla_core::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use wla_core::wla_corpus::lowering::lower;
use wla_core::wla_corpus::playstore::{AppMeta, PlayCategory};
use wla_core::wla_intern::LocalInterner;
use wla_core::wla_sdk_index::SdkIndex;
use wla_oracle::{lift_dex, parse_source, webview_subclasses, webview_subclasses_interned};

fn representative_dex() -> Dex {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(7);
    let meta = AppMeta {
        package: "com.bench.app".into(),
        on_play_store: true,
        downloads: 5_000_000,
        category: PlayCategory::Puzzle,
        last_update_day: 900,
    };
    let spec = eco.sample_app(&mut rng, meta);
    let apk = lower(&spec, &catalog, &mut rng);
    Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap()
}

fn bench(c: &mut Criterion) {
    let dex = representative_dex();
    let sources = lift_dex(&dex);

    let mut group = c.benchmark_group("decompile");
    group.bench_function("lift_dex", |b| b.iter(|| lift_dex(black_box(&dex))));
    group.bench_function("parse_all_sources", |b| {
        b.iter(|| {
            for f in &sources {
                let _ = parse_source(black_box(&f.source));
            }
        })
    });
    group.bench_function("webview_subclasses", |b| {
        b.iter(|| webview_subclasses(black_box(&sources)))
    });
    // Interned closure with a warm worker lexicon — the pipeline's shape.
    group.bench_function("webview_subclasses_interned", |b| {
        let mut lexicon = LocalInterner::new();
        b.iter(|| webview_subclasses_interned(black_box(&sources), &mut lexicon))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
