//! SDEX/SAPK encode + decode throughput (per-container codec cost).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wla_core::wla_apk::{Dex, Sapk, SectionTag};
use wla_core::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use wla_core::wla_corpus::lowering::lower;
use wla_core::wla_corpus::playstore::{AppMeta, PlayCategory};
use wla_core::wla_sdk_index::SdkIndex;

fn representative_container() -> Vec<u8> {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(42);
    let meta = AppMeta {
        package: "com.bench.app".into(),
        on_play_store: true,
        downloads: 5_000_000,
        category: PlayCategory::Tools,
        last_update_day: 900,
    };
    let spec = eco.sample_app(&mut rng, meta);
    lower(&spec, &catalog, &mut rng).encode()
}

fn bench(c: &mut Criterion) {
    let bytes = representative_container();
    let apk = Sapk::decode(&bytes).unwrap();
    let dex_bytes = apk.section(SectionTag::Dex).unwrap().to_vec();
    let dex = Dex::decode(&dex_bytes).unwrap();

    let mut group = c.benchmark_group("apk_codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("sapk_decode", |b| {
        b.iter(|| Sapk::decode(black_box(&bytes)).unwrap())
    });
    group.bench_function("sdex_decode", |b| {
        b.iter(|| Dex::decode(black_box(&dex_bytes)).unwrap())
    });
    group.bench_function("sdex_encode", |b| b.iter(|| black_box(&dex).encode()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
