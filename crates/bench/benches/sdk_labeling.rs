//! SDK labeling ablation: the segment-interned prefix trie behind
//! `SdkIndex::label_id` vs the linear scan (DESIGN.md §6, item 1).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wla_core::wla_sdk_index::SdkIndex;
use wla_oracle::labels::label_linear;

fn probes() -> Vec<String> {
    let index = SdkIndex::paper();
    let mut probes: Vec<String> = index
        .sdks()
        .iter()
        .map(|s| format!("{}.internal.render", s.primary_prefix()))
        .collect();
    for i in 0..60 {
        probes.push(format!("com.vendor{i:03}.app.ui")); // unlabeled
    }
    probes.push("com.google.android.gms.ads".into());
    probes
}

fn bench(c: &mut Criterion) {
    let index = SdkIndex::paper();
    let probes = probes();

    let mut group = c.benchmark_group("sdk_labeling");
    group.bench_function("trie", |b| {
        b.iter(|| {
            for p in &probes {
                black_box(index.label_id(p));
            }
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            for p in &probes {
                black_box(label_linear(&index, p));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
