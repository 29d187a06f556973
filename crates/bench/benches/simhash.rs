//! SimHash cost vs token count, plus the full cloaking-check path on the
//! controlled page (DESIGN.md §6.4).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wla_core::wla_web::html::parse;
use wla_core::wla_web::script::{execute, ScriptEffect};
use wla_core::wla_web::testpage::test_page_html;
use wla_core::wla_web::webapi::DomSession;
use wla_core::wla_web::{simhash64, simhash64_scalar};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("simhash");
    for n in [64usize, 512, 4096] {
        let tokens: Vec<String> = (0..n).map(|i| format!("token{i}")).collect();
        group.bench_with_input(BenchmarkId::new("simhash64", n), &tokens, |b, tokens| {
            b.iter(|| simhash64(tokens.iter().map(String::as_str)))
        });
        // The branchy voting loop the nibble-spread path replaced.
        group.bench_with_input(BenchmarkId::new("scalar", n), &tokens, |b, tokens| {
            b.iter(|| simhash64_scalar(tokens.iter().map(String::as_str)))
        });
    }
    // The Hamming distance between two simhashes: a popcount of their XOR.
    group.bench_function("hamming", |b| {
        b.iter(|| {
            (black_box(0xDEAD_BEEF_DEAD_BEEF_u64) ^ black_box(0x1234_5678_9ABC_DEF0_u64))
                .count_ones()
        })
    });
    let page = test_page_html();
    group.bench_function("simhash_page_effect", |b| {
        b.iter_batched(
            || DomSession::new(parse(&page)),
            |mut session| execute(&ScriptEffect::SimHashPage, &mut session),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
