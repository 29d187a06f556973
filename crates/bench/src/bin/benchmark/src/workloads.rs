//! The five workloads, and the repetition, checking, and tracing plumbing
//! they share.
//!
//! Each batch workload sets up, warms up untimed, then repeats its unit
//! of work until the run's time budget is spent, checking every
//! repetition's output; before each repetition a few set-ups are timed,
//! and the median of all of them is `setup_s`. Traced runs alternate
//! traced and untraced repetitions of the same calls: the untraced ones
//! give `latency_ms`, the traced ones wrap each call into a layer in a
//! span, and the difference is the tracing overhead.

use crate::drive::{self, pipeline_reachable_sites};
use crate::measure::{self, fnv1a, median, Summary};
use crate::serve;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use wla_core::experiments::{self, Experiment};
use wla_core::wla_corpus::{write_sharded_corpus, CorpusConfig, GeneratedApp, Generator};
use wla_core::wla_dynamic::CrawlConfig;
use wla_core::wla_report::json::comparison_json;
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{
    aggregate, run_pipeline, run_pipeline_streamed, CorpusInput, PipelineConfig, PipelineOutput,
    StreamConfig, StudyResults,
};
use wla_core::{StaticRun, Study};

const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups timed back to back at each sampling point.
const SETUP_BURST: usize = 5;

/// Apps per shard in `stream_s10`: what `Study::run_static_streamed`
/// writes, 230 shards for the scale-10 corpus.
const APPS_PER_SHARD: usize = 64;

/// Workload names, in the order they run and are reported.
pub const WORKLOADS: [&str; 5] = [
    "study_all",
    "static_s10",
    "stream_s10",
    "crawl_all",
    "serve_mixed",
];

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured time budget, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Toy sizes and no warm-up or repetition floor, for the smoke tests.
    pub toy: bool,
    /// Scratch directory for shard files; removed afterwards.
    pub work_dir: PathBuf,
    /// The digest the rendered output must have, when known.
    pub expected_digest: Option<u64>,
}

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// What went wrong.
    pub problems: Vec<String>,
}

impl Checks {
    /// Count one operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = verdict {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(problem);
            }
        }
    }
}

/// Output digests must repeat across repetitions and, when a stored
/// digest is known for this seed, equal it.
#[derive(Debug)]
pub struct DigestCheck {
    expected: Option<u64>,
    first: Option<u64>,
}

impl DigestCheck {
    /// A check against `expected`, if any.
    pub fn new(expected: Option<u64>) -> DigestCheck {
        DigestCheck {
            expected,
            first: None,
        }
    }

    /// Check one repetition's rendered output.
    pub fn check(&mut self, rendered: &str) -> Result<(), String> {
        let d = fnv1a(rendered.as_bytes());
        let first = *self.first.get_or_insert(d);
        if d != first {
            return Err(format!(
                "digest {d:016x} differs from the first repetition's {first:016x}"
            ));
        }
        match self.expected {
            Some(e) if e != d => Err(format!(
                "digest {d:016x} does not match the stored default-seed digest {e:016x}"
            )),
            _ => Ok(()),
        }
    }

    /// The digest the first repetition produced.
    pub fn first(&self) -> Option<u64> {
        self.first
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness accounting.
    pub checks: Checks,
    /// End-to-end metric values by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// Human-readable summary lines.
    pub report: Vec<String>,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            checks: Checks::default(),
            e2e: Vec::new(),
            layer: Vec::new(),
            report: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }
}

/// Run the named workload, or `None` if there is no such workload.
pub fn run(name: &str, o: &Opts) -> Option<Outcome> {
    let mut out = match name {
        "study_all" => study_all(o),
        "static_s10" => static_s10(o),
        "stream_s10" => stream_s10(o),
        "crawl_all" => crawl_all(o),
        "serve_mixed" => serve::serve_mixed(o),
        _ => return None,
    };
    if o.trace {
        out.layer.push(("trace.coverage", out.tracer.coverage()));
    }
    Some(out)
}

/// Time [`SETUP_BURST`] set-ups back to back into `samples`, seconds,
/// dropping each instance outside the timed region.
///
/// Workloads take such bursts at points spread across the run, and
/// `setup_s` is the median of all samples. On a shared host set-up time
/// switches between two levels about 1.6x apart every fraction of a
/// second, so samples taken at one moment all land on one level and their
/// median flips between runs; spread across the run, it reflects the run.
pub fn time_setups<T>(samples: &mut Vec<f64>, mut make: impl FnMut() -> T) {
    for _ in 0..SETUP_BURST {
        let t0 = Instant::now();
        let instance = make();
        samples.push(t0.elapsed().as_secs_f64());
        drop(instance);
    }
}

/// Repetitions measured even past the time budget.
const MIN_REPS: usize = 3;

/// Minimum warm-up before timing starts. On shared virtual machines a
/// fresh process can get well under its nominal parallelism for up to
/// about a second; repetitions timed then measure the host, not the code.
const WARMUP_S: f64 = 1.0;

/// Raw repetition times of one workload run.
struct Measured<R> {
    /// Untraced repetition wall times, seconds.
    wall_s: Vec<f64>,
    /// Traced repetition wall times, seconds.
    traced_s: Vec<f64>,
    /// Peak RSS through set-up and the first repetition, MiB: what one
    /// `wla` invocation peaks at. Later repetitions in the same process
    /// only add allocator retention that a one-shot run never sees, and
    /// how many fit in the budget depends on the host's speed.
    first_rss_mib: f64,
    /// Set-up times, seconds.
    setup_s: Vec<f64>,
    /// The last repetition's output.
    last: R,
}

/// Warm up (untimed, at least one repetition and [`WARMUP_S`]), then
/// repeat `rep` until `o.seconds` have been measured (and at least
/// [`MIN_REPS`] times), checking every output with `check` outside the
/// timed region, and timing a burst of set-ups with `setup` before every
/// repetition. Traced runs trace every other repetition, so the untraced
/// ones between give the run time and the tracing overhead.
fn measure<R, S>(
    o: &Opts,
    tracer: &mut Tracer,
    checks: &mut Checks,
    mut setup: impl FnMut() -> S,
    mut rep: impl FnMut(&mut Tracer) -> R,
    mut check: impl FnMut(&R) -> Result<(), String>,
) -> Measured<R> {
    let mut setup_s = Vec::new();
    let mut untraced = Tracer::new(false);
    time_setups(&mut setup_s, &mut setup);
    let first = rep(&mut untraced);
    let first_rss_mib = measure::peak_rss_mib();
    checks.record(check(&first));
    let mut last = Some(first);
    let warmup = Instant::now();
    while !o.toy && warmup.elapsed().as_secs_f64() < WARMUP_S {
        drop(last.take());
        time_setups(&mut setup_s, &mut setup);
        let r = rep(&mut untraced);
        checks.record(check(&r));
        last = Some(r);
    }
    let (mut wall_s, mut traced_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0.. {
        let reps = wall_s.len() + traced_s.len();
        // A traced run ends on a traced repetition, so `last` is one.
        let pending = o.trace && traced_s.len() != wall_s.len();
        let min_reps = if o.toy { 1 } else { MIN_REPS };
        if reps >= min_reps && started.elapsed().as_secs_f64() >= o.seconds && !pending {
            break;
        }
        let traced = o.trace && i % 2 == 1;
        drop(last.take());
        time_setups(&mut setup_s, &mut setup);
        let t0 = Instant::now();
        let r = if traced {
            tracer.span("rep", &mut rep)
        } else {
            rep(&mut untraced)
        };
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            traced_s.push(wall);
        } else {
            wall_s.push(wall);
        }
        checks.record(check(&r));
        last = Some(r);
    }
    Measured {
        wall_s,
        traced_s,
        first_rss_mib,
        setup_s,
        last: last.expect("at least one repetition"),
    }
}

/// The batch workloads' end-to-end metrics, run time, and summary lines.
fn batch_metrics<R>(out: &mut Outcome, unit: &str, m: &Measured<R>) {
    out.e2e.extend([
        ("setup_s", median(&m.setup_s)),
        ("peak_rss_mib", m.first_rss_mib),
    ]);
    out.report.push(format!(
        "{unit}: {}",
        Summary::of(&m.wall_s).line(1e3, "ms")
    ));
    out.report.push(format!(
        "set-up: {}",
        Summary::of(&m.setup_s).line(1e3, "ms")
    ));
    if !m.traced_s.is_empty() {
        out.report.push(format!(
            "traced {unit}: {}",
            Summary::of(&m.traced_s).line(1e3, "ms")
        ));
        out.layer.extend([
            ("latency_ms", median(&m.wall_s) * 1e3),
            (
                "trace.overhead_ratio",
                median(&m.traced_s) / median(&m.wall_s) - 1.0,
            ),
        ]);
    }
}

/// Median over traced repetitions of the summed time spent in spans
/// named `name`, seconds; 0 when there is none.
pub fn rep_median(t: &Tracer, name: &str) -> f64 {
    let v = t.per_root("rep", name);
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

/// Rendered text of experiments, as `wla` prints them plus each
/// comparison's JSON: the output digests are taken over this.
pub fn render(exps: &[Experiment]) -> String {
    let mut out = String::new();
    for exp in exps {
        out.push_str(&format!("=== {} ===\n\n", exp.id));
        if !exp.table.headers.is_empty() || !exp.table.rows.is_empty() {
            out.push_str(&exp.table.render());
            out.push('\n');
        }
        for fig in &exp.figures {
            out.push_str(fig);
            out.push('\n');
        }
        out.push_str(&exp.comparison.to_table().render());
        out.push('\n');
        out.push_str(&comparison_json(&exp.comparison));
        out.push('\n');
    }
    out
}

/// The six experiments `wla static` prints.
fn static_experiments(study: &Study, run: &StaticRun) -> Vec<Experiment> {
    vec![
        experiments::table3(study, run),
        experiments::table4(study, run),
        experiments::table5(study, run),
        experiments::table7(study, run),
        experiments::fig3(study, run),
        experiments::fig4(study, run),
    ]
}

/// The pipeline inputs `Study::run_static` builds from a corpus.
pub fn corpus_inputs(corpus: &[GeneratedApp]) -> Vec<CorpusInput> {
    corpus
        .iter()
        .map(|g| CorpusInput {
            meta: g.spec.meta.clone(),
            bytes: g.bytes.clone(),
        })
        .collect()
}

/// Traced only: drive the per-app layers serially over `apps`, check the
/// drive against the pipeline's `reference` output over the same apps,
/// and report the per-app layer metrics.
pub fn drive_layers<'a>(
    out: &mut Outcome,
    catalog: &SdkIndex,
    apps: impl IntoIterator<Item = &'a [u8]>,
    reference: &PipelineOutput,
) {
    let report = out.tracer.span("drive", |t| drive::drive(t, catalog, apps));
    let want_sites = pipeline_reachable_sites(reference);
    let want_broken = reference.broken_count() as u64;
    out.checks.record(
        if report.reachable_sites == want_sites && report.decode_failed == want_broken {
            Ok(())
        } else {
            Err(format!(
                "serial drive found {} reachable sites and {} broken apps; the pipeline {} and {}",
                report.reachable_sites, report.decode_failed, want_sites, want_broken
            ))
        },
    );
    let total = |name: &str| out.tracer.per_root("drive", name).iter().sum::<f64>();
    let apps = Summary::of(&report.app_us);
    let tail = apps.tail.map_or(apps.median, |(_, v)| v);
    let layers = [
        ("apk.decode_s", total("apk.decode")),
        ("apk.decode_failed", report.decode_failed as f64),
        ("decompile.subclass_s", total("decompile.subclass")),
        ("callgraph.build_s", total("callgraph.build")),
        ("callgraph.edges", report.edges as f64),
        ("dataflow.annotate_s", total("dataflow.annotate")),
        ("dataflow.resolved_ratio", report.resolved_ratio),
        ("callgraph.record_s", total("callgraph.record")),
        ("label.hit_ratio", report.label_hit_ratio),
        ("analyze.app_p50_us", apps.median),
        ("analyze.app_tail_us", tail),
    ];
    out.layer.extend(layers);
    out.report.push(format!(
        "serial per-app drive over {} apps: {}",
        report.apps,
        apps.line(1.0, "us")
    ));
}

/// `study_all`: the `wla all` call sequence at 1:100.
fn study_all(o: &Opts) -> Outcome {
    struct Rep {
        text: String,
        static_run: StaticRun,
        funnel_records: u64,
        crawl: wla_core::wla_dynamic::CrawlStats,
    }
    let mut out = Outcome::new(o.trace);
    let scale = if o.toy { 4_000 } else { 100 };
    let study = Study::new(scale, o.seed);
    let mut digests = DigestCheck::new(o.expected_digest);
    let m = measure(
        o,
        &mut out.tracer,
        &mut out.checks,
        || Study::new(scale, o.seed),
        |t| {
            let static_run = t.span("study.static", |_| study.run_static());
            let funnel = t.span("funnel", |_| study.run_funnel(&static_run));
            let dynamic = t.span("dynamic", |_| study.run_dynamic());
            let crawl = t.span("crawl", |_| {
                study.run_crawl_parallel(None, CrawlConfig::default())
            });
            let text = t.span("render", |_| {
                render(&[
                    experiments::table2(&study, &funnel),
                    experiments::table3(&study, &static_run),
                    experiments::table4(&study, &static_run),
                    experiments::table5(&study, &static_run),
                    experiments::table6(&dynamic),
                    experiments::table7(&study, &static_run),
                    experiments::table8(&dynamic),
                    experiments::table9(&dynamic),
                    experiments::fig3(&study, &static_run),
                    experiments::fig4(&study, &static_run),
                    experiments::fig6(&crawl),
                    experiments::fig7(),
                ])
            });
            Rep {
                text,
                static_run,
                funnel_records: funnel.total,
                crawl: crawl.stats,
            }
        },
        |r| digests.check(&r.text),
    );
    batch_metrics(&mut out, "wla all", &m);
    out.report.push(format!(
        "digest {:016x}",
        digests.first().unwrap_or_default()
    ));
    if o.trace {
        let t = &out.tracer;
        let funnel = rep_median(t, "funnel");
        let crawl = rep_median(t, "crawl");
        let stats = &m.last.static_run.stats;
        let layers = [
            ("funnel.busy_s", funnel),
            (
                "funnel.records_per_s",
                m.last.funnel_records as f64 / funnel,
            ),
            ("pipeline.join_tail_s", stats.serial_tail_ns as f64 * 1e-9),
            ("pipeline.utilization", stats.utilization()),
            ("dynamic.busy_s", rep_median(t, "dynamic")),
            ("crawl.busy_s", crawl),
            (
                "crawl.visits_per_s",
                m.last.crawl.visits_total as f64 / crawl,
            ),
            ("crawl.utilization", m.last.crawl.utilization()),
            ("crawl.merge_s", m.last.crawl.merge_ns as f64 * 1e-9),
            ("render.s", rep_median(t, "render")),
        ];
        out.layer.extend(layers);
        let inputs = corpus_inputs(&m.last.static_run.corpus);
        let reference = run_pipeline(&inputs, &study.catalog, PipelineConfig::default());
        drive_layers(
            &mut out,
            &study.catalog,
            inputs.iter().map(|i| i.bytes.as_slice()),
            &reference,
        );
    }
    out
}

/// `static_s10`: `wla static --scale 10`.
fn static_s10(o: &Opts) -> Outcome {
    struct Rep {
        text: String,
        run: StaticRun,
        output: Option<PipelineOutput>,
    }
    let mut out = Outcome::new(o.trace);
    let scale = if o.toy { 4_000 } else { 10 };
    let study = Study::new(scale, o.seed);
    let mut digests = DigestCheck::new(o.expected_digest);
    let m = measure(
        o,
        &mut out.tracer,
        &mut out.checks,
        || Study::new(scale, o.seed),
        |t| {
            if !t.enabled() {
                let run = study.run_static();
                let text = render(&static_experiments(&study, &run));
                return Rep {
                    text,
                    run,
                    output: None,
                };
            }
            // Traced: `Study::run_static` re-enacted from its public
            // parts, so generation, input assembly, the pipeline, and
            // aggregation each get a span. The digest check pins the
            // re-enactment's output to the untraced call's.
            let corpus = t.span("corpus.generate", |_| {
                Generator::new(
                    &study.catalog,
                    CorpusConfig {
                        scale: study.scale,
                        seed: study.seed,
                        ..CorpusConfig::default()
                    },
                )
                .generate()
            });
            let inputs = t.span("study.inputs", |_| corpus_inputs(&corpus));
            let output = t.span("pipeline", |_| {
                run_pipeline(&inputs, &study.catalog, PipelineConfig::default())
            });
            let results = t.span("aggregate", |_| aggregate(&output, &study.catalog, 1));
            let run = StaticRun {
                corpus,
                results,
                stats: output.stats.clone(),
                top_sdk_threshold: 1,
            };
            let text = t.span("render", |_| render(&static_experiments(&study, &run)));
            Rep {
                text,
                run,
                output: Some(output),
            }
        },
        |r| digests.check(&r.text),
    );
    batch_metrics(&mut out, "wla static", &m);
    out.report.push(format!(
        "digest {:016x}",
        digests.first().unwrap_or_default()
    ));
    if let (true, Some(output)) = (o.trace, &m.last.output) {
        let t = &out.tracer;
        let generate = rep_median(t, "corpus.generate");
        let layers = [
            ("corpus.generate_s", generate),
            (
                "corpus.apps_per_s",
                m.last.run.corpus.len() as f64 / generate,
            ),
            (
                "pipeline.join_tail_s",
                output.stats.serial_tail_ns as f64 * 1e-9,
            ),
            ("pipeline.utilization", output.stats.utilization()),
            ("aggregate.s", rep_median(t, "aggregate")),
            ("render.s", rep_median(t, "render")),
        ];
        out.layer.extend(layers);
        drive_layers(
            &mut out,
            &study.catalog,
            m.last.run.corpus.iter().map(|g| g.bytes.as_slice()),
            output,
        );
    }
    out
}

/// `stream_s10`: shard write, cold streamed run with resume on, warm
/// rerun — over one scale-10 corpus generated up front as input.
fn stream_s10(o: &Opts) -> Outcome {
    struct Rep {
        dir: PathBuf,
        outputs: Result<(PipelineOutput, PipelineOutput), String>,
    }
    let mut out = Outcome::new(o.trace);
    let scale = if o.toy { 4_000 } else { 10 };
    let study = Study::new(scale, o.seed);
    let generate_started = Instant::now();
    let corpus = Generator::new(
        &study.catalog,
        CorpusConfig {
            scale,
            seed: o.seed,
            ..CorpusConfig::default()
        },
    )
    .generate();
    let generate_s = generate_started.elapsed().as_secs_f64();
    let corpus_mib = corpus.iter().map(|g| g.bytes.len()).sum::<usize>() as f64 / MIB;
    // The in-memory pipeline's output over the same corpus, which every
    // streamed run must reproduce. Computed on first use, after the first
    // repetition, so its memory stays out of the peak RSS.
    let mut reference: Option<(PipelineOutput, StudyResults)> = None;
    std::fs::create_dir_all(&o.work_dir).expect("create the benchmark's work directory");

    let n = corpus.len();
    let mut digests = DigestCheck::new(o.expected_digest);
    let mut reps = 0usize;
    let m = measure(
        o,
        &mut out.tracer,
        &mut out.checks,
        || Study::new(scale, o.seed),
        |t| {
            let dir = o.work_dir.join(format!("stream-{reps}"));
            reps += 1;
            let _ = std::fs::remove_dir_all(&dir);
            let config = StreamConfig::default();
            let outputs = t
                .span("shard.write", |_| {
                    write_sharded_corpus(&dir, &corpus, APPS_PER_SHARD)
                })
                .and_then(|_| {
                    t.span("stream.cold", |_| {
                        run_pipeline_streamed(&dir, &study.catalog, config)
                    })
                })
                .and_then(|cold| {
                    t.span("stream.resume", |_| {
                        run_pipeline_streamed(&dir, &study.catalog, config)
                    })
                    .map(|warm| (cold, warm))
                })
                .map_err(|e| format!("streamed run failed: {e}"));
            Rep { dir, outputs }
        },
        |r| {
            let verdict = r.outputs.as_ref().map_err(Clone::clone).and_then(|(cold, warm)| {
                let (c, w) = (&cold.stats.stream, &warm.stats.stream);
                if c.entries_streamed != n || c.entries_cached != 0 {
                    return Err(format!(
                        "cold run streamed {} and loaded {} of {n} entries",
                        c.entries_streamed, c.entries_cached
                    ));
                }
                if w.shards_read != 0 || w.entries_cached != n {
                    return Err(format!(
                        "warm run read {} shards and loaded {} of {n} entries from the resume cache",
                        w.shards_read, w.entries_cached
                    ));
                }
                let (_, expected) = reference.get_or_insert_with(|| {
                    let output = run_pipeline(
                        &corpus_inputs(&corpus),
                        &study.catalog,
                        PipelineConfig::default(),
                    );
                    let results = aggregate(&output, &study.catalog, 1);
                    (output, results)
                });
                let results = aggregate(cold, &study.catalog, 1);
                if results != *expected {
                    return Err("streamed results differ from the in-memory pipeline's".to_owned());
                }
                if aggregate(warm, &study.catalog, 1) != *expected {
                    return Err("resumed results differ from the in-memory pipeline's".to_owned());
                }
                let run = StaticRun {
                    corpus: Vec::new(),
                    results,
                    stats: cold.stats.clone(),
                    top_sdk_threshold: 1,
                };
                digests.check(&render(&static_experiments(&study, &run)))
            });
            let _ = std::fs::remove_dir_all(&r.dir);
            verdict
        },
    );
    let _ = std::fs::remove_dir_all(&o.work_dir);
    batch_metrics(&mut out, "write + cold + warm", &m);
    out.report.push(format!(
        "digest {:016x}",
        digests.first().unwrap_or_default()
    ));
    out.report.push(format!(
        "input: {n} apps, {corpus_mib:.1} MiB, generated in {:.1} ms",
        generate_s * 1e3
    ));
    if let (true, Ok((cold, warm)), Some((reference, _))) = (o.trace, &m.last.outputs, &reference) {
        let t = &out.tracer;
        let write = rep_median(t, "shard.write");
        let layers = [
            ("corpus.generate_s", generate_s),
            ("corpus.apps_per_s", n as f64 / generate_s),
            ("shard.write_s", write),
            ("shard.write_mib_per_s", corpus_mib / write),
            ("stream.cold_s", rep_median(t, "stream.cold")),
            ("stream.resume_s", rep_median(t, "stream.resume")),
            (
                "stream.peak_mapped_mib",
                cold.stats.stream.peak_mapped_bytes as f64 / MIB,
            ),
            (
                "stream.entries_cached",
                warm.stats.stream.entries_cached as f64,
            ),
            (
                "pipeline.join_tail_s",
                cold.stats.serial_tail_ns as f64 * 1e-9,
            ),
            ("pipeline.utilization", cold.stats.utilization()),
        ];
        out.layer.extend(layers);
        drive_layers(
            &mut out,
            &study.catalog,
            corpus.iter().map(|g| g.bytes.as_slice()),
            reference,
        );
    }
    out
}

/// `crawl_all`: the 100-site crawl through all ten apps plus the
/// baseline, and its Figure 6 rendering.
fn crawl_all(o: &Opts) -> Outcome {
    struct Rep {
        text: String,
        stats: wla_core::wla_dynamic::CrawlStats,
        failures: usize,
    }
    let mut out = Outcome::new(o.trace);
    let study = Study::new(100, o.seed);
    let mut digests = DigestCheck::new(o.expected_digest);
    let m = measure(
        o,
        &mut out.tracer,
        &mut out.checks,
        || Study::new(100, o.seed),
        |t| {
            let run = t.span("crawl", |_| {
                study.run_crawl_parallel(None, CrawlConfig::default())
            });
            let text = t.span("render", |_| render(&[experiments::fig6(&run)]));
            Rep {
                text,
                failures: run.failures.len(),
                stats: run.stats,
            }
        },
        |r| {
            if r.failures > 0 || r.stats.visits_completed != r.stats.visits_total {
                return Err(format!(
                    "{} of {} visits completed, {} failures",
                    r.stats.visits_completed, r.stats.visits_total, r.failures
                ));
            }
            digests.check(&r.text)
        },
    );
    batch_metrics(&mut out, "crawl + fig6", &m);
    out.report.push(format!(
        "digest {:016x}",
        digests.first().unwrap_or_default()
    ));
    if o.trace {
        let t = &out.tracer;
        let crawl = rep_median(t, "crawl");
        let s = &m.last.stats;
        let layers = [
            ("crawl.busy_s", crawl),
            ("crawl.visits_per_s", s.visits_total as f64 / crawl),
            ("crawl.utilization", s.utilization()),
            ("crawl.merge_s", s.merge_ns as f64 * 1e-9),
            ("render.s", rep_median(t, "render")),
        ];
        out.layer.extend(layers);
    }
    out
}
