//! # wla-pool — the workspace's one claim pool and one panic isolator
//!
//! Both of the paper's measurement passes are parallel over units that
//! can fail alone: the §3.1 static pass over containers (242 of 146.8K are
//! broken, and they belong in Table 2's broken row rather than in a
//! stopped run) and the §3.2.2 crawl over `(app, site)` visits (Figure 6).
//! Every parallel runner in the workspace is [`run`] over its item count —
//! 64-app batches, 64-app shards, or site columns — and every per-unit
//! fault boundary is [`isolate`].
//!
//! The scheduling rule is the simplest one that measured as fast as the
//! alternatives: scoped threads that each claim **one index per relaxed
//! `fetch_add`** from a shared counter. What an index stands for is the
//! caller's choice. The static runners claim a 64-app batch (in memory)
//! or a 64-app shard (streamed) per index and run each app inside the
//! claim under its own [`isolate`], so the pool keeps one outcome per
//! batch, not per app. The crawl claims one site's column: it prepares
//! the site's page and visits it through the baseline and every selected
//! app, each visit under its own [`isolate`], ~0.15 ms for all ten apps,
//! far above a contended increment. Batch and per-app claiming of the
//! static pass bench level on 2 cores. [`run`] starts no more workers
//! than there are claims, and a worker can finish up to one batch after
//! the rest; what that costs above 2 cores (a 1:1000 corpus is 3 batches)
//! is not measured. Results come back in index order whatever the
//! schedule, so a caller that folds them in order is deterministic at any
//! worker count.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-worker scheduling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker ran. A caller whose item is a batch may recount
    /// it in the batch's units (the static runners count apps).
    pub items: usize,
    /// Wall-clock nanoseconds of this worker's claim loop, from one clock
    /// pair around the loop rather than one per item.
    pub busy_ns: u64,
}

/// What one [`run`] hands back.
#[derive(Debug)]
pub struct PoolOutput<C, T> {
    /// `(worker, outcome)` for every index, in index order. A panicking
    /// item's outcome is `Err` with the panic text.
    pub results: Vec<(usize, Result<T, String>)>,
    /// Each worker's context after its last item, in worker order.
    pub contexts: Vec<C>,
    /// Each worker's counters, in worker order.
    pub workers: Vec<WorkerStats>,
}

/// The worker count for `n` items: `requested`, or the host's available
/// parallelism (1 when unknown) if `requested` is 0 — capped at `n`, and
/// at least 1.
fn worker_count(requested: usize, n: usize) -> usize {
    let wanted = match requested {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        explicit => explicit,
    };
    wanted.min(n).max(1)
}

/// Run `work` once for every index in `0..n`.
///
/// `workers` is honoured as given — 0 means the host's available
/// parallelism (1 when unknown) — capped at `n` and at least 1. Each
/// worker builds its context once with `init`, then claims one index at a
/// time and runs `work(&mut context, index)` under [`isolate`], so a
/// panicking item costs its own result and nothing else. Worker 0 runs on
/// the calling thread and the others on scoped threads, so a run of `w`
/// workers spawns `w − 1`.
pub fn run<C, T, I, W>(n: usize, workers: usize, init: I, work: W) -> PoolOutput<C, T>
where
    C: Send,
    T: Send,
    I: Fn() -> C + Sync,
    W: Fn(&mut C, usize) -> T + Sync,
{
    let workers = worker_count(workers, n);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut ctx = init();
        let mut out = Vec::new();
        let started = Instant::now();
        loop {
            // Relaxed: the counter only hands out indices; results travel
            // back through the thread join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            out.push((i, isolate(|| work(&mut ctx, i))));
        }
        let stats = WorkerStats {
            items: out.len(),
            busy_ns: started.elapsed().as_nanos() as u64,
        };
        (ctx, out, stats)
    };
    let finished: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        let first = worker();
        std::iter::once(first)
            .chain(spawned.into_iter().map(|h| {
                h.join()
                    .expect("worker loops cannot panic: items run under isolate")
            }))
            .collect()
    });

    let mut merged = Vec::with_capacity(n);
    let mut contexts = Vec::with_capacity(workers);
    let mut stats = Vec::with_capacity(workers);
    for (w, (ctx, out, s)) in finished.into_iter().enumerate() {
        merged.extend(out.into_iter().map(|(i, result)| (i, w, result)));
        contexts.push(ctx);
        stats.push(s);
    }
    // Each worker's buffer ascends in index, so this merges sorted runs.
    merged.sort_unstable_by_key(|&(i, _, _)| i);
    assert!(
        merged.len() == n && merged.iter().enumerate().all(|(pos, &(i, _, _))| pos == i),
        "claiming covers every index exactly once"
    );
    PoolOutput {
        results: merged
            .into_iter()
            .map(|(_, w, result)| (w, result))
            .collect(),
        contexts,
        workers: stats,
    }
}

/// Run `f`, turning a panic into `Err` with the panic payload's text.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Keep the deliberate panics out of test output while any other panic
    /// still reports through the previous hook. The hook is process-global,
    /// so it is installed once.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let text = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
                if !text.is_some_and(|t| t.contains("injected")) {
                    previous(info);
                }
            }));
        });
    }

    fn values(out: &PoolOutput<(), usize>) -> Vec<usize> {
        out.results
            .iter()
            .map(|(_, r)| *r.as_ref().expect("no item panicked"))
            .collect()
    }

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        let expect: Vec<usize> = (0..200).map(|i| i * 3).collect();
        for workers in [0, 1, 2, 3, 8] {
            let out = run(200, workers, || (), |_, i| i * 3);
            assert_eq!(values(&out), expect, "workers = {workers}");
            assert_eq!(out.workers.len(), worker_count(workers, 200));
            assert_eq!(out.contexts.len(), out.workers.len());
        }
        // Explicit counts are honoured even past the host's cores.
        assert_eq!(run(200, 8, || (), |_, i| i).workers.len(), 8);
    }

    #[test]
    fn more_workers_than_items_caps_at_the_item_count() {
        let out = run(3, 8, || (), |_, i| i);
        assert_eq!(values(&out), vec![0, 1, 2]);
        assert_eq!(out.workers.len(), 3);
    }

    #[test]
    fn empty_input_runs_one_idle_worker() {
        let out = run(0, 4, || (), |_, i| i);
        assert!(out.results.is_empty());
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].items, 0);
    }

    #[test]
    fn a_panicking_item_fails_alone_at_its_own_index() {
        quiet_injected_panics();
        for workers in [1, 3] {
            let out = run(
                20,
                workers,
                || (),
                |_, i| {
                    if i == 7 {
                        panic!("injected fault at item {i}");
                    }
                    i
                },
            );
            assert_eq!(out.results.len(), 20);
            for (i, (_, result)) in out.results.iter().enumerate() {
                match result {
                    Ok(v) => assert_eq!(*v, i),
                    Err(message) => {
                        assert_eq!(i, 7, "workers = {workers}");
                        assert_eq!(message, "injected fault at item 7");
                    }
                }
            }
            assert!(out.results[7].1.is_err(), "workers = {workers}");
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        for workers in [1, 2, 3, 8] {
            let out = run(200, workers, || (), |_, _| thread::current().id());
            assert_eq!(out.workers.len(), workers);
            for (w, r) in &out.results {
                // Worker 0 is the caller; every other worker is not.
                assert_eq!(
                    r.as_ref() == Ok(&caller),
                    *w == 0,
                    "worker {w} of {workers}"
                );
            }
        }
    }

    #[test]
    fn each_worker_context_sees_exactly_its_items() {
        for workers in [1, 2, 8] {
            let out = run(1_000, workers, Vec::new, |seen: &mut Vec<usize>, i| {
                seen.push(i)
            });
            assert_eq!(out.workers.iter().map(|w| w.items).sum::<usize>(), 1_000);
            for (w, (seen, stats)) in out.contexts.iter().zip(&out.workers).enumerate() {
                assert_eq!(seen.len(), stats.items);
                assert!(seen.iter().all(|&i| out.results[i].0 == w));
            }
        }
    }

    #[test]
    fn isolate_returns_values_and_panic_text() {
        quiet_injected_panics();
        assert_eq!(isolate(|| 5), Ok(5));
        let literal: Result<(), String> = isolate(|| panic!("injected literal"));
        assert_eq!(literal, Err("injected literal".to_owned()));
        let formatted: Result<(), String> = isolate(|| panic!("injected {}", "format"));
        assert_eq!(formatted, Err("injected format".to_owned()));
    }
}
