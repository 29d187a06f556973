#!/usr/bin/env bash
# Local CI gate: no stale dev-dependency, formatting, lints, no unused
# library dependency, warning-free rustdoc, the full test suite, the reach
# step (every production file that defines a `fn`, and every public
# function in one, puts a symbol into the debug `wla`, but what
# REACH_ALLOWED names with its reason), the streamed-corpus example run
# twice into one directory (1:2000, then the smaller 1:4000 corpus; the
# example asserts its streamed results equal Study::run_static, so a
# leftover shard of the first run fails it),
# the tests of the end-to-end benchmark package
# (crates/bench/src/bin/benchmark), and the paper-scale streamed run (the
# ignored `stream_equivalence` test in release: 73,400 apps at 1/2/4/8
# workers plus a full resume pass, where at each worker count the in-memory
# aggregate and the fold's (`run_pipeline_tallied`) must equal the streamed
# one, ~22 s once built — the one test that takes the pipeline join, the
# tally merge and the resume cache through a 50K+ corpus), and the heap
# bounds in release (each root heap test binary, `output_footprint`,
# `run_peaks` and `crawl_footprint`, run once with `--include-ignored`,
# so its 1:100 tests and its ignored scale-10 ones run side by side and a
# test that measures without the lock fails: what a 14,680-app
# `run_pipeline` output holds, the most that run adds above its inputs
# and its output, and the most a `run_pipeline_tallied` fold adds above
# its inputs, counted by a global allocator; ~6 s once built), and the
# full-universe funnel count (the
# ignored `wla-corpus` unit test in release: `count_funnel` must equal
# folding all 6,507,222 `MetadataUniverse` records at three seeds, and
# read Table 2's rows at the default one; ~8 s once built), and the
# release-only pins (the ignored `tests/pins.rs` tests in release: the
# FNV-1a-64 of `wla static --scale 10`'s and `wla all --scale 10`'s
# stdout, and EXPERIMENTS.md's "paper vs measured" blocks against what
# `wla all --scale 25` and `wla static --scale 10` print; ~4 s once
# built). The debug suite pins every other `wla`
# subcommand's stdout at its default flags, the 1:100 and what-if corpus
# bytes, the SDK catalog, the resume-cache bytes and the 100 prepared
# crawl pages (`tests/pins.rs`), the stats tables
# (`tests/stats_golden.rs`), and the corpus, output, run-peak and crawl
# heap bounds (`tests/output_footprint.rs`, `tests/run_peaks.rs`,
# `tests/crawl_footprint.rs`), so `cargo test -q` at the root runs them.
#
# Codec regressions (e.g. the content-length and bare-\r bugs fixed in
# the net crate) are exactly the kind of thing `clippy -D warnings` plus
# the proptest suites catch mechanically — run this before every push.
#
# With no argument `ci.sh` runs the whole gate; its subcommands are `loc`,
# `reach`, `bench-snapshot` and `bench-check`, and any other argument
# prints them and exits 2 without starting cargo.
#
# `ci.sh loc` prints the Rust line count every CHANGES entry reports:
# every line of `src/**/*.rs` and `crates/*/src/**/*.rs`, `crates/bench`
# left out, and every `#[cfg(test)]`-gated item left out wherever it sits
# in its file (a test module, or a test-only method inside an `impl`),
# with the attributes, comments and blank lines between the attribute and
# its item. One row per crate, then two totals: `production`, every crate
# but REFERENCE_CRATES (the number CHANGES entries report), and
# `reference`, those crates. `ci.sh loc REV` counts revision REV the same
# way and prints, per crate and for both totals, its count, the work
# tree's and the delta (a tree without a crate counts 0 for it): REV's
# `src/` and `crates/` are extracted with `git archive` into a directory
# under `target/` (removed afterwards), so `.git` and the work tree are
# never touched, and counted there with this work tree's counter. An
# unknown revision exits 2 without starting cargo.
#
# `ci.sh reach` builds the debug `wla` and runs the gate's reach step
# alone. It matches `nm -C`'s demangled names by full path: lifetimes are
# erased (`CallGraph<'d>`'s methods read `CallGraph::build`), a generic
# type's method reads `Type<T>::method`, and trait-impl methods are out of
# scope. A debug build emits every function it calls; a `const fn` that is
# only ever evaluated at compile time, or an `#[inline(always)]` one, would
# put no symbol in, and no production function is either today.
#
# `ci.sh bench-snapshot` refreshes the committed bench snapshots in quick
# mode (WLA_BENCH_QUICK=1, ~seconds instead of minutes), each row run
# pinned or free as `bench-check` runs it:
#   BENCH_static.json  — callgraph, static-pipeline, url-provenance, and
#                        corpus-stream benches;
#   BENCH_dynamic.json — the crawl-study benches (seed oracle vs interned
#                        pipeline vs parallel pool) and the simhash kernel.
# Quick-mode numbers are noisier than a full `cargo bench` run — use them
# for order-of-magnitude regression spotting, and EXPERIMENTS.md for the
# measured full-mode ablations. Each snapshot opens with a `"_host"` entry:
# core count (`nproc`), CPU model, `rustc --version` and the cargo profile
# the benches build with (`bench`), and the CPU the single-threaded rows
# run on.
#
# `ci.sh bench-check [REV]` (default `HEAD~1`) compares this work tree
# against revision REV on this host, in one invocation: REV's
# `Cargo.toml`, `vendor/`, `crates/` and `src/` are extracted with `git
# archive` into `target/bench-base-<commit>` (kept for the next check
# against that commit; its benches build in its own target directory),
# and the same quick benches run there and here alternately: nine
# passes, in each of which every bench job runs twice on each side in
# ABBA order, a side's number for the pass being its faster run. A job
# (`STATIC_JOBS`, `DYNAMIC_JOBS`) is a bench target's single-threaded rows,
# run on CPU 0 (`taskset -c 0`) on both sides so a pair is measured on one
# vCPU, or its rows that run a worker pool or client threads, run
# unpinned. Both sides run under the work tree's bench harness
# (`vendor/criterion`, copied into the base tree), which reads the jobs'
# row filters. A row
# regresses when the median over the passes of its work/base ratio
# exceeds its allowance: 25% for the static microbenches, 50% for the
# end-to-end crawl runs (whole-pipeline wall times swing more with host
# load, and the seed-vs-parallel sides of the speedup ratio swing
# together). Real
# regressions — an accidental re-allocation in the decode path, a
# per-visit parse sneaking back in — clear both bars, while host drift
# moves both sides of a pair alike. Every stage runs — the static check,
# the saturation and lookup-table floor gates, the dynamic check — and
# prints its verdict; the check exits 1 at the end, naming the stages
# that failed, if any did, so one failing stage never hides the others.
# The two floor gates read the work tree's fresh static run (the
# per-bench min over its passes); they are reported as not evaluated,
# and counted as failed, only when the benches did not run. The committed
# snapshots stay a record: the drift from them is printed last and fails
# nothing, and a snapshot whose `_host` is missing or names another host
# is not compared. An unknown REV exits 2 without starting cargo.
set -euo pipefail
cd "$(dirname "$0")"

# The bench jobs of each snapshot suite. A job is a bench target, where
# its rows run, and the harness filters that pick them (positional
# patterns, `--skip PATTERN`; see `vendor/criterion`). `pinned` rows run on
# CHECK_CPU, both sides of a check alike: a quick run's number depends on
# the vCPU it lands on (~1.5x apart on a shared host). `free` rows run
# unpinned: each runs a worker pool or client threads (the static
# pipeline's 1/2/4/8-worker sweep, the provenance run's four workers, the
# corpus stream's eight, the crawl's parallel rows, the http_loop grid),
# and on one CPU they would measure summed work, not wall time, so a
# change that serialized the pool would not move them.
STATIC_JOBS=(
    "callgraph pinned"
    "static_pipeline pinned --skip corpus_734_apps_stats_on"
    "static_pipeline free corpus_734_apps_stats_on"
    "url_provenance pinned --skip pipeline_dataflow"
    "url_provenance free pipeline_dataflow"
    "corpus_stream free"
    "http_loop free"
)
DYNAMIC_JOBS=(
    "crawl pinned --skip parallel"
    "crawl free parallel"
    "simhash pinned"
)
CHECK_CPU=0
# Crates of references and §5 discussion models: only the root package's
# tests and examples and `crates/bench`'s benches depend on them. `loc`
# totals them apart from production, and `reach` does not ask them to link
# into `wla`.
REFERENCE_CRATES=(crates/oracle crates/extensions)
# What `reach` lets put no symbol into `wla`, each with its reason. A key
# is a public function's full path, or a module path ending in `::`, which
# allows that module's file and every function in it. An entry may only
# name what the end-to-end benchmark package calls, the streamed path
# (until ROADMAP item 3 gives it a `wla` entry), an `is_empty` that clippy's
# `len_without_is_empty` pairs with a linked `len`, or a reference ROADMAP
# item 6 keeps in place because moving it would make a private item `pub`.
declare -A REACH_ALLOWED=(
    [wla_corpus::shard::]="the streamed path's shards: only the end-to-end benchmark's stream_s10 reaches them (it calls write_sharded_corpus, then run_pipeline_streamed) until ROADMAP item 3 gives the streamed path a wla entry"
    [wla_static::cache::]="the streamed path's resume cache: only run_pipeline_streamed reaches it"
    [wla_static::stream::run_pipeline_streamed]="the streamed runner: the end-to-end benchmark's stream_s10 calls it"
    [wla_static::aggregate::aggregate]="the keep-output aggregation: the end-to-end benchmark's traced static_s10 and its stream_s10 call it"
    [wla_static::pipeline::PipelineOutput::broken_count]="the end-to-end benchmark checks its per-app drive against it"
    [wla_apk::sdex::Dex::decode_bytes_with]="the end-to-end benchmark's per-app drive calls it (one of ROADMAP item 6's shims)"
    [wla_callgraph::graph::CallGraph::build_with]="the end-to-end benchmark's per-app drive calls it (one of ROADMAP item 6's shims)"
    [wla_callgraph::reach::WebCallRecord::reachable_webview]="the end-to-end benchmark's per-app drive counts reachable sites with it"
    [wla_callgraph::reach::WebCallRecord::reachable_custom_tabs]="the end-to-end benchmark's per-app drive counts reachable sites with it"
    [wla_intern::SymbolTable::is_empty]="clippy's len_without_is_empty pairs it with the linked SymbolTable::len"
    [wla_net::netlog::NetLog::is_empty]="clippy's len_without_is_empty pairs it with the linked NetLog::len"
    [wla_static::table::ResultTable::is_empty]="clippy's len_without_is_empty pairs it with the linked ResultTable::len"
    [wla_apk::sdex::oracle::decode]="the owning decoder decode_equivalence pins Dex::decode_bytes against; in wla-oracle it would need sdex.rs's private readers and validators pub"
    [wla_web::simhash::simhash64_scalar]="the branchy simhash the nibble-spread simhash64 is pinned against; in wla-oracle it would need simhash.rs's private fnv1a pub"
    [wla_net::http::Request::read_from]="the blocking reference server's request reader; in wla-oracle it would need the private readers it shares with Response::read_from pub"
    [wla_net::http::Request::read_from_limited]="the blocking reference server's request reader; in wla-oracle it would need the private readers it shares with Response::read_from pub"
    [wla_crawler::sites::TopSite::synthetic_source]="the serial crawl reference's page source; in wla-oracle it would need sites.rs's private site_extra_refs, which site_page shares, pub"
    [wla_crawler::sites::site_extra_requests]="the serial crawl reference's extra requests; in wla-oracle it would need sites.rs's private site_extra_refs, which site_page shares, pub"
)
# `bench-check`'s passes, and the quick runs of each bench job a pass
# makes on each side; a side's number for a pass is the min of its runs.
CHECK_PASSES=9
CHECK_RUNS=2

quick_run() {
    # One quick run of bench job $3 (see STATIC_JOBS) in the tree at $2
    # (its own target directory), appending `id<TAB>median_ns` lines to $1
    # (an absolute path); the benches' own report goes to /dev/null.
    # Failures return explicitly: bench-check runs this where `set -e`
    # does not apply.
    local raw=$1 tree=$2
    local -a job pin=()
    read -r -a job <<< "$3"
    if [[ ${job[1]} == pinned ]]; then pin=(taskset -c "$CHECK_CPU"); fi
    (cd "$tree" && WLA_BENCH_QUICK=1 WLA_BENCH_JSON="$raw" "${pin[@]}" \
        cargo bench -q -p wla-bench --bench "${job[0]}" -- "${job[@]:2}" > /dev/null)
}

per_bench_min() {
    # TSV (id<TAB>median_ns), one line per bench, sorted: the smallest of
    # the `id<TAB>median_ns` lines in $1. Shared boxes swing their CPU
    # allotment between runs, and the min is the statistic least sensitive
    # to that noise — a real regression slows the best case too.
    awk -F'\t' '
        !($1 in best) || $2 + 0 < best[$1] + 0 { best[$1] = $2 }
        END { for (id in best) printf "%s\t%s\n", id, best[id] }
    ' "$1" | LC_ALL=C sort
}

run_quick_benches() {
    # $1 = TSV to write: the per-bench min of two quick runs of each bench
    # job over the work tree; the rest are the jobs.
    local tsv=$1
    shift
    rm -f "$tsv.raw"
    local run job
    for run in 1 2; do
        for job in "$@"; do
            quick_run "$tsv.raw" . "$job" || return 1
        done
    done
    per_bench_min "$tsv.raw" > "$tsv" || return 1
    rm -f "$tsv.raw"
}

host_id() {
    # What a bench number depends on besides the code: core count, CPU
    # model, compiler, the cargo profile `cargo bench` builds with, and the
    # CPU the pinned rows run on. Quotes and backslashes are dropped so the
    # line is a plain JSON string.
    local cpu
    cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
    printf '%s cores, %s, %s, bench profile, single-threaded rows on CPU %s' \
        "$(nproc)" "${cpu:-unknown CPU}" "$(rustc --version)" "$CHECK_CPU" | tr -d '"\\'
}

snapshot_host() {
    # The `_host` entry of snapshot $1; empty when it has none.
    sed -n 's/^  "_host": "\(.*\)",*$/\1/p' "$1"
}

tsv_to_json() {
    # `_host` first, then one `"id": median_ns` row per TSV line.
    awk -F'\t' -v host="$(host_id)" '
        BEGIN { printf "{\n  \"_host\": \"%s\"", host }
        { printf ",\n  \"%s\": %s", $1, $2 }
        END { print "\n}" }' "$1"
}

snapshot_one() {
    # $1 = snapshot file; the rest are the bench jobs of its suite.
    local json=$1
    shift
    local tsv
    tsv=$(mktemp)
    run_quick_benches "$tsv" "$@"
    tsv_to_json "$tsv" > "$json"
    echo "wrote $json ($(wc -l < "$tsv") benches on $(host_id))"
    rm -f "$tsv"
}

bench_snapshot() {
    echo "== bench snapshot (quick mode) =="
    snapshot_one BENCH_static.json "${STATIC_JOBS[@]}"
    snapshot_one BENCH_dynamic.json "${DYNAMIC_JOBS[@]}"
}

against_base() {
    # $1 = suite name; $2 = regression allowance (e.g. 1.25); $3 = the base
    # tree; $4 = an empty scratch directory, left holding `work.tsv`, the
    # work tree's per-bench min, once every pass ran; the rest are the
    # suite's bench jobs. In each of CHECK_PASSES passes every job runs
    # CHECK_RUNS times on each side, base and work tree back to back in
    # ABBA order, so both sides of a pair see the same host (and a pinned
    # job the same CPU), and a side's number for the pass is its fastest
    # run, since a regression slows the fast case too. A row regresses
    # when the median over the passes of its work/base ratio exceeds the
    # allowance. Returns 1 on a failure.
    local suite=$1 limit=$2 base=$3 dir=$4
    shift 4
    local pass run job side tree order
    for ((pass = 1; pass <= CHECK_PASSES; pass++)); do
        for job in "$@"; do
            for ((run = 1; run <= CHECK_RUNS; run++)); do
                order="base work"
                if ((run % 2 == 0)); then order="work base"; fi
                for side in $order; do
                    tree=.
                    if [[ $side == base ]]; then tree=$base; fi
                    rm -f "$dir/run.raw"
                    quick_run "$dir/run.raw" "$tree" "$job" || {
                        echo "bench-check: FAILED ($suite bench job \"$job\" of the $side tree did not run)"
                        return 1
                    }
                    awk -F'\t' -v pass="$pass" -v side="$side" \
                        '{ print pass "\t" side "\t" $1 "\t" $2 }' "$dir/run.raw" >> "$dir/passes.tsv"
                    if [[ $side == work ]]; then cat "$dir/run.raw" >> "$dir/work.raw"; fi
                done
            done
        done
    done
    per_bench_min "$dir/work.raw" > "$dir/work.tsv"
    # A row on one side only (an added or retired bench) is reported but
    # never fails.
    awk -F'\t' -v limit="$limit" -v passes="$CHECK_PASSES" '
        function median(list,   v, n, i, j, t) {
            n = split(list, v, " ")
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        {
            key = $1 SUBSEP $2 SUBSEP $3
            if (!(key in ns) || $4 + 0 < ns[key] + 0) ns[key] = $4
            ids[$3] = 1
        }
        END {
            out = "LC_ALL=C sort -b -k2,2"
            for (id in ids) {
                ratios = ""; bases = ""; works = ""
                for (p = 1; p <= passes; p++) {
                    b = (p SUBSEP "base" SUBSEP id); w = (p SUBSEP "work" SUBSEP id)
                    if ((b in ns) && (w in ns) && ns[b] > 0) {
                        ratios = ratios sprintf(" %.3f", ns[w] / ns[b])
                        bases = bases " " ns[b]; works = works " " ns[w]
                    } else if (b in ns) only[id] = "retired"
                    else only[id] = "new"
                }
                if (id in only) { printf "  %-9s %s\n", only[id], id | out; continue }
                r = median(ratios)
                if (r > limit) bad++
                printf "  %-9s %-40s %12.0f -> %12.0f ns  median ratio %.3f (%s )\n",
                    (r > limit ? "REGRESSED" : "ok"), id, median(bases), median(works), r, ratios | out
            }
            close(out)
            exit bad > 0 ? 1 : 0
        }' "$dir/passes.tsv" || {
        echo "bench-check: FAILED ($suite rows above the ${limit}x allowance of the base)"
        return 1
    }
    echo "bench-check: $suite rows within the ${limit}x allowance of the base"
}

snapshot_drift() {
    # $1 = committed snapshot; $2 = its allowance; $3 = the work tree's
    # fresh TSV. A record of how far this host and tree are from the
    # snapshot: printed, and fails nothing. A snapshot whose `_host` is
    # missing or names another host is not compared.
    local json=$1 limit=$2 tsv=$3 host snap
    [[ -f "$json" ]] || { echo "  no committed $json"; return 0; }
    host=$(host_id)
    snap=$(snapshot_host "$json")
    if [[ "$snap" != "$host" ]]; then
        echo "  $json: snapshot from ${snap:-an unrecorded host}, this host is $host; not compared"
        return 0
    fi
    echo "  $json (rows past ${limit}x marked \"over\"):"
    awk -F'\t' -v limit="$limit" '
        NR == FNR { fresh[$1] = $2; next }
        /":/ {
            line = $0
            gsub(/^[ ]*"|",?$/, "", line)
            split(line, kv, /": /)
            id = kv[1]; old = kv[2] + 0
            if (id == "_host") next
            if (!(id in fresh)) { printf "  retired   %-40s (baseline %.0f ns)\n", id, old; next }
            new = fresh[id] + 0
            ratio = (old > 0) ? new / old : 1
            printf "  %-9s %-40s %12.0f -> %12.0f ns (%+.1f%%)\n", (ratio > limit ? "over" : "ok"), id, old, new, (ratio - 1) * 100
            seen[id] = 1
        }
        END { for (id in fresh) if (!(id in seen)) printf "  new       %-40s %12.0f ns\n", id, fresh[id] + 0 }' "$tsv" "$json"
}

lookup_table_gate() {
    # The type lookup table's acceptance bar, on the fresh run's TSV ($1):
    # probing the stored table must beat the linear type-table scan by
    # ≥3x (measured ~8x).
    awk -F'\t' '
        $1 == "callgraph/type_by_name_lut"          { lut = $2 + 0 }
        $1 == "callgraph/type_by_name_linear_scan"  { scan = $2 + 0 }
        END {
            if (lut == 0 || scan == 0) {
                print "  lookup-table gate: bench rows missing"; exit 1
            }
            printf "  lookup-table  linear_scan / type_by_name_lut = %.1fx (floor 3x)\n", scan / lut
            exit scan / lut < 3 ? 1 : 0
        }' "$1" || { echo "bench-check: FAILED (type lookup table below its floor)"; return 1; }
    echo "bench-check: lookup-table gate above its floor"
}

saturation_gate() {
    # The http_loop acceptance bar, on the fresh run's TSV ($1): the
    # nonblocking server must clear 5x the thread-per-connection oracle's
    # req/s with 64 concurrent keep-alive clients (pipelined framing — the
    # serial ping-pong shape is client-scheduling-bound on small hosts and
    # reported alongside).
    awk -F'\t' '
        $1 == "http_loop/oracle_close_64"  { oracle = $2 + 0 }
        $1 == "http_loop/nb_pipelined_64"  { nb = $2 + 0 }
        END {
            if (oracle == 0 || nb == 0) { print "  saturation gate: http_loop benches missing"; exit 1 }
            ratio = oracle / nb
            printf "  saturation   oracle_close_64 / nb_pipelined_64 = %.1fx (floor 5x)\n", ratio
            exit ratio >= 5 ? 0 : 1
        }' "$1" || { echo "bench-check: FAILED (nonblocking server below 5x oracle saturation)"; return 1; }
    echo "bench-check: saturation gate above its floor"
}

bench_check() {
    # $1 = the base revision. Every stage runs and prints its verdict; a
    # failed stage is named at the end, and fails the check, without
    # skipping the stages after it.
    local rev=$1 commit base
    commit=$(rev_commit "$rev") || exit 2
    # The base tree is kept for the next check against the same commit, so
    # its benches build once; `cargo clean` removes it with `target/`.
    base=target/bench-base-$commit
    if [[ ! -f $base/.extracted ]]; then
        extract_rev "$commit" "$base" Cargo.toml vendor crates src || {
            echo "bench-check: could not extract $rev"
            return 1
        }
        touch "$base/.extracted"
    fi
    # Both sides run under the work tree's bench harness, as under its
    # `ci.sh`: one instrument measures both, and it reads the jobs' row
    # filters. Copied with its times kept, so an unchanged copy rebuilds
    # nothing.
    if ! diff -rq vendor/criterion "$base/vendor/criterion" > /dev/null 2>&1; then
        rm -rf "$base/vendor/criterion"
        cp -Rp vendor/criterion "$base/vendor/criterion"
    fi
    echo "== bench check (quick mode, $CHECK_PASSES alternating passes against $rev, ${commit:0:12}) =="
    local failed=() dir
    dir=$(mktemp -d)
    mkdir "$dir/static" "$dir/dynamic"
    against_base static 1.25 "$base" "$dir/static" "${STATIC_JOBS[@]}" || failed+=("static check")
    # The floor gates read the work tree's fresh static run, whether or not
    # it stayed within its allowance of the base; only without one are they
    # not evaluated.
    if [[ -s $dir/static/work.tsv ]]; then
        saturation_gate "$dir/static/work.tsv" || failed+=("saturation gate")
        lookup_table_gate "$dir/static/work.tsv" || failed+=("lookup-table gate")
    else
        failed+=("saturation gate (not evaluated)" "lookup-table gate (not evaluated)")
        echo "bench-check: saturation and lookup-table gates not evaluated (no fresh static run)"
    fi
    against_base dynamic 1.50 "$base" "$dir/dynamic" "${DYNAMIC_JOBS[@]}" || failed+=("dynamic check")
    echo "-- drift from the committed snapshots (a record; fails nothing) --"
    if [[ -s $dir/static/work.tsv ]]; then snapshot_drift BENCH_static.json 1.25 "$dir/static/work.tsv"; fi
    if [[ -s $dir/dynamic/work.tsv ]]; then snapshot_drift BENCH_dynamic.json 1.50 "$dir/dynamic/work.tsv"; fi
    rm -rf "$dir"
    if ((${#failed[@]} > 0)); then
        local list
        list=$(printf ', %s' "${failed[@]}")
        echo "bench-check: FAILED stages: ${list:2}"
        return 1
    fi
    echo "bench-check: every stage passed"
}

non_test_lines() {
    # Every line of the files $@ that no `#[cfg(test)]`-gated item holds,
    # as `FILE<TAB>LINE`. A gated item ends at its first `;` when no `{`
    # came before it (a `use`, a `mod x;`), or where its braces balance.
    # Braces inside string and char literals and after `//` are not counted.
    awk '
        function braces(s,   t) {
            t = s
            gsub(/"([^"\\]|\\.)*"/, "", t)
            gsub(/\047([^\047\\]|\\.)\047/, "", t)
            gsub(/\/\/.*$/, "", t)
            opens += gsub(/\{/, "{", t)
            closes += gsub(/\}/, "}", t)
            return index(t, ";") > 0
        }
        FNR == 1 { gated = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (!gated && line ~ /^#\[cfg\(test\)\]/) {
                gated = 1; opens = 0; closes = 0
                next
            }
            if (gated) {
                if (line ~ /^#\[/ || line ~ /^\/\// || line == "") next
                if (braces(line) && opens == 0) gated = 0
                else if (opens > 0 && opens == closes) gated = 0
                next
            }
            print FILENAME "\t" $0
        }' "$@"
}

rust_sources() {
    # Every `.rs` file under `src/` and `crates/*/src/`, `crates/bench`
    # left out, sorted.
    find src crates/*/src -name '*.rs' -not -path 'crates/bench/*' | LC_ALL=C sort
}

loc() {
    # One row per crate, then the production total and the reference total
    # (the crates in REFERENCE_CRATES; 0 in a tree without them).
    local files
    files=$(rust_sources)
    # shellcheck disable=SC2086
    non_test_lines $files | awk -F'\t' -v refs="${REFERENCE_CRATES[*]}" '
        BEGIN { split(refs, r, " "); for (i in r) ref[r[i]] = 1 }
        {
            split($1, part, "/")
            crate = part[1] == "crates" ? "crates/" part[2] : part[1]
            lines[crate]++
            if (crate in ref) reference++
            else production++
        }
        END {
            for (c in lines) printf "%-24s %7d\n", c, lines[c] | "LC_ALL=C sort"
            close("LC_ALL=C sort")
            printf "%-24s %7d\n", "production", production
            printf "%-24s %7d\n", "reference", reference
        }'
}

public_fns() {
    # Every non-test `pub fn` at module level and inherent `pub` method of
    # the `FILE<TAB>LINE` input (`non_test_lines`), as `FILE<TAB>PATH`, the
    # path a demangled symbol carries: the module path `$1` maps the file
    # to (a `FILE MODULE` line each), inline `mod`s, the impl's type, the
    # name (`wla_report::table::Table::row_owned`). Trait items and trait
    # impls are skipped, and so is anything inside a function body. Braces
    # inside string and char literals and after `//` are not counted.
    awk '
        NR == FNR { if (NF) module[$1] = $2; next }
        function path(   i, p) {
            p = module[file]
            for (i = 1; i <= depth; i++) if (kind[i] == "mod") p = p name[i] "::"
            if (depth > 0 && kind[depth] == "impl") p = p name[depth] "::"
            return p
        }
        {
            file = $1
            t = substr($0, length(file) + 2)
            if (file != last) { last = file; depth = 0; pending = "" }
            gsub(/"([^"\\]|\\.)*"/, "\"\"", t)
            gsub(/\047([^\047\\]|\\.)\047/, "\047\047", t)
            gsub(/\/\/.*$/, "", t)
            scope = depth > 0 ? kind[depth] : "mod"
            if (pending == "" && scope != "fn" && scope != "block") {
                if (match(t, /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                    pending = "mod"; pname = substr(t, RSTART, RLENGTH); sub(/.*mod[ \t]+/, "", pname)
                } else if (match(t, /^[ \t]*(unsafe[ \t]+)?impl([ \t<]|$)/)) {
                    # Drop the impl'"'"'s own generics, then tell a trait impl
                    # from an inherent one and keep the type'"'"'s last segment.
                    h = t; sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", h)
                    if (substr(h, 1, 1) == "<") {
                        open = 0
                        for (i = 1; i <= length(h); i++) {
                            c = substr(h, i, 1)
                            if (c == "<") open++
                            else if (c == ">" && --open == 0) break
                        }
                        h = substr(h, i + 1)
                    }
                    if (h ~ /[ \t]for[ \t]/) { pending = "trait"; pname = "" }
                    else {
                        sub(/^[ \t]+/, "", h); match(h, /^[A-Za-z0-9_:]+/)
                        n = split(substr(h, 1, RLENGTH), seg, "::")
                        pending = "impl"; pname = seg[n]
                    }
                } else if (t ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?(unsafe[ \t]+)?trait[ \t]/) {
                    pending = "trait"; pname = ""
                } else if (match(t, /^[ \t]*((pub(\([^)]*\))?|const|async|unsafe|extern( "[^"]*")?)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                    head = substr(t, RSTART, RLENGTH)
                    pname = head; sub(/.*fn[ \t]+/, "", pname)
                    if (scope != "trait" && head ~ /^[ \t]*pub[ \t]/) print file "\t" path() pname
                    pending = "fn"
                }
            }
            for (i = 1; i <= length(t); i++) {
                c = substr(t, i, 1)
                if (c == "{") {
                    depth++
                    kind[depth] = pending == "" ? "block" : pending; name[depth] = pname
                    pending = ""
                } else if (c == "}") {
                    if (depth > 0) depth--
                } else if (c == ";" && pending != "impl" && pending != "trait") {
                    pending = ""
                }
            }
        }' "$1" -
}

reach() {
    # Every production `.rs` file (`rust_sources` less REFERENCE_CRATES)
    # that defines a non-test `fn` must contribute a symbol to the debug
    # `wla`: some `nm -C` name must lie under its module path
    # (`wla_static::cache::` for crates/static-analysis/src/cache.rs,
    # `wla::` for src/main.rs). And every non-test `pub fn` and inherent
    # `pub` method of those files (`public_fns`) must put a symbol under
    # its full path (`wla_report::table::Table::row_owned`, a generic
    # type's method as `Type<T>::method`). A debug build emits every
    # function it calls, so a function with no symbol is one `wla` never
    # runs. Lists every file and function that puts none and is not in
    # REACH_ALLOWED, and every REACH_ALLOWED entry that allows nothing (it
    # now links, or names no production function or module); prints each
    # allowed entry with its reason. Returns 1 on a failure.
    local bin=target/debug/wla files file crate dir rel modules="" key kind item bad=0
    local -a unreached
    local -A allows=()
    cargo build -q --bin wla
    files=$(rust_sources | grep -v -E "^($(IFS='|'; echo "${REFERENCE_CRATES[*]}"))/")
    for file in $files; do
        case $file in
        src/main.rs) crate=wla rel=main ;;
        src/*) crate=whatcha_lookin_at rel=${file#src/} ;;
        *)
            dir=${file%%/src/*}
            crate=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
            rel=${file#"$dir"/src/}
            ;;
        esac
        rel=${rel%.rs}
        case $rel in
        lib | main) rel= ;;
        */mod) rel=${rel%/mod} ;;
        esac
        modules+="$file ${crate//-/_}${rel:+::${rel//\//::}}::"$'\n'
    done
    # Each `nm -C` name gives its path prefixes (`a::b::c`: `a::`, `a::b::`,
    # `a::b::c::`), read as written and with the generic arguments after a
    # name dropped (`Type<T>::method` reads `Type::method`). A file is
    # reached when its module path is a prefix, a function when its path is.
    # shellcheck disable=SC2086
    mapfile -t unreached < <(nm -C "$bin" | awk '
        FILENAME == ARGV[1] { if (NF) { module[$2] = $1; order[++files] = $2 }; next }
        FILENAME == ARGV[2] { fn[++fns] = $2; where[fns] = $1; next }
        {
            line = $0
            while (match(line, /[A-Za-z0-9_]<[^<>]*>/))
                line = substr(line, 1, RSTART) substr(line, RSTART + RLENGTH)
            for (pass = 1; pass <= 2; pass++) {
                s = pass == 1 ? $0 : line
                gsub(/[^A-Za-z0-9_:]+/, " ", s)
                k = split(s, tok, " ")
                for (i = 1; i <= k; i++) {
                    t = tok[i] "::"; p = ""
                    while ((j = index(t, "::")) > 0) {
                        p = p substr(t, 1, j + 1); t = substr(t, j + 2)
                        have[p] = 1
                    }
                }
            }
        }
        END {
            for (i = 1; i <= files; i++) if (!(order[i] in have)) print "file\t" order[i] "\t" module[order[i]]
            for (i = 1; i <= fns; i++) if (!((fn[i] "::") in have)) print "fn\t" fn[i] "\t" where[i]
        }' \
        <(printf '%s' "$modules" | awk 'NR == FNR { m[$1] = $2; next } ($1 in m) { print $1 " " m[$1] }' - \
            <(non_test_lines $files | awk -F'\t' '
                $2 ~ /^[ \t]*((pub(\([^)]*\))?|const|async|unsafe|extern( "[^"]*")?)[ \t]+)*fn[ \t]+[A-Za-z_]/ { print $1 }' | uniq)) \
        <(non_test_lines $files | public_fns <(printf '%s' "$modules")) -)
    for item in "${unreached[@]}"; do
        IFS=$'\t' read -r kind key file <<< "$item"
        if [[ -n ${REACH_ALLOWED[$key]:-} ]]; then
            allows[$key]=1
            continue
        fi
        if [[ $kind == fn ]]; then
            # A function under an allowed module.
            dir=$key
            while [[ $dir == *::*::* ]]; do
                dir=${dir%::*}
                if [[ -n ${REACH_ALLOWED[$dir::]:-} ]]; then
                    allows[$dir::]=1
                    continue 2
                fi
            done
            echo "  unreached  $key ($file)"
        else
            echo "  unreached  $file (no symbol under $key)"
        fi
        bad=$((bad + 1))
    done
    for key in $(printf '%s\n' "${!REACH_ALLOWED[@]}" | LC_ALL=C sort); do
        if [[ -n ${allows[$key]:-} ]]; then
            echo "  allowed    $key: ${REACH_ALLOWED[$key]}"
        else
            echo "  stale      $key: it links into $bin, or names no production function or module"
            bad=$((bad + 1))
        fi
    done
    if ((bad > 0)); then
        echo "reach: FAILED ($bad unreached or stale: move unreached code out of the production crates, make wla run it, or drop a stale REACH_ALLOWED entry)"
        return 1
    fi
    echo "reach: every production file with a fn and every public function puts a symbol into $bin, but the allowed ones"
}

rev_commit() {
    # The commit revision $1 names; exits 2 when it names none. Call it as
    # `commit=$(rev_commit REV) || exit 2`.
    git rev-parse --verify --quiet "$1^{commit}" || {
        echo "ci.sh: unknown revision \"$1\"" >&2
        exit 2
    }
}

extract_rev() {
    # $1 = a commit; $2 = a directory, emptied first; the rest are the
    # paths of the commit to extract there with `git archive`, so `.git`
    # and the work tree are never touched.
    local commit=$1 dir=$2
    shift 2
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$commit" "$@" | tar -x -C "$dir"
}

loc_against() {
    # $1 = a revision: its count, the work tree's and the delta, per crate
    # (a crate on one side only counts 0 on the other) and in total.
    local rev=$1 commit dir base work
    commit=$(rev_commit "$rev") || exit 2
    dir=target/loc-$commit
    extract_rev "$commit" "$dir" src crates
    base=$(cd "$dir" && loc)
    rm -rf "$dir"
    work=$(loc)
    awk -v rev="$rev" '
        NR == FNR { at[$1] = $2; seen[$1] = 1; next }
        { now[$1] = $2; seen[$1] = 1 }
        END {
            printf "%-24s %9s %9s %7s\n", "crate", rev, "work tree", "delta"
            for (c in seen) if (c != "production" && c != "reference")
                printf "%-24s %9d %9d %+7d\n", c, at[c], now[c], now[c] - at[c] | "LC_ALL=C sort"
            close("LC_ALL=C sort")
            split("production reference", totals, " ")
            for (i = 1; i <= 2; i++) {
                c = totals[i]
                printf "%-24s %9d %9d %+7d\n", c, at[c], now[c], now[c] - at[c]
            }
        }' <(echo "$base") <(echo "$work")
}

stale_dev_deps() {
    # Every `[dev-dependencies]` entry of the root package and of each
    # crate under crates/ must be named, as its Rust identifier, by a `.rs`
    # file under that package's src/, tests/, benches/ or examples/; an
    # entry nothing names only costs builds. A text search: it starts no
    # cargo. Returns 1, listing them, when any entry is stale.
    local manifest dir d dep stale=0
    local -a dirs
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        dirs=()
        for d in src tests benches examples; do
            if [[ -d $dir/$d ]]; then dirs+=("$dir/$d"); fi
        done
        for dep in $(awk '
            /^\[/ { dev = ($0 == "[dev-dependencies]"); next }
            dev && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$manifest"); do
            if ((${#dirs[@]} == 0)) || ! grep -rqw --include='*.rs' -e "${dep//-/_}" "${dirs[@]}"; then
                echo "  $manifest: $dep is named by no source, test, bench or example"
                stale=$((stale + 1))
            fi
        done
    done
    if ((stale > 0)); then
        echo "dev-dependencies: $stale stale entries; remove them"
        return 1
    fi
    echo "dev-dependencies: every entry is named"
}

usage() {
    echo "usage: ./ci.sh [bench-snapshot | bench-check [REV] | loc [REV] | reach]  (no argument: the full gate)" >&2
    exit 2
}

case "${1:-}" in
bench-snapshot)
    bench_snapshot
    exit 0
    ;;
bench-check)
    case $# in
    1) bench_check HEAD~1 || exit 1 ;;
    2) bench_check "$2" || exit 1 ;;
    *) usage ;;
    esac
    exit 0
    ;;
loc)
    case $# in
    1) loc ;;
    2) loc_against "$2" ;;
    *) usage ;;
    esac
    exit 0
    ;;
reach)
    (($# == 1)) || usage
    reach || exit 1
    exit 0
    ;;
"") ;;
*)
    usage
    ;;
esac

echo "== stale dev-dependencies =="
stale_dev_deps

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== unused crate dependencies =="
# Every `[dependencies]` entry of a workspace library must be named by
# that library: one named only by tests, examples or benches belongs in
# `[dev-dependencies]`. The vendored stand-ins are excluded as below; the
# check builds in its own target directory, since changing RUSTFLAGS
# would otherwise invalidate the main build.
RUSTFLAGS="-D unused-crate-dependencies" CARGO_TARGET_DIR=target/unused-deps \
    cargo check --workspace --lib -q \
    --exclude bytes --exclude criterion --exclude parking_lot --exclude proptest \
    --exclude rand

echo "== cargo doc -D warnings =="
# Workspace crates only: the excluded packages are the vendored stand-ins
# under vendor/. Keeps intra-doc links from dangling when an item they
# name is renamed or deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
    --exclude bytes --exclude criterion --exclude parking_lot --exclude proptest \
    --exclude rand

echo "== cargo test =="
cargo test --workspace -q

echo "== reach: every production file and public function links into wla =="
reach

echo "== streamed corpus example (1:2000, then 1:4000, one directory) =="
# Debug build, already compiled by `cargo test`: seconds.
shard_dir=$(mktemp -d)
trap 'rm -rf "$shard_dir"' EXIT
cargo run -q --example streamed_corpus -- "$shard_dir" 2000 > /dev/null
cargo run -q --example streamed_corpus -- "$shard_dir" 4000 > /dev/null

echo "== benchmark package tests =="
# The end-to-end benchmark is a package with its own `[workspace]`, so
# `cargo test --workspace` never compiles it; build and test it here so
# the crate APIs it calls cannot drift from under it. Release mode: its
# tests run every workload at toy size, full funnel included.
cargo test --release -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "== paper-scale streamed, in-memory and folded runs (73,400 apps, release) =="
cargo test --release -q -p wla-static --test stream_equivalence -- --ignored

echo "== heap bounds, 1:100 and scale-10 in one run per binary (release) =="
# `--include-ignored`: each heap test binary runs its debug-suite tests and
# its ignored scale-10 ones together, so a test that measures without the
# lock (`one_at_a_time`) counts another test's allocations and fails here.
cargo test --release -q --test output_footprint -- --include-ignored
cargo test --release -q --test run_peaks -- --include-ignored
cargo test --release -q --test crawl_footprint -- --include-ignored

echo "== full-universe funnel count (6,507,222 records at three seeds, release) =="
cargo test --release -q -p wla-corpus --lib -- --ignored

echo "== release-only pins: scale-10 stdout and EXPERIMENTS.md's tables =="
cargo test --release -q --test pins -- --ignored

echo "== cargo build --benches (smoke) =="
bench_start=$SECONDS
cargo build --benches --workspace -q
bench_secs=$((SECONDS - bench_start))

echo "== wla serve --smoke =="
cargo run -q --bin wla -- serve --smoke

echo "ci: all green (bench smoke build: ${bench_secs}s)"
