//! `wla` — command-line front end for the reproduction.
//!
//! ```text
//! wla static  [--scale N] [--seed N]   run the §3.1 static campaign
//! wla funnel  [--seed N]               run the Table 2 metadata funnel
//! wla dynamic                          run the §3.2 dynamic campaign
//! wla crawl   [APP ...]                run the 100-site crawl (default: LinkedIn Kik)
//! wla labels  [--scale N]              emit privacy nutrition labels
//! wla ablation [--scale N] [--seed N]  what the §3.1.3 filters remove
//! wla whatif  [--scale N] [--seed N]   shares after §5's CT migrations
//! wla all     [--scale N]              every paper artifact, with comparisons
//! wla serve   [--port N] [--smoke]     analysis-as-a-service HTTP server
//! ```
//!
//! Tables go to stdout; progress lines and run stats go to stderr.

#![forbid(unsafe_code)]

use std::num::NonZeroU32;
use std::str::FromStr;
use whatcha_lookin_at::wla_device::iab::all_profiles;
use whatcha_lookin_at::wla_report::thousands;
use whatcha_lookin_at::wla_static::{
    grade_distribution, privacy_label, run_pipeline, PipelineConfig,
};
use whatcha_lookin_at::{experiments, stats, Study};

struct Args {
    command: String,
    /// `Study::default_experiment()`, with `--scale` and `--seed` applied.
    study: Study,
    json: bool,
    port: u16,
    smoke: bool,
    rest: Vec<String>,
}

const USAGE: &str = "usage: wla <static|funnel|dynamic|crawl|labels|ablation|whatif|all|serve> \
                     [--scale N] [--seed N] [--json] [--port N] [--smoke] [args…]";

/// Parse `std::env::args`. A missing or unparsable flag value, an unknown
/// flag, and a positional argument after any command but `crawl` are
/// errors; `--help` prints the usage line to stdout and exits 0.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        study: Study::default_experiment(),
        json: false,
        port: 0,
        smoke: false,
        rest: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => args.study.scale = flag_value::<NonZeroU32>("--scale", argv.next())?.get(),
            "--seed" => args.study.seed = flag_value("--seed", argv.next())?,
            "--json" => args.json = true,
            "--port" => args.port = flag_value("--port", argv.next())?,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ if arg.starts_with('-') => return Err(format!("unknown argument {arg:?}")),
            _ if args.command.is_empty() => args.command = arg,
            _ if args.command == "crawl" => args.rest.push(arg),
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(args)
}

/// The value following `flag`. A missing or unparsable value is an error
/// naming the flag, never a silent default.
fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let text = value.ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("invalid value `{text}` for {flag}"))
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wla: {e}");
        usage()
    });
    let study = &args.study;
    let print_exp = |exp: &experiments::Experiment| {
        if args.json {
            println!(
                "{}",
                whatcha_lookin_at::wla_report::json::comparison_json(&exp.comparison)
            );
        } else {
            print_text(exp);
        }
    };

    match args.command.as_str() {
        "static" => {
            eprintln!("static campaign at scale 1:{} …", study.scale);
            let run = study.run_static();
            for exp in [
                experiments::table3(study, &run),
                experiments::table4(study, &run),
                experiments::table5(study, &run),
                experiments::table7(study, &run),
                experiments::fig3(study, &run),
                experiments::fig4(study, &run),
            ] {
                print_exp(&exp);
            }
            eprintln!("{}", stats::render_pipeline_stats(&run.stats));
        }
        "funnel" => {
            let run = study.run_static();
            let funnel = study.run_funnel(&run);
            print_exp(&experiments::table2(study, &funnel));
            eprintln!("{}", stats::render_pipeline_stats(&run.stats));
        }
        "dynamic" => {
            let run = study.run_dynamic();
            for exp in [
                experiments::table6(&run),
                experiments::table8(&run),
                experiments::table9(&run),
            ] {
                print_exp(&exp);
            }
        }
        "crawl" => {
            let apps: Vec<&str> = if args.rest.is_empty() {
                vec!["LinkedIn", "Kik"]
            } else {
                args.rest.iter().map(String::as_str).collect()
            };
            check_crawl_apps(&apps).unwrap_or_else(|e| {
                eprintln!("wla: {e}");
                usage()
            });
            eprintln!("crawling 100 sites through {apps:?} + baseline …");
            let run = study.run_crawl_parallel(
                Some(&apps),
                whatcha_lookin_at::wla_dynamic::CrawlConfig::default(),
            );
            print_exp(&experiments::fig6(&run));
            print_exp(&experiments::fig7());
            eprintln!("{}", stats::render_crawl_stats(&run.stats));
        }
        "labels" => {
            eprintln!("deriving privacy labels at scale 1:{} …", study.scale);
            let out = run_pipeline(&study.corpus(), &study.catalog, PipelineConfig::default());
            let analyses: Vec<_> = out
                .analyzed()
                .map(|a| privacy_label(a, &study.catalog))
                .collect();
            println!(
                "privacy-label grade distribution over {} apps:",
                analyses.len()
            );
            for (grade, n) in grade_distribution(&analyses) {
                println!(
                    "  {:45} {:>6} apps (×{} ≈ {})",
                    grade.label(),
                    n,
                    study.scale,
                    thousands(n as u64 * study.scale as u64)
                );
            }
            println!("\nexample labels:");
            for label in analyses.iter().take(3) {
                println!("{}", label.render());
            }
            eprintln!("{}", stats::render_pipeline_stats(&out.stats));
        }
        "ablation" => {
            eprintln!("running static pipeline at scale 1:{} …", study.scale);
            let run = study.run_static();
            print_exp(&experiments::ablation(study, &run));
        }
        "whatif" => {
            eprintln!("running four scenarios at scale 1:{} …", study.scale);
            print_exp(&experiments::whatif(study));
        }
        "all" => {
            let static_run = study.run_static();
            let funnel = study.run_funnel(&static_run);
            let dynamic_run = study.run_dynamic();
            let crawl_run = study
                .run_crawl_parallel(None, whatcha_lookin_at::wla_dynamic::CrawlConfig::default());
            let all = [
                experiments::table2(study, &funnel),
                experiments::table3(study, &static_run),
                experiments::table4(study, &static_run),
                experiments::table5(study, &static_run),
                experiments::table6(&dynamic_run),
                experiments::table7(study, &static_run),
                experiments::table8(&dynamic_run),
                experiments::table9(&dynamic_run),
                experiments::fig3(study, &static_run),
                experiments::fig4(study, &static_run),
                experiments::fig6(&crawl_run),
                experiments::fig7(),
            ];
            for exp in &all {
                print_exp(exp);
            }
            eprintln!("{}", stats::render_pipeline_stats(&static_run.stats));
            eprintln!("{}", stats::render_crawl_stats(&crawl_run.stats));
            eprintln!("=== Summary ===");
            for exp in &all {
                eprintln!(
                    "{:8} {:>4.0}% of {:2} metrics within tolerance",
                    exp.id,
                    exp.comparison.match_fraction() * 100.0,
                    exp.comparison.rows.len()
                );
            }
        }
        "serve" => serve(&args),
        _ => usage(),
    }
}

/// Every crawl app must be one of Table 8's ten IABs: an unknown name
/// would crawl only the baseline row and print an empty figure.
fn check_crawl_apps(apps: &[&str]) -> Result<(), String> {
    let known: Vec<&'static str> = all_profiles().iter().map(|p| p.app_name).collect();
    match apps.iter().find(|app| !known.contains(app)) {
        Some(app) => Err(format!("unknown app {app:?} (known: {})", known.join(", "))),
        None => Ok(()),
    }
}

/// `wla serve`: front both pipelines over one nonblocking HTTP server.
///
/// `--port 0` (the default) binds an ephemeral port and prints it.
/// `--smoke` self-checks `GET /healthz` over loopback, prints the server
/// stats table, and exits — the CI smoke path.
fn serve(args: &Args) {
    use std::sync::Arc;
    use whatcha_lookin_at::wla_net::{
        fetch, BeaconStore, NetLog, Request, Server, ServerConfig, Status,
    };

    let catalog = Arc::new(whatcha_lookin_at::wla_sdk_index::SdkIndex::paper());
    let page_html = Arc::new(whatcha_lookin_at::wla_web::testpage::test_page_html());
    let store = BeaconStore::default();
    let log = NetLog::new();
    let router = whatcha_lookin_at::service_router(catalog, page_html, store, log).into_handler();
    let mut server = Server::bind(("127.0.0.1", args.port), router, ServerConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        });
    println!("serving on http://{}", server.addr());
    eprintln!("routes: GET /healthz, POST /analyze, GET /page, POST /beacon, POST /netlog, GET /netlog/hosts");

    if args.smoke {
        let resp = fetch(server.addr(), Request::get("/healthz")).unwrap_or_else(|e| {
            eprintln!("smoke healthz failed: {e}");
            std::process::exit(1);
        });
        if resp.status != Status::Ok || &resp.body[..] != b"ok" {
            eprintln!("smoke healthz returned {:?}", resp.status);
            std::process::exit(1);
        }
        println!("{}", stats::render_server_stats(&server.stats().snapshot()));
        server.shutdown();
        println!("smoke ok");
        return;
    }

    // Foreground service: report stats once a minute until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!("{}", stats::render_server_stats(&server.stats().snapshot()));
    }
}

fn print_text(exp: &experiments::Experiment) {
    println!("=== {} ===\n", exp.id);
    if !exp.table.headers.is_empty() || !exp.table.rows.is_empty() {
        println!("{}", exp.table.render());
    }
    for fig in &exp.figures {
        println!("{fig}");
    }
    println!("{}", exp.comparison.to_table().render());
}
