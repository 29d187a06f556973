//! Single-APK walkthrough: every layer of the static pipeline on one
//! generated app — container decode, manifest, decompilation, source
//! parsing, call graph, entry points, traversal, and SDK labeling.
//!
//! ```sh
//! cargo run --release --example single_apk -- 7   # seed
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use whatcha_lookin_at::wla_apk::{Dex, Sapk, SectionTag};
use whatcha_lookin_at::wla_callgraph::{entry_points, CallGraph};
use whatcha_lookin_at::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use whatcha_lookin_at::wla_corpus::lowering::lower;
use whatcha_lookin_at::wla_corpus::playstore::{AppMeta, PlayCategory};
use whatcha_lookin_at::wla_intern::LocalInterner;
use whatcha_lookin_at::wla_manifest::wireformat;
use whatcha_lookin_at::wla_sdk_index::{LabelCache, LabelId, SdkIndex};
use wla_oracle::callgraph::{instruction_count, record_web_calls};
use wla_oracle::{lift_dex, webview_subclasses_interned};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);

    // 1. Sample one app from the calibrated ecosystem and lower it to bytes.
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let meta = AppMeta {
        package: "com.example.walkthrough".into(),
        on_play_store: true,
        downloads: 12_000_000,
        category: PlayCategory::Puzzle,
        last_update_day: 950,
    };
    let spec = eco.sample_app(&mut rng, meta);
    let bytes = lower(&spec, &catalog, &mut rng).encode();
    println!("container: {} bytes", bytes.len());

    // 2. Decode the container and its sections.
    let apk = Sapk::decode(&bytes).expect("valid container");
    let manifest = wireformat::decode(apk.manifest_bytes().unwrap()).unwrap();
    let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
    println!(
        "manifest: package {} with {} components ({} deep-link)",
        manifest.package,
        manifest.components.len(),
        manifest.deep_link_activities().len()
    );
    println!(
        "dex: {} classes, {} method refs, {} instructions",
        dex.classes().len(),
        dex.method_count(),
        instruction_count(&dex)
    );

    // 3. Decompile and parse for WebView subclasses (interned handles; the
    // lexicon resolves them back to text whenever we print).
    let sources = lift_dex(&dex);
    let mut lexicon = LocalInterner::new();
    let subclasses = webview_subclasses_interned(&sources, &mut lexicon);
    println!(
        "\ndecompiled {} source files; WebView subclasses:",
        sources.len()
    );
    for s in &subclasses {
        println!("  {}", lexicon.resolve(*s));
    }
    if let Some(first) = sources.first() {
        println!("\nfirst decompiled file ({}):", first.binary_name);
        for line in first.source.lines().take(14) {
            println!("  {line}");
        }
        println!("  …");
    }

    // 4. Call graph + entry-point traversal.
    let graph = CallGraph::build(&dex);
    let roots = entry_points(&graph, &manifest);
    println!(
        "\ncall graph: {} defined methods, {} internal edges, {} entry points",
        graph.node_count(),
        graph.edge_count(),
        roots.len()
    );

    // 5. Record and label the WebView/CT call sites. Labels are attached
    // at record time; symbols resolve to text only here, at the print.
    let mut labels = LabelCache::default();
    let record = record_web_calls(
        &graph,
        &roots,
        &subclasses,
        &catalog,
        &mut lexicon,
        &mut labels,
    );
    println!("\nWebView call sites:");
    for site in &record.webview {
        let label = match site.label {
            LabelId::Sdk(idx) => {
                let sdk = &catalog.sdks()[idx as usize];
                format!("SDK: {} [{}]", sdk.name, sdk.category.label())
            }
            LabelId::CoreAndroid => "core Android".to_owned(),
            LabelId::Obfuscated => "obfuscated package".to_owned(),
            LabelId::Unlabeled => "first-party / unlabeled".to_owned(),
        };
        let receiver = lexicon.resolve(site.receiver_class);
        println!(
            "  {}{} {}.{}  ←  {}",
            if site.reachable { "" } else { "[DEAD] " },
            label,
            receiver.rsplit('/').next().unwrap_or(""),
            lexicon.resolve(site.method),
            lexicon.resolve(site.caller_class),
        );
    }
    println!("\nCustom-Tabs call sites:");
    for site in &record.custom_tabs {
        println!(
            "  {} ← {}",
            lexicon.resolve(site.method),
            lexicon.resolve(site.caller_class)
        );
    }
}
