//! Lowering an [`AppSpec`] to a SAPK container with real SDEX bytecode.
//!
//! The generated bytecode is *structurally honest*: every behaviour the
//! ground truth claims is reachable through a genuine call chain from a
//! manifest-declared component's lifecycle method, and every behaviour it
//! claims excluded (deep-link first-party rendering, dead code) is present
//! in the bytes but either attributed to a deep-link activity or
//! unreachable. The analysis pipeline has to do real work to tell these
//! apart.
//!
//! Per app the class layout is:
//!
//! ```text
//! <pkg>/MainActivity                  — launcher; onCreate fans out to SDKs
//! <pkg>/web/WebActivity               — direct WebView usage (if any)
//! <pkg>/web/AppWebView                — first-party `extends WebView` (opt)
//! <pkg>/web/TabLauncher               — direct CT usage (if any)
//! <pkg>/LinkActivity                  — BROWSABLE deep link (if any)
//! <pkg>/legacy/OldBrowser             — dead code calling loadUrl (opt)
//! <pkg>/util/Util<N>                  — behaviour-free noise classes
//! <sdk-prefix>/SdkEntry               — SDK façade invoked from onCreate
//! <sdk-prefix>/internal/Chain<K>      — internal call chain (depth 1–3)
//! <sdk-prefix>/view/SdkWebView        — SDK's WebView subclass (if any)
//! ```

use crate::ecosystem::{sdk_uses_subclass, AppSpec, MethodSet, METHODS};
use rand::Rng;
use wla_apk::names::framework;
use wla_apk::sdex::{ClassFlags, DexBuilder, Instruction, InvokeKind, MethodDef, MethodId, Reg};
use wla_apk::{Sapk, SectionTag};
use wla_manifest::{
    wireformat, Component, ComponentKind, IntentFilter, Manifest, ACTION_VIEW, CATEGORY_BROWSABLE,
    CATEGORY_DEFAULT, CATEGORY_LAUNCHER,
};
use wla_sdk_index::SdkIndex;

/// Descriptor for each WebView content method, index-aligned with
/// [`METHODS`].
pub const METHOD_DESCRIPTORS: [&str; 7] = [
    "(Ljava/lang/String;)V",
    "(Ljava/lang/Object;Ljava/lang/String;)V",
    "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
    "(Ljava/lang/String;Landroid/webkit/ValueCallback;)V",
    "(Ljava/lang/String;)V",
    "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;)V",
    "(Ljava/lang/String;[B)V",
];

fn slash(pkg: &str) -> String {
    pkg.replace('.', "/")
}

/// First register not yet used by `code`.
fn next_free_reg(code: &[Instruction]) -> u16 {
    code.iter()
        .filter_map(Instruction::max_reg)
        .map(|r| r + 1)
        .max()
        .unwrap_or(0)
}

/// Emit one register-shuffled string-argument call.
///
/// Real Android bytecode almost never has the `const-string` textually
/// adjacent to the invoke consuming it: the compiler interleaves other
/// definitions and shuffles values through registers. This models that:
/// the argument lands in a fresh register, a decoy constant (re-using a
/// string the pool already holds) is defined on top, and the value
/// travels through a move chain — optionally past padding and a branch
/// diamond that only perturbs the decoy — before the invoke consumes the
/// final register. The last instruction before the invoke is always a
/// `move`, so linear adjacency never resolves these sites; only a
/// dataflow view of the registers recovers the argument.
fn emit_shuffled_call<R: Rng + ?Sized>(
    code: &mut Vec<Instruction>,
    rng: &mut R,
    arg: u32,
    decoy: u32,
    kind: InvokeKind,
    method: MethodId,
) {
    let base = next_free_reg(code);
    let (r_arg, r_decoy, r_final) = (Reg(base), Reg(base + 1), Reg(base + 2));
    code.push(Instruction::ConstString {
        dst: r_arg,
        string: arg,
    });
    code.push(Instruction::ConstString {
        dst: r_decoy,
        string: decoy,
    });
    if rng.gen_bool(0.5) {
        code.push(Instruction::Nop);
    }
    if rng.gen_bool(0.4) {
        // Diamond: the if-test skips the decoy move, so two paths join
        // right before the move chain with the argument register holding
        // the same constant on both.
        code.push(Instruction::IfTest { offset: 2 });
        code.push(Instruction::Move {
            dst: Reg(base + 3),
            src: r_decoy,
        });
    }
    if rng.gen_bool(0.5) {
        let mid = Reg(base + 4);
        code.push(Instruction::Move {
            dst: mid,
            src: r_arg,
        });
        code.push(Instruction::Move {
            dst: r_final,
            src: mid,
        });
    } else {
        code.push(Instruction::Move {
            dst: r_final,
            src: r_arg,
        });
    }
    code.push(Instruction::Invoke {
        kind,
        method,
        args: vec![r_final],
    });
}

/// Emit register-shuffled `const-string … invoke-virtual receiver.<method>`
/// sequences for every method in `set`, targeting `receiver_class` (the
/// framework WebView or a subclass).
fn emit_webview_calls<R: Rng + ?Sized>(
    b: &mut DexBuilder,
    code: &mut Vec<Instruction>,
    rng: &mut R,
    receiver_class: &str,
    set: MethodSet,
    arg_hint: &str,
) {
    // The receiver's binary name is already in the pool via the type
    // table, so the decoy adds no new strings to the dex.
    let decoy = b.intern_string(receiver_class);
    for (i, name) in METHODS.iter().enumerate() {
        if !set.contains(i) {
            continue;
        }
        let arg = match *name {
            "loadUrl" => format!("https://{arg_hint}/landing"),
            "evaluateJavascript" => "(function(){return document.title})()".to_owned(),
            "addJavascriptInterface" | "removeJavascriptInterface" => "NativeBridge".to_owned(),
            "loadData" | "loadDataWithBaseURL" => "<html><body>inline</body></html>".to_owned(),
            "postUrl" => format!("https://{arg_hint}/submit"),
            _ => arg_hint.to_owned(),
        };
        let s = b.intern_string(&arg);
        let m = b.intern_method(receiver_class, name, METHOD_DESCRIPTORS[i]);
        emit_shuffled_call(code, rng, s, decoy, InvokeKind::Virtual, m);
    }
}

/// Emit the Custom-Tabs launch sequence:
/// `new CustomTabsIntent.Builder() … build() … launchUrl(ctx, uri)`.
fn emit_ct_launch<R: Rng + ?Sized>(
    b: &mut DexBuilder,
    code: &mut Vec<Instruction>,
    rng: &mut R,
    url_hint: &str,
) {
    let builder_ty = b.intern_type(framework::CUSTOM_TABS_BUILDER);
    let ctor = b.intern_method(framework::CUSTOM_TABS_BUILDER, "<init>", "()V");
    let build = b.intern_method(
        framework::CUSTOM_TABS_BUILDER,
        "build",
        "()Landroidx/browser/customtabs/CustomTabsIntent;",
    );
    let launch = b.intern_method(
        framework::CUSTOM_TABS_INTENT,
        "launchUrl",
        "(Landroid/content/Context;Landroid/net/Uri;)V",
    );
    let decoy = b.intern_string(framework::CUSTOM_TABS_INTENT);
    let url = b.intern_string(&format!("https://{url_hint}/tab"));
    code.push(Instruction::NewInstance { ty: builder_ty });
    code.push(Instruction::Invoke {
        kind: InvokeKind::Direct,
        method: ctor,
        args: vec![],
    });
    code.push(Instruction::Invoke {
        kind: InvokeKind::Virtual,
        method: build,
        args: vec![],
    });
    emit_shuffled_call(code, rng, url, decoy, InvokeKind::Virtual, launch);
}

fn public_method(b: &mut DexBuilder, class: &str, name: &str, code: Vec<Instruction>) -> MethodDef {
    let mut full = code;
    full.push(Instruction::ReturnVoid);
    MethodDef::new(b.intern_method(class, name, "()V"), true, false, full)
}

/// A public static method whose body is `code` then `return-void`.
fn static_method(method: MethodId, mut code: Vec<Instruction>) -> MethodDef {
    code.push(Instruction::ReturnVoid);
    MethodDef::new(method, true, true, code)
}

/// `invoke-static method()`.
fn invoke_static(method: MethodId) -> Instruction {
    Instruction::Invoke {
        kind: InvokeKind::Static,
        method,
        args: vec![],
    }
}

/// Define the public class `name`. Every lowered class is named
/// `{app package}/…` or `{SDK primary prefix}/…`, an app lowers each SDK
/// once, and no two catalog SDKs share a primary prefix, so a name that
/// is already defined is a generator bug.
fn define(b: &mut DexBuilder, name: &str, superclass: &str, methods: Vec<MethodDef>) {
    let flags = ClassFlags {
        public: true,
        ..Default::default()
    };
    b.define_class(name, Some(superclass), flags, methods)
        .expect("every lowered class name is defined once");
}

/// Lower one app to a SAPK container.
///
/// `rng` controls only inessential variety (SDK call-chain depth, noise
/// class contents); every ground-truth behaviour in `spec` is lowered
/// deterministically.
pub fn lower<R: Rng + ?Sized>(spec: &AppSpec, catalog: &SdkIndex, rng: &mut R) -> Sapk {
    let app_pkg = slash(&spec.meta.package);
    let mut b = DexBuilder::new();
    let mut manifest = Manifest::new(spec.meta.package.clone());
    manifest.version_code = spec.meta.last_update_day;

    let main_activity = format!("{app_pkg}/MainActivity");
    let mut main_on_create: Vec<Instruction> = Vec::new();

    // ---- SDK classes -----------------------------------------------------
    for use_ in &spec.sdks {
        let sdk = &catalog.sdks()[use_.sdk_idx];
        let prefix = slash(sdk.primary_prefix());
        let entry_class = format!("{prefix}/SdkEntry");
        let entry_name = if use_.webview { "init" } else { "initTabs" };

        // MainActivity.onCreate → SdkEntry.init (static façade call).
        let entry = b.intern_method(&entry_class, entry_name, "()V");
        main_on_create.push(invoke_static(entry));

        // The façade, then an internal chain of 1–3 hops inside the SDK
        // package: each class calls the next one's static method.
        let depth = rng.gen_range(1..=3u32);
        let mut hops = vec![(entry_class, entry)];
        for k in 0..depth {
            let cls = format!("{prefix}/internal/Chain{k}");
            let step = b.intern_method(&cls, "step", "()V");
            hops.push((cls, step));
        }

        // The last chain class performs the actual web-content calls.
        let mut terminal_code: Vec<Instruction> = Vec::new();
        if use_.webview {
            // The methods *this app's* build of the SDK calls (modular
            // inclusion — see `AppSpec::sdk_category_methods`).
            let methods = spec.methods_for(sdk.category);
            let receiver = if sdk_uses_subclass(sdk) {
                let sub = format!("{prefix}/view/SdkWebView");
                define(&mut b, &sub, framework::WEBVIEW, vec![]);
                sub
            } else {
                framework::WEBVIEW.to_owned()
            };
            emit_webview_calls(
                &mut b,
                &mut terminal_code,
                rng,
                &receiver,
                methods,
                &format!("cdn.{}.net", sdk.primary_prefix()),
            );
        }
        if use_.custom_tabs {
            emit_ct_launch(
                &mut b,
                &mut terminal_code,
                rng,
                &format!("auth.{}.net", sdk.primary_prefix()),
            );
        }

        // The chain is defined only now, after its terminal code, so the
        // dex's class and type tables keep their order (an `SdkWebView`
        // precedes the chain). Each hop calls the next; the last one runs
        // the terminal code.
        for pair in hops.windows(2) {
            let (cls, method) = &pair[0];
            let call = vec![invoke_static(pair[1].1)];
            define(
                &mut b,
                cls,
                framework::OBJECT,
                vec![static_method(*method, call)],
            );
        }
        let (cls, step) = hops.last().expect("hops start with the façade");
        define(
            &mut b,
            cls,
            framework::OBJECT,
            vec![static_method(*step, terminal_code)],
        );
    }

    // ---- Direct WebView usage -------------------------------------------
    if !spec.direct_wv_methods.is_empty() {
        let web_activity = format!("{app_pkg}/web/WebActivity");
        let receiver = if spec.direct_wv_subclass {
            let sub = format!("{app_pkg}/web/AppWebView");
            define(&mut b, &sub, framework::WEBVIEW, vec![]);
            sub
        } else {
            framework::WEBVIEW.to_owned()
        };
        let mut code = Vec::new();
        emit_webview_calls(
            &mut b,
            &mut code,
            rng,
            &receiver,
            spec.direct_wv_methods,
            "content.example.org",
        );
        let def = public_method(&mut b, &web_activity, "onCreate", code);
        define(&mut b, &web_activity, framework::ACTIVITY, vec![def]);
        manifest
            .components
            .push(Component::simple(ComponentKind::Activity, web_activity));
    }

    // ---- Direct Custom Tabs ----------------------------------------------
    if spec.direct_ct {
        let launcher = format!("{app_pkg}/web/TabLauncher");
        let mut code = Vec::new();
        emit_ct_launch(&mut b, &mut code, rng, "link.example.org");
        let open = b.intern_method(&launcher, "open", "()V");
        define(
            &mut b,
            &launcher,
            framework::OBJECT,
            vec![static_method(open, code)],
        );
        main_on_create.push(invoke_static(open));
    }

    // ---- Deep-link activity (first-party; excluded by the pipeline) ------
    if let Some(dl) = &spec.deep_link {
        let link_activity = format!("{app_pkg}/LinkActivity");
        let mut code = Vec::new();
        if dl.uses_webview {
            emit_webview_calls(
                &mut b,
                &mut code,
                rng,
                framework::WEBVIEW,
                MethodSet::load_url_only(),
                &dl.host,
            );
        }
        let def = public_method(&mut b, &link_activity, "onCreate", code);
        define(&mut b, &link_activity, framework::ACTIVITY, vec![def]);
        manifest.components.push(Component {
            kind: ComponentKind::Activity,
            class_name: link_activity,
            exported: true,
            intent_filters: vec![IntentFilter {
                actions: vec![ACTION_VIEW.to_owned()],
                categories: vec![CATEGORY_BROWSABLE.to_owned(), CATEGORY_DEFAULT.to_owned()],
                data_schemes: vec!["https".to_owned(), "http".to_owned()],
                data_hosts: vec![dl.host.clone()],
            }],
        });
    }

    // ---- Dead code and noise classes ---------------------------------------
    // Large apps are multi-dex (real APKs routinely carry classes2.dex);
    // their cold classes — dead code and utilities — land in a secondary
    // dex the analyzer must also decode and traverse.
    let multidex = spec.noise_classes >= 6;
    let mut b2 = DexBuilder::new();
    {
        let cold: &mut DexBuilder = if multidex { &mut b2 } else { &mut b };
        if spec.dead_code_webview {
            let dead = format!("{app_pkg}/legacy/OldBrowser");
            let mut code = Vec::new();
            emit_webview_calls(
                cold,
                &mut code,
                rng,
                framework::WEBVIEW,
                MethodSet::load_url_only(),
                "legacy.example.org",
            );
            let def = public_method(cold, &dead, "show", code);
            define(cold, &dead, framework::OBJECT, vec![def]);
            // Deliberately never invoked from any entry point.
        }

        for i in 0..spec.noise_classes {
            let cls = format!("{app_pkg}/util/Util{i}");
            let mut code = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                code.push(Instruction::Nop);
            }
            if rng.gen_bool(0.3) {
                code.push(Instruction::IfTest { offset: 1 });
                code.push(Instruction::Goto { offset: -1 });
            }
            let def = public_method(cold, &cls, "doWork", code);
            define(cold, &cls, framework::OBJECT, vec![def]);
        }
    }

    // ---- MainActivity -----------------------------------------------------
    let main_def = public_method(&mut b, &main_activity, "onCreate", main_on_create);
    define(&mut b, &main_activity, framework::ACTIVITY, vec![main_def]);
    manifest.components.insert(
        0,
        Component {
            kind: ComponentKind::Activity,
            class_name: main_activity,
            exported: true,
            intent_filters: vec![IntentFilter {
                actions: vec!["android.intent.action.MAIN".to_owned()],
                categories: vec![CATEGORY_LAUNCHER.to_owned()],
                data_schemes: vec![],
                data_hosts: vec![],
            }],
        },
    );

    // ---- Assemble the container -------------------------------------------
    let dex = b.build();
    let mut apk = Sapk::new();
    apk.push(SectionTag::Manifest, wireformat::encode(&manifest));
    apk.push(SectionTag::Dex, dex.encode());
    if multidex {
        apk.push(SectionTag::Dex, b2.build().encode());
    }
    // Opaque resource blob sized by app complexity.
    let res_len = 64 + spec.noise_classes as usize * 32;
    apk.push(SectionTag::Resources, vec![0xAB; res_len]);
    apk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::{Ecosystem, EcosystemParams};
    use crate::playstore::{AppMeta, PlayCategory};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_apk::Dex;

    fn spec_with(seed: u64) -> (SdkIndex, AppSpec) {
        let cat = SdkIndex::paper();
        let eco = Ecosystem::new(&cat, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let meta = AppMeta {
            package: "com.testvendor.app".into(),
            on_play_store: true,
            downloads: 5_000_000,
            category: PlayCategory::Tools,
            last_update_day: 900,
        };
        let spec = eco.sample_app(&mut rng, meta);
        (cat, spec)
    }

    #[test]
    fn lowered_container_decodes() {
        for seed in 0..20 {
            let (cat, spec) = spec_with(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let apk = lower(&spec, &cat, &mut rng);
            let bytes = apk.encode();
            let back = Sapk::decode(&bytes).expect("container decodes");
            let manifest = wireformat::decode(back.manifest_bytes().unwrap()).unwrap();
            assert_eq!(manifest.package, "com.testvendor.app");
            let dex = Dex::decode(back.section(SectionTag::Dex).unwrap()).expect("dex decodes");
            assert!(!dex.classes().is_empty());
        }
    }

    #[test]
    fn webview_strings_present_iff_used() {
        let (cat, mut spec) = spec_with(3);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::load_url_only();
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(3);
        let apk = lower(&spec, &cat, &mut rng);
        let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
        assert!(dex.type_by_name(framework::WEBVIEW).is_some());
        assert!(dex.type_by_name(framework::CUSTOM_TABS_INTENT).is_none());
    }

    #[test]
    fn ct_only_app_references_custom_tabs() {
        let (cat, mut spec) = spec_with(4);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = true;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(4);
        let apk = lower(&spec, &cat, &mut rng);
        let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
        assert!(dex.type_by_name(framework::CUSTOM_TABS_BUILDER).is_some());
        assert!(dex.type_by_name(framework::WEBVIEW).is_none());
    }

    #[test]
    fn subclass_defined_when_spec_says_so() {
        let (cat, mut spec) = spec_with(5);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::load_url_only();
        spec.direct_wv_subclass = true;
        let mut rng = StdRng::seed_from_u64(5);
        let apk = lower(&spec, &cat, &mut rng);
        let dex = Dex::decode(apk.section(SectionTag::Dex).unwrap()).unwrap();
        let sub = dex
            .type_by_name("com/testvendor/app/web/AppWebView")
            .and_then(|t| dex.class(t))
            .expect("subclass defined");
        assert_eq!(dex.type_name(sub.superclass.unwrap()), framework::WEBVIEW);
    }

    #[test]
    fn deep_link_manifest_entry_matches_spec() {
        let (cat, mut spec) = spec_with(6);
        spec.deep_link = Some(crate::ecosystem::DeepLinkSpec {
            host: "deep.example.com".into(),
            uses_webview: true,
        });
        let mut rng = StdRng::seed_from_u64(6);
        let apk = lower(&spec, &cat, &mut rng);
        let manifest = wireformat::decode(apk.manifest_bytes().unwrap()).unwrap();
        let dl = manifest.deep_link_activities();
        assert_eq!(dl.len(), 1);
        assert!(manifest.handles_web_host("deep.example.com"));
    }

    #[test]
    fn lowering_is_deterministic() {
        let (cat, spec) = spec_with(8);
        let a = lower(&spec, &cat, &mut StdRng::seed_from_u64(1)).encode();
        let b = lower(&spec, &cat, &mut StdRng::seed_from_u64(1)).encode();
        assert_eq!(a, b);
    }
}
