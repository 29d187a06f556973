//! Transitive `extends WebView` closure — the paper's "custom WebView
//! class implementations" (§3.1.2).
//!
//! [`webview_subclasses_dex_interned`] walks the dex class tables directly
//! (binary names, superclass links pooled across dexes): no source text is
//! materialized. The paper-faithful route — lift to Java, re-parse,
//! resolve superclasses through imports — lives in `wla-oracle`
//! (`wla_oracle::subclasses`), which pins this closure against it, as do
//! `tests/decode_equivalence.rs` over whole generated corpora.
//!
//! The two agree on every corpus the generator emits. They can diverge
//! only on adversarial inputs the lifter cannot round-trip faithfully:
//! binary names containing `$` (lifted to `.`), or simple-name import
//! collisions where the parser's first-match import resolution picks a
//! different class than the dex superclass link records.

use std::collections::{HashMap, HashSet};
use wla_apk::names::framework;
use wla_apk::Dex;
use wla_intern::{LocalInterner, Symbol};

/// The closure computed directly on the dex class tables: binary
/// names of classes whose superclass chain (pooled across every dex of a
/// multi-dex app, matching how lifted sources are pooled) reaches
/// `android/webkit/WebView`, interned into `lexicon`.
///
/// Skips the lift-to-Java + re-parse round trip entirely, which is what
/// made decompilation ~80% of per-app analysis time; the lifted route
/// stays available as the equivalence oracle (see module docs). Only the
/// returned subclasses are interned: the fixed point runs on names
/// borrowed from the dex type tables, so a worker lexicon that outlives
/// the app never holds the app's other class names.
pub fn webview_subclasses_dex_interned(
    dexes: &[Dex],
    lexicon: &mut LocalInterner,
) -> HashSet<Symbol> {
    dex_subclass_names(dexes)
        .into_iter()
        .map(|name| lexicon.intern(name))
        .collect()
}

/// The dex-direct closure itself, on names borrowed from `dexes`.
fn dex_subclass_names(dexes: &[Dex]) -> HashSet<&str> {
    // O(1) seed probe through each dex's type lookup table: a subclass
    // chain can only reach WebView if some dex *references* the WebView
    // type (superclass links are type-table entries), so an app with no
    // such reference — most of any corpus — skips the superclass-map
    // build and fixed point entirely.
    if !dexes
        .iter()
        .any(|d| d.type_by_name(framework::WEBVIEW).is_some())
    {
        return HashSet::new();
    }
    // binary name -> superclass binary name; last definition wins, as the
    // source-map insert does in the lifted route.
    let mut supers: HashMap<&str, Option<&str>> = HashMap::new();
    for dex in dexes {
        for c in dex.classes() {
            let sup = c.superclass.map(|s| dex.type_name(s));
            supers.insert(dex.type_name(c.ty), sup);
        }
    }

    // Fixed-point: a class is a WebView subclass if its superclass is
    // WebView or an already-known subclass.
    let mut subclasses: HashSet<&str> = HashSet::new();
    loop {
        let mut changed = false;
        for (&name, &sup) in &supers {
            if subclasses.contains(name) {
                continue;
            }
            if let Some(sup) = sup {
                if sup == framework::WEBVIEW || subclasses.contains(sup) {
                    subclasses.insert(name);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    subclasses
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::{ClassFlags, DexBuilder};

    /// A hierarchy exercising every closure case: a direct subclass, a
    /// transitive chain crossing packages, an unrelated class, and a
    /// lookalike `WebView` from a different package.
    fn hierarchy_dex() -> Dex {
        let mut b = DexBuilder::new();
        b.define_class(
            "com/a/Base",
            Some("android/webkit/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/b/Child",
            Some("com/a/Base"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/b/GrandChild",
            Some("com/b/Child"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/x/Other",
            Some("android/app/Activity"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/x/NotReally",
            Some("com/other/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn direct_and_transitive_subclasses_found() {
        let dex = hierarchy_dex();
        let subs = dex_subclass_names(std::slice::from_ref(&dex));
        assert_eq!(subs.len(), 3);
        assert!(subs.contains("com/a/Base"));
        assert!(subs.contains("com/b/Child"));
        assert!(subs.contains("com/b/GrandChild"));
        assert!(!subs.contains("com/x/Other"));
        assert!(!subs.contains("com/x/NotReally"));
    }

    #[test]
    fn chain_pooled_across_dexes() {
        // classes2.dex extends a base defined in classes.dex — the
        // closure must see both tables, like the pooled-sources route.
        let mut b1 = DexBuilder::new();
        b1.define_class(
            "com/a/Base",
            Some("android/webkit/WebView"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        let mut b2 = DexBuilder::new();
        b2.define_class(
            "com/b/Child",
            Some("com/a/Base"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        let dexes = [b1.build(), b2.build()];
        let subs = dex_subclass_names(&dexes);
        assert!(subs.contains("com/b/Child"));
        // And per-dex alone the child is invisible.
        assert!(!dex_subclass_names(&dexes[1..]).contains("com/b/Child"));
    }

    #[test]
    fn interns_only_the_subclasses_it_returns() {
        // A two-level chain split across a multi-dex app, beside
        // unrelated classes in both dexes.
        let mut b1 = DexBuilder::new();
        for (name, sup) in [
            ("com/a/Base", Some("android/webkit/WebView")),
            ("com/x/Other", Some("android/app/Activity")),
            ("com/x/Util", None),
        ] {
            b1.define_class(name, sup, ClassFlags::default(), vec![])
                .unwrap();
        }
        let mut b2 = DexBuilder::new();
        for (name, sup) in [
            ("com/b/Child", Some("com/a/Base")),
            ("com/y/Helper", Some("com/x/Util")),
        ] {
            b2.define_class(name, sup, ClassFlags::default(), vec![])
                .unwrap();
        }
        let dexes = [b1.build(), b2.build()];
        let mut lexicon = LocalInterner::new();
        let subs = webview_subclasses_dex_interned(&dexes, &mut lexicon);
        let names: HashSet<&str> = subs.iter().map(|&s| lexicon.resolve(s)).collect();
        assert_eq!(names, HashSet::from(["com/a/Base", "com/b/Child"]));
        // Neither the unrelated classes nor WebView itself reach the
        // lexicon: it holds the result and nothing else (every string it
        // holds was one inserting `intern` call).
        assert_eq!(lexicon.misses(), subs.len() as u64);
    }

    #[test]
    fn cycles_terminate() {
        let mut b = DexBuilder::new();
        b.define_class("com/x/A", Some("com/x/B"), ClassFlags::default(), vec![])
            .unwrap();
        b.define_class("com/x/B", Some("com/x/A"), ClassFlags::default(), vec![])
            .unwrap();
        assert!(dex_subclass_names(&[b.build()]).is_empty());
    }
}
