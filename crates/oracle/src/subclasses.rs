//! The paper-faithful `extends WebView` closure over lifted, re-parsed
//! source, which `wla_decompile`'s dex-direct closure is pinned against
//! (see its module docs for where the two can diverge).

use crate::lifter::SourceFile;
use crate::parser::{parse_source, ParsedClass};
use std::collections::{HashMap, HashSet};
use wla_apk::Dex;
use wla_decompile::webview_subclasses_dex_interned;
use wla_intern::{LocalInterner, Symbol};

/// `wla_decompile`'s dex-direct closure over `dexes`, as owned binary
/// names: the form the equivalence tests compare with
/// [`webview_subclasses`].
pub fn webview_subclasses_dex(dexes: &[Dex]) -> HashSet<String> {
    let mut lexicon = LocalInterner::new();
    let subclasses = webview_subclasses_dex_interned(dexes, &mut lexicon);
    subclasses
        .into_iter()
        .map(|s| lexicon.resolve(s).to_owned())
        .collect()
}

/// Qualified source name of the WebView class.
pub const WEBVIEW_SOURCE_NAME: &str = "android.webkit.WebView";

/// Parse every source file and return the binary names of classes that
/// extend `android.webkit.WebView` directly or transitively, interned into
/// `lexicon`. Files that fail to parse are skipped, as the paper's tooling
/// skips decompilation failures.
///
/// The fixed point runs entirely on symbols: qualified names, superclass
/// names, and the returned binary names are interned once up front, so the
/// iteration hashes `u32`s instead of strings.
pub fn webview_subclasses_interned(
    files: &[SourceFile],
    lexicon: &mut LocalInterner,
) -> HashSet<Symbol> {
    let webview = lexicon.intern(WEBVIEW_SOURCE_NAME);
    // interned qualified source name -> (interned binary name, superclass).
    let mut classes: HashMap<Symbol, (Symbol, Option<Symbol>)> = HashMap::new();
    for f in files {
        let parsed: ParsedClass = match parse_source(&f.source) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let sup = parsed.resolved_superclass().map(|s| lexicon.intern(&s));
        classes.insert(
            lexicon.intern(&parsed.qualified_name()),
            (lexicon.intern(&f.binary_name), sup),
        );
    }

    // Fixed-point: a class is a WebView subclass if its superclass is
    // WebView or an already-known subclass.
    let mut subclass_qualified: HashSet<Symbol> = HashSet::new();
    loop {
        let mut changed = false;
        for (qname, (_, sup)) in &classes {
            if subclass_qualified.contains(qname) {
                continue;
            }
            if let Some(sup) = sup {
                if *sup == webview || subclass_qualified.contains(sup) {
                    subclass_qualified.insert(*qname);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    classes
        .into_iter()
        .filter(|(q, _)| subclass_qualified.contains(q))
        .map(|(_, (binary, _))| binary)
        .collect()
}

/// String-typed convenience wrapper over [`webview_subclasses_interned`]
/// for callers outside the interned pipeline (tests, one-off tooling).
pub fn webview_subclasses(files: &[SourceFile]) -> HashSet<String> {
    let mut lexicon = LocalInterner::new();
    webview_subclasses_interned(files, &mut lexicon)
        .into_iter()
        .map(|s| lexicon.resolve(s).to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(binary: &str, source: &str) -> SourceFile {
        SourceFile {
            binary_name: binary.to_owned(),
            source: source.to_owned(),
        }
    }

    #[test]
    fn direct_subclass_found() {
        let files = vec![file(
            "com/x/Custom",
            "package com.x; import android.webkit.WebView; public class Custom extends WebView {}",
        )];
        let subs = webview_subclasses(&files);
        assert!(subs.contains("com/x/Custom"));
    }

    #[test]
    fn transitive_subclass_found() {
        let files = vec![
            file(
                "com/x/A",
                "package com.x; import android.webkit.WebView; class A extends WebView {}",
            ),
            file("com/x/B", "package com.x; class B extends A {}"),
            file("com/x/C", "package com.x; class C extends B {}"),
            file("com/x/Other", "package com.x; class Other {}"),
        ];
        let subs = webview_subclasses(&files);
        assert_eq!(subs.len(), 3);
        assert!(subs.contains("com/x/C"));
        assert!(!subs.contains("com/x/Other"));
    }

    #[test]
    fn cross_package_via_import() {
        let files = vec![
            file(
                "com/a/Base",
                "package com.a; import android.webkit.WebView; public class Base extends WebView {}",
            ),
            file(
                "com/b/Child",
                "package com.b; import com.a.Base; public class Child extends Base {}",
            ),
        ];
        let subs = webview_subclasses(&files);
        assert!(subs.contains("com/b/Child"));
    }

    #[test]
    fn lookalike_names_not_confused() {
        // A class extending an unrelated `WebView` from a different package
        // must not be flagged.
        let files = vec![file(
            "com/x/NotReally",
            "package com.x; import com.other.WebView; class NotReally extends WebView {}",
        )];
        assert!(webview_subclasses(&files).is_empty());
    }

    #[test]
    fn unparseable_files_skipped() {
        let files = vec![
            file("bad/File", "%%% not java %%%"),
            file(
                "com/x/Ok",
                "package com.x; import android.webkit.WebView; class Ok extends WebView {}",
            ),
        ];
        let subs = webview_subclasses(&files);
        assert_eq!(subs.len(), 1);
    }

    #[test]
    fn superclass_cycles_terminate() {
        let files = vec![
            file("com/x/A", "package com.x; class A extends B {}"),
            file("com/x/B", "package com.x; class B extends A {}"),
        ];
        assert!(webview_subclasses(&files).is_empty());
    }

    mod dex_direct {
        use super::super::*;
        use crate::lifter::lift_dex;
        use wla_apk::{ClassFlags, Dex, DexBuilder};

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
        fn matches_lift_parse_oracle_on_hierarchy() {
            let dex = hierarchy_dex();
            let oracle = webview_subclasses(&lift_dex(&dex));
            let direct = webview_subclasses_dex(std::slice::from_ref(&dex));
            assert_eq!(direct, oracle);
        }
    }
}
