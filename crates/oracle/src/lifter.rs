//! The JADX analog: SDEX → Java-ish source.
//!
//! The emitted source is a faithful subset of Java — enough that a real
//! Java parser would accept it — and deliberately includes the cosmetic
//! artifacts decompilers produce (banner comments, `/* renamed from */`
//! markers, `@Override`), so the parser in this crate cannot cheat by
//! assuming sterile input.

use std::collections::{BTreeMap, BTreeSet};
use wla_apk::sdex::{ClassDef, Dex, Instruction, InvokeKind};

/// The simple (unqualified) name: `com/foo/Baz$Inner` → `Baz$Inner`.
pub fn simple_name(binary_name: &str) -> &str {
    match binary_name.rfind('/') {
        Some(idx) => &binary_name[idx + 1..],
        None => binary_name,
    }
}

/// Convert a binary name to a Java source name: `com/foo/Baz` → `com.foo.Baz`.
pub fn to_source_name(binary_name: &str) -> String {
    binary_name.replace(['/', '$'], ".")
}

/// One decompiled source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Binary name of the class this file defines (`com/x/Foo`).
    pub binary_name: String,
    /// Java-ish source text.
    pub source: String,
}

/// Lift every defined class of `dex` to source.
pub fn lift_dex(dex: &Dex) -> Vec<SourceFile> {
    dex.classes()
        .iter()
        .map(|c| SourceFile {
            binary_name: dex.type_name(c.ty).to_owned(),
            source: lift_class(dex, c),
        })
        .collect()
}

/// Lift a single class definition to source text.
pub fn lift_class(dex: &Dex, class: &ClassDef) -> String {
    let binary = dex.type_name(class.ty);
    let source_name = to_source_name(binary);
    let (package, simple) = match source_name.rfind('.') {
        Some(i) => (Some(&source_name[..i]), &source_name[i + 1..]),
        None => (None, source_name.as_str()),
    };

    // Imports: every external type referenced by method refs or extends,
    // as real decompilers emit them. BTreeSet for stable ordering.
    let mut imports: BTreeSet<String> = BTreeSet::new();
    if let Some(sup) = class.superclass {
        let sup_name = dex.type_name(sup);
        if sup_name != "java/lang/Object" {
            imports.insert(to_source_name(sup_name));
        }
    }
    for m in &class.methods {
        for ins in &m.code {
            if let Instruction::Invoke { method, .. } = ins {
                let ref_ = dex.method_ref(*method);
                let callee_class = dex.type_name(ref_.class);
                if callee_class != binary {
                    imports.insert(to_source_name(callee_class).replace('$', "."));
                }
            }
            if let Instruction::NewInstance { ty } = ins {
                imports.insert(to_source_name(dex.type_name(*ty)).replace('$', "."));
            }
        }
    }
    // Same-package and java.lang imports are not emitted (Java semantics).
    let imports: Vec<String> = imports
        .into_iter()
        .filter(|imp| {
            let pkg = imp.rfind('.').map(|i| &imp[..i]);
            pkg != package && pkg != Some("java.lang")
        })
        .collect();

    let mut out = String::with_capacity(512);
    out.push_str("/*\n * Decompiled with WLA-JADX v1.4.7\n */\n");
    if let Some(pkg) = package {
        out.push_str(&format!("package {pkg};\n\n"));
    }
    for imp in &imports {
        out.push_str(&format!("import {imp};\n"));
    }
    if !imports.is_empty() {
        out.push('\n');
    }

    let extends = class
        .superclass
        .map(|s| dex.type_name(s))
        .filter(|s| *s != "java/lang/Object");
    let kw = if class.flags.interface {
        "interface"
    } else {
        "class"
    };
    let vis = if class.flags.public { "public " } else { "" };
    let abst = if class.flags.abstract_ {
        "abstract "
    } else {
        ""
    };
    out.push_str("/* renamed from: ");
    out.push_str(binary);
    out.push_str(" */\n");
    match extends {
        Some(sup) => {
            // Use the simple name when the superclass was imported,
            // mirroring what decompilers print.
            let sup_src = to_source_name(sup);
            let simple_sup = sup_src.rsplit('.').next().unwrap_or(&sup_src).to_owned();
            out.push_str(&format!(
                "{vis}{abst}{kw} {simple} extends {simple_sup} {{\n"
            ));
        }
        None => out.push_str(&format!("{vis}{abst}{kw} {simple} {{\n")),
    }

    for m in &class.methods {
        let ref_ = dex.method_ref(m.method);
        let name = dex.string(ref_.name);
        if name == "<init>" {
            continue; // constructors are uninteresting to the study
        }
        let vis = if m.public { "public " } else { "private " };
        let stat = if m.static_ { "static " } else { "" };
        out.push_str("    @Override // lifecycle\n");
        out.push_str(&format!("    {vis}{stat}void {name}() {{\n"));
        // Literals tracked per register, the way decompilers inline
        // values: a const-string defines, a move copies, and an invoke
        // reads its first argument register.
        let mut reg_literals: BTreeMap<u16, String> = BTreeMap::new();
        for ins in &m.code {
            match ins {
                Instruction::ConstString { dst, string } => {
                    reg_literals.insert(dst.0, dex.string(*string).to_owned());
                }
                Instruction::Move { dst, src } => {
                    match reg_literals.get(&src.0).cloned() {
                        Some(v) => reg_literals.insert(dst.0, v),
                        None => reg_literals.remove(&dst.0),
                    };
                }
                Instruction::Invoke { kind, method, args } => {
                    let ref_ = dex.method_ref(*method);
                    let callee_class = dex.type_name(ref_.class);
                    let callee = dex.string(ref_.name);
                    let recv = simple_name(callee_class).replace('$', ".");
                    let arg = args
                        .first()
                        .and_then(|r| reg_literals.get(&r.0))
                        .map(|s| format!("\"{}\"", escape_java(s)))
                        .unwrap_or_default();
                    match kind {
                        InvokeKind::Static => {
                            out.push_str(&format!("        {recv}.{callee}({arg});\n"));
                        }
                        _ => {
                            out.push_str(&format!(
                                "        this.{}Instance.{callee}({arg});\n",
                                lower_first(&recv)
                            ));
                        }
                    }
                }
                Instruction::NewInstance { ty } => {
                    let t = simple_name(dex.type_name(*ty)).replace('$', ".");
                    out.push_str(&format!("        {t} obj = new {t}();\n"));
                }
                Instruction::IfTest { offset } => {
                    out.push_str(&format!("        if (cond) {{ /* +{offset} */ }}\n"));
                }
                Instruction::Goto { .. } => out.push_str("        // goto\n"),
                Instruction::ReturnVoid => out.push_str("        return;\n"),
                Instruction::Nop => out.push_str("        ; // nop\n"),
            }
        }
        out.push_str("    }\n\n");
    }
    out.push_str("}\n");
    out
}

fn escape_java(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

fn lower_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().chain(chars).collect(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::sdex::{ClassFlags, DexBuilder, Instruction, InvokeKind, MethodDef, Reg};

    #[test]
    fn simple_names() {
        assert_eq!(simple_name("com/foo/Baz$Inner"), "Baz$Inner");
        assert_eq!(simple_name("TopLevel"), "TopLevel");
    }

    #[test]
    fn source_names() {
        assert_eq!(to_source_name("com/foo/Baz$Inner"), "com.foo.Baz.Inner");
    }

    fn webview_app_dex() -> Dex {
        let mut b = DexBuilder::new();
        let load = b.intern_method("android/webkit/WebView", "loadUrl", "(Ljava/lang/String;)V");
        let url = b.intern_string("https://example.com/\"quoted\"");
        let on_create = b.intern_method("com/example/app/MainActivity", "onCreate", "()V");
        b.define_class(
            "com/example/app/MainActivity",
            Some("android/app/Activity"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![MethodDef::new(
                on_create,
                true,
                false,
                vec![
                    Instruction::ConstString {
                        dst: Reg(0),
                        string: url,
                    },
                    Instruction::Move {
                        dst: Reg(1),
                        src: Reg(0),
                    },
                    Instruction::Invoke {
                        kind: InvokeKind::Virtual,
                        method: load,
                        args: vec![Reg(1)],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        b.define_class(
            "com/example/app/CustomWebView",
            Some("android/webkit/WebView"),
            ClassFlags {
                public: true,
                ..Default::default()
            },
            vec![],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn lift_emits_package_and_extends() {
        let dex = webview_app_dex();
        let files = lift_dex(&dex);
        assert_eq!(files.len(), 2);
        let main = &files[0];
        assert!(main.source.contains("package com.example.app;"));
        assert!(main.source.contains("class MainActivity extends Activity"));
        assert!(main.source.contains("import android.app.Activity;"));
        let custom = &files[1];
        assert!(custom
            .source
            .contains("class CustomWebView extends WebView"));
        assert!(custom.source.contains("import android.webkit.WebView;"));
    }

    #[test]
    fn lift_emits_call_statements_with_escaped_strings() {
        let dex = webview_app_dex();
        let src = &lift_dex(&dex)[0].source;
        assert!(
            src.contains("loadUrl(\"https://example.com/\\\"quoted\\\"\")"),
            "{src}"
        );
    }

    #[test]
    fn same_package_types_not_imported() {
        let mut b = DexBuilder::new();
        let helper = b.intern_method("com/x/Helper", "go", "()V");
        let m = b.intern_method("com/x/Main", "run", "()V");
        b.define_class(
            "com/x/Helper",
            Some("java/lang/Object"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        b.define_class(
            "com/x/Main",
            Some("java/lang/Object"),
            ClassFlags::default(),
            vec![MethodDef::new(
                m,
                true,
                false,
                vec![
                    Instruction::Invoke {
                        kind: InvokeKind::Static,
                        method: helper,
                        args: vec![],
                    },
                    Instruction::ReturnVoid,
                ],
            )],
        )
        .unwrap();
        let dex = b.build();
        let src = lift_class(
            &dex,
            dex.class(dex.type_by_name("com/x/Main").unwrap()).unwrap(),
        );
        assert!(!src.contains("import com.x.Helper;"), "{src}");
        assert!(src.contains("Helper.go();"));
    }

    #[test]
    fn object_superclass_not_printed() {
        let mut b = DexBuilder::new();
        b.define_class(
            "com/x/A",
            Some("java/lang/Object"),
            ClassFlags::default(),
            vec![],
        )
        .unwrap();
        let dex = b.build();
        let src = lift_class(&dex, &dex.classes()[0]);
        assert!(!src.contains("extends"), "{src}");
    }
}
