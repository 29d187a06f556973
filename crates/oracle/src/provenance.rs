//! Linear pending-string provenance oracle.
//!
//! This is the paper's original adjacency heuristic, extracted from the
//! call-graph builders into a standalone resolver: a `const-string`
//! "arms" a pending URL, the next invoke consumes it, and anything that
//! could disturb the value in between disarms it. It is deliberately
//! register-blind — it models the *textual* adjacency real decompiler
//! output exhibits, not the dataflow — which makes it the baseline the
//! constant-propagation pass must dominate.
//!
//! One deliberate refinement over the historical in-builder loop: `nop`
//! is transparent. The corpus generator pads method bodies with `Nop`
//! noise, and a padding instruction carries no semantics, so it must not
//! clear the pending string. (The old behaviour treated *every*
//! non-invoke instruction as clobbering, which silently dropped
//! provenance on padded methods; see the regression test below.)

use wla_apk::sdex::{Dex, Instruction};
use wla_callgraph::{annotate_provenance, CallSite, Provenance};

/// Resolve the provenance of each invoke in `code`, in program order.
///
/// Returns one [`Provenance`] per `Instruction::Invoke`, using the
/// linear pending-string heuristic: the most recent `const-string` wins
/// if only `Nop`s separate it from the invoke; an invoke consumes the
/// pending string; `move`, `new-instance`, and branches clear it.
pub fn pending_strings(code: &[Instruction]) -> Vec<Provenance> {
    let mut out = Vec::new();
    let mut pending: Option<u32> = None;
    for ins in code {
        match ins {
            Instruction::ConstString { string, .. } => pending = Some(*string),
            Instruction::Invoke { .. } => {
                out.push(match pending.take() {
                    Some(s) => Provenance::Const(s),
                    None => Provenance::Unknown,
                });
            }
            // Padding carries no semantics: the pending string survives.
            Instruction::Nop => {}
            // Anything else may disturb the value between the constant
            // and the call — the heuristic gives up.
            _ => pending = None,
        }
    }
    out
}

/// Annotate every call site of a graph built over `dex` with the
/// pending-string heuristic's verdict.
pub fn annotate(dex: &Dex, sites: &mut [CallSite]) {
    annotate_provenance(dex, sites, |m| pending_strings(&m.code));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_apk::names::WEBVIEW_LOAD_METHOD_MASK;
    use wla_apk::sdex::{ClassFlags, DexBuilder, InvokeKind, MethodDef, MethodId, Reg};
    use wla_apk::{Sapk, SectionTag};
    use wla_callgraph::{entry_points, record_web_calls_with, CallGraph, UrlOrigin};
    use wla_corpus::ecosystem::Ecosystem;
    use wla_corpus::lowering::lower;
    use wla_corpus::playstore::{AppMeta, PlayCategory};
    use wla_corpus::EcosystemParams;
    use wla_decompile::webview_subclasses_dex_interned;
    use wla_manifest::wireformat;
    use wla_sdk_index::SdkIndex;
    use wla_static::AnalysisCtx;

    fn def(b: &mut DexBuilder, class: &str, name: &str, code: Vec<Instruction>) -> MethodDef {
        MethodDef::new(b.intern_method(class, name, "()V"), true, false, code)
    }

    fn meta() -> AppMeta {
        AppMeta {
            package: "com.testapp.example".into(),
            on_play_store: true,
            downloads: 1_000_000,
            category: PlayCategory::Tools,
            last_update_day: 800,
        }
    }

    fn sample_spec(seed: u64) -> (SdkIndex, wla_corpus::AppSpec) {
        let catalog = SdkIndex::paper();
        let eco = Ecosystem::new(&catalog, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = eco.sample_app(&mut rng, meta());
        (catalog, spec)
    }

    fn call(method: u32) -> Instruction {
        Instruction::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(method),
            args: vec![Reg(0)],
        }
    }

    fn const_str(s: u32) -> Instruction {
        Instruction::ConstString {
            dst: Reg(0),
            string: s,
        }
    }

    #[test]
    fn adjacent_const_resolves() {
        let got = pending_strings(&[const_str(7), call(0), Instruction::ReturnVoid]);
        assert_eq!(got, vec![Provenance::Const(7)]);
    }

    #[test]
    fn nop_padding_is_transparent() {
        // Regression: generator Nop padding between the const-string and
        // the invoke used to clear the pending string, so padded methods
        // lost provenance the un-padded ones kept.
        let got = pending_strings(&[
            const_str(3),
            Instruction::Nop,
            Instruction::Nop,
            call(0),
            Instruction::ReturnVoid,
        ]);
        assert_eq!(got, vec![Provenance::Const(3)]);
    }

    #[test]
    fn invoke_consumes_the_pending_string() {
        let got = pending_strings(&[const_str(1), call(0), call(1)]);
        assert_eq!(got, vec![Provenance::Const(1), Provenance::Unknown]);
    }

    #[test]
    fn later_const_shadows_earlier() {
        let got = pending_strings(&[const_str(1), const_str(2), call(0)]);
        assert_eq!(got, vec![Provenance::Const(2)]);
    }

    #[test]
    fn moves_branches_and_allocations_clear_pending() {
        for clobber in [
            Instruction::Move {
                dst: Reg(1),
                src: Reg(0),
            },
            Instruction::NewInstance {
                ty: wla_apk::sdex::TypeId(0),
            },
            Instruction::IfTest { offset: 1 },
            Instruction::Goto { offset: 1 },
        ] {
            let got = pending_strings(&[const_str(5), clobber.clone(), call(0)]);
            assert_eq!(got, vec![Provenance::Unknown], "clobber = {clobber:?}");
        }
    }

    #[test]
    fn no_const_means_unknown() {
        let got = pending_strings(&[Instruction::Nop, call(0)]);
        assert_eq!(got, vec![Provenance::Unknown]);
    }

    #[test]
    fn pending_string_does_not_leak_across_calls() {
        let mut b = DexBuilder::new();
        let f = b.intern_method("com/x/Ext", "f", "()V");
        let gm = b.intern_method("com/x/Ext", "g", "()V");
        let s = b.intern_string("only-for-f");
        let caller = def(
            &mut b,
            "com/x/Main",
            "go",
            vec![
                Instruction::ConstString {
                    dst: Reg(0),
                    string: s,
                },
                Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: f,
                    args: vec![Reg(0)],
                },
                Instruction::Invoke {
                    kind: InvokeKind::Static,
                    method: gm,
                    args: vec![Reg(0)],
                },
                Instruction::ReturnVoid,
            ],
        );
        b.define_class("com/x/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();
        let dex = b.build();
        let mut g = CallGraph::build(&dex);
        annotate(&dex, g.sites_mut());
        assert_eq!(g.sites().len(), 2);
        assert_eq!(g.sites()[0].provenance, Provenance::Const(s));
        assert_eq!(g.sites()[1].provenance, Provenance::Unknown);
    }

    #[test]
    fn intervening_instructions_clear_the_pending_string() {
        // const-string, <something>, invoke — the heuristic must give up
        // when the intervening instruction could disturb the value, but
        // see through semantic no-ops. One invoke per intervening kind,
        // plus a control site with the const-string directly adjacent.
        let mut b = DexBuilder::new();
        let ty = b.intern_type("com/x/Obj");
        let f = b.intern_method("com/x/Ext", "f", "()V");
        let s = b.intern_string("stale-by-the-time-f-runs");
        let clobbers = [
            Instruction::NewInstance { ty },
            Instruction::Goto { offset: 1 },
            Instruction::IfTest { offset: 1 },
            Instruction::Move {
                dst: Reg(1),
                src: Reg(0),
            },
        ];
        let n_clobbers = clobbers.len();
        let mut code = Vec::new();
        for ins in clobbers {
            code.push(Instruction::ConstString {
                dst: Reg(0),
                string: s,
            });
            code.push(ins);
            code.push(Instruction::Invoke {
                kind: InvokeKind::Static,
                method: f,
                args: vec![Reg(0)],
            });
        }
        // Nop padding is transparent: the string still attaches.
        code.push(Instruction::ConstString {
            dst: Reg(0),
            string: s,
        });
        code.push(Instruction::Nop);
        code.push(Instruction::Invoke {
            kind: InvokeKind::Static,
            method: f,
            args: vec![Reg(0)],
        });
        code.push(Instruction::ReturnVoid);
        let caller = def(&mut b, "com/x/Main", "go", code);
        b.define_class("com/x/Main", None, ClassFlags::default(), vec![caller])
            .unwrap();
        let dex = b.build();
        let mut g = CallGraph::build(&dex);
        annotate(&dex, g.sites_mut());
        assert_eq!(g.sites().len(), n_clobbers + 1);
        for (i, site) in g.sites().iter().take(n_clobbers).enumerate() {
            assert_eq!(
                site.provenance,
                Provenance::Unknown,
                "site {i}: intervening instruction must clear the string"
            );
        }
        assert_eq!(
            g.sites()[n_clobbers].provenance,
            Provenance::Const(s),
            "nop-separated const-string must still attach"
        );
    }

    #[test]
    fn ablated_pending_string_oracle_resolves_nothing_shuffled() {
        // The legacy single-pending-string heuristic, annotating the same
        // graphs the pass does: the register shuffle defeats every site,
        // since the move chain between the const-string and the invoke
        // always clears the pending string.
        let mut sites_seen = 0usize;
        for seed in 0..20 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = Bytes::from(lower(&spec, &catalog, &mut rng).encode());
            let mut ctx = AnalysisCtx::new(&catalog);
            let apk = Sapk::decode_bytes(bytes).unwrap();
            let manifest = wireformat::decode(apk.manifest_bytes().unwrap()).unwrap();
            let dexes: Vec<Dex> = apk
                .sections()
                .iter()
                .filter(|s| s.tag == SectionTag::Dex)
                .map(|s| Dex::decode_bytes(s.data.clone()).unwrap())
                .collect();
            let subclasses = webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon);
            for dex in &dexes {
                let mut graph = CallGraph::build(dex);
                annotate(dex, graph.sites_mut());
                let roots = entry_points(&graph, &manifest);
                let record = record_web_calls_with(
                    &graph,
                    &roots,
                    &subclasses,
                    &catalog,
                    &mut ctx.lexicon,
                    &mut ctx.labels,
                    &mut ctx.reach,
                );
                let load = |s: &&wla_callgraph::WebViewSite| {
                    s.reachable && WEBVIEW_LOAD_METHOD_MASK & (1 << s.method_idx) != 0
                };
                for s in record.webview.iter().filter(load) {
                    assert_eq!(s.origin, UrlOrigin::Unknown, "seed {seed}");
                    assert!(s.argument.is_none());
                    sites_seen += 1;
                }
            }
        }
        assert!(sites_seen > 0);
    }
}
