//! Intra-procedural constant propagation for URL provenance.
//!
//! The register-lowered SDEX body of a method is a tiny dataflow problem:
//! `const-string` defines a register, `move` copies one, and an invoke
//! reads its first argument register. This pass answers, per invoke, "is
//! that register provably a single string-pool constant on every path?"
//! — the question §3.1.4's URL-origin census needs answered at every
//! `loadUrl` / `launchUrl` site.
//!
//! The lattice is per-register with three levels:
//!
//! ```text
//!        ⊤  (Top: conflicting constants met at a join)
//!      / | \
//!  Const(0) Const(1) …   (a known string-pool index)
//!      \ | /
//!        ⊥  (Bottom: no definition seen)
//! ```
//!
//! Branch-free methods — the overwhelmingly common case in the corpus —
//! take a linear fast path: one forward sweep, no block construction.
//! Methods with `if-test`/`goto` get basic blocks and a worklist fixpoint;
//! the lattice has height 2 per register, so each block is visited a
//! bounded number of times. Malformed branch targets (possible only in
//! hand-built or corrupted bodies — the decoder does not range-check
//! offsets) simply contribute no edge: the pass never panics on decoded
//! input.
//!
//! The legacy single-pending-string heuristic survives as
//! `wla_oracle::provenance`; `tests/provenance_equivalence.rs` proves this
//! pass equal to it on adjacency-shaped code and strictly better on
//! register-shuffled code.

use wla_apk::sdex::{Instruction, MethodDef};
use wla_apk::Dex;
use wla_callgraph::{annotate_provenance, CallSite, Provenance};

/// Widest register file the fixpoint tracks. Decoded methods stay far
/// below this (the lowering allocates registers per call site); a
/// hand-built method wider than the cap still analyzes, but reads of
/// untracked registers conservatively yield [`Value::Top`].
const MAX_TRACKED_REGISTERS: usize = 4096;

/// One register's abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    /// No definition reaches here.
    Bottom,
    /// Exactly this string-pool index reaches here on every path.
    Const(u32),
    /// Distinct constants (or a constant and nothing) merge here.
    Top,
}

impl Value {
    fn join(self, other: Value) -> Value {
        match (self, other) {
            (Value::Bottom, v) | (v, Value::Bottom) => v,
            (Value::Const(a), Value::Const(b)) if a == b => self,
            _ => Value::Top,
        }
    }
}

/// Observability counters for the pass, folded into
/// [`PipelineStats`](crate::pipeline::PipelineStats) across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowCounters {
    /// Methods analyzed.
    pub methods: u64,
    /// Methods that took the branch-free linear fast path.
    pub linear_methods: u64,
    /// Basic blocks built for branchy methods.
    pub blocks: u64,
    /// Worklist block visits across all fixpoints (≥ `blocks`).
    pub iterations: u64,
    /// Invokes whose URL argument resolved to a single constant.
    pub resolved_sites: u64,
    /// Invokes with no resolvable argument (undefined register or no
    /// arguments at all).
    pub unknown_sites: u64,
    /// Invokes whose argument merges distinct constants.
    pub conflict_sites: u64,
}

impl DataflowCounters {
    /// Fold another worker's counters into this one.
    pub fn merge(&mut self, other: &DataflowCounters) {
        self.methods += other.methods;
        self.linear_methods += other.linear_methods;
        self.blocks += other.blocks;
        self.iterations += other.iterations;
        self.resolved_sites += other.resolved_sites;
        self.unknown_sites += other.unknown_sites;
        self.conflict_sites += other.conflict_sites;
    }

    /// Total invokes classified.
    pub fn sites(&self) -> u64 {
        self.resolved_sites + self.unknown_sites + self.conflict_sites
    }

    /// Fraction of invokes resolved to a constant.
    pub fn resolved_rate(&self) -> f64 {
        let total = self.sites();
        if total == 0 {
            return 0.0;
        }
        self.resolved_sites as f64 / total as f64
    }

    /// Fraction of analyzed methods that took the linear fast path.
    pub fn linear_rate(&self) -> f64 {
        if self.methods == 0 {
            return 0.0;
        }
        self.linear_methods as f64 / self.methods as f64
    }
}

/// Abstract register file with a clamped width; reads past the clamp are
/// conservatively [`Value::Top`], writes past it are dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State(Vec<Value>);

impl State {
    fn bottom(width: usize) -> State {
        State(vec![Value::Bottom; width])
    }

    fn get(&self, reg: u16) -> Value {
        self.0.get(reg as usize).copied().unwrap_or(Value::Top)
    }

    fn set(&mut self, reg: u16, v: Value) {
        if let Some(slot) = self.0.get_mut(reg as usize) {
            *slot = v;
        }
    }

    /// Join `other` into `self`; true iff anything changed.
    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let joined = a.join(b);
            if joined != *a {
                *a = joined;
                changed = true;
            }
        }
        changed
    }
}

/// Apply one instruction to the abstract state.
fn transfer(state: &mut State, ins: &Instruction) {
    match ins {
        Instruction::ConstString { dst, string } => state.set(dst.0, Value::Const(*string)),
        Instruction::Move { dst, src } => {
            let v = state.get(src.0);
            state.set(dst.0, v);
        }
        _ => {}
    }
}

/// Provenance of an invoke whose first argument register holds `v`.
fn provenance_of(v: Option<Value>, counters: &mut DataflowCounters) -> Provenance {
    match v {
        Some(Value::Const(s)) => {
            counters.resolved_sites += 1;
            Provenance::Const(s)
        }
        Some(Value::Top) => {
            counters.conflict_sites += 1;
            Provenance::Conflict
        }
        Some(Value::Bottom) | None => {
            counters.unknown_sites += 1;
            Provenance::Unknown
        }
    }
}

/// Resolve every invoke of `code` to a [`Provenance`], in code order.
///
/// `registers` is the method's declared register count; the state vector
/// is sized from it (clamped to `MAX_TRACKED_REGISTERS`, 4,096).
pub fn method_provenance(
    code: &[Instruction],
    registers: u32,
    counters: &mut DataflowCounters,
) -> Vec<Provenance> {
    counters.methods += 1;
    let width = (registers as usize).min(MAX_TRACKED_REGISTERS);
    let branchy = code
        .iter()
        .any(|i| matches!(i, Instruction::IfTest { .. } | Instruction::Goto { .. }));
    if !branchy {
        counters.linear_methods += 1;
        return linear_provenance(code, width, counters);
    }
    fixpoint_provenance(code, width, counters)
}

/// Branch-free fast path: one sweep, no blocks.
fn linear_provenance(
    code: &[Instruction],
    width: usize,
    counters: &mut DataflowCounters,
) -> Vec<Provenance> {
    let mut state = State::bottom(width);
    let mut out = Vec::new();
    for ins in code {
        if let Instruction::Invoke { args, .. } = ins {
            let v = args.first().map(|r| state.get(r.0));
            out.push(provenance_of(v, counters));
        }
        transfer(&mut state, ins);
    }
    out
}

/// Basic blocks + worklist fixpoint for branchy methods.
fn fixpoint_provenance(
    code: &[Instruction],
    width: usize,
    counters: &mut DataflowCounters,
) -> Vec<Provenance> {
    let n = code.len();
    // Leaders: instruction indices that start a block. Offsets are
    // relative instruction counts; targets outside `0..n` are treated as
    // absent edges, so they create no leader.
    let in_range = |t: i64| t >= 0 && t < n as i64;
    let mut leader = vec![false; n.max(1)];
    if n > 0 {
        leader[0] = true;
    }
    for (i, ins) in code.iter().enumerate() {
        let mark = |leader: &mut Vec<bool>, t: i64| {
            if in_range(t) {
                leader[t as usize] = true;
            }
        };
        match ins {
            Instruction::IfTest { offset } | Instruction::Goto { offset } => {
                mark(&mut leader, i as i64 + *offset as i64);
                mark(&mut leader, i as i64 + 1);
            }
            Instruction::ReturnVoid => mark(&mut leader, i as i64 + 1),
            _ => {}
        }
    }

    // Block table: `starts[b]..block_end(b)` spans block b's instructions.
    let starts: Vec<usize> = (0..n).filter(|&i| leader[i]).collect();
    let nblocks = starts.len();
    counters.blocks += nblocks as u64;
    let block_end = |b: usize| starts.get(b + 1).copied().unwrap_or(n);
    // Map instruction index → owning block for successor resolution.
    let mut block_of = vec![0usize; n];
    for (b, &s) in starts.iter().enumerate() {
        for slot in block_of.iter_mut().take(block_end(b)).skip(s) {
            *slot = b;
        }
    }
    let successors = |b: usize| -> Vec<usize> {
        let last = block_end(b) - 1;
        let mut succ = Vec::with_capacity(2);
        let mut push = |t: i64| {
            if in_range(t) {
                succ.push(block_of[t as usize]);
            }
        };
        match &code[last] {
            Instruction::IfTest { offset } => {
                push(last as i64 + 1);
                push(last as i64 + *offset as i64);
            }
            Instruction::Goto { offset } => push(last as i64 + *offset as i64),
            Instruction::ReturnVoid => {}
            _ => push(last as i64 + 1),
        }
        succ
    };

    // Worklist fixpoint over block entry states. Every block is seeded so
    // unreachable code still gets (all-⊥) provenance assignments.
    let mut in_states: Vec<State> = (0..nblocks).map(|_| State::bottom(width)).collect();
    let mut queued = vec![true; nblocks];
    let mut worklist: Vec<usize> = (0..nblocks).collect();
    while let Some(b) = worklist.pop() {
        queued[b] = false;
        counters.iterations += 1;
        let mut out = in_states[b].clone();
        for ins in &code[starts[b]..block_end(b)] {
            transfer(&mut out, ins);
        }
        for s in successors(b) {
            if in_states[s].join_from(&out) && !queued[s] {
                queued[s] = true;
                worklist.push(s);
            }
        }
    }

    // Final sweep in code order reading the converged entry states.
    let mut out = Vec::new();
    for (b, &start) in starts.iter().enumerate() {
        let mut state = in_states[b].clone();
        for ins in &code[start..block_end(b)] {
            if let Instruction::Invoke { args, .. } = ins {
                let v = args.first().map(|r| state.get(r.0));
                out.push(provenance_of(v, counters));
            }
            transfer(&mut state, ins);
        }
    }
    out
}

/// Annotate `sites` (in [`wla_callgraph::CallGraph::sites_mut`] order)
/// with dataflow-resolved provenance for every method of `dex`.
pub fn annotate(dex: &Dex, sites: &mut [CallSite], counters: &mut DataflowCounters) {
    annotate_provenance(dex, sites, |m: &MethodDef| {
        method_provenance(&m.code, m.registers, counters)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_apk::sdex::{InvokeKind, MethodId, Reg};

    fn cs(dst: u16, s: u32) -> Instruction {
        Instruction::ConstString {
            dst: Reg(dst),
            string: s,
        }
    }

    fn mv(dst: u16, src: u16) -> Instruction {
        Instruction::Move {
            dst: Reg(dst),
            src: Reg(src),
        }
    }

    fn call(arg: u16) -> Instruction {
        Instruction::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(0),
            args: vec![Reg(arg)],
        }
    }

    fn run(code: &[Instruction]) -> (Vec<Provenance>, DataflowCounters) {
        let registers = code
            .iter()
            .filter_map(Instruction::max_reg)
            .max()
            .map(|r| r as u32 + 1)
            .unwrap_or(0);
        let mut counters = DataflowCounters::default();
        let out = method_provenance(code, registers, &mut counters);
        (out, counters)
    }

    #[test]
    fn linear_const_through_moves_resolves() {
        let code = [
            cs(0, 7),
            mv(1, 0),
            mv(2, 1),
            call(2),
            Instruction::ReturnVoid,
        ];
        let (p, c) = run(&code);
        assert_eq!(p, vec![Provenance::Const(7)]);
        assert_eq!(c.linear_methods, 1);
        assert_eq!(c.blocks, 0);
        assert_eq!(c.resolved_sites, 1);
    }

    #[test]
    fn undefined_register_is_unknown() {
        let code = [cs(0, 7), call(3), Instruction::ReturnVoid];
        let (p, c) = run(&code);
        assert_eq!(p, vec![Provenance::Unknown]);
        assert_eq!(c.unknown_sites, 1);
    }

    #[test]
    fn no_arg_invoke_is_unknown() {
        let code = [
            cs(0, 7),
            Instruction::Invoke {
                kind: InvokeKind::Static,
                method: MethodId(0),
                args: vec![],
            },
            Instruction::ReturnVoid,
        ];
        let (p, _) = run(&code);
        assert_eq!(p, vec![Provenance::Unknown]);
    }

    #[test]
    fn iftest_and_goto_split_blocks() {
        // if → (fallthrough | skip) → join → call. The const is defined
        // before the branch, untouched on both paths: still Const.
        let code = [
            cs(0, 9),
            Instruction::IfTest { offset: 2 },
            Instruction::Nop,
            call(0),
            Instruction::ReturnVoid,
        ];
        let (p, c) = run(&code);
        assert_eq!(p, vec![Provenance::Const(9)]);
        assert_eq!(c.linear_methods, 0);
        // Blocks: [cs, if], [nop], [call, ret] — the if targets index 3,
        // which also starts a block after the nop's fallthrough.
        assert_eq!(c.blocks, 3);
        assert!(c.iterations >= c.blocks);
    }

    #[test]
    fn diamond_with_distinct_constants_conflicts() {
        // if: fallthrough writes Const(1), branch path writes Const(2);
        // both reach the call → Top → Conflict.
        let code = [
            Instruction::IfTest { offset: 3 },
            cs(0, 1),
            Instruction::Goto { offset: 2 },
            cs(0, 2),
            call(0),
            Instruction::ReturnVoid,
        ];
        let (p, c) = run(&code);
        assert_eq!(p, vec![Provenance::Conflict]);
        assert_eq!(c.conflict_sites, 1);
    }

    #[test]
    fn diamond_with_equal_constants_resolves() {
        let code = [
            Instruction::IfTest { offset: 3 },
            cs(0, 5),
            Instruction::Goto { offset: 2 },
            cs(0, 5),
            call(0),
            Instruction::ReturnVoid,
        ];
        let (p, _) = run(&code);
        assert_eq!(p, vec![Provenance::Const(5)]);
    }

    #[test]
    fn defined_on_one_path_only_still_resolves() {
        // ⊥ ⊔ Const = Const: a register defined on only one incoming path
        // keeps its constant (the other path never defines it).
        let code = [
            Instruction::IfTest { offset: 2 },
            cs(0, 4),
            call(0),
            Instruction::ReturnVoid,
        ];
        let (p, _) = run(&code);
        assert_eq!(p, vec![Provenance::Const(4)]);
    }

    #[test]
    fn out_of_range_branch_targets_do_not_panic() {
        // The if's target and the goto's target are both out of range:
        // neither contributes an edge, the fallthrough chain still
        // reaches the call, and nothing panics.
        let code = [
            Instruction::IfTest { offset: 100 },
            cs(0, 3),
            call(0),
            Instruction::Goto { offset: -50 },
            Instruction::ReturnVoid,
        ];
        let (p, _) = run(&code);
        assert_eq!(p, vec![Provenance::Const(3)]);
    }

    #[test]
    fn code_after_return_is_isolated() {
        // ReturnVoid ends its block with no successors; the call after it
        // sees the all-⊥ seed state, not the constant.
        let code = [cs(0, 8), Instruction::ReturnVoid, call(0)];
        let code_with_branch = [
            cs(0, 8),
            Instruction::Goto { offset: 1 },
            Instruction::ReturnVoid,
            call(0),
        ];
        // Branch-free bodies take the linear path (no reachability), so
        // use the branchy variant to exercise block isolation... the
        // linear one inlines straight through by design.
        let (p, _) = run(&code);
        assert_eq!(p, vec![Provenance::Const(8)]); // linear path: no CFG
        let (p, _) = run(&code_with_branch);
        assert_eq!(p, vec![Provenance::Unknown]); // CFG path: dead block
    }

    #[test]
    fn loop_reaches_fixpoint() {
        // Back edge re-joining the header with a different constant:
        // first iteration Const(1), loop body writes Const(2) → header
        // joins to Top → Conflict at the call.
        let code = [
            cs(0, 1),
            call(0), // header: sees Const(1) ⊔ Const(2) = Top
            cs(0, 2),
            Instruction::IfTest { offset: -2 },
            Instruction::ReturnVoid,
        ];
        let (p, c) = run(&code);
        assert_eq!(p, vec![Provenance::Conflict]);
        // The back edge forces at least one revisit.
        assert!(c.iterations > c.blocks);
    }

    #[test]
    fn counters_partition_sites() {
        let code = [
            cs(0, 1),
            call(0), // resolved
            call(7), // unknown (undefined)
            Instruction::IfTest { offset: 3 },
            cs(1, 2),
            Instruction::Goto { offset: 2 },
            cs(1, 3),
            call(1), // conflict
            Instruction::ReturnVoid,
        ];
        let (p, c) = run(&code);
        assert_eq!(p.len(), 3);
        assert_eq!(
            (c.resolved_sites, c.unknown_sites, c.conflict_sites),
            (1, 1, 1)
        );
        assert_eq!(c.sites(), 3);
        assert!((c.resolved_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DataflowCounters {
            methods: 1,
            linear_methods: 1,
            blocks: 2,
            iterations: 3,
            resolved_sites: 4,
            unknown_sites: 5,
            conflict_sites: 6,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.methods, 2);
        assert_eq!(a.iterations, 6);
        assert_eq!(a.sites(), 30);
    }

    #[test]
    fn linear_rate_is_zero_without_methods() {
        assert_eq!(DataflowCounters::default().linear_rate(), 0.0);
        let c = DataflowCounters {
            methods: 4,
            linear_methods: 3,
            ..DataflowCounters::default()
        };
        assert_eq!(c.linear_rate(), 0.75);
    }
}
