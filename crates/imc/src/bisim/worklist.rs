//! Dirty-block worklist signature refinement.
//!
//! Runs the *same* synchronous refinement rounds as [`super::reference`],
//! but skips all provably redundant work:
//!
//! * **Stable block ids.** Splitting a block keeps the old id for the
//!   subgroup containing the block's first member (in state order) and
//!   hands fresh ids to the rest. Renaming block ids consistently cannot
//!   change signature *equality*, so the per-round equivalence relations
//!   are exactly those of the reference refiner, which renumbers from
//!   scratch each round.
//! * **Dirty tracking.** A state's signature value can only change between
//!   rounds if the block id of one of its *dependency states* changed. The
//!   dependency set `D(s)` is partition-independent (τ-closures and
//!   transition targets), so a reverse-dependency CSR is built once; after
//!   each round, only the states hit by an actual block change are
//!   re-signed, and only blocks containing such a state are re-grouped. A
//!   block whose members are all clean kept equal signatures, so it cannot
//!   split — skipping it is lossless, not an approximation.
//! * **Flat interned signatures.** Signatures live in reusable
//!   `Vec<(u32, u32)>` / `Vec<Vec<(u32, u64)>>` scratch buffers (sorted and
//!   deduplicated, which is exactly the `BTreeSet` equality the reference
//!   uses), hashed with FNV-1a into an interner; states then carry a single
//!   `u32` signature id and grouping is integer equality.
//! * **Stamped visited buffers.** τ- and inert closures reuse a stamped
//!   `VisitBuf` instead of `Vec::contains` linear scans.
//!
//! The converged partition is canonicalized by first-occurrence state
//! order, which is precisely the numbering the reference's final
//! no-change round produces — hence bitwise-identical output.

use std::collections::HashMap;

use unicon_lts::ActionId;
use unicon_numeric::approx::quantize;
use unicon_numeric::fnv::{self, fnv_word, BuildFnv};
use unicon_numeric::NeumaierSum;

use super::Partition;
use crate::model::{Imc, View};

/// Which bisimulation relation the signatures encode.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Mode {
    Branching,
    Weak,
    Strong,
}

/// A reusable visited set with O(1) reset: membership is "stamp matches
/// the current round", so clearing is a single counter bump.
struct VisitBuf {
    stamp: Vec<u32>,
    cur: u32,
}

impl VisitBuf {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            cur: 0,
        }
    }

    fn begin(&mut self) {
        self.cur += 1;
        if self.cur == u32::MAX {
            self.stamp.fill(0);
            self.cur = 1;
        }
    }

    /// Marks `x`; returns `true` when it was not yet marked this round.
    fn insert(&mut self, x: u32) -> bool {
        let slot = &mut self.stamp[x as usize];
        if *slot == self.cur {
            false
        } else {
            *slot = self.cur;
            true
        }
    }
}

/// Compressed row storage for per-state u32 lists.
struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    fn row(&self, s: u32) -> &[u32] {
        &self.dat[self.off[s as usize] as usize..self.off[s as usize + 1] as usize]
    }
}

/// τ*-closure of every state (reflexive, all τ transitions), as a CSR.
fn tau_closures(m: &Imc, visit: &mut VisitBuf) -> Csr {
    let n = m.num_states();
    let mut off = Vec::with_capacity(n + 1);
    off.push(0u32);
    let mut dat: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    for s in 0..n as u32 {
        visit.begin();
        visit.insert(s);
        dat.push(s);
        stack.push(s);
        while let Some(x) = stack.pop() {
            for t in m.interactive_from(x) {
                if t.action.is_tau() && visit.insert(t.target) {
                    dat.push(t.target);
                    stack.push(t.target);
                }
            }
        }
        off.push(dat.len() as u32);
    }
    Csr { off, dat }
}

/// Reverse-dependency CSR: `rdep.row(x)` lists every state `s` whose
/// signature reads `block[x]`. Partition-independent by construction (the
/// forward sets are conservative supersets of what any round's signature
/// actually touches).
fn reverse_deps(m: &Imc, mode: Mode, closure: Option<&Csr>, visit: &mut VisitBuf) -> Csr {
    let n = m.num_states();
    let mut fwd_off = Vec::with_capacity(n + 1);
    fwd_off.push(0u32);
    let mut fwd: Vec<u32> = Vec::new();
    let push = |fwd: &mut Vec<u32>, visit: &mut VisitBuf, x: u32| {
        if visit.insert(x) {
            fwd.push(x);
        }
    };
    for s in 0..n as u32 {
        visit.begin();
        match mode {
            Mode::Strong => {
                push(&mut fwd, visit, s);
                for t in m.interactive_from(s) {
                    push(&mut fwd, visit, t.target);
                }
                for t in m.markov_from(s) {
                    push(&mut fwd, visit, t.target);
                }
            }
            Mode::Branching => {
                // Inert closures are subsets of the τ-closure, whatever the
                // partition: cover every member and all its targets.
                for &x in closure.expect("branching needs closures").row(s) {
                    push(&mut fwd, visit, x);
                    for t in m.interactive_from(x) {
                        push(&mut fwd, visit, t.target);
                    }
                    for t in m.markov_from(x) {
                        push(&mut fwd, visit, t.target);
                    }
                }
            }
            Mode::Weak => {
                let cl = closure.expect("weak needs closures");
                for &x in cl.row(s) {
                    push(&mut fwd, visit, x);
                    for t in m.interactive_from(x) {
                        if t.action.is_tau() {
                            continue; // τ targets are already in cl(s)
                        }
                        for &y in cl.row(t.target) {
                            push(&mut fwd, visit, y);
                        }
                    }
                    for t in m.markov_from(x) {
                        push(&mut fwd, visit, t.target);
                    }
                }
            }
        }
        fwd_off.push(fwd.len() as u32);
    }
    // Invert: count in-degrees, prefix-sum, scatter.
    let mut off = vec![0u32; n + 1];
    for &x in &fwd {
        off[x as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut cursor = off.clone();
    let mut dat = vec![0u32; fwd.len()];
    for s in 0..n {
        for &x in &fwd[fwd_off[s] as usize..fwd_off[s + 1] as usize] {
            dat[cursor[x as usize] as usize] = s as u32;
            cursor[x as usize] += 1;
        }
    }
    Csr { off, dat }
}

/// A flat signature: sorted/deduplicated moves and stable rate profiles —
/// the `Vec` mirror of the reference's `(BTreeSet, BTreeSet)` pair.
#[derive(Clone, Default, PartialEq, Eq)]
struct SigData {
    moves: Vec<(u32, u32)>,
    profiles: Vec<Vec<(u32, u64)>>,
}

impl SigData {
    fn clear(&mut self) {
        self.moves.clear();
        self.profiles.clear();
    }

    fn normalize(&mut self) {
        self.moves.sort_unstable();
        self.moves.dedup();
        self.profiles.sort_unstable();
        self.profiles.dedup();
    }
}

fn fnv_sig(sig: &SigData) -> u64 {
    let mut h = fnv::OFFSET_BASIS;
    h = fnv_word(h, sig.moves.len() as u64);
    for &(a, b) in &sig.moves {
        h = fnv_word(h, (u64::from(a) << 32) | u64::from(b));
    }
    h = fnv_word(h, sig.profiles.len() as u64);
    for p in &sig.profiles {
        h = fnv_word(h, p.len() as u64);
        for &(b, q) in p {
            h = fnv_word(h, u64::from(b));
            h = fnv_word(h, q);
        }
    }
    h
}

/// Interns signatures so that equal signatures share one id, numbered in
/// insertion order; grouping then compares a single `u32` per state
/// instead of whole tree sets.
#[derive(Default)]
struct Interner {
    by_hash: HashMap<u64, Vec<u32>, BuildFnv>,
    sigs: Vec<SigData>,
}

impl Interner {
    fn intern(&mut self, scratch: &SigData) -> u32 {
        let h = fnv_sig(scratch);
        let bucket = self.by_hash.entry(h).or_default();
        for &id in bucket.iter() {
            if self.sigs[id as usize] == *scratch {
                return id;
            }
        }
        let id = self.sigs.len() as u32;
        self.sigs.push(scratch.clone());
        bucket.push(id);
        id
    }
}

/// Stamped per-block rate accumulator: Neumaier-sums Markov rates per
/// target block in transition order (identical to the reference's
/// accumulation order), then emits the sorted quantized profile.
struct RateAcc {
    stamp: Vec<u32>,
    cur: u32,
    sum: Vec<NeumaierSum>,
    touched: Vec<u32>,
}

impl RateAcc {
    fn new(max_blocks: usize) -> Self {
        Self {
            stamp: vec![0; max_blocks],
            cur: 0,
            sum: vec![NeumaierSum::default(); max_blocks],
            touched: Vec::new(),
        }
    }

    fn profile(&mut self, m: &Imc, block: &[u32], s: u32) -> Vec<(u32, u64)> {
        self.cur += 1;
        if self.cur == u32::MAX {
            self.stamp.fill(0);
            self.cur = 1;
        }
        self.touched.clear();
        for t in m.markov_from(s) {
            let b = block[t.target as usize];
            let slot = b as usize;
            if self.stamp[slot] != self.cur {
                self.stamp[slot] = self.cur;
                self.sum[slot] = NeumaierSum::default();
                self.touched.push(b);
            }
            self.sum[slot].add(t.rate);
        }
        let mut v: Vec<(u32, u64)> = self
            .touched
            .iter()
            .map(|&b| (b, quantize(self.sum[b as usize].value())))
            .collect();
        v.sort_unstable();
        v
    }
}

/// Everything a per-state signature computation needs.
struct SigCtx<'a> {
    m: &'a Imc,
    mode: Mode,
    stable: &'a [bool],
    closure: Option<&'a Csr>,
}

// The argument list is the set of reusable scratch buffers — bundling
// them into a struct would only rename the problem.
#[allow(clippy::too_many_arguments)]
fn compute_sig(
    ctx: &SigCtx<'_>,
    block: &[u32],
    s: u32,
    visit: &mut VisitBuf,
    stack: &mut Vec<u32>,
    inert: &mut Vec<u32>,
    acc: &mut RateAcc,
    scratch: &mut SigData,
) {
    scratch.clear();
    let my = block[s as usize];
    match ctx.mode {
        Mode::Strong => {
            for t in ctx.m.interactive_from(s) {
                scratch.moves.push((t.action.0, block[t.target as usize]));
            }
            scratch.profiles.push(acc.profile(ctx.m, block, s));
        }
        Mode::Branching => {
            // Inert closure of s under the current partition.
            inert.clear();
            stack.clear();
            visit.begin();
            visit.insert(s);
            inert.push(s);
            stack.push(s);
            while let Some(x) = stack.pop() {
                for t in ctx.m.interactive_from(x) {
                    if t.action.is_tau() && block[t.target as usize] == my && visit.insert(t.target)
                    {
                        inert.push(t.target);
                        stack.push(t.target);
                    }
                }
            }
            for &x in inert.iter() {
                for t in ctx.m.interactive_from(x) {
                    let tb = block[t.target as usize];
                    if !(t.action.is_tau() && tb == my) {
                        scratch.moves.push((t.action.0, tb));
                    }
                }
                if ctx.stable[x as usize] {
                    scratch.profiles.push(acc.profile(ctx.m, block, x));
                }
            }
        }
        Mode::Weak => {
            let cl = ctx.closure.expect("weak needs closures");
            for &s1 in cl.row(s) {
                let b1 = block[s1 as usize];
                if b1 != my {
                    scratch.moves.push((ActionId::TAU.0, b1));
                }
                for t in ctx.m.interactive_from(s1) {
                    if t.action.is_tau() {
                        continue;
                    }
                    for &t2 in cl.row(t.target) {
                        scratch.moves.push((t.action.0, block[t2 as usize]));
                    }
                }
                if ctx.stable[s1 as usize] {
                    scratch.profiles.push(acc.profile(ctx.m, block, s1));
                }
            }
        }
    }
    scratch.normalize();
}

/// Renumbers block ids densely by first-occurrence state order — the
/// numbering the reference refiner's final round produces.
fn canonicalize(mut block: Vec<u32>, num_blocks: usize) -> Partition {
    let mut remap = vec![u32::MAX; num_blocks];
    let mut next = 0u32;
    for b in &mut block {
        let slot = &mut remap[*b as usize];
        if *slot == u32::MAX {
            *slot = next;
            next += 1;
        }
        *b = *slot;
    }
    Partition {
        block,
        num_blocks: next as usize,
    }
}

/// Worklist signature refinement: computes the same fixpoint partition as
/// the corresponding `super::reference` function, bitwise.
pub(super) fn refine(imc: &Imc, view: View, init: Partition, mode: Mode) -> Partition {
    let m = imc.apply_pre_emption(view);
    let n = m.num_states();
    if n == 0 {
        return init;
    }

    let mut visit = VisitBuf::new(n);
    let stable: Vec<bool> = (0..n as u32).map(|s| m.is_stable(s, view)).collect();
    let closure = match mode {
        Mode::Branching | Mode::Weak => Some(tau_closures(&m, &mut visit)),
        Mode::Strong => None,
    };
    let rdep = reverse_deps(&m, mode, closure.as_ref(), &mut visit);

    let Partition {
        mut block,
        mut num_blocks,
    } = init;
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); num_blocks];
    for (s, &b) in block.iter().enumerate() {
        members[b as usize].push(s as u32);
    }

    let ctx = SigCtx {
        m: &m,
        mode,
        stable: &stable,
        closure: closure.as_ref(),
    };
    let mut interner = Interner::default();
    let mut sig_id: Vec<u32> = vec![u32::MAX; n];
    let mut acc = RateAcc::new(n);
    let mut scratch = SigData::default();
    let mut stack: Vec<u32> = Vec::new();
    let mut inert: Vec<u32> = Vec::new();

    let mut dirty: Vec<u32> = (0..n as u32).collect();
    let mut dirty_mark = VisitBuf::new(n);
    let mut block_mark = VisitBuf::new(n);
    let mut group_of: HashMap<u32, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();

    let mut round = 0usize;
    while !dirty.is_empty() {
        round += 1;
        let dirty_states = dirty.len();
        // Re-sign the states whose dependencies moved; everyone else keeps
        // the signature value from the previous round (stable ids make it
        // literally unchanged).
        for &s in &dirty {
            compute_sig(
                &ctx,
                &block,
                s,
                &mut visit,
                &mut stack,
                &mut inert,
                &mut acc,
                &mut scratch,
            );
            sig_id[s as usize] = interner.intern(&scratch);
        }

        // Only blocks holding a dirty state can split.
        block_mark.begin();
        let mut dirty_blocks: Vec<u32> = Vec::new();
        for &s in &dirty {
            let b = block[s as usize];
            if block_mark.insert(b) {
                dirty_blocks.push(b);
            }
        }
        dirty_blocks.sort_unstable();

        let mut moved: Vec<u32> = Vec::new();
        for &b in &dirty_blocks {
            let mem = std::mem::take(&mut members[b as usize]);
            if mem.len() == 1 {
                members[b as usize] = mem;
                continue;
            }
            group_of.clear();
            groups.clear();
            for &s in &mem {
                let sid = sig_id[s as usize];
                let idx = *group_of.entry(sid).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[idx].push(s);
            }
            if groups.len() == 1 {
                members[b as usize] = mem;
                continue;
            }
            // Member lists are kept in ascending state order, so group 0
            // holds the block's first member and keeps the old id.
            for (i, g) in groups.iter_mut().enumerate() {
                if i == 0 {
                    members[b as usize] = std::mem::take(g);
                } else {
                    let fresh = num_blocks as u32;
                    num_blocks += 1;
                    for &s in g.iter() {
                        block[s as usize] = fresh;
                        moved.push(s);
                    }
                    members.push(std::mem::take(g));
                }
            }
        }

        // Next round's dirty set: everyone whose signature reads a moved
        // state's block id.
        dirty.clear();
        if !moved.is_empty() {
            dirty_mark.begin();
            moved.sort_unstable();
            for &x in &moved {
                for &s in rdep.row(x) {
                    if dirty_mark.insert(s) {
                        dirty.push(s);
                    }
                }
            }
            dirty.sort_unstable();
        }

        unicon_obs::emit(unicon_obs::Class::Metric, || {
            unicon_obs::Event::RefineRound {
                round,
                dirty_states,
                dirty_blocks: dirty_blocks.len(),
                moved: moved.len(),
                num_blocks,
            }
        });
    }

    canonicalize(block, num_blocks)
}
