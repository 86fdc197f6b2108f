//! A generic iterative data-flow solver.
//!
//! The optimizer's availability (forward) and anticipatability (backward)
//! systems over the check domain, and the four predicate systems of lazy
//! code motion, are all instances of [`Problem`] solved by [`solve`].
//! [`solve_from`] resumes from an earlier solution, for passes that edit
//! a few blocks at a time and keep one solution current.

use std::collections::VecDeque;

use nascent_ir::{BlockId, Function};

/// Direction of propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along CFG edges (entry to exit).
    Forward,
    /// Facts flow against CFG edges (exit to entry).
    Backward,
}

/// A data-flow problem over per-block facts.
///
/// For a forward problem, `transfer` maps the fact at block entry to the
/// fact at block exit; `meet` combines the exit facts of predecessors.
/// For a backward problem the roles are mirrored.
pub trait Problem {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// Fact at the boundary: function entry (forward) or every function
    /// exit (backward).
    fn boundary(&self) -> Self::Fact;

    /// Initial optimistic fact for all non-boundary program points.
    fn top(&self) -> Self::Fact;

    /// Lattice meet.
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// In-place meet: `*acc = meet(acc, other)`.
    ///
    /// The solver accumulates the confluence of predecessor (successor)
    /// facts through this method, cloning only the first one. Problems
    /// whose facts support destructive meets (e.g. bit sets) should
    /// override it to avoid the default's intermediate allocation.
    fn meet_with(&self, acc: &mut Self::Fact, other: &Self::Fact) {
        *acc = self.meet(acc, other);
    }

    /// Block transfer function.
    fn transfer(&self, f: &Function, block: BlockId, fact: &Self::Fact) -> Self::Fact;
}

/// Solution: the fact at each block entry and exit.
///
/// For both directions, `entry[b]` is the fact holding immediately before
/// the first statement of `b`, and `exit[b]` immediately after the
/// terminator.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each block's entry.
    pub entry: Vec<F>,
    /// Fact at each block's exit.
    pub exit: Vec<F>,
    /// Number of worklist iterations used (for the compile-time tables).
    pub iterations: u64,
}

/// FIFO worklist with O(1) pop/push and an `on_queue` bit per block, so
/// membership tests and dequeues cost O(1) instead of the O(n) scans a
/// plain `Vec` (shift on `remove(0)`, linear `contains`) would pay.
/// Scheduling order is identical to the naive FIFO it replaces.
struct Worklist {
    queue: VecDeque<BlockId>,
    on_queue: Vec<bool>,
}

impl Worklist {
    fn seeded(init: impl IntoIterator<Item = BlockId>, n: usize) -> Worklist {
        let mut w = Worklist {
            queue: VecDeque::with_capacity(n),
            on_queue: vec![false; n],
        };
        for b in init {
            w.push(b);
        }
        w
    }

    fn push(&mut self, b: BlockId) {
        if !std::mem::replace(&mut self.on_queue[b.index()], true) {
            self.queue.push_back(b);
        }
    }

    fn pop(&mut self) -> Option<BlockId> {
        let b = self.queue.pop_front()?;
        self.on_queue[b.index()] = false;
        Some(b)
    }
}

/// Solves a data-flow problem to fixpoint with a worklist.
pub fn solve<P: Problem>(f: &Function, p: &P) -> Solution<P::Fact> {
    let n = f.blocks.len();
    let mut sol = Solution {
        entry: vec![p.top(); n],
        exit: vec![p.top(); n],
        iterations: 0,
    };
    let mut seeds = f.reverse_postorder();
    if p.direction() == Direction::Backward {
        seeds.reverse();
    }
    solve_from(f, &f.predecessors(), p, &mut sol, seeds);
    sol
}

/// Resumes the worklist from an existing solution: queues `seeds` (in
/// order) and iterates to fixpoint, adding to `sol.iterations`. `preds`
/// must be `f.predecessors()`.
///
/// [`solve`] is this entry started from top with every block reachable
/// from the entry seeded. A warm start from any other `sol` finds the
/// greatest fixpoint provided that
///
/// * `sol` lies above that fixpoint at every block,
/// * `sol` lies above its own image: re-evaluating any block against its
///   neighbours' current facts can only lower its facts, and
/// * every block whose facts that re-evaluation would change is seeded.
///
/// The previous solution of the same problem satisfies the first two
/// after transfers that only shrank (e.g. gen sets that lost elements),
/// with the changed blocks as seeds: every step then descends, and
/// monotonicity keeps it above the new fixpoint.
///
/// [`solve`] leaves a block unreachable from the entry at top until a
/// change reaches it, so the two agree at every block when all blocks
/// are reachable, and at every reachable block of a backward problem,
/// whose facts never depend on unreachable blocks.
pub fn solve_from<P: Problem>(
    f: &Function,
    preds: &[Vec<BlockId>],
    p: &P,
    sol: &mut Solution<P::Fact>,
    seeds: impl IntoIterator<Item = BlockId>,
) {
    let n = f.blocks.len();
    let Solution {
        entry,
        exit,
        iterations,
    } = sol;
    let mut work = Worklist::seeded(seeds, n);
    match p.direction() {
        Direction::Forward => {
            while let Some(b) = work.pop() {
                *iterations += 1;
                let in_fact = if b == f.entry {
                    p.boundary()
                } else {
                    let mut acc: Option<P::Fact> = None;
                    for &q in &preds[b.index()] {
                        match &mut acc {
                            None => acc = Some(exit[q.index()].clone()),
                            Some(a) => p.meet_with(a, &exit[q.index()]),
                        }
                    }
                    acc.unwrap_or_else(|| p.top())
                };
                let out_fact = p.transfer(f, b, &in_fact);
                let changed = entry[b.index()] != in_fact || exit[b.index()] != out_fact;
                entry[b.index()] = in_fact;
                if changed {
                    exit[b.index()] = out_fact;
                    for s in f.successors(b) {
                        work.push(s);
                    }
                }
            }
        }
        Direction::Backward => {
            while let Some(b) = work.pop() {
                *iterations += 1;
                let succs = f.successors(b);
                let out_fact = if succs.is_empty() {
                    p.boundary()
                } else {
                    let mut acc: Option<P::Fact> = None;
                    for &s in &succs {
                        match &mut acc {
                            None => acc = Some(entry[s.index()].clone()),
                            Some(a) => p.meet_with(a, &entry[s.index()]),
                        }
                    }
                    acc.expect("non-empty succs")
                };
                let in_fact = p.transfer(f, b, &out_fact);
                let changed = exit[b.index()] != out_fact || entry[b.index()] != in_fact;
                exit[b.index()] = out_fact;
                if changed {
                    entry[b.index()] = in_fact;
                    for &q in &preds[b.index()] {
                        work.push(q);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;
    use nascent_ir::Stmt;
    use nascent_ir::VarId;
    use std::collections::BTreeSet;

    /// Classic reaching-"constant-ness": forward must-be-assigned analysis.
    /// Fact = set of variables assigned on every path.
    struct MustAssigned;

    impl Problem for MustAssigned {
        type Fact = Option<BTreeSet<VarId>>; // None = top (unvisited)

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn boundary(&self) -> Self::Fact {
            Some(BTreeSet::new())
        }

        fn top(&self) -> Self::Fact {
            None
        }

        fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            match (a, b) {
                (None, x) | (x, None) => x.clone(),
                (Some(a), Some(b)) => Some(a.intersection(b).cloned().collect()),
            }
        }

        fn transfer(&self, f: &Function, b: BlockId, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone()?;
            for s in &f.block(b).stmts {
                if let Some(v) = s.defined_var() {
                    out.insert(v);
                }
            }
            Some(out)
        }
    }

    /// [`MustAssigned`] with the definitions of one block ignored: its
    /// transfer lies below [`MustAssigned`]'s everywhere.
    struct MustAssignedMuting(BlockId);

    impl Problem for MustAssignedMuting {
        type Fact = Option<BTreeSet<VarId>>;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn boundary(&self) -> Self::Fact {
            MustAssigned.boundary()
        }

        fn top(&self) -> Self::Fact {
            None
        }

        fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            MustAssigned.meet(a, b)
        }

        fn transfer(&self, f: &Function, b: BlockId, fact: &Self::Fact) -> Self::Fact {
            if b == self.0 {
                fact.clone()
            } else {
                MustAssigned.transfer(f, b, fact)
            }
        }
    }

    #[test]
    fn forward_meet_is_path_intersection() {
        let p = compile(
            "program p\n integer x, y, c\n c = 1\n if (c > 0) then\n x = 1\n else\n y = 2\n endif\n print c\nend\n",
        )
        .unwrap();
        let f = p.main_function();
        let sol = solve(f, &MustAssigned);
        // find the join block: the one containing the Emit
        let join = f
            .block_ids()
            .find(|b| f.block(*b).stmts.iter().any(|s| matches!(s, Stmt::Emit(_))))
            .unwrap();
        let at_join = sol.entry[join.index()].as_ref().unwrap();
        // c assigned on both paths; x and y only on one each
        assert!(at_join.contains(&VarId(2)));
        assert!(!at_join.contains(&VarId(0)));
        assert!(!at_join.contains(&VarId(1)));
    }

    /// Backward liveness over a tiny universe.
    struct Live;

    impl Problem for Live {
        type Fact = BTreeSet<VarId>;

        fn direction(&self) -> Direction {
            Direction::Backward
        }

        fn boundary(&self) -> Self::Fact {
            BTreeSet::new()
        }

        fn top(&self) -> Self::Fact {
            BTreeSet::new()
        }

        fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            a.union(b).cloned().collect()
        }

        fn transfer(&self, f: &Function, b: BlockId, fact: &Self::Fact) -> Self::Fact {
            let mut live = fact.clone();
            // include terminator uses
            if let nascent_ir::Terminator::Branch { cond, .. } = &f.block(b).term {
                live.extend(cond.vars());
            }
            for s in f.block(b).stmts.iter().rev() {
                if let Some(v) = s.defined_var() {
                    live.remove(&v);
                }
                match s {
                    Stmt::Assign { value, .. } => live.extend(value.vars()),
                    Stmt::Emit(e) => live.extend(e.vars()),
                    _ => {}
                }
            }
            live
        }
    }

    /// The original solver: `Vec` worklist with `remove(0)` pops and
    /// linear `contains` membership scans. Kept as the semantic
    /// reference — the `VecDeque` + `on_queue` worklist must schedule
    /// blocks in exactly the same order, so `iterations` (reported in
    /// the compile-time tables) must not regress.
    fn solve_reference<P: Problem>(f: &Function, p: &P) -> Solution<P::Fact> {
        let n = f.blocks.len();
        let preds = f.predecessors();
        let rpo = f.reverse_postorder();
        let mut entry: Vec<P::Fact> = vec![p.top(); n];
        let mut exit: Vec<P::Fact> = vec![p.top(); n];
        let mut iterations: u64 = 0;
        let pop_front = |v: &mut Vec<BlockId>| -> Option<BlockId> {
            if v.is_empty() {
                None
            } else {
                Some(v.remove(0))
            }
        };
        match p.direction() {
            Direction::Forward => {
                let mut work: Vec<BlockId> = rpo.clone();
                while let Some(b) = pop_front(&mut work) {
                    iterations += 1;
                    let in_fact = if b == f.entry {
                        p.boundary()
                    } else {
                        let mut acc: Option<P::Fact> = None;
                        for &q in &preds[b.index()] {
                            acc = Some(match acc {
                                None => exit[q.index()].clone(),
                                Some(a) => p.meet(&a, &exit[q.index()]),
                            });
                        }
                        acc.unwrap_or_else(|| p.top())
                    };
                    let out_fact = p.transfer(f, b, &in_fact);
                    let changed = entry[b.index()] != in_fact || exit[b.index()] != out_fact;
                    entry[b.index()] = in_fact;
                    if changed {
                        exit[b.index()] = out_fact;
                        for s in f.successors(b) {
                            if !work.contains(&s) {
                                work.push(s);
                            }
                        }
                    }
                }
            }
            Direction::Backward => {
                let mut work: Vec<BlockId> = rpo.iter().rev().copied().collect();
                while let Some(b) = pop_front(&mut work) {
                    iterations += 1;
                    let succs = f.successors(b);
                    let out_fact = if succs.is_empty() {
                        p.boundary()
                    } else {
                        let mut acc: Option<P::Fact> = None;
                        for &s in &succs {
                            acc = Some(match acc {
                                None => entry[s.index()].clone(),
                                Some(a) => p.meet(&a, &entry[s.index()]),
                            });
                        }
                        acc.expect("non-empty succs")
                    };
                    let in_fact = p.transfer(f, b, &out_fact);
                    let changed = exit[b.index()] != out_fact || entry[b.index()] != in_fact;
                    exit[b.index()] = out_fact;
                    if changed {
                        entry[b.index()] = in_fact;
                        for &q in &preds[b.index()] {
                            if !work.contains(&q) {
                                work.push(q);
                            }
                        }
                    }
                }
            }
        }
        Solution {
            entry,
            exit,
            iterations,
        }
    }

    #[test]
    fn worklist_iterations_do_not_regress() {
        // both directions, on CFGs with branches, joins and loops
        let sources = [
            "program p\n integer x, y, c\n c = 1\n if (c > 0) then\n x = 1\n else\n y = 2\n endif\n print c\nend\n",
            "program p\n integer i, s, n\n n = 10\n s = 0\n do i = 1, n\n s = s + i\n enddo\n print s\nend\n",
            "program p\n integer i, j, s\n s = 0\n do i = 1, 5\n do j = 1, 5\n s = s + j\n enddo\n enddo\n print s\nend\n",
        ];
        for src in sources {
            let p = compile(src).unwrap();
            let f = p.main_function();
            let fast = solve(f, &MustAssigned);
            let slow = solve_reference(f, &MustAssigned);
            assert_eq!(fast.iterations, slow.iterations, "forward on {src:?}");
            assert_eq!(fast.entry, slow.entry);
            assert_eq!(fast.exit, slow.exit);
            let fast = solve(f, &Live);
            let slow = solve_reference(f, &Live);
            assert_eq!(fast.iterations, slow.iterations, "backward on {src:?}");
            assert_eq!(fast.entry, slow.entry);
            assert_eq!(fast.exit, slow.exit);
        }
    }

    #[test]
    fn warm_start_after_a_shrinking_edit_matches_a_fresh_solve() {
        // muting one block's definitions only lowers its transfer, so
        // resuming from the old solution with that block seeded must reach
        // the fixpoint a solve from top finds
        let p = compile(
            "program p\n integer i, j, s, n\n n = 4\n s = 0\n do i = 1, n\n  j = i\n  if (j > 2) then\n   s = s + j\n  endif\n enddo\n print s\nend\n",
        )
        .unwrap();
        let f = p.main_function();
        let old = solve(f, &MustAssigned);
        for b in f.reverse_postorder() {
            let muted = MustAssignedMuting(b);
            let mut warm = old.clone();
            solve_from(f, &f.predecessors(), &muted, &mut warm, [b]);
            let fresh = solve(f, &muted);
            assert_eq!(warm.entry, fresh.entry, "muting {b}");
            assert_eq!(warm.exit, fresh.exit, "muting {b}");
        }
    }

    #[test]
    fn backward_liveness_through_loop() {
        let p = compile(
            "program p\n integer i, s, n\n n = 10\n s = 0\n do i = 1, n\n s = s + i\n enddo\n print s\nend\n",
        )
        .unwrap();
        let f = p.main_function();
        let sol = solve(f, &Live);
        // At function entry nothing is live (everything assigned first).
        assert!(sol.entry[f.entry.index()].is_empty());
        // s (VarId 1) is live at entry to the loop header.
        let header = f
            .block_ids()
            .find(|b| matches!(f.block(*b).term, nascent_ir::Terminator::Branch { .. }))
            .unwrap();
        assert!(sol.entry[header.index()].contains(&VarId(1)));
        assert!(sol.iterations > f.blocks.len() as u64); // looped at least once
    }
}
