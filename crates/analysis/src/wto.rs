//! Weak topological order of a function's CFG (F. Bourdoncle, "Efficient
//! chaotic iteration strategies with widenings", 1993).
//!
//! A weak topological order lists the blocks reachable from the entry as
//! a hierarchy of *components*: each strongly connected piece of the CFG
//! is one component whose *head* comes first and whose other blocks,
//! nested components included, follow it contiguously. Every edge that is
//! not a forward edge of the order enters the head of a component that
//! contains its source, so the heads cut every cycle: they are the only
//! widening points an iteration needs. Iterating in this order settles
//! each loop before the code after it runs, instead of pushing a loop's
//! still-changing exit state through every later loop.
//!
//! The order is built by Bourdoncle's algorithm (a Tarjan-style DFS that
//! re-decomposes each component without its head), made iterative so that
//! a long CFG cannot exhaust the stack. Successors are explored in branch
//! order. For a reducible loop the head is the loop header, and a block's
//! [`Wto::depth`] is its loop-nesting depth.

use nascent_ir::{BlockId, Function, Terminator};

/// The weak topological order of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wto {
    /// The reachable blocks, in order.
    pub order: Vec<BlockId>,
    /// `position[b]`: index of `b` in `order`; `None` when unreachable.
    position: Vec<Option<u32>>,
    /// `head[b]`: `b` heads a component.
    head: Vec<bool>,
    /// `depth[b]`: the number of components containing `b` (a head lies
    /// in its own component).
    depth: Vec<u32>,
}

/// A DFS frame: visiting a block, or re-decomposing a component whose
/// head was just found.
enum Frame {
    Visit {
        v: usize,
        next: usize,
        low: u32,
        is_loop: bool,
    },
    Component {
        v: usize,
        next: usize,
    },
}

/// The `i`-th successor of `b` in branch order.
fn successor(f: &Function, b: usize, i: usize) -> Option<usize> {
    let s = match (&f.blocks[b].term, i) {
        (Terminator::Jump(t), 0) | (Terminator::Branch { then_bb: t, .. }, 0) => t,
        (Terminator::Branch { else_bb, .. }, 1) => else_bb,
        _ => return None,
    };
    Some(s.index())
}

/// Bourdoncle's DFS state.
struct Dfs<'f> {
    f: &'f Function,
    /// DFS number; 0 = not yet (or again not yet) visited, `PLACED` =
    /// in the order.
    dfn: Vec<u32>,
    num: u32,
    /// Tarjan's stack of visited blocks whose component is still open.
    stack: Vec<usize>,
    frames: Vec<Frame>,
}

const PLACED: u32 = u32::MAX;

impl Dfs<'_> {
    fn visit(&mut self, v: usize) {
        self.stack.push(v);
        self.num += 1;
        self.dfn[v] = self.num;
        self.frames.push(Frame::Visit {
            v,
            next: 0,
            low: self.num,
            is_loop: false,
        });
    }
}

impl Wto {
    /// Computes the order of `f`'s blocks reachable from its entry.
    pub fn compute(f: &Function) -> Wto {
        let n = f.blocks.len();
        let mut dfs = Dfs {
            f,
            dfn: vec![0; n],
            num: 0,
            stack: Vec::new(),
            frames: Vec::new(),
        };
        let mut head = vec![false; n];
        let mut depth = vec![0u32; n];
        let mut level = 0;
        // the order is built back to front: a block is pushed once every
        // block after it is placed, a head after its component's blocks
        let mut reversed: Vec<usize> = Vec::with_capacity(n);
        dfs.visit(f.entry.index());
        // the lowest DFS number reached by the visit that just ended
        let mut returned: Option<u32> = None;
        while let Some(frame) = dfs.frames.last_mut() {
            match frame {
                Frame::Visit {
                    v,
                    next,
                    low,
                    is_loop,
                } => {
                    if let Some(min) = returned.take() {
                        if min <= *low {
                            *low = min;
                            *is_loop = true;
                        }
                    }
                    if let Some(w) = successor(dfs.f, *v, *next) {
                        *next += 1;
                        let seen = dfs.dfn[w];
                        if seen == 0 {
                            dfs.visit(w);
                        } else if seen <= *low {
                            *low = seen;
                            *is_loop = true;
                        }
                        continue;
                    }
                    let (v, low, is_loop) = (*v, *low, *is_loop);
                    dfs.frames.pop();
                    returned = Some(low);
                    if low != dfs.dfn[v] {
                        continue; // `v` lies in a component headed above it
                    }
                    dfs.dfn[v] = PLACED;
                    let mut top = dfs.stack.pop();
                    if is_loop {
                        // decompose the component again, without its head
                        while let Some(w) = top.filter(|w| *w != v) {
                            dfs.dfn[w] = 0;
                            top = dfs.stack.pop();
                        }
                        level += 1;
                        head[v] = true;
                        depth[v] = level;
                        dfs.frames.push(Frame::Component { v, next: 0 });
                    } else {
                        depth[v] = level;
                        reversed.push(v);
                    }
                }
                Frame::Component { v, next } => {
                    returned = None;
                    if let Some(w) = successor(dfs.f, *v, *next) {
                        *next += 1;
                        if dfs.dfn[w] == 0 {
                            dfs.visit(w);
                        }
                        continue;
                    }
                    reversed.push(*v);
                    level -= 1;
                    dfs.frames.pop();
                }
            }
        }

        let order: Vec<BlockId> = reversed.iter().rev().map(|b| BlockId(*b as u32)).collect();
        let mut position = vec![None; n];
        for (i, b) in order.iter().enumerate() {
            position[b.index()] = Some(i as u32);
        }
        Wto {
            order,
            position,
            head,
            depth,
        }
    }

    /// Index of `b` in [`Wto::order`]; `None` when `b` is unreachable.
    pub fn position(&self, b: BlockId) -> Option<u32> {
        self.position[b.index()]
    }

    /// Whether `b` heads a component (a widening point).
    pub fn is_head(&self, b: BlockId) -> bool {
        self.head[b.index()]
    }

    /// The number of components containing `b`: 0 outside every cycle,
    /// and a head counts its own component.
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_frontend::compile;
    use nascent_ir::{Block, Expr, VarId};

    fn wto_of(src: &str) -> (Function, Wto) {
        let f = compile(src).unwrap().main_function().clone();
        let w = Wto::compute(&f);
        (f, w)
    }

    /// The two properties iteration relies on: every reachable block is
    /// listed once, and every edge that does not go forward in the order
    /// enters a head whose component (the head and the blocks after it up
    /// to its component's end, found by depth) contains the edge's source.
    fn assert_weak_topological(f: &Function, w: &Wto) {
        let reachable = f.reverse_postorder();
        assert_eq!(w.order.len(), reachable.len());
        for b in &reachable {
            assert_eq!(w.order[w.position(*b).unwrap() as usize], *b);
        }
        for b in &reachable {
            for s in f.successors(*b) {
                let (pb, ps) = (w.position(*b).unwrap(), w.position(s).unwrap());
                if ps > pb {
                    continue;
                }
                assert!(w.is_head(s), "back edge b{} -> b{} enters a head", b.0, s.0);
                let inside = w.order[ps as usize..=pb as usize]
                    .iter()
                    .all(|x| w.depth(*x) >= w.depth(s));
                assert!(inside, "b{} lies in the component of b{}", b.0, s.0);
            }
        }
    }

    #[test]
    fn each_loop_settles_before_the_code_after_it() {
        let (f, w) = wto_of(
            "program p
 integer a(1:10)
 integer i, j
 do i = 1, 10
  a(i) = i
 enddo
 do j = 1, 10
  a(j) = j
 enddo
end
",
        );
        assert_weak_topological(&f, &w);
        let heads: Vec<u32> = w
            .order
            .iter()
            .filter(|b| w.is_head(**b))
            .map(|b| w.position(*b).unwrap())
            .collect();
        assert_eq!(heads.len(), 2);
        // the first loop's blocks all come before the second loop's head
        let second = heads[1] as usize;
        assert!(w.order[..second]
            .iter()
            .filter(|b| w.depth(**b) > 0)
            .all(|b| w.position(*b).unwrap() >= heads[0]));
        assert_eq!(w.depth(w.order[second]), 1);
        assert_eq!(w.depth(*w.order.last().unwrap()), 0);
    }

    #[test]
    fn nested_loops_nest_their_components() {
        let (f, w) = wto_of(
            "program p
 integer a(1:10, 1:10)
 integer i, j
 do i = 1, 10
  do j = 1, 10
   a(i, j) = i + j
  enddo
 enddo
end
",
        );
        assert_weak_topological(&f, &w);
        assert_eq!(f.block_ids().map(|b| w.depth(b)).max(), Some(2));
        assert_eq!(f.block_ids().filter(|b| w.is_head(*b)).count(), 2);
    }

    #[test]
    fn irreducible_cycles_get_a_head() {
        // the entry branches into either block of the cycle b1 <-> b2
        let mut f = Function::new("irreducible");
        let b1 = f.add_block(Block::default());
        let b2 = f.add_block(Block::jumping_to(b1));
        let exit = f.add_block(Block::default());
        let branch = |then_bb, else_bb| Terminator::Branch {
            cond: Expr::var(VarId(0)),
            then_bb,
            else_bb,
        };
        f.block_mut(b1).term = branch(b2, exit);
        f.block_mut(f.entry).term = branch(b1, b2);
        let w = Wto::compute(&f);
        assert_weak_topological(&f, &w);
        assert_eq!(w.order.len(), 4);
        assert_eq!([b1, b2].iter().filter(|b| w.is_head(**b)).count(), 1);
        assert_eq!((w.depth(b1), w.depth(b2), w.depth(exit)), (1, 1, 0));
    }

    #[test]
    fn a_long_chain_does_not_recurse() {
        let mut src = String::from("program p\n integer a(1:10)\n integer i\n");
        for _ in 0..5000 {
            src.push_str(" do i = 1, 10\n  a(i) = i\n enddo\n");
        }
        src.push_str("end\n");
        let (f, w) = wto_of(&src);
        assert_weak_topological(&f, &w);
        assert_eq!(f.block_ids().filter(|b| w.is_head(*b)).count(), 5000);
    }
}
