//! Random structured MiniF program generator.
//!
//! Used by the safety oracle: for arbitrary generated programs, every
//! optimizer configuration must preserve the trap verdict, never trap
//! later, and keep the output identical on trap-free runs. Programs
//! deliberately include accesses that *may* go out of range (subscripts
//! are affine in loop variables with random coefficients against random
//! array bounds), so both trapping and non-trapping behaviors are
//! exercised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of scalar integer variables (≥ 2).
    pub scalars: u32,
    /// Number of 1-D arrays (≥ 1).
    pub arrays: u32,
    /// Maximum statement-tree depth.
    pub max_depth: u32,
    /// Statements per block (1..=this).
    pub max_stmts: u32,
    /// Probability (0..100) that a generated subscript may stray out of
    /// bounds.
    pub wild_percent: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scalars: 4,
            arrays: 2,
            max_depth: 3,
            max_stmts: 4,
            wild_percent: 25,
        }
    }
}

/// Generates a random MiniF program. The same seed and config always
/// produce the same program.
pub fn random_program(seed: u64, cfg: &GenConfig) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Gen {
        rng: &mut rng,
        cfg,
        out: String::new(),
        loop_depth: 0,
        loop_vars: Vec::new(),
    };
    g.program();
    g.out
}

/// The scaling curve's program: `k` sequential loops of `k` array stores
/// each (`2k²` naive checks), the shape of the benchmark's
/// `scaling-certify` workload. The loop bound is held in a variable, so
/// every hoisted check keeps its loop-entry guard.
pub fn scaling_program(k: usize) -> String {
    let n = 4 * k + 8;
    let mut src = format!(
        "program scale\n integer a({n})\n integer i, m\n m = {}\n",
        n - k - 1
    );
    for li in 0..k {
        src.push_str(" do i = 1, m\n");
        for ai in 1..=k {
            src.push_str(&format!("  a(i + {ai}) = i + {li}\n"));
        }
        src.push_str(" enddo\n");
    }
    src.push_str(" print a(1)\nend\n");
    src
}

/// `loops` sequential in-bounds loops over `a(1:40)`, then one whose store
/// `a(i + n - 1)` runs one element past the end: every check but the last
/// loop's upper one always holds, and the naive run traps on that one.
/// The loop bound and the offset are held in variables.
pub fn loops_then_overrun(loops: usize) -> String {
    let mut src =
        String::from("program overrun\n integer a(1:40)\n integer i, m, n\n m = 40\n n = 2\n");
    for _ in 0..loops {
        src.push_str(" do i = 1, m\n  a(i) = i\n enddo\n");
    }
    src.push_str(" do i = 1, m\n  a(i + n - 1) = i\n enddo\nend\n");
    src
}

/// Generates a **discharge-friendly** program: every subscript is a
/// constant, a counted loop variable whose range the declared bounds
/// cover, or one step of indirection through a locally initialized map
/// array. The static-discharge tier's value-range analysis should prove
/// (and delete) every check.
pub fn discharge_friendly(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: i64 = rng.gen_range(8..24);
    let k: i64 = rng.gen_range(2..6);
    let off: i64 = rng.gen_range(0..3);
    let s0: i64 = rng.gen_range(0..5);
    format!(
        "program gen
 integer i, t, s
 integer a(1:{n})
 integer b(1:{m})
 integer map(1:{n})
 s = {s0}
 do i = 1, {n}
  map(i) = i - 1
  a(i) = i
 enddo
 a({k}) = {k}
 if (s <= 4) then
  b({k} + {off}) = s
 endif
 do i = 1, {n}
  t = map(i)
  b(t + 1) = a(i) + t
 enddo
 print a(1) + b(1)
end
",
        m = n + 1
    )
}

/// Generates a **discharge-hostile** program: every subscript depends on
/// a degree-2 product of subroutine parameters, whose values the
/// value-range analysis cannot bound (scalar parameters are unknown at
/// function entry). The static-discharge tier must delete exactly zero
/// checks — the generator is the negative control for the discharge-rate
/// tables.
pub fn discharge_hostile(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let h: i64 = rng.gen_range(10..40);
    let m: i64 = rng.gen_range(3..9);
    let v0: i64 = rng.gen_range(1..4);
    let v1: i64 = rng.gen_range(1..4);
    let v2: i64 = rng.gen_range(1..3);
    format!(
        "program gen
 integer s0, s1, s2
 s0 = {v0}
 s1 = {v1}
 s2 = {v2}
 call kern(s0, s1, s2)
end
subroutine kern(p, q, r)
 integer p, q, r
 integer i, t, u
 integer a(1:{h})
 t = p * q
 do i = 1, {m}
  a(t) = i
  u = q * i
  a(u + t) = t
  t = t + r
 enddo
 print t
end
"
    )
}

struct Gen<'a> {
    rng: &'a mut StdRng,
    cfg: &'a GenConfig,
    out: String,
    loop_depth: u32,
    loop_vars: Vec<String>,
}

impl Gen<'_> {
    fn scalar(&mut self, i: u32) -> String {
        format!("s{i}")
    }

    fn rand_scalar(&mut self) -> String {
        let i = self.rng.gen_range(0..self.cfg.scalars);
        self.scalar(i)
    }

    /// A scalar that is not currently a loop variable (assignable).
    fn rand_assignable(&mut self) -> Option<String> {
        for _ in 0..8 {
            let s = self.rand_scalar();
            if !self.loop_vars.contains(&s) {
                return Some(s);
            }
        }
        None
    }

    fn array_bounds(&mut self, _i: u32) -> (i64, i64) {
        // bounds vary: sometimes 1-based, sometimes shifted
        let lo = [1i64, 0, 3, 5][self.rng.gen_range(0..4)];
        let hi = lo + self.rng.gen_range(6..20);
        (lo, hi)
    }

    fn program(&mut self) {
        self.out.push_str("program gen\n");
        let mut names = Vec::new();
        for i in 0..self.cfg.scalars {
            names.push(self.scalar(i));
        }
        self.out
            .push_str(&format!(" integer {}\n", names.join(", ")));
        let mut bounds = Vec::new();
        for i in 0..self.cfg.arrays {
            let (lo, hi) = self.array_bounds(i);
            bounds.push((lo, hi));
            self.out.push_str(&format!(" integer a{i}({lo}:{hi})\n"));
        }
        // initialize scalars to small values
        for i in 0..self.cfg.scalars {
            let v = self.rng.gen_range(1..6);
            let name = self.scalar(i);
            self.out.push_str(&format!(" {name} = {v}\n"));
        }
        let n = self.rng.gen_range(2..=self.cfg.max_stmts + 2);
        for _ in 0..n {
            self.stmt(1, &bounds);
        }
        // observable output
        for i in 0..self.cfg.arrays.min(2) {
            let (lo, _) = bounds[i as usize];
            self.out.push_str(&format!(" print a{i}({lo})\n"));
        }
        self.out.push_str(" print s0 + s1\nend\n");
    }

    /// An affine integer expression over in-scope scalars.
    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.gen_bool(0.4) {
            if self.rng.gen_bool(0.5) {
                format!("{}", self.rng.gen_range(-4..10))
            } else {
                self.rand_scalar()
            }
        } else {
            let l = self.expr(depth - 1);
            let r = self.expr(depth - 1);
            let op = ["+", "-", "*"][self.rng.gen_range(0..3)];
            // keep multiplications small to avoid overflow
            if op == "*" {
                let k = self.rng.gen_range(1..4);
                format!("({l} * {k})")
            } else {
                format!("({l} {op} {r})")
            }
        }
    }

    /// A subscript expression that is usually in `lo..=hi` when the
    /// enclosing loop variables stay small, and sometimes wild.
    fn subscript(&mut self, lo: i64, hi: i64) -> String {
        let wild = self.rng.gen_range(0..100) < self.cfg.wild_percent;
        if wild {
            self.expr(1)
        } else if !self.loop_vars.is_empty() && self.rng.gen_bool(0.7) {
            // loop-var based, clamped into range via min/max intrinsics
            let v = self.loop_vars[self.rng.gen_range(0..self.loop_vars.len())].clone();
            let off = self.rng.gen_range(0..3);
            format!("min(max({v} + {off}, {lo}), {hi})")
        } else {
            format!("{}", self.rng.gen_range(lo..=hi))
        }
    }

    fn stmt(&mut self, depth: u32, bounds: &[(i64, i64)]) {
        let choice = self.rng.gen_range(0..100);
        let indent = " ".repeat((depth + 1) as usize);
        if choice < 30 {
            // scalar assignment
            if let Some(t) = self.rand_assignable() {
                let e = self.expr(2);
                self.out.push_str(&format!("{indent}{t} = {e}\n"));
            }
        } else if choice < 60 {
            // array store (possibly with an array read on the rhs)
            let ai = self.rng.gen_range(0..bounds.len());
            let (lo, hi) = bounds[ai];
            let sub = self.subscript(lo, hi);
            if self.rng.gen_bool(0.4) {
                let bi = self.rng.gen_range(0..bounds.len());
                let (blo, bhi) = bounds[bi];
                let rsub = self.subscript(blo, bhi);
                self.out
                    .push_str(&format!("{indent}a{ai}({sub}) = a{bi}({rsub}) + 1\n"));
            } else {
                let e = self.expr(1);
                self.out.push_str(&format!("{indent}a{ai}({sub}) = {e}\n"));
            }
        } else if choice < 80 && depth < self.cfg.max_depth && self.loop_depth < 3 {
            // counted loop over a fresh-ish variable
            if let Some(v) = self.rand_assignable() {
                let lo = self.rng.gen_range(0..3);
                let hi = lo + self.rng.gen_range(1..8);
                self.out.push_str(&format!("{indent}do {v} = {lo}, {hi}\n"));
                self.loop_vars.push(v);
                self.loop_depth += 1;
                let n = self.rng.gen_range(1..=self.cfg.max_stmts);
                for _ in 0..n {
                    self.stmt(depth + 1, bounds);
                }
                self.loop_depth -= 1;
                self.loop_vars.pop();
                self.out.push_str(&format!("{indent}enddo\n"));
            }
        } else if choice < 84 && self.loop_depth > 0 {
            // loop control, guarded so loops still terminate quickly
            let c = self.expr(1);
            let kw = if self.rng.gen_bool(0.5) {
                "exit"
            } else {
                "cycle"
            };
            self.out.push_str(&format!(
                "{indent}if ({c} == 3) then
{indent} {kw}
{indent}endif
"
            ));
        } else if depth < self.cfg.max_depth {
            // conditional
            let c = self.expr(1);
            let rel = ["<", "<=", ">", ">=", "=="][self.rng.gen_range(0..5)];
            let c2 = self.expr(1);
            self.out
                .push_str(&format!("{indent}if ({c} {rel} {c2}) then\n"));
            let n = self.rng.gen_range(1..=self.cfg.max_stmts);
            for _ in 0..n {
                self.stmt(depth + 1, bounds);
            }
            if self.rng.gen_bool(0.5) {
                self.out.push_str(&format!("{indent}else\n"));
                let n = self.rng.gen_range(1..=self.cfg.max_stmts);
                for _ in 0..n {
                    self.stmt(depth + 1, bounds);
                }
            }
            self.out.push_str(&format!("{indent}endif\n"));
        } else if let Some(t) = self.rand_assignable() {
            let e = self.expr(1);
            self.out.push_str(&format!("{indent}{t} = {e}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_interp::{run, Limits, RunError};

    #[test]
    fn generated_programs_compile() {
        let cfg = GenConfig::default();
        let mut compiled = 0;
        for seed in 0..60 {
            let src = random_program(seed, &cfg);
            let prog = nascent_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            nascent_ir::validate::assert_valid(&prog);
            compiled += 1;
        }
        assert_eq!(compiled, 60);
    }

    #[test]
    fn discharge_generators_compile_and_are_deterministic() {
        for seed in 0..20 {
            let friendly = discharge_friendly(seed);
            let prog = nascent_frontend::compile(&friendly)
                .unwrap_or_else(|e| panic!("friendly seed {seed}: {e}\n{friendly}"));
            nascent_ir::validate::assert_valid(&prog);
            let hostile = discharge_hostile(seed);
            let prog = nascent_frontend::compile(&hostile)
                .unwrap_or_else(|e| panic!("hostile seed {seed}: {e}\n{hostile}"));
            nascent_ir::validate::assert_valid(&prog);
        }
        assert_eq!(discharge_friendly(3), discharge_friendly(3));
        assert_eq!(discharge_hostile(3), discharge_hostile(3));
    }

    #[test]
    fn discharge_generator_programs_run_clean() {
        let limits = Limits {
            max_steps: 500_000,
            max_call_depth: 16,
        };
        for seed in 0..20 {
            let prog = nascent_frontend::compile(&discharge_friendly(seed)).unwrap();
            let r = run(&prog, &limits).unwrap();
            assert!(
                r.trap.is_none(),
                "friendly seed {seed} trapped: {:?}",
                r.trap
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(random_program(7, &cfg), random_program(7, &cfg));
        assert_ne!(random_program(7, &cfg), random_program(8, &cfg));
    }

    #[test]
    fn some_programs_trap_and_some_do_not() {
        let cfg = GenConfig::default();
        let limits = Limits {
            max_steps: 500_000,
            max_call_depth: 16,
        };
        let mut traps = 0;
        let mut clean = 0;
        for seed in 0..80 {
            let src = random_program(seed, &cfg);
            let prog = nascent_frontend::compile(&src).unwrap();
            match run(&prog, &limits) {
                Ok(r) if r.trap.is_some() => traps += 1,
                Ok(_) => clean += 1,
                Err(RunError::StepLimit | RunError::DivisionByZero { .. }) => {}
                Err(e) => panic!("seed {seed}: unexpected {e}"),
            }
        }
        assert!(traps > 5, "want trapping programs, got {traps}");
        assert!(clean > 5, "want clean programs, got {clean}");
    }
}
