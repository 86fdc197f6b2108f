//! The benchmark suite: MiniF re-creations of the ten Fortran programs the
//! paper evaluates (Perfect: arc2d, bdna, dyfesm, mdg, qcd, spec77, trfd;
//! Mendez: vortex; Riceps: linpackd, simple), plus a random structured
//! program generator for property-based testing.
//!
//! The original sources and input decks are not available; each program
//! here is a synthetic kernel *modeled on* the original's domain and —
//! more importantly — on the control/subscript structure that drives the
//! paper's results (see `DESIGN.md` §2 for the substitution note):
//!
//! * dense linear subscripts in counted loops (hoistable by `LLS`),
//! * invariant subscripts (hoistable by `LI`),
//! * conditional accesses in branches (partial redundancy: `SE`/`LNI`
//!   beat `NI`),
//! * indirect (`map(i)`) and `mod`-wrapped subscripts (never hoistable),
//! * while-loops with compound exit conditions (block hoisting),
//! * triangular loops and flattened-triangle accumulators (`trfd`),
//! * subroutines with adjustable (symbolic-bound) array parameters
//!   (`linpackd`).
//!
//! # Example
//!
//! ```
//! let suite = nascent_suite::test_suite();
//! assert_eq!(suite.len(), 10);
//! for b in &suite {
//!     let prog = nascent_frontend::compile(&b.source).expect(b.name);
//!     assert!(prog.check_count() > 0);
//! }
//! ```

pub mod generator;
pub mod programs;

pub use generator::{
    discharge_friendly, discharge_hostile, loops_then_overrun, random_program, scaling_program,
    GenConfig,
};

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Program name (matches the paper's Table 1).
    pub name: &'static str,
    /// MiniF source text.
    pub source: String,
}

/// Size scale for the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for unit/integration tests.
    Small,
    /// Sizes used to regenerate the paper's tables.
    Paper,
}

/// Builds the ten-program suite at the given scale.
pub fn suite(scale: Scale) -> Vec<Benchmark> {
    let s = scale;
    vec![
        Benchmark {
            name: "vortex",
            source: programs::vortex(s),
        },
        Benchmark {
            name: "arc2d",
            source: programs::arc2d(s),
        },
        Benchmark {
            name: "bdna",
            source: programs::bdna(s),
        },
        Benchmark {
            name: "dyfesm",
            source: programs::dyfesm(s),
        },
        Benchmark {
            name: "mdg",
            source: programs::mdg(s),
        },
        Benchmark {
            name: "qcd",
            source: programs::qcd(s),
        },
        Benchmark {
            name: "spec77",
            source: programs::spec77(s),
        },
        Benchmark {
            name: "trfd",
            source: programs::trfd(s),
        },
        Benchmark {
            name: "linpackd",
            source: programs::linpackd(s),
        },
        Benchmark {
            name: "simple",
            source: programs::simple(s),
        },
    ]
}

/// The suite at paper scale.
pub fn paper_suite() -> Vec<Benchmark> {
    suite(Scale::Paper)
}

/// The suite at test scale.
pub fn test_suite() -> Vec<Benchmark> {
    suite(Scale::Small)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nascent_interp::{run, Limits};

    #[test]
    fn all_programs_compile_and_run_trap_free() {
        for b in test_suite() {
            let prog =
                nascent_frontend::compile(&b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            nascent_ir::validate::assert_valid(&prog);
            let r = run(&prog, &Limits::default()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(r.trap.is_none(), "{} trapped: {:?}", b.name, r.trap);
            assert!(r.dynamic_checks > 0, "{} performs no checks", b.name);
            assert!(!r.output.is_empty(), "{} emits no output", b.name);
        }
    }

    #[test]
    fn check_ratio_is_substantial() {
        // the paper's Table 1 reports dynamic check/instruction ratios of
        // 22%..66%; our re-creations must stay in a broadly similar band
        for b in test_suite() {
            let with = nascent_frontend::compile(&b.source).unwrap();
            let r = run(&with, &Limits::default()).unwrap();
            let ratio = r.dynamic_checks as f64 / r.dynamic_instructions as f64;
            assert!(
                (0.10..=0.90).contains(&ratio),
                "{}: ratio {:.2} out of band",
                b.name,
                ratio
            );
        }
    }

    #[test]
    fn paper_scale_is_larger_than_test_scale() {
        let small = nascent_frontend::compile(&programs::vortex(Scale::Small)).unwrap();
        let paper = nascent_frontend::compile(&programs::vortex(Scale::Paper)).unwrap();
        let rs = run(&small, &Limits::default()).unwrap();
        let rp = run(&paper, &Limits::default()).unwrap();
        assert!(rp.dynamic_instructions > 10 * rs.dynamic_instructions);
    }
}
