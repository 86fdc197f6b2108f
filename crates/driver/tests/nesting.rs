//! The parser's nesting limit keeps every later pass within a thread's
//! stack: a program nested exactly [`MAX_NESTING`] deep goes through the
//! whole pipeline on a 2 MiB thread (the default for spawned threads, and
//! the size of a `nascentd` worker's stack), and one level more is a
//! compile error.

use nascent_driver::{compute, Mode, Request, RunConfig};
use nascent_frontend::parser::MAX_NESTING;
use nascent_interp::{Engine, Limits};
use nascent_rangecheck::Scheme;

/// `blocks` nested statement blocks (alternating `do` and `if`) around
/// three assignments whose expressions are each nested `depth` deep: in
/// parentheses, in unary minuses, and in an operator chain.
fn nested_program(blocks: usize, depth: usize) -> String {
    let mut src = String::from("program deep\n integer a(1:10)\n integer i, x\n");
    for b in (0..blocks).step_by(2) {
        src.push_str(&format!(" integer j{b}\n"));
    }
    src.push_str(" i = 1\n");
    for b in 0..blocks {
        if b % 2 == 0 {
            src.push_str(&format!(" do j{b} = 1, 1\n"));
        } else {
            src.push_str(" if (i > 0) then\n");
        }
    }
    src.push_str(&format!(
        " x = {}i{}\n",
        "(".repeat(depth),
        ")".repeat(depth)
    ));
    src.push_str(&format!(" x = {}x\n", "-".repeat(2 * (depth / 2))));
    src.push_str(&format!(" a(i) = {}x\n", "0 + ".repeat(depth)));
    for b in (0..blocks).rev() {
        src.push_str(if b % 2 == 0 { " enddo\n" } else { " endif\n" });
    }
    src.push_str(" print a(1)\nend\n");
    src
}

/// Compiles, optimizes, certifies and runs `src` under every scheme and
/// every engine (the native one when a C compiler is present), on a
/// thread with a 2 MiB stack.
fn pipeline_on_2mib_thread(src: String) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let mut engines = vec![Engine::Tree, Engine::Vm];
            if nascent_cback::cc_available() {
                engines.push(Engine::Native);
            }
            for scheme in Scheme::EACH {
                for &engine in &engines {
                    let req = Request {
                        program: src.clone(),
                        config: RunConfig {
                            scheme,
                            engine,
                            ..RunConfig::default()
                        },
                        mode: Mode::Certify,
                    };
                    let out = compute(&req, &Limits::default()).expect("pipeline runs");
                    let cert = out.certificate.expect("certified");
                    assert!(cert.ok(), "{} rejected: {cert}", scheme.name());
                }
            }
        })
        .expect("thread spawns")
        .join()
        .expect("pipeline stays within 2 MiB");
}

#[test]
fn a_program_nested_at_the_limit_runs_on_a_2mib_thread() {
    pipeline_on_2mib_thread(nested_program(MAX_NESTING, MAX_NESTING));
    for (blocks, depth) in [(MAX_NESTING + 1, 1), (1, MAX_NESTING + 1)] {
        let err = nascent_frontend::compile(&nested_program(blocks, depth)).unwrap_err();
        assert!(err.message.contains("nested more than"), "{err}");
    }
}
