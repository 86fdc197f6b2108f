//! Robustness: the frontend must never panic — any input either compiles
//! or produces a positioned `CompileError`.

use nascent_frontend::{compile, lexer, parser};
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes never panic the lexer.
    #[test]
    fn lexer_total_on_arbitrary_input(s in "\\PC*") {
        let _ = lexer::lex(&s);
    }

    /// Arbitrary token soup never panics the parser.
    #[test]
    fn parser_total_on_arbitrary_input(s in "[a-z0-9 =+\\-*/(),:<>\n]{0,200}") {
        if let Ok(tokens) = lexer::lex(&s) {
            let _ = parser::parse(&tokens);
        }
    }

    /// Near-miss programs (a valid skeleton with random statement lines
    /// spliced in) never panic the full pipeline.
    #[test]
    fn compile_total_on_near_miss_programs(
        lines in prop::collection::vec("[a-z0-9 =+\\-*/(),:<>]{0,40}", 0..8)
    ) {
        let mut src = String::from("program p\n integer x, y\n integer a(1:10)\n");
        for l in &lines {
            src.push(' ');
            src.push_str(l);
            src.push('\n');
        }
        src.push_str("end\n");
        let _ = compile(&src);
    }
}

/// A grab-bag of malformed programs that must error, not panic.
#[test]
fn malformed_programs_error_cleanly() {
    let cases = [
        "",
        "program",
        "program p",
        "program p\nend", // missing newline after end is ok?
        "end\n",
        "program p\n integer\nend\n",
        "program p\n integer a()\nend\n",
        "program p\n x =\nend\n",
        "program p\n do\nend\n",
        "program p\n if then\nend\n",
        "program p\n call\nend\n",
        "subroutine s(\nend\n",
        "program p\n integer a(1:\nend\n",
        "program p\n print\nend\n",
        "program p\n integer x\n x = ((1)\nend\n",
        "program p\n integer x\n x = 1 +\nend\n",
        "program p\n while (1)\nend\n",
    ];
    for c in cases {
        match compile(c) {
            Ok(_) => {} // a few skeletons are actually valid; fine
            Err(e) => {
                assert!(e.line >= 1, "error without a line: {e} for {c:?}");
                assert!(!e.message.is_empty());
            }
        }
    }
}

/// Nesting far past the parser's limit is a positioned error, not a stack
/// overflow: 100 000 parentheses (the parser recursed once per level) and
/// 50 000 nested `if` blocks.
#[test]
fn deep_nesting_errors_instead_of_overflowing() {
    let n = 100_000;
    let parens = format!(
        "program p\n integer x\n x = {}1{}\nend\n",
        "(".repeat(n),
        ")".repeat(n)
    );
    let n = 50_000;
    let ifs = format!(
        "program p\n integer x\n x = 1\n{}{}end\n",
        " if (x > 0) then\n".repeat(n),
        " endif\n".repeat(n)
    );
    for src in [parens, ifs] {
        let err = compile(&src).unwrap_err();
        assert!(err.line >= 3, "error without the offending line: {err}");
        assert!(err.message.contains("nested more than"), "{err}");
    }
}

/// Error positions point at the offending line.
#[test]
fn error_lines_are_accurate() {
    let src = "program p\n integer x\n x = 1\n y = 2\nend\n";
    let err = compile(src).unwrap_err();
    assert_eq!(err.line, 4, "undeclared `y` is on line 4: {err}");
}
