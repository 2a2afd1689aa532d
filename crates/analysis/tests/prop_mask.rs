//! Property test for `mask_comments_and_strings` (ISSUE 8 satellite).
//!
//! Every downstream analysis — byte offsets, line mapping, brace-depth
//! scope tracking, call-site extraction — assumes three invariants of
//! the masked text:
//!
//! 1. **length** is preserved byte-for-byte;
//! 2. **newline positions** are identical (line numbers stay true);
//! 3. **brace visibility**: exactly the braces that are real code
//!    survive — braces inside strings, char literals and comments are
//!    blanked, braces in code are not.
//!
//! The generator concatenates random sequences from a vocabulary of
//! self-delimiting adversarial snippets: escaped char literals
//! (`'\''`, `'\\'`), brace char literals, lifetimes in the positions
//! that historically confused the char-literal heuristic, nested block
//! comments, raw strings, and strings with embedded escapes/newlines.
//! Each token carries the number of *code* braces it contributes, so
//! the expected visible-brace census is computable without re-lexing.

use pmv_analysis::graph::mask_comments_and_strings;
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;

/// (snippet, code `{` count, code `}` count). Every snippet is
/// self-delimiting: it closes every literal/comment it opens, so any
/// concatenation (space-joined) is a lexically valid token stream.
const VOCAB: &[(&str, usize, usize)] = &[
    ("let x = 1;", 0, 0),
    ("{", 1, 0),
    ("}", 0, 1),
    ("fn f() { g(); }", 1, 1),
    // Char literals: braces and quotes inside must vanish.
    ("'{'", 0, 0),
    ("'}'", 0, 0),
    ("'a'", 0, 0),
    ("b'x'", 0, 0),
    // The two escaped forms that used to desync the lexer.
    ("'\\''", 0, 0),
    ("'\\\\'", 0, 0),
    ("'\\n'", 0, 0),
    ("b'\\''", 0, 0),
    // Lifetimes — must NOT be eaten as char literals.
    ("&'static str", 0, 0),
    ("fn g<'a>(x: &'a str) -> &'a str { x }", 1, 1),
    ("impl<'de> Visit<'de> for V {}", 1, 1),
    ("if x < 'a' { y() }", 1, 1),
    // Strings: braces, escapes, embedded newline.
    ("\"{ not a brace }\"", 0, 0),
    ("\"esc \\\" quote\"", 0, 0),
    ("\"back \\\\ slash\"", 0, 0),
    ("\"line1\nline2\"", 0, 0),
    ("r#\"raw \" with { brace \"#", 0, 0),
    // Comments: line (self-terminating via newline) and nested block.
    ("// line with 'quote and { brace\n", 0, 0),
    ("/* block } comment { */", 0, 0),
    ("/* nested /* inner */ outer */", 0, 0),
    ("match c { '\\'' => 1, '{' => 2, _ => 0 }", 1, 1),
];

fn assemble(picks: &[usize]) -> (String, usize, usize) {
    let mut src = String::new();
    let (mut opens, mut closes) = (0usize, 0usize);
    for &p in picks {
        let (tok, o, c) = VOCAB[p % VOCAB.len()];
        src.push_str(tok);
        src.push(' ');
        opens += o;
        closes += c;
    }
    (src, opens, closes)
}

fn newline_positions(s: &str) -> Vec<usize> {
    s.bytes()
        .enumerate()
        .filter(|(_, b)| *b == b'\n')
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mask_preserves_length_newlines_and_code_braces(
        picks in prop_vec(0usize..VOCAB.len(), 0..40),
    ) {
        let (src, opens, closes) = assemble(&picks);
        let masked = mask_comments_and_strings(&src);

        prop_assert_eq!(masked.len(), src.len(), "length drifted for {:?}", src);
        prop_assert_eq!(
            newline_positions(&masked),
            newline_positions(&src),
            "newline positions drifted for {:?}",
            src
        );
        let open_count = masked.bytes().filter(|b| *b == b'{').count();
        let close_count = masked.bytes().filter(|b| *b == b'}').count();
        prop_assert_eq!(
            (open_count, close_count),
            (opens, closes),
            "brace visibility drifted for {:?} -> {:?}",
            src,
            masked
        );
    }
}
