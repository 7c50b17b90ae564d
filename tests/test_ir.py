import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_program
from tpcost.errors import ParseError, ValidationError
from tpcost.ir import (ANNOTATIONS, ComputeStats, LoopInfo, _tokenize,
                       count_leaves, leaf, loop, make_program, parse_program,
                       print_program)

SIMPLE = "for i in 0..4 { compute A { fma=2 bytes_read=16 bytes_written=8 } }"


def test_parse_single_loop_single_leaf():
    ast = parse_program("program p { " + SIMPLE + " }")
    assert ast.name == "p"
    assert ast.n_leaf == 1
    root = ast.root
    assert root.kind == "loop"
    assert root.loop.var_name == "i"
    assert root.loop.extent == 4
    assert len(root.children) == 1
    child = root.children[0]
    assert child.is_leaf
    assert child.stats.fma_count == 2
    assert child.stats.bytes_read == 16
    assert child.stats.bytes_written == 8


def test_parse_fused_conv_relu_shape():
    # two nested loop nests sharing one outer loop, one leaf each
    text = """
    # fused conv + relu, modeled as two inner nests under a shared loop
    program conv_relu {
      for n in 0..8 {
        for c in 0..16 @vectorize {
          compute conv { fma=9 bytes_read=72 bytes_written=4 buffers_read=2 buffers_written=1 }
        }
        for c2 in 0..16 {
          compute relu { special=1 bytes_read=4 bytes_written=4 buffers_read=1 buffers_written=1 }
        }
      }
    }
    """
    ast = parse_program(text)
    assert ast.n_leaf == 2
    assert count_leaves(ast) == 2
    outer = ast.root
    assert outer.loop.var_name == "n"
    assert [c.loop.var_name for c in outer.children] == ["c", "c2"]


def test_zero_extent_rejected():
    with pytest.raises(ValidationError):
        parse_program("program p { for i in 0..0 { compute a { fma=1 } } }")


def test_empty_loop_body_rejected():
    with pytest.raises(ValidationError):
        parse_program("program p { for i in 0..4 { } }")


def test_empty_program_rejected():
    with pytest.raises(ValidationError):
        parse_program("program p { }")


def test_nonzero_lower_bound_rejected():
    with pytest.raises(ParseError):
        parse_program("program p { for i in 1..4 { compute a { fma=1 } } }")


def test_unknown_stat_key_rejected():
    with pytest.raises(ParseError):
        parse_program("program p { for i in 0..2 { compute a { flops=1 } } }")


def test_duplicate_annotation_rejected():
    with pytest.raises(ValidationError):
        parse_program(
            "program p { for i in 0..2 @unroll @unroll { compute a { fma=1 } } }")


def test_leaf_budget_enforced():
    body = " ".join(f"compute c{i} {{ fma=1 }}" for i in range(17))
    text = "program p { for i in 0..2 { " + body + " } }"
    with pytest.raises(ValidationError):
        parse_program(text)
    # and the same program passes with a larger budget
    assert parse_program(text, max_leaves=32).n_leaf == 17


def test_deep_nesting_reports_parse_error():
    text = ("program p { " + "for a in 0..2 { " * 80
            + "compute x { fma=1 } " + "} " * 80 + "}")
    with pytest.raises(ParseError):
        parse_program(text)


def test_count_leaves_examples():
    single = parse_program("program p { " + SIMPLE + " }")
    assert count_leaves(single) == 1
    balanced = parse_program("""
    program b {
      for i in 0..2 {
        for j in 0..2 { compute a { fma=1 } compute b { fma=1 } }
        for k in 0..2 { compute c { fma=1 } compute d { fma=1 } }
      }
    }""")
    assert count_leaves(balanced) == 4
    two_leaf = parse_program("""
    program two {
      for i in 0..2 { for j in 0..3 { compute a { fma=1 } } compute b { add=1 } }
    }""")
    assert count_leaves(two_leaf) == 2


def _brute_count(node):
    if node.is_leaf:
        return 1
    return sum(_brute_count(c) for c in node.children)


def test_count_leaves_matches_bruteforce_on_random_trees(rng):
    for _ in range(60):
        ast = rand_program(rng, max_depth=8)
        assert count_leaves(ast) == _brute_count(ast.root) == ast.n_leaf


def test_roundtrip_on_random_trees(rng):
    for _ in range(60):
        ast = rand_program(rng)
        printed = print_program(ast)
        reparsed = parse_program(printed)
        assert reparsed.root == ast.root
        assert reparsed.name == ast.name
        # printing again is a fixpoint
        assert print_program(reparsed) == printed


def test_roundtrip_multi_statement_program():
    text = """program multi {
      for i in 0..4 { compute a { fma=1 } }
      for j in 0..5 { compute b { add=2 } }
    }"""
    ast = parse_program(text)
    assert ast.n_leaf == 2
    assert ast.root.loop.var_name == "_root"  # implicit shared root
    again = parse_program(print_program(ast))
    assert again.root == ast.root


def test_parse_determinism():
    text = "program p { " + SIMPLE + " }"
    assert parse_program(text) == parse_program(text)


def test_fuzz_never_crashes(rng):
    for _ in range(300):
        n = int(rng.integers(0, 200))
        blob = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        text = blob.decode("utf-8", errors="replace")
        try:
            ast = parse_program(text)
            assert ast.n_leaf >= 1
        except (ParseError, ValidationError):
            pass


def test_fuzz_structured_fragments(rng):
    vocab = ["program", "for", "in", "compute", "{", "}", "0..", "0", "4",
             "@parallel", "@vectorize", "fma", "=", "p", "i", "#c\n"]
    for _ in range(300):
        k = int(rng.integers(1, 30))
        text = " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(k))
        try:
            parse_program(text)
        except (ParseError, ValidationError):
            pass


def test_validation_of_programmatic_trees():
    with pytest.raises(ValidationError):
        make_program("p", loop(LoopInfo("i", 3), ()))  # empty body
    with pytest.raises(ValidationError):
        make_program("p", leaf("c", ComputeStats()))  # all-zero stats
    with pytest.raises(ValidationError):
        make_program("p", loop(LoopInfo("i", 0),
                               (leaf("c", ComputeStats(fma_count=1)),)))


# ---------------------------------------------------------------------------
# Tokenizer against the character-loop reference, and parse_program's
# exception promise, over generated strings
# ---------------------------------------------------------------------------

def _reference_tokenize(text):
    """The character-by-character tokenizer that the regex tokenizer
    replaced, kept as the reference. Returns (kind, text, line, col) tuples."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "{}=":
            tokens.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == ".":
            if text[i:i + 2] == "..":
                tokens.append(("punct", "..", start_line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError("expected '..'", start_line, start_col)
        if ch == "@":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i + 1:j]
            if word not in ANNOTATIONS:
                raise ParseError(f"unknown annotation '@{word}'", start_line, start_col)
            tokens.append(("annot", word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(("eof", "", line, col))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except ParseError as e:
        return (type(e), str(e), e.line, e.col)


# The grammar's own characters plus the ones where `\d` and `str.isdigit`
# or `\w` and `str.isalpha` disagree: superscript and Arabic-Indic digits,
# a vulgar fraction, a roman numeral, a non-ASCII letter and a lone dot.
_GRAMMAR_ALPHABET = ("programforinc0123456789_ {}=.@#\n\t\r"
                     "vectorizeunrollparallelfmabytes_read"
                     "²¹³٣½Ⅻéß")
_grammar_text = st.text(alphabet=_GRAMMAR_ALPHABET, max_size=80)
_grammar_words = st.lists(
    st.sampled_from(["program", "p", "for", "i", "in", "0", "0..", "..", "4",
                     "²", "¹", "٣", "½", "{", "}", "=", "fma", "bytes_read",
                     "compute", "@parallel", "@unroll", "@vec", "@", "#x\n",
                     "#", " ", "\n", "\t", "é"]),
    max_size=40).map("".join)
# Well-formed programs except for the integers, which may hold digits that
# int() rejects.
_int_text = st.text(alphabet="0123456789²¹٣", min_size=1, max_size=4)
_program_like = st.builds(
    "program p {{ for i in 0..{} {} {{ compute c {{ {}={} }} }} }}".format,
    _int_text, st.sampled_from(["", "@parallel", "@unroll @unroll"]),
    st.sampled_from(["fma", "bytes_read", "flops"]), _int_text)


@settings(max_examples=400)
@given(st.one_of(st.text(max_size=60), _grammar_text, _grammar_words))
def test_tokenizer_matches_reference(text):
    assert _tokens_or_error(_tokenize, text) == \
        _tokens_or_error(_reference_tokenize, text)


@settings(max_examples=400)
@given(st.one_of(st.text(max_size=80), _grammar_text, _grammar_words,
                 _program_like))
def test_parse_program_raises_only_parse_or_validation_errors(text):
    try:
        assert parse_program(text).n_leaf >= 1
    except (ParseError, ValidationError):
        pass


@pytest.mark.parametrize("extent, count", [("²", "1"), ("4", "¹")])
def test_invalid_integer_is_parse_error(extent, count):
    # str.isdigit accepts superscripts, int() rejects them
    text = f"program p {{ for i in 0..{extent} {{ compute a {{ fma={count} }} }} }}"
    bad = extent if extent == "²" else count
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert (info.value.line, info.value.col) == (1, text.index(bad) + 1)
    assert "invalid integer" in str(info.value)
