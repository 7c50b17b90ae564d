"""Minimal loop-nest IR for tensor programs.

A program is a tree of `for` loops whose leaves are `compute` statements
carrying aggregate per-iteration operation/byte counts. Textual form:

    program NAME {
      for i in 0..4 @parallel {
        compute body { fma=2 bytes_read=16 bytes_written=8 }
      }
    }

Grammar (UTF-8, `#` line comments):

    program := "program" IDENT "{" stmt+ "}"
    stmt    := loop | compute
    loop    := "for" IDENT "in" "0.." INT annot* "{" stmt+ "}"
    annot   := "@vectorize" | "@unroll" | "@parallel"
    compute := "compute" IDENT "{" (KEY "=" INT)+ "}"

with KEY in {fma, add, mul, div, special, bytes_read, bytes_written,
buffers_read, buffers_written}. Loop bounds are always `0..extent` with
extent >= 1. Conditionals are not supported.

Parsing is pure and deterministic; trees are immutable after construction.
`parse_program` checks a text in one pass: the tokenizer (plain
(kind, text, line, col) tuples) raises ParseError for a bad character or
annotation, and the parser, walking the token list by index, raises
ParseError for bad syntax or an integer that `int()` rejects and
ValidationError for an invalid value (extent < 1, a duplicate annotation or
key, an empty body, a compute leaf without work). It counts leaves and loop
depth as it goes, so the tree is not walked again: then come the
multi-statement nesting limit and the leaf budget. `make_program` validates
a tree built by hand with the same rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError

ANNOTATIONS = ("vectorize", "unroll", "parallel")

# Grammar KEY -> ComputeStats field.
_STAT_KEYS = {
    "fma": "fma_count",
    "add": "add_count",
    "mul": "mul_count",
    "div": "div_count",
    "special": "special_count",
    "bytes_read": "bytes_read",
    "bytes_written": "bytes_written",
    "buffers_read": "buffers_read",
    "buffers_written": "buffers_written",
}

MAX_LEAVES_DEFAULT = 16
_MAX_NEST_DEPTH = 64  # parser guard so pathological input cannot blow the stack


@dataclass(frozen=True)
class ComputeStats:
    """Aggregate per-innermost-iteration statistics of one compute leaf."""

    fma_count: int = 0
    add_count: int = 0
    mul_count: int = 0
    div_count: int = 0
    special_count: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    buffers_read: int = 0
    buffers_written: int = 0

    def validate(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
        work = (self.fma_count + self.add_count + self.mul_count
                + self.div_count + self.special_count
                + self.bytes_read + self.bytes_written)
        if work == 0:
            raise ValidationError("compute leaf has no ops and no bytes")


@dataclass(frozen=True)
class LoopInfo:
    var_name: str
    extent: int
    annotations: frozenset[str] = frozenset()

    def validate(self) -> None:
        if self.extent < 1:
            raise ValidationError(
                f"loop '{self.var_name}': extent must be >= 1, got {self.extent}")
        bad = set(self.annotations) - set(ANNOTATIONS)
        if bad:
            raise ValidationError(f"unknown annotations: {sorted(bad)}")


@dataclass(frozen=True)
class AstNode:
    """Tree node: either a loop (with children) or a compute leaf (without)."""

    kind: str  # "loop" | "leaf"
    loop: LoopInfo | None = None
    stats: ComputeStats | None = None
    label: str = ""  # compute name; empty for loops
    children: tuple["AstNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.kind == "leaf"


def loop(info: LoopInfo, children: tuple[AstNode, ...] | list[AstNode]) -> AstNode:
    return AstNode(kind="loop", loop=info, children=tuple(children))


def leaf(label: str, stats: ComputeStats) -> AstNode:
    return AstNode(kind="leaf", stats=stats, label=label)


@dataclass(frozen=True)
class ProgramAst:
    root: AstNode
    name: str
    n_leaf: int


def _walk_validate(node: AstNode, depth: int) -> int:
    """Validate a subtree, returning its leaf count."""
    if depth > _MAX_NEST_DEPTH:
        raise ValidationError(f"nesting deeper than {_MAX_NEST_DEPTH}")
    if node.kind == "leaf":
        if node.children:
            raise ValidationError("leaf node must have no children")
        if node.stats is None:
            raise ValidationError("leaf node missing stats")
        node.stats.validate()
        return 1
    if node.kind != "loop":
        raise ValidationError(f"unknown node kind {node.kind!r}")
    if node.loop is None:
        raise ValidationError("loop node missing loop info")
    node.loop.validate()
    if not node.children:
        raise ValidationError(f"loop '{node.loop.var_name}' has empty body")
    return sum(_walk_validate(c, depth + 1) for c in node.children)


def make_program(name: str, root: AstNode,
                 max_leaves: int = MAX_LEAVES_DEFAULT) -> ProgramAst:
    """Validate a tree and wrap it into a ProgramAst with its leaf count."""
    n = _walk_validate(root, 0)
    if n > max_leaves:
        raise ValidationError(f"program has {n} leaves, maximum is {max_leaves}")
    return ProgramAst(root=root, name=name, n_leaf=n)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per lexeme, the common ones first, after the blanks that
# lead up to it. Every character but " \t\r" starts a lexeme (`other` catches
# the rest), so the matches skip exactly the blanks between tokens. `\w`
# matches the characters for which `str.isalnum()` holds, plus "_", but `\d`
# only decimal digits, a subset of `str.isdigit()`: a run of word characters
# that is not a plain ASCII-led identifier or a decimal number on its own goes
# to `word`, which splits it by `isdigit` and `isalpha`.
_LEXEME = re.compile(
    r"[ \t\r]*(?:(?P<ident>[A-Za-z_]\w*)|(?P<punct>\.\.|[{}=])"
    r"|(?P<int>\d+(?!\w))|(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|(?P<annot>@\w*)|(?P<word>\w+)|(?P<other>[^ \t\r]))")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, col) tuples, kind one of ident, int, punct, annot
    and eof; the eof token ends the list."""
    tokens = []
    append = tokens.append
    line, line_start = 1, 0
    end = len(text)  # where the last line ends for the eof column
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "ident" or kind == "punct" or kind == "int":
            append((kind, m[kind], line, m.start(kind) - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = m.end()
            end = len(text)
        elif kind == "comment":  # a comment does not advance the column
            end = m.start(kind)
        else:
            word, col = m[kind], m.start(kind) - line_start + 1
            if kind == "annot":
                if word[1:] not in ANNOTATIONS:
                    raise ParseError(f"unknown annotation '{word}'", line, col)
                append(("annot", word[1:], line, col))
            elif kind == "word":
                # an int of any digits (such as "²"), then an identifier
                k = 0
                while k < len(word) and word[k].isdigit():
                    k += 1
                if k:
                    append(("int", word[:k], line, col))
                if k < len(word):
                    if not (word[k].isalpha() or word[k] == "_"):
                        raise ParseError(f"unexpected character {word[k]!r}",
                                         line, col + k)
                    append(("ident", word[k:], line, col + k))
            else:
                msg = ("expected '..'" if word == "."
                       else f"unexpected character {word!r}")
                raise ParseError(msg, line, col)
    append(("eof", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with an explicit depth guard)
# ---------------------------------------------------------------------------

class _Parser:
    """Reads the token list by index: `pos` is the next token. The eof token
    matches no check, so no check reads past it. Keyword and punctuation
    texts belong to one token kind each, so a check for one compares the
    text alone. Counts leaves and records the deepest loop as it goes."""

    def __init__(self, tokens: list[tuple[str, str, int, int]]):
        self.tokens = tokens
        self.pos = 0
        self.n_leaf = 0
        self.deepest = -1  # nesting depth of the deepest loop

    def expected(self, want: str, pos: int) -> ParseError:
        kind, text, line, col = self.tokens[pos]
        got = text if kind != "eof" else "end of input"
        return ParseError(f"expected {want!r}, got {got!r}", line, col)

    def parse_program(self) -> tuple[str, list[AstNode]]:
        tokens = self.tokens
        if tokens[0][1] != "program":
            raise self.expected("program", 0)
        kind, name, _, _ = tokens[1]
        if kind != "ident":
            raise self.expected("ident", 1)
        if tokens[2][1] != "{":
            raise self.expected("{", 2)
        self.pos = 3
        stmts = self.parse_stmts(0)
        pos = self.pos
        if tokens[pos][1] != "}":
            raise self.expected("}", pos)
        kind, text, line, col = tokens[pos + 1]
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", line, col)
        return name, stmts

    def parse_stmts(self, depth: int) -> list[AstNode]:
        stmts = []
        tokens = self.tokens
        while True:
            text = tokens[self.pos][1]
            if text == "for":
                stmts.append(self.parse_loop(depth))
            elif text == "compute":
                stmts.append(self.parse_compute())
            else:
                return stmts

    def parse_loop(self, depth: int) -> AstNode:
        tokens, pos = self.tokens, self.pos  # tokens[pos] is `for`
        if depth >= _MAX_NEST_DEPTH:
            _, _, line, col = tokens[pos]
            raise ParseError(f"nesting deeper than {_MAX_NEST_DEPTH}", line, col)
        kind, var, _, _ = tokens[pos + 1]
        if kind != "ident":
            raise self.expected("ident", pos + 1)
        if tokens[pos + 2][1] != "in":
            raise self.expected("in", pos + 2)
        kind, lower, line, col = tokens[pos + 3]
        if kind != "int":
            raise self.expected("int", pos + 3)
        if lower != "0":
            raise ParseError("loop lower bound must be 0", line, col)
        if tokens[pos + 4][1] != "..":
            raise self.expected("..", pos + 4)
        kind, text, line, col = tokens[pos + 5]
        if kind != "int":
            raise self.expected("int", pos + 5)
        try:
            extent = int(text)
        except ValueError:  # non-decimal digits such as "²", or too many digits
            raise ParseError(f"invalid integer {text!r}", line, col) from None
        if extent < 1:
            raise ValidationError(f"loop '{var}': extent must be >= 1, got {extent}")
        pos += 6
        annots: list[str] = []
        while tokens[pos][0] == "annot":
            word = tokens[pos][1]
            if word in annots:
                raise ValidationError(f"duplicate annotation '@{word}'")
            annots.append(word)
            pos += 1
        if tokens[pos][1] != "{":
            raise self.expected("{", pos)
        self.pos = pos + 1
        body = self.parse_stmts(depth + 1)
        pos = self.pos
        if tokens[pos][1] != "}":
            raise self.expected("}", pos)
        self.pos = pos + 1
        if not body:
            raise ValidationError(
                f"loop '{var}' near line {tokens[pos][2]} has an empty body")
        self.deepest = max(self.deepest, depth)
        info = LoopInfo(var_name=var, extent=extent, annotations=frozenset(annots))
        return loop(info, body)

    def parse_compute(self) -> AstNode:
        tokens, pos = self.tokens, self.pos  # tokens[pos] is `compute`
        kind, name, _, _ = tokens[pos + 1]
        if kind != "ident":
            raise self.expected("ident", pos + 1)
        if tokens[pos + 2][1] != "{":
            raise self.expected("{", pos + 2)
        pos += 3
        fields: dict[str, int] = {}
        while tokens[pos][0] == "ident":
            _, key, line, col = tokens[pos]
            if key not in _STAT_KEYS:
                raise ParseError(f"unknown stat key '{key}'", line, col)
            field_name = _STAT_KEYS[key]
            if field_name in fields:
                raise ValidationError(f"compute '{name}': duplicate key '{key}'")
            if tokens[pos + 1][1] != "=":
                raise self.expected("=", pos + 1)
            kind, text, line, col = tokens[pos + 2]
            if kind != "int":
                raise self.expected("int", pos + 2)
            try:
                fields[field_name] = int(text)
            except ValueError:  # as for a loop extent
                raise ParseError(f"invalid integer {text!r}", line, col) from None
            pos += 3
        if not fields:
            _, _, line, col = tokens[pos]
            raise ParseError("compute block needs at least one key=value",
                             line, col)
        if tokens[pos][1] != "}":
            raise self.expected("}", pos)
        self.pos = pos + 1
        stats = ComputeStats(**fields)
        stats.validate()
        self.n_leaf += 1
        return leaf(name, stats)


def parse_program(text: str, max_leaves: int = MAX_LEAVES_DEFAULT) -> ProgramAst:
    """Parse IR text into a validated ProgramAst.

    Raises ParseError on malformed input and ValidationError on
    grammatical-but-invalid programs (extent < 1, empty body, too many
    leaves). Never raises anything else, for any input string.
    """
    parser = _Parser(_tokenize(text))
    name, stmts = parser.parse_program()
    if not stmts:
        raise ValidationError(f"program '{name}' has no statements")
    if len(stmts) == 1:
        root = stmts[0]
    else:
        # Multiple top-level statements share an implicit extent-1 loop so the
        # tree has a single root. It puts them one level deeper: the leaves
        # of a 64-deep nest would lie past the limit `make_program` enforces.
        if parser.deepest + 2 > _MAX_NEST_DEPTH:
            raise ValidationError(f"nesting deeper than {_MAX_NEST_DEPTH}")
        root = loop(LoopInfo(var_name="_root", extent=1), stmts)
    if parser.n_leaf > max_leaves:
        raise ValidationError(
            f"program has {parser.n_leaf} leaves, maximum is {max_leaves}")
    return ProgramAst(root=root, name=name, n_leaf=parser.n_leaf)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_FIELD_TO_KEY = {v: k for k, v in _STAT_KEYS.items()}


def _print_node(node: AstNode, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if node.is_leaf:
        parts = []
        for key, field_name in _STAT_KEYS.items():
            value = getattr(node.stats, field_name)
            if value != 0:
                parts.append(f"{key}={value}")
        out.append(f"{pad}compute {node.label} {{ {' '.join(parts)} }}")
        return
    info = node.loop
    annots = "".join(f" @{a}" for a in ANNOTATIONS if a in info.annotations)
    out.append(f"{pad}for {info.var_name} in 0..{info.extent}{annots} {{")
    for child in node.children:
        _print_node(child, indent + 1, out)
    out.append(f"{pad}}}")


def print_program(ast: ProgramAst) -> str:
    """Canonical textual form; parse(print_program(ast)) is structurally
    identical to ast."""
    out = [f"program {ast.name} {{"]
    _print_node(ast.root, 1, out)
    out.append("}")
    return "\n".join(out) + "\n"
