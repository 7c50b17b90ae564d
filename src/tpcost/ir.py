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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    n_leaf: int = field(default=0)


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


def count_leaves(ast: ProgramAst) -> int:
    """Number of compute leaves; iterative so arbitrary depth is safe."""
    n = 0
    stack = [ast.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            n += 1
        else:
            stack.extend(node.children)
    return n


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | punct | annot | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == ".":
            if text[i:i + 2] == "..":
                tokens.append(_Token("punct", "..", start_line, start_col))
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
            tokens.append(_Token("annot", word, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent with an explicit depth guard)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {want!r}, got {got!r}", tok.line, tok.col)
        return self.next()

    def expect_int(self) -> int:
        tok = self.expect("int")
        return int(tok.text)

    def parse_program(self) -> tuple[str, list[AstNode]]:
        self.expect("ident", "program")
        name = self.expect("ident").text
        self.expect("punct", "{")
        stmts = self.parse_stmts(0)
        self.expect("punct", "}")
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return name, stmts

    def parse_stmts(self, depth: int) -> list[AstNode]:
        stmts = []
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "for":
                stmts.append(self.parse_loop(depth))
            elif tok.kind == "ident" and tok.text == "compute":
                stmts.append(self.parse_compute())
            else:
                return stmts

    def parse_loop(self, depth: int) -> AstNode:
        if depth >= _MAX_NEST_DEPTH:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {_MAX_NEST_DEPTH}", tok.line, tok.col)
        self.expect("ident", "for")
        var = self.expect("ident").text
        self.expect("ident", "in")
        lo_tok = self.expect("int")
        if lo_tok.text != "0":
            raise ParseError("loop lower bound must be 0", lo_tok.line, lo_tok.col)
        self.expect("punct", "..")
        extent = self.expect_int()
        if extent < 1:
            raise ValidationError(f"loop '{var}': extent must be >= 1, got {extent}")
        annots: list[str] = []
        while self.peek().kind == "annot":
            tok = self.next()
            if tok.text in annots:
                raise ValidationError(f"duplicate annotation '@{tok.text}'")
            annots.append(tok.text)
        self.expect("punct", "{")
        body = self.parse_stmts(depth + 1)
        close = self.expect("punct", "}")
        if not body:
            raise ValidationError(
                f"loop '{var}' near line {close.line} has an empty body")
        info = LoopInfo(var_name=var, extent=extent, annotations=frozenset(annots))
        return loop(info, body)

    def parse_compute(self) -> AstNode:
        self.expect("ident", "compute")
        name = self.expect("ident").text
        self.expect("punct", "{")
        fields: dict[str, int] = {}
        while self.peek().kind == "ident":
            key_tok = self.next()
            if key_tok.text not in _STAT_KEYS:
                raise ParseError(f"unknown stat key '{key_tok.text}'",
                                 key_tok.line, key_tok.col)
            field_name = _STAT_KEYS[key_tok.text]
            if field_name in fields:
                raise ValidationError(
                    f"compute '{name}': duplicate key '{key_tok.text}'")
            self.expect("punct", "=")
            fields[field_name] = self.expect_int()
        if not fields:
            tok = self.peek()
            raise ParseError("compute block needs at least one key=value",
                             tok.line, tok.col)
        self.expect("punct", "}")
        stats = ComputeStats(**fields)
        stats.validate()
        return leaf(name, stats)


def parse_program(text: str, max_leaves: int = MAX_LEAVES_DEFAULT) -> ProgramAst:
    """Parse IR text into a validated ProgramAst.

    Raises ParseError on malformed input and ValidationError on
    grammatical-but-invalid programs (extent < 1, empty body, too many
    leaves). Never raises anything else, for any input string.
    """
    name, stmts = _Parser(_tokenize(text)).parse_program()
    if not stmts:
        raise ValidationError(f"program '{name}' has no statements")
    if len(stmts) == 1:
        root = stmts[0]
    else:
        # Multiple top-level statements share an implicit extent-1 loop so the
        # tree has a single root.
        root = loop(LoopInfo(var_name="_root", extent=1), stmts)
    return make_program(name, root, max_leaves=max_leaves)


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
