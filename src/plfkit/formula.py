"""Modal propositional formulas over finite-domain atoms.

Atoms are (variable, value) pairs written ``VAR=VAL``; a bare ``VAR`` is
sugar for ``VAR=true``.  Connectives, tightest binding first:

    unary   ~  <>  []
    &
    |
    ->      (right-associative)
    <->     (left-associative)

The concrete grammar is documented in docs/grammar.ebnf.
"""

from __future__ import annotations

import re

from ._record import Record

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Diamond",
    "Box",
    "FormulaSyntaxError",
    "parse",
    "render",
    "conj",
    "disj",
]

_VARIABLE_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_VALUE_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class Formula(Record):
    """Base class for all formula nodes."""

    __slots__ = ()


class Atom(Formula):
    """A statement that a scenario variable takes a particular value."""

    __slots__ = _fields = ("variable", "value")

    def __init__(self, variable: str, value: str = "true"):
        if not _VARIABLE_RE.match(variable):
            raise ValueError(f"bad atom variable: {variable!r}")
        if not _VALUE_RE.match(value):
            raise ValueError(f"bad atom value: {value!r}")
        _set_variable(self, variable)
        _set_value(self, value)


class _Unary(Formula):
    __slots__ = _fields = ("child",)

    def __init__(self, child: Formula):
        _set_child(self, child)


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)


# the slots' own setters, which skip the name lookup of object.__setattr__:
# encode builds hundreds of nodes per behavior
_set_variable, _set_value = Atom.variable.__set__, Atom.value.__set__
_set_child = _Unary.child.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class Diamond(_Unary):
    """Possibly: true at w iff the child holds at some world accessible from w."""

    __slots__ = ()


class Box(_Unary):
    """Necessarily: true at w iff the child holds at every world accessible from w."""

    __slots__ = ()


def conj(parts) -> Formula:
    """Right-nested conjunction of one or more formulas."""
    parts = list(parts)
    if not parts:
        raise ValueError("conj of no formulas")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts) -> Formula:
    """Right-nested disjunction of one or more formulas."""
    parts = list(parts)
    if not parts:
        raise ValueError("disj of no formulas")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class FormulaSyntaxError(SyntaxError):
    """Malformed formula text; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<implies>->)
  | (?P<diamond><>)
  | (?P<box>\[\])
  | (?P<not>~)
  | (?P<and>&)
  | (?P<or>\|)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<atom>[A-Za-z][A-Za-z0-9_]*(?:=[A-Za-z0-9_]+)?)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"unexpected token {tok[1] or '<end of input>'!r}", tok[2], expected)
        return self.advance()

    # <-> binds loosest, left-associative
    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        while self.peek()[0] == "iff":
            self.advance()
            left = Iff(left, self.parse_implies())
        return left

    # -> right-associative
    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "implies":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        if self.peek()[0] == "or":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        if self.peek()[0] == "and":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "not":
            self.advance()
            return Not(self.parse_unary())
        if kind == "diamond":
            self.advance()
            return Diamond(self.parse_unary())
        if kind == "box":
            self.advance()
            return Box(self.parse_unary())
        if kind == "lparen":
            self.advance()
            inner = self.parse_iff()
            self.expect("rparen", (")",))
            return inner
        if kind == "atom":
            self.advance()
            if "=" in text:
                var, val = text.split("=", 1)
                return Atom(var, val)
            return Atom(text)
        raise FormulaSyntaxError(
            f"unexpected token {text or '<end of input>'!r}", pos,
            ("~", "<>", "[]", "(", "atom"),
        )


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises FormulaSyntaxError on bad input."""
    p = _Parser(_tokenize(text))
    f = p.parse_iff()
    tok = p.peek()
    if tok[0] != "eof":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC_ATOM = 6
_PREC_UNARY = 5
_PREC_AND = 4
_PREC_OR = 3
_PREC_IMPLIES = 2
_PREC_IFF = 1


def _prec(f: Formula) -> int:
    if isinstance(f, Atom):
        return _PREC_ATOM
    if isinstance(f, (Not, Diamond, Box)):
        return _PREC_UNARY
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, Implies):
        return _PREC_IMPLIES
    return _PREC_IFF


def _wrap(f: Formula, need_parens: bool) -> str:
    s = render(f)
    return f"({s})" if need_parens else s


def render(f: Formula) -> str:
    """Minimal-parenthesization text; parse(render(f)) is structurally equal to f."""
    if isinstance(f, Atom):
        return f.variable if f.value == "true" else f"{f.variable}={f.value}"
    if isinstance(f, Not):
        return "~" + _wrap(f.child, _prec(f.child) < _PREC_UNARY)
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.child, _prec(f.child) < _PREC_UNARY)
    if isinstance(f, Box):
        return "[]" + _wrap(f.child, _prec(f.child) < _PREC_UNARY)
    if isinstance(f, And):
        # & parses right-nested, so a left-nested And needs parentheses
        return _wrap(f.left, _prec(f.left) <= _PREC_AND) + " & " + _wrap(f.right, _prec(f.right) < _PREC_AND)
    if isinstance(f, Or):
        return _wrap(f.left, _prec(f.left) <= _PREC_OR) + " | " + _wrap(f.right, _prec(f.right) < _PREC_OR)
    if isinstance(f, Implies):
        return _wrap(f.left, _prec(f.left) <= _PREC_IMPLIES) + " -> " + _wrap(f.right, _prec(f.right) < _PREC_IMPLIES)
    if isinstance(f, Iff):
        return _wrap(f.left, _prec(f.left) < _PREC_IFF) + " <-> " + _wrap(f.right, _prec(f.right) <= _PREC_IFF)
    raise TypeError(f"not a Formula: {f!r}")
