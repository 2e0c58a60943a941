"""Modal propositional formulas over finite-domain atoms.

Atoms are (variable, value) pairs written ``VAR=VAL``; a bare ``VAR`` is
sugar for ``VAR=true``.  One table, `_CONNECTIVES`, gives each connective's
text, precedence and nesting, tightest binding first: unary ~ <> [], then
&, |, -> (right-nested) and <-> (left-nested).  The tokenizer, the parser
and `render` all read it.  The grammar is in docs/grammar.ebnf.
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


class _Connective(Formula):
    """A node with formula children: equality, hash, repr, copy and pickle
    keep a stack of their own, so they answer at any depth parse accepts."""

    __slots__ = ()

    def _preorder(self):
        # nodes as their classes, other leaves as themselves: the classes fix
        # the arities, so no tree's sequence is a proper prefix of another's
        todo = [self]
        while todo:
            f = todo.pop()
            if isinstance(f, _Connective):
                yield f.__class__
                todo += reversed(f._values())
            else:
                yield f

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(a == b for a, b in zip(self._preorder(), other._preorder()))

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        out, todo = [], [(self,)]
        while todo:
            item = todo.pop()
            if isinstance(item, str):  # literal text
                out.append(item)
            elif isinstance(f := item[0], _Connective):
                out.append(f.__class__.__qualname__ + "(")
                todo.append(")")
                for i, name in reversed(list(enumerate(f._fields))):
                    todo += [(getattr(f, name),), ", " * bool(i) + name + "="]
            else:
                out.append(repr(f))
        return "".join(out)

    def __reduce__(self):
        # copy and pickle rebuild the tree from its flat preorder, where
        # Record's per-node reduction would recurse once per level
        return _from_preorder, (tuple(self._preorder()),)


def _from_preorder(items) -> Formula:
    """The tree whose `_preorder()` is items, built from the last item up."""
    stack = []
    for item in reversed(items):
        if isinstance(item, type) and issubclass(item, _Connective):
            item = item(*[stack.pop() for _ in item._fields])
        stack.append(item)
    return stack.pop()


class _Unary(_Connective):
    __slots__ = _fields = ("child",)

    def __init__(self, child: Formula):
        _set_child(self, child)


class _Binary(_Connective):
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


def _fold(node, parts, name: str) -> Formula:
    parts = list(parts)
    if not parts:
        raise ValueError(f"{name} of no formulas")
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = node(p, out)
    return out


def conj(parts) -> Formula:
    """Right-nested conjunction of one or more formulas."""
    return _fold(And, parts, "conj")


def disj(parts) -> Formula:
    """Right-nested disjunction of one or more formulas."""
    return _fold(Or, parts, "disj")


# each connective's node, text, precedence (higher binds tighter) and whether
# its chains nest to the right; parse(render(f)) == f follows from this table
_CONNECTIVES = (
    (Not, "~", 5, True),
    (Diamond, "<>", 5, True),
    (Box, "[]", 5, True),
    (And, "&", 4, True),
    (Or, "|", 3, True),
    (Implies, "->", 2, True),
    (Iff, "<->", 1, False),
)
_SPEC = {node: (text, prec, right) for node, text, prec, right in _CONNECTIVES}
_PREFIX = {text: node for node, text, _, _ in _CONNECTIVES if issubclass(node, _Unary)}
_INFIX = {text: (node, prec, right) for node, text, prec, right in _CONNECTIVES
          if issubclass(node, _Binary)}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class FormulaSyntaxError(SyntaxError):
    """Malformed formula text; carries the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}" + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


# no connective's text is a prefix of another's, so their order is free
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<op>" + "|".join(re.escape(text) for text in _PREFIX | _INFIX) + r")"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<atom>[A-Za-z][A-Za-z0-9_]*(?:=[A-Za-z0-9_]+)?)"
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


def _unexpected(token, expected: tuple[str, ...]) -> FormulaSyntaxError:
    _, text, pos = token
    return FormulaSyntaxError(f"unexpected token {text or '<end of input>'!r}", pos, expected)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_binary(self, lowest: int = 1) -> Formula:
        """An operand, then each binary connective of precedence `lowest` or
        tighter with its right operand: precedence climbing.  The right
        operand starts at the threshold below which render wraps it."""
        left = self.parse_unary()
        while (op := _INFIX.get(self.tokens[self.i][1])) and op[1] >= lowest:
            node, prec, right = op
            self.i += 1
            left = node(left, self.parse_binary(prec + (not right)))
        return left

    def parse_unary(self) -> Formula:
        tok = kind, text, _ = self.advance()
        if text in _PREFIX:
            return _PREFIX[text](self.parse_unary())
        if kind == "lparen":
            inner, close = self.parse_binary(), self.advance()
            if close[0] != "rparen":
                raise _unexpected(close, (")",))
            return inner
        if kind == "atom":
            return Atom(*text.split("=", 1))
        raise _unexpected(tok, (*_PREFIX, "(", "atom"))


def parse(text: str) -> Formula:
    """Parse formula text into an AST; raises FormulaSyntaxError on bad input."""
    p = _Parser(_tokenize(text))
    f = p.parse_binary()
    kind, rest, pos = p.advance()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {rest!r}", pos)
    return f


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _binds(f: Formula) -> int:
    """f's precedence as an operand; an atom binds tighter than any connective."""
    spec = _SPEC.get(f.__class__)
    return spec[1] if spec else 6


def _wrap(s: str, need_parens: bool) -> str:
    return f"({s})" if need_parens else s


def render(f: Formula) -> str:
    """Minimal-parenthesization text; parse(render(f)) is structurally equal to f.

    A chain nesting to the right needs parentheses around a left operand of
    its own precedence, and one nesting to the left around such a right
    operand.  Each nesting level costs one frame, as it does in the evaluator."""
    if isinstance(f, Atom):
        return f.variable if f.value == "true" else f"{f.variable}={f.value}"
    spec = _SPEC.get(f.__class__)
    if spec is None:
        raise TypeError(f"not a Formula: {f!r}")
    text, prec, right = spec
    if isinstance(f, _Unary):
        return text + _wrap(render(f.child), _binds(f.child) < prec)
    return (_wrap(render(f.left), _binds(f.left) < prec + right) + f" {text} "
            + _wrap(render(f.right), _binds(f.right) < prec + (not right)))
