import re

import pytest
from hypothesis import given, settings, strategies as st

from plfkit.formula import (
    And,
    Atom,
    Box,
    Diamond,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    conj,
    disj,
    parse,
    render,
)

p = Atom("p")
q = Atom("q")
r = Atom("r")


class TestParse:
    def test_diamond_conjunction(self):
        assert parse("<>(A=1 & B=1)") == Diamond(And(Atom("A", "1"), Atom("B", "1")))

    def test_precedence_implies_over_and(self):
        assert parse("p & q -> r") == Implies(And(p, q), r)

    def test_boxed_reading_clause(self):
        f = parse("[]((X=1) -> ((A=0)&(C=0)) | ((A=1)&(C=1)))")
        assert f == Box(Implies(
            Atom("X", "1"),
            Or(And(Atom("A", "0"), Atom("C", "0")),
               And(Atom("A", "1"), Atom("C", "1"))),
        ))

    def test_and_binds_tighter_than_or(self):
        assert parse("p & q | r") == Or(And(p, q), r)

    def test_implies_right_associative(self):
        assert parse("p -> q -> r") == Implies(p, Implies(q, r))

    def test_iff_left_associative(self):
        assert parse("p <-> q <-> r") == Iff(Iff(p, q), r)

    def test_bare_variable_is_true_sugar(self):
        assert parse("p") == Atom("p", "true")

    def test_unary_stack(self):
        assert parse("~<>~p") == Not(Diamond(Not(p)))
        assert parse("[]<>p") == Box(Diamond(p))

    @pytest.mark.parametrize("text", ["", "p &", "(p", "p )", "& p", "p q", "->", "p -> ", "p = 1"])
    def test_malformed_raises(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse(text)
        _assert_parses_as_reference(text)

    def test_error_carries_offset(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse("p & %")
        assert exc.value.offset == 4


class TestRender:
    def test_diamond_atom(self):
        assert render(Diamond(Atom("A", "1"))) == "<>A=1"

    def test_negated_diamond(self):
        assert render(Not(Diamond(Atom("A", "0")))) == "~<>A=0"

    def test_forced_parens(self):
        assert render(And(p, Or(q, r))) == "p & (q | r)"

    def test_left_nested_needs_parens(self):
        assert render(And(And(p, q), r)) == "(p & q) & r"
        assert render(And(p, And(q, r))) == "p & q & r"

    def test_implies_nesting(self):
        assert render(Implies(Implies(p, q), r)) == "(p -> q) -> r"
        assert render(Implies(p, Implies(q, r))) == "p -> q -> r"


# -- property tests ----------------------------------------------------------

_atoms = st.builds(
    Atom,
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True),
    st.one_of(st.just("true"), st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)),
)

formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Diamond, children),
        st.builds(Box, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Implies, children, children),
        st.builds(Iff, children, children),
    ),
    max_leaves=25,
)


@given(formulas)
def test_roundtrip(f):
    assert parse(render(f)) == f


@settings(max_examples=300)
@given(st.text(alphabet="pq=1&|()<>-~[] ", max_size=30))
def test_parser_total_over_token_soup(text):
    try:
        parse(text)
    except FormulaSyntaxError:
        pass


@settings(max_examples=100)
@given(st.text(max_size=30))
def test_parser_total_over_arbitrary_text(text):
    try:
        parse(text)
    except FormulaSyntaxError:
        pass


def test_conj_disj_right_nested():
    assert conj([p, q, r]) == And(p, And(q, r))
    assert disj([p, q, r]) == Or(p, Or(q, r))
    assert conj([p]) == p
    with pytest.raises(ValueError):
        conj([])
    with pytest.raises(ValueError, match="^disj of no formulas$"):
        disj([])


# -- differential test: the per-level parser and renderer --------------------
# The parser and renderer as they stood before one connective table drove
# both: a method per precedence level, precedence constants and a branch per
# connective.  The table-driven versions must answer every input as these do.

_REF_TOKEN_RE = re.compile(
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


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _RefParser:
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

    def parse_iff(self):
        left = self.parse_implies()
        while self.peek()[0] == "iff":
            self.advance()
            left = Iff(left, self.parse_implies())
        return left

    def parse_implies(self):
        left = self.parse_or()
        if self.peek()[0] == "implies":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self):
        left = self.parse_and()
        if self.peek()[0] == "or":
            self.advance()
            return Or(left, self.parse_or())
        return left

    def parse_and(self):
        left = self.parse_unary()
        if self.peek()[0] == "and":
            self.advance()
            return And(left, self.parse_and())
        return left

    def parse_unary(self):
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


def _ref_parse(text):
    p = _RefParser(_ref_tokenize(text))
    f = p.parse_iff()
    tok = p.peek()
    if tok[0] != "eof":
        raise FormulaSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return f


def _ref_prec(f):
    if isinstance(f, Atom):
        return 6
    if isinstance(f, (Not, Diamond, Box)):
        return 5
    if isinstance(f, And):
        return 4
    if isinstance(f, Or):
        return 3
    if isinstance(f, Implies):
        return 2
    return 1


def _ref_wrap(s, need_parens):
    return f"({s})" if need_parens else s


def _ref_render(f):
    if isinstance(f, Atom):
        return f.variable if f.value == "true" else f"{f.variable}={f.value}"
    if isinstance(f, Not):
        return "~" + _ref_wrap(_ref_render(f.child), _ref_prec(f.child) < 5)
    if isinstance(f, Diamond):
        return "<>" + _ref_wrap(_ref_render(f.child), _ref_prec(f.child) < 5)
    if isinstance(f, Box):
        return "[]" + _ref_wrap(_ref_render(f.child), _ref_prec(f.child) < 5)
    if isinstance(f, And):
        return (_ref_wrap(_ref_render(f.left), _ref_prec(f.left) <= 4) + " & "
                + _ref_wrap(_ref_render(f.right), _ref_prec(f.right) < 4))
    if isinstance(f, Or):
        return (_ref_wrap(_ref_render(f.left), _ref_prec(f.left) <= 3) + " | "
                + _ref_wrap(_ref_render(f.right), _ref_prec(f.right) < 3))
    if isinstance(f, Implies):
        return (_ref_wrap(_ref_render(f.left), _ref_prec(f.left) <= 2) + " -> "
                + _ref_wrap(_ref_render(f.right), _ref_prec(f.right) < 2))
    if isinstance(f, Iff):
        return (_ref_wrap(_ref_render(f.left), _ref_prec(f.left) < 1) + " <-> "
                + _ref_wrap(_ref_render(f.right), _ref_prec(f.right) <= 1))
    raise TypeError(f"not a Formula: {f!r}")


def _parsed(parse_fn, text):
    """The tree, or the error's text, offset and expected tokens."""
    try:
        return parse_fn(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.offset, exc.expected


def _assert_parses_as_reference(text):
    got, want = _parsed(parse, text), _parsed(_ref_parse, text)
    assert type(got) is type(want) and got == want
    if not isinstance(got, tuple):
        assert render(got) == _ref_render(got)


# character soup as in test_parser_total_over_token_soup, and soup of whole
# tokens, which reaches the longer connectives and deeper valid formulas
@settings(max_examples=150)
@given(st.one_of(
    st.text(alphabet="pq=1&|()<>-~[] ", max_size=30),
    st.lists(st.sampled_from(["p", "q=1", "&", "|", "->", "<->", "~", "<>", "[]", "(", ")"]),
             max_size=20).map(" ".join),
))
def test_parser_matches_the_reference_over_token_soup(text):
    _assert_parses_as_reference(text)


_UNARY, _BINARY = (Not, Diamond, Box), (And, Or, Implies, Iff)


def _over(node, f):
    return node(f) if node in _UNARY else node(f, f)


@settings(max_examples=25)
@given(formulas)
def test_render_matches_the_reference(f):
    # f under each pair of connectives, inner one on either side: every
    # precedence and nesting rule meets an operand of every kind
    trees = [f] + [outer(_over(inner, f)) for outer in _UNARY for inner in _UNARY + _BINARY]
    trees += [outer(*sides) for outer in _BINARY for inner in _UNARY + _BINARY
              for sides in [(_over(inner, f), f), (f, _over(inner, f))]]
    for g in trees:
        assert render(g) == _ref_render(g)
        _assert_parses_as_reference(render(g))


@pytest.mark.parametrize("f, shown", [("x", "'x'"), (And(p, 3), "3"), (Not(None), "None")])
def test_render_refuses_a_non_formula(f, shown):
    with pytest.raises(TypeError, match=rf"^not a Formula: {re.escape(shown)}$"):
        render(f)
    with pytest.raises(TypeError, match=rf"^not a Formula: {re.escape(shown)}$"):
        _ref_render(f)
