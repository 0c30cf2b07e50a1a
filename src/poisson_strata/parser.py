"""Recursive-descent parser for algebra expressions.

Grammar (whitespace-insensitive, juxtaposition means product):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor ('*'? factor)*
    factor  := primary ('^' INT)*
    primary := RATIONAL | VAR | '(' expr ')' | '{' expr ',' expr '}'
    RATIONAL:= digits ('/' digits)?
    VAR     := (y | x | Y | X | Omega) digits

Bracket pairs {f, g} are only meaningful when evaluating against a Poisson
structure.  Syntax errors, and numbers past the digit limit of `int()`,
carry the offending offset.

The tree has the grammar's shape: a sum, a product and a power tower are
one node each, holding their operands in order, and a chain of one
operand is that operand itself.  A leading minus is the product of -1 and
the first term, and parentheses make no node.  Parentheses and brackets
nest at most MAX_NESTING deep, which keeps parsing and evaluation well
inside the interpreter's default recursion limit at any chain length.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .algebra_an import PairParams, PoissonParams, named_element
from .algebra_kn import NCElement, QuantumParams, nc_multiply
from .exact_poly import DEFAULT_STEP_BUDGET, LaurentPoly, StepBudget


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Sum:
    first: "Expr"
    rest: tuple[tuple[str, "Expr"], ...]  # ("+" or "-", term) pairs


@dataclass(frozen=True)
class Product:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class Bracket:
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Sum, Product, Power, Bracket]

MAX_NESTING = 100

_VAR_RE = re.compile(r"(Omega|y|x|Y|X)([0-9]+)$")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<ident>[A-Za-z]+[0-9]*)|(?P<op>[-+*^(){},]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        ast = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return ast

    def expr(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            first: Expr = Product((Num(Fraction(-1)), self.term()))
        else:
            first = self.term()
        rest = []
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            rest.append((self.advance()[1], self.term()))
        return Sum(first, tuple(rest)) if rest else first

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.advance()
            elif kind not in ("number", "ident") and not (kind == "op" and text in "({"):
                break
            factors.append(self.factor())
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def factor(self) -> Expr:
        base = self.primary()
        exponents = []
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            sign = 1
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                sign = -1
            kind, text, pos = self.peek()
            if kind != "number" or "/" in text:
                raise ParseError("expected an integer exponent", pos)
            self.advance()
            exponents.append(sign * int(text))
        return Power(base, tuple(exponents)) if exponents else base

    def primary(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            if "/" in text:
                num, den = map(int, text.split("/"))
                if not den:
                    raise ParseError(f"zero denominator in {text!r}", pos)
                return Num(Fraction(num, den))
            return Num(Fraction(int(text)))
        if kind == "ident":
            if not _VAR_RE.match(text):
                raise ParseError(f"not a variable name: {text!r}", pos)
            return Var(text)
        if kind == "op" and text in "({":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses and brackets nest deeper than {MAX_NESTING}", pos)
            if text == "(":
                node = self.expr()
                self.expect_op(")")
            else:
                left = self.expr()
                self.expect_op(",")
                node = Bracket(left, self.expr())
                self.expect_op("}")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse_expr(text: str) -> Expr:
    limit = sys.get_int_max_str_digits()  # int() reads every number and index up to it
    digits = limit and re.search(rf"[0-9]{{{limit + 1}}}", text)
    if digits:
        raise ParseError(f"number has more than {limit} digits", digits.start())
    return _Parser(text).parse()


def _evaluate(ast: Expr, leaf: Callable, mul: Callable, power: Callable):
    """Evaluate bottom-up, operands left to right.

    Each sum, product and power tower is walked in a loop and recursion
    enters only its operands and bracket arguments, so its depth is bounded
    by the parser's nesting bound.  `leaf(node, ev)` evaluates a number,
    variable or bracket.
    """

    def ev(node: Expr):
        if isinstance(node, Sum):
            value = ev(node.first)
            for op, term in node.rest:
                value = value + ev(term) if op == "+" else value - ev(term)
        elif isinstance(node, Product):
            value = ev(node.factors[0])
            for factor in node.factors[1:]:
                value = mul(value, ev(factor))
        elif isinstance(node, Power):
            value = ev(node.base)
            for exponent in node.exponents:
                value = power(value, exponent)
        else:
            value = leaf(node, ev)
        return value

    return ev(ast)


def _check_variable(node: Var, n: int, names) -> None:
    """Raise EvalError unless the variable node is a tail element Omega_k
    with k <= n, its index spelled canonically, or one of the generator
    names."""
    prefix, index = _VAR_RE.match(node.name).groups()
    if prefix == "Omega" and str(k := int(index)) == index:
        if k > n:
            raise EvalError(f"no tail element of index {k} for n={n}")
    elif node.name not in names:
        raise EvalError(f"unknown variable {node.name!r}")


def _leaf(node: Expr, params: PairParams, cls, owner):
    """A number, a generator or a tail element "Omega<k>" as a `cls` term
    map over `owner`; both evaluators read these leaves this one way."""
    if isinstance(node, Num):
        return cls.monomial(owner, {}, node.value)
    _check_variable(node, params.n, cls._names(owner))
    return named_element(params, node.name, cls, owner)


def eval_poisson(ast: Expr, params: PoissonParams, max_steps: int = DEFAULT_STEP_BUDGET) -> LaurentPoly:
    """Evaluate in the Poisson algebra A_n.  Every product, every product of
    a power and every bracket of f and g is charged its |f|·|g| term pairs,
    one step each, against one budget of max_steps for the whole expression;
    StepBudgetExceeded is raised before the work that would pass it."""
    structure = params.an
    vs = structure.varspec
    charge = StepBudget(max_steps, "term pairs").charge

    def mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
        charge(len(f.terms) * len(g.terms))
        return f * g

    def leaf(node: Expr, ev) -> LaurentPoly:
        if isinstance(node, Bracket):
            f, g = ev(node.left), ev(node.right)
            charge(len(f.terms) * len(g.terms))
            return structure.bracket(f, g)
        return _leaf(node, params, LaurentPoly, vs)

    def power(base: LaurentPoly, e: int) -> LaurentPoly:
        return base.power(e, mul)

    return _evaluate(ast, leaf, mul, power)


def eval_quantum(ast: Expr, params: QuantumParams, max_steps: int = DEFAULT_STEP_BUDGET) -> NCElement:
    """Evaluate in the quantized algebra.  The block crossings of every
    product, powers included, are charged against one budget of max_steps
    for the whole expression.  A power f^e also charges its e - 1 products,
    one step each, before it computes the first, so a power that would pass
    the budget stops at once even when its products cross no block."""
    n = params.n
    budget = StepBudget(max_steps)

    def leaf(node: Expr, ev) -> NCElement:
        if isinstance(node, Bracket):
            raise EvalError("bracket pairs are only valid in poisson mode")
        return _leaf(node, params, NCElement, n)

    def mul(f: NCElement, g: NCElement) -> NCElement:
        return nc_multiply(params, f, g, budget)

    def power(base: NCElement, e: int) -> NCElement:
        if e < 0:
            raise EvalError("negative powers are not defined in the quantized algebra")
        if e == 0:
            return NCElement.one(n)
        # Linear, unlike `TermMap.power`: a PBW product costs a block crossing
        # per letter of its right factor, so multiplying by the short base
        # beats squaring long normal forms.  Measured on a shared 2-core host
        # with configs/quantum_n2.json, `nf "(y1+x1+y2+x2)^20"` takes 0.7-0.9 s
        # this way and 13 s (798,000 steps) by binary powering; at ^30 this
        # loop finishes in 3.5-4 s and binary powering exceeds the default
        # step budget.
        budget.charge(e - 1)
        out = base
        for _ in range(e - 1):
            out = mul(out, base)
        return out

    return _evaluate(ast, leaf, mul, power)
