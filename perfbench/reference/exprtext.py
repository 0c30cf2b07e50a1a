"""Expression text evaluated over any arithmetic that Python operators reach.

The command language writes products by juxtaposition, powers with '^',
rationals as 'a/b' and brackets as '{f, g}'.  `evaluate` rewrites a text
into the equivalent Python expression and evaluates it with the caller's
values for the generators, the tail elements, rational literals and the
bracket, so one text can be evaluated in sympy or in a word algebra.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping

_TOKEN = re.compile(r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]+[0-9]+)|(?P<op>[-+*^(){},]))")
_ENDS_OPERAND = {"number", "name", ")", "}"}
_STARTS_OPERAND = {"number", "name", "(", "{"}


def to_python(text: str) -> str:
    out = []
    previous = None
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.end()
        key = value if kind == "op" else kind
        if previous in _ENDS_OPERAND and key in _STARTS_OPERAND:
            out.append("*")
        if kind == "number":
            num, _, den = value.partition("/")
            out.append(f"R({num}, {den or 1})")
        elif kind == "name":
            out.append(value)
        else:
            out.append({"^": "**", "{": "B(", "}": ")"}.get(value, value))
        previous = key
    return " ".join(out)


def evaluate(
    text: str,
    names: Mapping[str, object],
    rational: Callable[[int, int], object],
    bracket: Callable[[object, object], object] | None = None,
):
    def no_bracket(f, g):
        raise ValueError("brackets are not defined here")

    scope = dict(names)
    scope["R"] = rational
    scope["B"] = bracket or no_bracket
    return eval(to_python(text), {"__builtins__": {}}, scope)  # text comes from exprgen
