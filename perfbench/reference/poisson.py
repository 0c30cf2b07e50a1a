"""The Poisson bracket in sympy, from the defining table of the algebra.

On k[y1, x1, ..., yn, xn] with parameters gamma (skew), p and q the table is,
for i < j,

    {y_i, y_j} = gamma_ij y_i y_j          {y_i, x_j} = -(q_i + gamma_ij) y_i x_j
    {x_i, y_j} = (p_j - gamma_ij) x_i y_j  {x_i, x_j} = (q_i - p_j + gamma_ij) x_i x_j

and {x_i, y_i} = q_i y_i x_i + Omega_{i-1}, with the tail elements
Omega_i = sum_{k <= i} (q_k - p_k) y_k x_k.  The bracket of two polynomials
is the biderivation sum_{a<b} {g_a, g_b} (d_a f d_b g - d_b f d_a g).
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from .exprtext import evaluate
from .params import Params
from .terms import TermMap, generator_names


class PoissonReference:
    def __init__(self, params: Params):
        n = params.n
        self.n = n
        self.gens = sympy.symbols(" ".join(generator_names(n)), seq=True)
        y = self.gens[0::2]
        x = self.gens[1::2]
        gamma, p, q = params.gamma, params.p, params.q

        def rat(v):
            return sympy.Rational(v.numerator, v.denominator)

        self.omega = [sympy.Integer(0)]
        for k in range(n):
            self.omega.append(self.omega[-1] + rat(q[k] - p[k]) * y[k] * x[k])
        # table[(a, b)] = {g_a, g_b} for a < b in the order y1, x1, y2, x2, ...
        table = {}
        for i in range(n):
            table[(2 * i, 2 * i + 1)] = -(rat(q[i]) * y[i] * x[i] + self.omega[i])
            for j in range(i + 1, n):
                g = rat(gamma[i][j])
                table[(2 * i, 2 * j)] = g * y[i] * y[j]
                table[(2 * i, 2 * j + 1)] = -(rat(q[i]) + g) * y[i] * x[j]
                table[(2 * i + 1, 2 * j)] = (rat(p[j]) - g) * x[i] * y[j]
                table[(2 * i + 1, 2 * j + 1)] = (rat(q[i]) - rat(p[j]) + g) * x[i] * x[j]
        self.table = {key: sympy.Poly(value, *self.gens) for key, value in table.items()}

    def poly(self, expr) -> sympy.Poly:
        return sympy.Poly(expr, *self.gens)

    def bracket(self, f, g):
        f, g = self.poly(f), self.poly(g)
        acc = self.poly(0)
        for (a, b), entry in self.table.items():
            ga, gb = self.gens[a], self.gens[b]
            acc += entry * (f.diff(ga) * g.diff(gb) - f.diff(gb) * g.diff(ga))
        return acc.as_expr()

    def evaluate(self, text: str):
        names = {str(s): s for s in self.gens}
        names.update({f"Omega{i}": self.omega[i] for i in range(1, self.n + 1)})
        return evaluate(text, names, sympy.Rational, self.bracket)

    def bracket_terms(self, left: str, right: str) -> TermMap:
        """The term map of {left, right} for two expression texts."""
        value = self.poly(self.bracket(self.evaluate(left), self.evaluate(right)))
        out: TermMap = {}
        for mono, coeff in value.terms():
            if coeff != 0:
                coeff = sympy.Rational(coeff)
                out[tuple(int(e) for e in mono)] = Fraction(int(coeff.p), int(coeff.q))
        return out
