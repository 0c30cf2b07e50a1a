"""Normal forms in the quantized algebra by naive word rewriting.

The algebra is generated by y1, x1, ..., yn, xn, ordered y1 < x1 < ... <
yn < xn, subject to the defining relations (i < j)

    y_i y_j = gamma_ij y_j y_i          x_i y_j = (p_j / gamma_ij) y_j x_i
    y_i x_j = (q_i gamma_ij)^-1 x_j y_i x_i x_j = (q_i gamma_ij / p_j) x_j x_i
    x_i y_i = q_i y_i x_i + sum_{k<i} (q_k - p_k) y_k x_k.

Solving each relation for its out-of-order word gives one rewrite rule per
descending pair of letters.  An element is a map from words to coefficients;
`normal_form` rewrites the first descent of every word until all words are
ordered, which is slow but follows the relations letter by letter.  The
closed form for the deep words x2^k y1 follows from x2 y1 = q1 gamma_12 y1 x2.
"""

from __future__ import annotations

from fractions import Fraction

from .exprtext import evaluate
from .params import Params
from .terms import TermMap, generator_names

Word = tuple[int, ...]


def rewrite_rules(params: Params) -> dict[tuple[int, int], list[tuple[Fraction, Word]]]:
    """(later letter, earlier letter) -> the ordered combination it equals."""
    n, gamma, p, q = params.n, params.gamma, params.p, params.q

    def y(i):
        return 2 * i

    def x(i):
        return 2 * i + 1

    rules = {}
    for i in range(n):
        tail = [(q[k] - p[k], (y(k), x(k))) for k in range(i)]
        rules[(x(i), y(i))] = [(q[i], (y(i), x(i)))] + tail
        for j in range(i + 1, n):
            g = gamma[i][j]
            rules[(y(j), y(i))] = [(1 / g, (y(i), y(j)))]
            rules[(y(j), x(i))] = [(g / p[j], (x(i), y(j)))]
            rules[(x(j), y(i))] = [(q[i] * g, (y(i), x(j)))]
            rules[(x(j), x(i))] = [(p[j] / (q[i] * g), (x(i), x(j)))]
    return rules


class QuantumReference:
    def __init__(self, params: Params):
        self.params = params
        self.n = params.n
        self.rules = rewrite_rules(params)

    def normal_form(self, element: dict[Word, Fraction]) -> dict[Word, Fraction]:
        done: dict[Word, Fraction] = {}
        pending = dict(element)
        while pending:
            following: dict[Word, Fraction] = {}
            for word, coeff in pending.items():
                k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
                if k is None:
                    _accumulate(done, word, coeff)
                    continue
                for c, pair in self.rules[(word[k], word[k + 1])]:
                    _accumulate(following, word[:k] + pair + word[k + 2:], coeff * c)
            pending = following
        return done

    def evaluate(self, text: str) -> TermMap:
        n = self.n
        reference = self

        class Element:
            def __init__(self, words):
                self.words = words

            def __add__(self, other):
                out = dict(self.words)
                for w, c in _lift(other).words.items():
                    _accumulate(out, w, c)
                return Element(out)

            __radd__ = __add__

            def __neg__(self):
                return Element({w: -c for w, c in self.words.items()})

            def __sub__(self, other):
                return self + (-_lift(other))

            def __rsub__(self, other):
                return _lift(other) - self

            def __mul__(self, other):
                out = {}
                for w1, c1 in self.words.items():
                    for w2, c2 in _lift(other).words.items():
                        _accumulate(out, w1 + w2, c1 * c2)
                return Element(reference.normal_form(out))

            def __rmul__(self, other):
                return _lift(other) * self

            def __pow__(self, e):
                out = _lift(Fraction(1))
                for _ in range(int(e)):
                    out = out * self
                return out

        def _lift(value):
            if isinstance(value, Element):
                return value
            return Element({(): Fraction(value)} if value else {})

        names = {name: Element({(k,): Fraction(1)}) for k, name in enumerate(generator_names(n))}
        p, q = self.params.p, self.params.q
        for i in range(1, n + 1):
            names[f"Omega{i}"] = Element(
                {(2 * k, 2 * k + 1): q[k] - p[k] for k in range(i)}
            )
        value = _lift(evaluate(text, names, Fraction))
        return {_exponents(w, n): c for w, c in value.words.items()}

    def deep_word_terms(self, k: int) -> TermMap:
        """x2^k y1 = (q1 gamma_12)^k y1 x2^k."""
        mono = [0] * (2 * self.n)
        mono[0], mono[3] = 1, k
        return {tuple(mono): (self.params.q[0] * self.params.gamma[0][1]) ** k}


def _accumulate(acc: dict, key, coeff: Fraction) -> None:
    total = acc.get(key, 0) + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _exponents(word: Word, n: int) -> tuple[int, ...]:
    mono = [0] * (2 * n)
    for letter in word:
        mono[letter] += 1
    return tuple(mono)
