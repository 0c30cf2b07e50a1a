"""The quantized algebra as a PBW normal-form rewriting system.

Generators y1, x1, ..., yn, xn satisfy q-commutation relations driven by a
multiplicative skew-symmetric matrix gamma and two scalar vectors p, q whose
ratios p_i/q_i avoid 1 and -1; the only non-monomial relation is

    x_i y_i = q_i y_i x_i + sum_{k<i} (q_k - p_k) y_k x_k.

Elements are kept in normal form: linear combinations of ordered standard
monomials y1^a1 x1^b1 ... yn^an xn^bn.  Multiplication moves the letters of
the right factor to their slots one at a time; every crossing either picks
up a scalar or, for x_i across y_i, the additive tail in strictly smaller
variables, so rewriting terminates.  The attached quantum torus (the target
of the stratum maps) lives here too, with its bicharacter twist taken from
the commutation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exact_poly import DEFAULT_STEP_BUDGET, Scalar

Relation = tuple[str, tuple[tuple[Fraction, tuple[str, ...]], ...]]


@dataclass(frozen=True)
class QuantumParams:
    """n, the multiplicative coupling matrix, and the two scalar vectors."""

    n: int
    gamma: tuple[tuple[Fraction, ...], ...]
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    @classmethod
    def make(cls, n: int, gamma, p, q) -> QuantumParams:
        return cls(
            n,
            tuple(tuple(Fraction(v) for v in row) for row in gamma),
            tuple(Fraction(v) for v in p),
            tuple(Fraction(v) for v in q),
        )

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("gamma must be an n x n matrix")
        if len(self.p) != n or len(self.q) != n:
            raise ValueError("p and q must have length n")
        for i in range(n):
            if self.gamma[i][i] != 1:
                raise ValueError("gamma must have unit diagonal")
            for j in range(n):
                if self.gamma[i][j] == 0 or self.gamma[i][j] * self.gamma[j][i] != 1:
                    raise ValueError(
                        f"gamma is not multiplicatively skew-symmetric at ({i + 1}, {j + 1})"
                    )
        for i in range(n):
            if self.p[i] == 0 or self.q[i] == 0:
                raise ValueError("p and q entries must be nonzero")
            ratio = self.p[i] / self.q[i]
            if ratio == 1 or ratio == -1:
                raise ValueError(
                    f"p_{i + 1}/q_{i + 1} = {ratio} is a root of unity; rejected"
                )


def kn_names(n: int) -> tuple[str, ...]:
    out = []
    for i in range(1, n + 1):
        out.append(f"y{i}")
        out.append(f"x{i}")
    return tuple(out)


def torus_names(n: int) -> tuple[str, ...]:
    out = []
    for i in range(1, n + 1):
        out.append(f"Y{i}")
        out.append(f"X{i}")
    return tuple(out)


class NCElement:
    """A linear combination of standard monomials, exponent vectors in Z>=0^2n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != 2 * n or any(e < 0 for e in mono):
                raise ValueError(f"bad standard-monomial exponents {mono}")
            key = tuple(mono)
            clean[key] = clean.get(key, Fraction(0)) + coeff
            if clean[key] == 0:
                del clean[key]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCElement is immutable")

    @classmethod
    def zero(cls, n: int) -> NCElement:
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> NCElement:
        return cls(n, {(0,) * (2 * n): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, exps: Mapping[str, int], coeff: Scalar = 1) -> NCElement:
        names = kn_names(n)
        vec = [0] * (2 * n)
        for name, e in exps.items():
            vec[names.index(name)] = e
        return cls(n, {tuple(vec): coeff})

    @classmethod
    def generator(cls, n: int, name: str) -> NCElement:
        return cls.monomial(n, {name: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other: NCElement) -> NCElement:
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
        return NCElement(self.n, acc)

    def __neg__(self) -> NCElement:
        return NCElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: NCElement) -> NCElement:
        return self + (-other)

    def scale(self, c: Scalar) -> NCElement:
        c = Fraction(c)
        return NCElement(self.n, {m: c * v for m, v in self.terms.items()})

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def __repr__(self) -> str:
        return f"NCElement({format_nc(self)!r})"


def format_nc(f: NCElement) -> str:
    if f.is_zero():
        return "0"
    names = kn_names(f.n)
    parts = []
    for mono, coeff in sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][::-1]), reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e != 0
        ]
        if not factors:
            text = str(coeff)
        elif coeff == 1:
            text = "*".join(factors)
        elif coeff == -1:
            text = "-" + "*".join(factors)
        else:
            text = str(coeff) + "*" + "*".join(factors)
        parts.append(text)
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


class StepBudgetExceeded(RuntimeError):
    """Rewriting exceeded its step budget; indicates an implementation bug."""


class _Multiplier:
    """Carries the parameters, the swap-rewrite cache, and the step counter."""

    def __init__(self, params: QuantumParams, max_steps: int):
        self.params = params
        self.max_steps = max_steps
        self.steps = 0
        self._swaps: dict[tuple[int, int], list[tuple[Fraction, int, int]]] = {}

    def _swap_terms(self, r: int, p: int) -> list[tuple[Fraction, int, int]]:
        """Normal form of (letter at r) * (letter at p) for r > p, as
        (coefficient, first position, second position) triples."""
        cached = self._swaps.get((r, p))
        if cached is not None:
            return cached
        params = self.params
        ri, rx = r // 2 + 1, r % 2 == 1
        pi, px = p // 2 + 1, p % 2 == 1
        gamma = params.gamma
        out: list[tuple[Fraction, int, int]]
        if rx and not px and ri == pi:
            # x_i y_i = q_i y_i x_i + tail in the lower pairs
            out = [(params.q[ri - 1], p, r)]
            for k in range(1, ri):
                out.append((params.q[k - 1] - params.p[k - 1], 2 * k - 2, 2 * k - 1))
        elif not rx and not px:
            out = [(gamma[ri - 1][pi - 1], p, r)]
        elif not rx and px:
            # y_I x_J, I > J
            out = [(gamma[pi - 1][ri - 1] / params.p[ri - 1], p, r)]
        elif rx and not px:
            # x_I y_J, I > J
            out = [(params.q[pi - 1] * gamma[pi - 1][ri - 1], p, r)]
        else:
            # x_I x_J, I > J
            out = [(params.p[ri - 1] / (params.q[pi - 1] * gamma[pi - 1][ri - 1]), p, r)]
        self._swaps[(r, p)] = out
        return out

    def mono_times_gen(self, mono: tuple[int, ...], p: int) -> dict[tuple[int, ...], Fraction]:
        """Normal form of mono * (generator p).

        Moving p left past the rightmost letter r > p nests one product per
        letter crossed.  The nesting is kept on an explicit stack of
        suspended `_cross` frames, so a long word cannot exhaust the
        interpreter's recursion limit.
        """
        frames: list = []
        value = self._start(mono, p, frames)
        while frames:
            try:
                request = frames[-1].send(value)
            except StopIteration as done:
                frames.pop()
                value = done.value
            else:
                value = self._start(*request, frames)
        return value

    def _start(self, mono: tuple[int, ...], p: int, frames: list):
        """The product when no letter of mono lies right of p; otherwise one
        rewrite step, whose frame is pushed onto `frames` (returns None)."""
        rightmost = -1
        for k in range(len(mono) - 1, -1, -1):
            if mono[k]:
                rightmost = k
                break
        if rightmost <= p:
            out = list(mono)
            out[p] += 1
            return {tuple(out): Fraction(1)}
        self.steps += 1
        if self.steps > self.max_steps:
            raise StepBudgetExceeded(f"exceeded {self.max_steps} rewrite steps")
        head = list(mono)
        head[rightmost] -= 1
        frames.append(self._cross(tuple(head), rightmost, p))
        return None

    def _cross(self, head: tuple[int, ...], r: int, p: int):
        """Frame for (head * letter r) * letter p with r > p: yields each
        (monomial, generator) product it needs and is sent its normal form."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for coeff, first, second in self._swap_terms(r, p):
            part = yield head, first
            for mono, c in part.items():
                _add_scaled(acc, (yield mono, second), coeff * c)
        return acc

    def dict_times_gen(
        self, terms: dict[tuple[int, ...], Fraction], p: int
    ) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        for mono, coeff in terms.items():
            _add_scaled(acc, self.mono_times_gen(mono, p), coeff)
        return acc


def _add_scaled(
    acc: dict[tuple[int, ...], Fraction], terms: dict[tuple[int, ...], Fraction], coeff: Fraction
) -> None:
    """acc += coeff * terms, dropping cancelled monomials."""
    for m, c in terms.items():
        s = acc.get(m, Fraction(0)) + coeff * c
        if s == 0:
            acc.pop(m, None)
        else:
            acc[m] = s


def nc_multiply(
    params: QuantumParams,
    f: NCElement,
    g: NCElement,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> NCElement:
    """The product f g rewritten to PBW normal form."""
    if f.n != params.n or g.n != params.n:
        raise ValueError("operands do not match the parameter arity")
    mult = _Multiplier(params, max_steps)
    acc: dict[tuple[int, ...], Fraction] = {}
    for mono_g, coeff_g in g.terms.items():
        part = {m: c * coeff_g for m, c in f.terms.items()}
        for pos, e in enumerate(mono_g):
            for _ in range(e):
                part = mult.dict_times_gen(part, pos)
        for m, c in part.items():
            s = acc.get(m, Fraction(0)) + c
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
    return NCElement(params.n, acc)


def nc_product(params: QuantumParams, factors: Sequence[NCElement]) -> NCElement:
    out = NCElement.one(params.n)
    for f in factors:
        out = nc_multiply(params, out, f)
    return out


def omega_q(params: QuantumParams, i: int) -> NCElement:
    """The tail element; a combination of the pair monomials, already normal."""
    if not 0 <= i <= params.n:
        raise IndexError(f"index {i} out of range 0..{params.n}")
    acc = NCElement.zero(params.n)
    for k in range(1, i + 1):
        acc = acc + NCElement.monomial(
            params.n, {f"y{k}": 1, f"x{k}": 1}, params.q[k - 1] - params.p[k - 1]
        )
    return acc


def normality_check(params: QuantumParams, i: int) -> dict:
    """For each generator g, find the scalar with Omega_i g = scalar * g Omega_i.

    Both products are computed by rewriting; the report records the scalar
    per generator and fails when no scalar matches.
    """
    if not 1 <= i <= params.n:
        raise IndexError(f"index {i} out of range 1..{params.n}")
    om = omega_q(params, i)
    scalars = {}
    failures = []
    for name in kn_names(params.n):
        g = NCElement.generator(params.n, name)
        left = nc_multiply(params, om, g)
        right = nc_multiply(params, g, om)
        if left.terms.keys() != right.terms.keys():
            failures.append(name)
            continue
        ratios = {left.terms[m] / right.terms[m] for m in left.terms}
        if len(ratios) != 1:
            failures.append(name)
            continue
        scalars[name] = ratios.pop()
    return {"ok": not failures, "scalars": scalars, "failures": failures}


def commutation_matrix(params: QuantumParams) -> tuple[tuple[Fraction, ...], ...]:
    """The attached multiplicative skew-symmetric 2n x 2n matrix.

    Entry (u, v) is the scalar in G_u G_v = s_uv G_v G_u for the torus
    generators; it is the multiplicative form of the log-canonical matrix on
    the Poisson side.
    """
    n = params.n
    gamma, p, q = params.gamma, params.p, params.q
    size = 2 * n
    m = [[Fraction(1)] * size for _ in range(size)]

    def put(a: int, b: int, value: Fraction):
        m[a][b] = value
        m[b][a] = 1 / value

    for i in range(1, n + 1):
        yi, xi = 2 * i - 2, 2 * i - 1
        put(yi, xi, 1 / q[i - 1])
        for j in range(i + 1, n + 1):
            yj, xj = 2 * j - 2, 2 * j - 1
            gij = gamma[i - 1][j - 1]
            put(yi, yj, gij)
            put(yi, xj, 1 / (q[i - 1] * gij))
            put(xi, yj, p[j - 1] / gij)
            put(xi, xj, q[i - 1] * gij / p[j - 1])
    return tuple(tuple(row) for row in m)


def defining_relations(params: QuantumParams) -> list[Relation]:
    """Every defining relation as a zero combination sum c * word.

    Words are tuples of generator names multiplied left to right; each
    relation's combination rewrites to zero in the algebra, and substituting
    generator images into them is how homomorphisms are verified.
    """
    n = params.n
    gamma, p, q = params.gamma, params.p, params.q
    rels: list[Relation] = []
    one = Fraction(1)
    for i in range(1, n + 1):
        yi, xi = f"y{i}", f"x{i}"
        tail = [(-(q[k - 1] - p[k - 1]), (f"y{k}", f"x{k}")) for k in range(1, i)]
        rels.append(
            (f"x{i}y{i}", ((one, (xi, yi)), (-q[i - 1], (yi, xi)), *tail))
        )
        for j in range(i + 1, n + 1):
            yj, xj = f"y{j}", f"x{j}"
            gij = gamma[i - 1][j - 1]
            rels.append((f"y{i}y{j}", ((one, (yi, yj)), (-gij, (yj, yi)))))
            rels.append((f"x{i}y{j}", ((one, (xi, yj)), (-p[j - 1] / gij, (yj, xi)))))
            rels.append((f"y{i}x{j}", ((one, (yi, xj)), (-1 / (q[i - 1] * gij), (xj, yi)))))
            rels.append(
                (f"x{i}x{j}", ((one, (xi, xj)), (-q[i - 1] * gij / p[j - 1], (xj, xi))))
            )
    return rels


# -- the attached quantum torus ---------------------------------------------


class QuantumTorus:
    """Arithmetic in the attached quantized coordinate ring, modulo killed
    generators and localized at inverted ones.

    Monomials touching a killed generator are zero; exponents may be
    negative exactly on the inverted generators.  Products of monomials pick
    up the bicharacter twist of the commutation matrix.
    """

    def __init__(self, params: QuantumParams, kill: Iterable[str] = (), invert: Iterable[str] = ()):
        self.params = params
        self.names = torus_names(params.n)
        self.kill = frozenset(kill)
        self.invert = frozenset(invert)
        unknown = (self.kill | self.invert) - set(self.names)
        if unknown:
            raise KeyError(f"unknown torus generators {sorted(unknown)}")
        overlap = self.kill & self.invert
        if overlap:
            raise ValueError(f"cannot invert killed generators {sorted(overlap)}")
        self.smatrix = commutation_matrix(params)
        self._kill_idx = {self.names.index(name) for name in self.kill}
        self._invert_idx = {self.names.index(name) for name in self.invert}

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumTorus):
            return NotImplemented
        return (
            self.params == other.params
            and self.kill == other.kill
            and self.invert == other.invert
        )

    def __hash__(self):
        return hash((self.params, self.kill, self.invert))

    def element(self, terms: Mapping[tuple[int, ...], Scalar]) -> QTorusElement:
        return QTorusElement(self, terms)

    def zero(self) -> QTorusElement:
        return self.element({})

    def one(self) -> QTorusElement:
        return self.element({(0,) * (2 * self.params.n): Fraction(1)})

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> QTorusElement:
        vec = [0] * (2 * self.params.n)
        for name, e in exps.items():
            vec[self.names.index(name)] = e
        return self.element({tuple(vec): coeff})

    def generator(self, name: str) -> QTorusElement:
        return self.monomial({name: 1})

    def twist(self, u: tuple[int, ...], v: tuple[int, ...]) -> Fraction:
        """Scalar in X^u X^v = twist * X^(u+v); a bicharacter in each slot."""
        out = Fraction(1)
        for a in range(len(u)):
            ua = u[a]
            if ua == 0:
                continue
            for b in range(a):
                vb = v[b]
                if vb:
                    out *= self.smatrix[a][b] ** (ua * vb)
        return out


class QTorusElement:
    __slots__ = ("torus", "terms")

    def __init__(self, torus: QuantumTorus, terms: Mapping[tuple[int, ...], Scalar]):
        clean: dict[tuple[int, ...], Fraction] = {}
        width = 2 * torus.params.n
        for mono, coeff in terms.items():
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != width:
                raise ValueError(f"bad exponent vector {mono}")
            if any(mono[i] for i in torus._kill_idx):
                continue  # killed generator: the monomial is zero
            for i, e in enumerate(mono):
                if e < 0 and i not in torus._invert_idx:
                    raise ValueError(
                        f"negative exponent on non-inverted generator {torus.names[i]!r}"
                    )
            key = tuple(mono)
            clean[key] = clean.get(key, Fraction(0)) + coeff
            if clean[key] == 0:
                del clean[key]
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QTorusElement is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTorusElement):
            return NotImplemented
        return self.torus == other.torus and self.terms == other.terms

    def __add__(self, other: QTorusElement) -> QTorusElement:
        acc = dict(self.terms)
        for m, c in other.terms.items():
            s = acc.get(m, Fraction(0)) + c
            if s == 0:
                acc.pop(m, None)
            else:
                acc[m] = s
        return QTorusElement(self.torus, acc)

    def __neg__(self) -> QTorusElement:
        return QTorusElement(self.torus, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: QTorusElement) -> QTorusElement:
        return self + (-other)

    def scale(self, c: Scalar) -> QTorusElement:
        return QTorusElement(self.torus, {m: Fraction(c) * v for m, v in self.terms.items()})

    def __mul__(self, other: QTorusElement) -> QTorusElement:
        if self.torus != other.torus:
            raise ValueError("operands from different torus algebras")
        acc: dict[tuple[int, ...], Fraction] = {}
        for mu, cu in self.terms.items():
            for mv, cv in other.terms.items():
                mono = tuple(a + b for a, b in zip(mu, mv))
                s = acc.get(mono, Fraction(0)) + cu * cv * self.torus.twist(mu, mv)
                if s == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = s
        return QTorusElement(self.torus, acc)

    def __pow__(self, e: int) -> QTorusElement:
        if e < 0:
            if len(self.terms) != 1:
                raise ValueError("only monomials are invertible")
            [(mono, coeff)] = self.terms.items()
            inv_mono = tuple(-v for v in mono)
            # X^-m = twist(m, -m)^-1 / coeff * X^(-m) so that X^m X^-m = 1
            scalar = 1 / (coeff * self.torus.twist(mono, inv_mono))
            base = QTorusElement(self.torus, {inv_mono: scalar})
            return base ** (-e)
        out = self.torus.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __repr__(self) -> str:
        return f"QTorusElement({format_torus(self)!r})"


def format_torus(f: QTorusElement) -> str:
    if f.is_zero():
        return "0"
    names = f.torus.names
    parts = []
    for mono, coeff in sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][::-1]), reverse=True):
        factors = [
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e != 0
        ]
        if not factors:
            text = str(coeff)
        elif coeff == 1:
            text = "*".join(factors)
        elif coeff == -1:
            text = "-" + "*".join(factors)
        else:
            text = str(coeff) + "*" + "*".join(factors)
        parts.append(text)
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out
