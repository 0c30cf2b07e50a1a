"""Spans around the package's public functions, installed from outside.

`Tracer.install` replaces each function in `TRACED` by a wrapper, in its own
module and in every other `poisson_strata` module that imported it by name
(so `correspondence.build_an` is seen as well as `algebra_an.build_an`), and
each method on its class.  A wrapper records a span (name, start, end,
parent, and the operation it belongs to) in memory; the spans are written out when the run ends, and a
layer's self time is its spans' duration less the part covered by their
child spans.

Two leaf functions, `LaurentPoly.__mul__` and `LaurentPoly.derivative`, run
millions of times per report at n = 4 and call no other traced function.
Their calls are counted and timed but not kept one by one: each call's
duration is added to the enclosing span as covered child time, which is all
that self time needs.  That keeps the trace of the largest workload to a
few hundred thousand spans.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

# metric name -> (module, attribute path) of the function it wraps
TRACED = {
    "exact_poly.mul": ("exact_poly", "LaurentPoly.__mul__"),
    "exact_poly.derivative": ("exact_poly", "LaurentPoly.derivative"),
    "exact_poly.reduce_poly": ("exact_poly", "reduce_poly"),
    "exact_poly.format_poly": ("exact_poly", "format_poly"),
    "exact_poly.factor_rational": ("exact_poly", "factor_rational"),
    "poisson_core.bracket": ("poisson_core", "PoissonStructure.bracket"),
    "poisson_core.jacobi_check": ("poisson_core", "PoissonStructure.jacobi_check"),
    "algebra_an.build_an": ("algebra_an", "build_an"),
    "algebra_an.quotient_system": ("algebra_an", "quotient_system"),
    "algebra_kn.nc_multiply": ("algebra_kn", "nc_multiply"),
    "algebra_kn.twist": ("algebra_kn", "QuantumTorus.twist"),
    "algebra_kn.torus_mul": ("algebra_kn", "QTorusElement.__mul__"),
    "algebra_kn.format_nc": ("algebra_kn", "format_nc"),
    "admissible.enumerate_admissible": ("admissible", "enumerate_admissible"),
    "admissible.derived_sets": ("admissible", "derived_sets"),
    "correspondence.verify_poisson_stratum_map": ("correspondence", "verify_poisson_stratum_map"),
    "correspondence.verify_quantum_stratum_map": ("correspondence", "verify_quantum_stratum_map"),
    "correspondence.group_character": ("correspondence", "group_character"),
    "parser.parse_expr": ("parser", "parse_expr"),
    "parser.eval_poisson": ("parser", "eval_poisson"),
    "parser.eval_quantum": ("parser", "eval_quantum"),
    "cli.load_config": ("cli", "load_config"),
}
FOLDED = frozenset({"exact_poly.mul", "exact_poly.derivative"})
TERMS_OUT = frozenset({"poisson_core.bracket", "algebra_kn.nc_multiply"})
SELF_TIME = frozenset({"poisson_core.bracket"})
DISTINCT_FIRST_ARG = frozenset({"algebra_an.build_an"})

PACKAGE = "poisson_strata"


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    # one [name index, start, end, parent span or -1, folded child time, operation] per call
    spans: list[list] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    folded: dict[str, list] = field(default_factory=dict)  # name -> [calls, seconds]
    terms_out: dict[str, int] = field(default_factory=dict)
    first_args: dict[str, set] = field(default_factory=dict)
    operation: int = -1  # set by the caller before each operation

    def install(self) -> None:
        for name, (module_name, path) in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        if name in FOLDED:
            return self._folded_wrapper(name, fn)
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        terms_out = name in TERMS_OUT
        first_args = self.first_args.setdefault(name, set()) if name in DISTINCT_FIRST_ARG else None
        if terms_out:
            self.terms_out[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, 0.0, self.operation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if terms_out:
                self.terms_out[name] += len(result.terms)
            if first_args is not None:
                first_args.add(args[0])
            return result

        return wrapper

    def _folded_wrapper(self, name: str, fn):
        stat = self.folded.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stat[0] += 1
                stat[1] += spent
                if stack:
                    spans[stack[-1]][4] += spent

        return wrapper

    def summary(self) -> dict[str, float]:
        """calls, s and the extra statistics per traced function, summed."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for k, (index, start, end, parent, folded, _) in enumerate(self.spans):
            calls[index] += 1
            total[index] += end - start
            child[k] += folded
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * len(self.names)
        for k, (index, start, end, *_) in enumerate(self.spans):
            self_time[index] += end - start - child[k]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.s"] = total[k]
            if name in SELF_TIME:
                out[f"{name}.self_s"] = self_time[k]
        for name, (count, seconds) in self.folded.items():
            out[f"{name}.calls"] = count
            out[f"{name}.s"] = seconds
        for name, count in self.terms_out.items():
            out[f"{name}.terms_out"] = count
        for name, seen in self.first_args.items():
            out[f"{name}.distinct_params"] = len(seen)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\toperation\tname\tstart_s\tend_s\tparent\tfolded_child_s\n")
            for k, (index, start, end, parent, folded, operation) in enumerate(self.spans):
                fh.write(
                    f"{k}\t{operation}\t{self.names[index]}\t{start:.9f}\t{end:.9f}\t{parent}\t{folded:.9f}\n"
                )
