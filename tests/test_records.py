"""The value classes of the package, made by `exact_poly.record`: the
equality, hashing, immutability and reprs that sets, dict keys and error
messages rely on, and an import of the command line that loads neither
`dataclasses` nor `inspect`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import poisson_sample, quantum_sample
from poisson_strata import cli
from poisson_strata.admissible import AdmissibleSet
from poisson_strata.algebra_an import PoissonParams
from poisson_strata.algebra_kn import QuantumParams
from poisson_strata.exact_poly import LaurentPoly, ReductionRule, ReductionSystem, VarSpec, monomial_code, record
from poisson_strata.parser import Sum, parse_expr
from poisson_strata.poisson_core import PoissonStructure

CONFIG_PAIRED = str(Path(__file__).resolve().parent.parent / "configs" / "paired_n2.json")
VS = VarSpec(("y1", "x1"))


def _system():
    return ReductionSystem(VS, (ReductionRule((0, 1), LaurentPoly.generator(VS, "y1").scale(2)),))


# Per class, a function that builds an object anew from equal arguments.
BUILDERS = {
    "VarSpec": lambda: VarSpec(("y1", "x1", "Y2"), frozenset({"Y2"}), killed=frozenset({"x1"})),
    "ReductionSystem": _system,
    "AdmissibleSet": lambda: AdmissibleSet(2, (True, False), (False, True), (True, True)),  # y1 Omega1 x2 Omega2
    "PoissonParams": poisson_sample,
    "QuantumParams": quantum_sample,
    "Sum": lambda: parse_expr("2 y1 - 1/3 x1^2 + {y1, x1}"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_arguments_give_equal_objects_with_equal_hashes(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b and type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_keywords_and_defaults_bind_as_positions():
    assert VarSpec(names=("y1",)) == VarSpec(("y1",), frozenset(), frozenset())
    assert VarSpec(("y1",)) != VarSpec(("y1",), killed=frozenset({"y1"}))
    with pytest.raises(TypeError):
        VarSpec()
    with pytest.raises(TypeError):
        VarSpec(("y1",), frozenset(), frozenset(), frozenset())  # a derived field is not an argument
    with pytest.raises(TypeError):
        VarSpec(("y1",), names=("y1",))


def test_derived_fields_take_no_part_in_equality():
    a, b = BUILDERS["VarSpec"](), BUILDERS["VarSpec"]()
    object.__setattr__(b, "killed_indices", ())
    assert a.killed_indices == (1,) and a == b and hash(a) == hash(b)
    a, b = _system(), _system()
    a.rewrites(monomial_code(2, 3))
    assert len(a.tables) == 1 and not b.tables and a == b and hash(a) == hash(b)
    structure = poisson_sample().an
    a, b = (PoissonStructure(structure.varspec, structure.table) for _ in range(2))
    a.bracket(structure.generator("y1"), structure.generator("x2"))
    assert a.rows and not b.rows and a == b  # a dict table: no hash, as before
    assert "rows" not in repr(a) and "tables" not in repr(_system())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_frozen_objects_refuse_assignment(name):
    obj = BUILDERS[name]()
    field = next(iter(vars(obj)))
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.new_attribute = 1
    assert obj == BUILDERS[name]()


@record
class Named(VarSpec):
    """A record subclass with no field of its own."""


def test_a_subclass_object_never_equals_a_base_object():
    base, sub = VarSpec(("y1",)), Named(("y1",))
    assert sub.killed_indices == () and base != sub and sub != base
    assert repr(sub) == "Named(names=('y1',), invertible=frozenset(), killed=frozenset())"
    # sibling parameter classes with the same fields are different values too
    assert PoissonParams(0, [], [], []) != QuantumParams(0, [], [], [])
    assert PoissonParams(0, [], [], []) == PoissonParams(0, (), (), ())


def test_config_is_mutable_and_unhashable():
    a, b = cli.load_config(CONFIG_PAIRED), cli.load_config(CONFIG_PAIRED)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    a.step_limit = 5
    assert a.step_limit == 5 and a != b


def test_reprs_and_hashes_are_those_of_the_dataclasses():
    # the hash of the tuple of the passed-in fields, one field or more, which
    # fixes set and dict orders, and reprs recorded from the `dataclasses`
    # classes the records replaced
    spec = BUILDERS["VarSpec"]()
    assert hash(spec) == hash((spec.names, spec.invertible, spec.killed))
    assert hash(parse_expr("x1")) == hash(("x1",))
    assert repr(spec) == (
        "VarSpec(names=('y1', 'x1', 'Y2'), invertible=frozenset({'Y2'}), killed=frozenset({'x1'}))"
    )
    expr = BUILDERS["Sum"]()
    assert isinstance(expr, Sum) and repr(expr) == (
        "Sum(first=Product(factors=(Num(value=Fraction(2, 1)), Var(name='y1'))), "
        "rest=(('-', Product(factors=(Num(value=Fraction(1, 3)), Power(base=Var(name='x1'), exponents=(2,))))), "
        "('+', Bracket(left=Var(name='y1'), right=Var(name='x1')))))"
    )


def _modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code`."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    return set(done.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # `dataclasses` (and `inspect`, which it imports) cost every command
    # start-up time; the records replace it, and nothing else may bring it in
    added = _modules("import poisson_strata.cli") - _modules("pass")
    assert "poisson_strata.cli" in added
    assert not added & {"dataclasses", "inspect"}
