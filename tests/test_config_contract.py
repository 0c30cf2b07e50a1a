"""Property test of the config contract: any JSON config file ends in a
report (exit 0) or in the JSON error object (exit 2), never in a traceback;
a number past the interpreter's digit limit ends in a ConfigError."""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_strata.cli import main

_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_SCALARS = st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False)
_JSON = st.recursive(
    _SCALARS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_RATIONALS = st.integers(-3, 3) | st.sampled_from(["1", "2", "-1", "1/2", "3/0", "x"]) | _JSON
_FIELDS = {
    "mode": st.sampled_from(["poisson", "quantum", "paired"]) | _JSON,
    "n": st.integers(-1, 3) | _JSON,
    "gamma": st.lists(st.lists(_RATIONALS, max_size=3), max_size=3) | _JSON,
    "p": st.lists(_RATIONALS, max_size=3) | _JSON,
    "q": st.lists(_RATIONALS, max_size=3) | _JSON,
    "phi_weights": st.dictionaries(st.sampled_from(["2", "3", "4", "02", "x"]), _RATIONALS, max_size=2)
    | _JSON,
    # not a config key: a config that carries it ends in the ConfigError naming it
    "admissible": st.lists(st.sampled_from(["y1", "x1", "Omega1", "z1"]) | _JSON, max_size=3)
    | _JSON,
}


@st.composite
def _configs(draw):
    """A shipped config with up to two fields dropped or redrawn."""
    shipped = draw(st.sampled_from(["poisson_n2.json", "quantum_n2.json", "paired_n2.json"]))
    raw = json.loads((_CONFIG_DIR / shipped).read_text())
    for key in draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=2, unique=True)):
        if draw(st.booleans()):
            raw.pop(key, None)
        else:
            raw[key] = draw(_FIELDS[key])
    return raw


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(raw=_JSON | _configs())
def test_any_json_config_ends_in_a_report_or_an_error_object(raw):
    # the config contract: exit 0 with a report or exit 2 with the error
    # object, one JSON object on stdout, and no exception out of main
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["--config", str(path), "matrices"])
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict) and out.getvalue().count("\n") == 1
    if status == 0:
        assert "error" not in payload
    else:
        assert status == 2 and set(payload) == {"error", "message"}


_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text",
    [
        f'{{"mode": "poisson", "n": {_LONG}, "gamma": [], "p": [], "q": []}}',
        f'{{"mode": "paired", "n": 1, "gamma": [["1"]], "p": ["2"], "q": ["{_LONG}"], "phi_weights": {{"2": "1"}}}}',
        f'{{"mode": "paired", "n": 1, "gamma": [["1"]], "p": ["2"], "q": ["4"], "phi_weights": {{"{_LONG}": "1"}}}}',
    ],
    ids=["n", "q entry", "weight key"],
)
def test_number_past_the_digit_limit_is_a_config_error(tmp_path, text):
    # json and Fraction read digits by int(), which stops at the
    # interpreter's limit; the error names the limit, not the literal
    path = tmp_path / "config.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["--config", str(path), "matrices"])
    message = f"config has a number of more than {sys.get_int_max_str_digits()} digits"
    assert (status, json.loads(out.getvalue())) == (2, {"error": "ConfigError", "message": message})
