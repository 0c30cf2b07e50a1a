"""Exact stdout and exit status of single CLI commands, pinned byte for byte.

Every pin is a row of `tests/pins.py`; `test_pin` runs each row in-process
through `cli.main` with the row's step budget, and `python tests/pins.py`
runs the same rows through the installed command.  Any change to the
coefficient tables, the arithmetic, the stratum maps, the formatters or the
command line that alters a printed byte or an exit status fails here.  Two
reports at n = 3 must also not change with the string hash seed.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pins import BUDGET, CHAIN_BRACKET, ROOT, ROWS, Digest, Error, check, config_path, row_id
from poisson_strata.cli import main


def run_in_process(row, directory: Path, monkeypatch) -> tuple[int, str]:
    if row.budget is None:
        monkeypatch.delenv(BUDGET, raising=False)
    else:
        monkeypatch.setenv(BUDGET, row.budget)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(["--config", str(config_path(row, directory)), *row.args])
    return status, buf.getvalue()


@pytest.mark.parametrize("row", ROWS, ids=map(row_id, ROWS))
def test_pin(row, tmp_path, monkeypatch):
    assert check(row, *run_in_process(row, tmp_path, monkeypatch)) == []


def _pick(args, kind):
    return next(row for row in ROWS if row.args == args and row.budget is None and isinstance(row.expected, kind))


def test_check_fails_a_changed_row(tmp_path, monkeypatch):
    # neither runner may pass by comparing nothing: each changed copy of a
    # passing row fails on the run that passes the row itself
    digest = _pick(CHAIN_BRACKET, Digest)
    literal = _pick(("bracket", "x2", "y2"), str)
    error = _pick(("nf", "Omega01"), Error)
    sha, text = digest.expected.sha256, literal.expected
    flipped = sha[:20] + f"{int(sha[20], 16) ^ 1:x}" + sha[21:]  # one hex digit
    cases = [
        (digest, digest._replace(expected=digest.expected._replace(sha256=flipped))),
        (literal, literal._replace(expected=text[:15] + chr(ord(text[15]) ^ 1) + text[16:])),
        (literal, literal._replace(status=1)),
        (error, error._replace(expected=error.expected._replace(name="ParseError"))),
    ]
    for row, changed in cases:
        run = run_in_process(row, tmp_path, monkeypatch)
        assert check(row, *run) == []
        assert check(changed, *run) != [], changed


def test_readme_cli_commands_are_rows():
    # every command of README's CLI code block is pinned as it is written there
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    pinned = [(row.config, row.args) for row in ROWS if row.budget is None]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 8
    for command in commands:
        assert command[:2] == ["poisson-strata", "--config"]
        assert (command[2], tuple(command[3:])) in pinned, command


@pytest.mark.parametrize("command", [["map-report"], ["verify", "all"]])
def test_stdout_does_not_depend_on_the_hash_seed(command):
    # the caches on the parameters are dicts keyed by tuples, and no printed
    # order may follow string hashing
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    config = ROOT / "perfbench" / "configs" / "paired_n3.json"
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        args = [sys.executable, "-m", "poisson_strata.cli", "--config", str(config), *command]
        outs.append(subprocess.run(args, env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1] and outs[0].startswith("{")
