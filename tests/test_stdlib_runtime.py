"""The runtime needs only the standard library (DESIGN.md §17): numpy
powers the vectorized flood kernel and the report statistics, networkx
is the tests' reference implementation only.  Where numpy is installed,
only a process that runs the vectorized kernel loads it.

Each check runs in a fresh interpreter, because this test process has
long since imported both."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.scale_runner import RunSpec, run_spec

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Makes ``import numpy`` / ``import networkx`` raise ImportError.
BLOCK = "import sys\nsys.modules['numpy'] = None\nsys.modules['networkx'] = None\n"

#: A 64-node run per stack and kernel that needs no numpy: the BRISA run
#: includes its §II-B structure check.
SPECS = {
    "brisa-object": dict(stack="brisa", nodes=64, messages=10),
    "flood-slotted": dict(stack="flood", nodes=64, messages=10, kernel="slotted"),
}

#: The deterministic fields of a ``ScaleResult``.
FIELDS = ("per_stream", "deliveries", "events", "receptions", "peak_pending")

CHILD = BLOCK + f"""
import json
import repro.experiments.scenarios
from repro.errors import SimulationError
from repro.experiments.scale_runner import RunSpec, run_spec

out = {{}}
for name, spec in {SPECS!r}.items():
    result = run_spec(RunSpec(**spec))
    out[name] = {{field: getattr(result, field) for field in {FIELDS!r}}}
try:
    run_spec(RunSpec(stack="flood", nodes=64, messages=10, kernel="vectorized"))
except SimulationError as exc:
    out["vectorized"] = str(exc)
print(json.dumps(out))
"""


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def blocked():
    """What a numpy- and networkx-free interpreter reports."""
    return json.loads(run_python(CHILD).splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_runs_without_numpy_or_networkx(blocked, name):
    """``import repro.experiments.scenarios`` and a whole scale run work
    with both modules unimportable, with the in-process outcome."""
    result = run_spec(RunSpec(**SPECS[name]))
    expected = {field: getattr(result, field) for field in FIELDS}
    assert blocked[name] == json.loads(json.dumps(expected))
    if SPECS[name]["stack"] == "brisa":
        assert all(row["structure_complete"] for row in result.per_stream)


def test_vectorized_kernel_names_numpy(blocked):
    assert "numpy" in blocked["vectorized"]


#: Runs that leave numpy unloaded where it is installed, in order.
NUMPY_FREE = {
    "brisa-object": dict(stack="brisa", nodes=64, messages=10),
    "brisa-slotted-lossy": dict(
        stack="brisa", nodes=64, messages=10, kernel="slotted", loss_percent=2.0
    ),
    "flood-slotted": dict(stack="flood", nodes=64, messages=10, kernel="slotted"),
}

NUMPY_PROBE = f"""
import json, sys
loaded = {{}}
import repro.cli
import repro.experiments.scenarios
loaded["import"] = "numpy" in sys.modules
from repro.experiments.scale_runner import RunSpec, run_spec
for name, spec in {NUMPY_FREE!r}.items():
    run_spec(RunSpec(**spec))
    loaded[name] = "numpy" in sys.modules
run_spec(RunSpec(stack="flood", nodes=64, messages=10, kernel="vectorized"))
loaded["flood-vectorized"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def numpy_loaded():
    """Whether numpy was in ``sys.modules`` after each step of a fresh
    interpreter that has it installed."""
    pytest.importorskip("numpy")
    return json.loads(run_python(NUMPY_PROBE).splitlines()[-1])


@pytest.mark.parametrize("step", ["import"] + sorted(NUMPY_FREE))
def test_numpy_stays_unloaded(numpy_loaded, step):
    """``import repro.cli`` / ``repro.experiments.scenarios`` and every
    run on the BRISA kernels or the slotted flood kernel leave numpy out
    of ``sys.modules``."""
    assert numpy_loaded[step] is False


def test_the_vectorized_kernel_loads_numpy(numpy_loaded):
    assert numpy_loaded["flood-vectorized"] is True


@pytest.fixture(scope="module")
def table1_modules():
    """The exit status of a fresh interpreter's ``repro run table1
    --scale tiny`` and the modules it loaded."""
    out = run_python(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['run', 'table1', '--scale', 'tiny'])\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n"
    )
    status, modules = json.loads(out.splitlines()[-1])
    assert status == 0
    return set(modules)


def test_table1_run_never_imports_networkx(table1_modules):
    """A whole paper artifact run loads no networkx."""
    assert "networkx" not in table1_modules


def test_table1_run_never_imports_numpy(table1_modules):
    """Table I's churn runs (``table1_churn``) and its renderer load no
    numpy either."""
    assert "numpy" not in table1_modules


def test_table1_run_never_imports_hashlib(table1_modules):
    """Seed derivation hashes with the interpreter's own SHA-256, so a
    run never loads OpenSSL's libcrypto."""
    assert not {"hashlib", "_hashlib"} & table1_modules
