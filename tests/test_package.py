"""Tests for the package's lazy exports, what importing it and the CLI does
to the process, and the premise behind the CLI's one OpenBLAS thread: no
source file calls a BLAS routine."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adahedge

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package bound when it imported its submodules eagerly
EAGER_EXPORTS = {
    "core": [
        "ACCUMULATED_TOL",
        "LOSS_RANGE_TOL",
        "PER_OP_TOL",
        "CumulativeLoss",
        "RoundReport",
        "WeightSnapshot",
        "hedge_weights",
        "log_marginal_likelihood",
        "mix_loss",
        "mixability_gap",
        "posterior_update",
    ],
    "strategies": [
        "AdaHedge",
        "DoublingHedge",
        "FixedHedge",
        "FollowTheLeader",
        "OracleHedge",
        "RegretTrace",
        "Strategy",
        "VariableHedge",
        "init",
        "oracle_eta",
        "run",
    ],
    "simulation": [
        "AggregateResult",
        "AlternatingPair",
        "Correlated",
        "ExperimentConfig",
        "FtlKiller",
        "IidBernoulli",
        "SegmentStats",
        "derive_seed",
        "generate",
        "run_experiment",
        "segment_statistics",
        "unit_uniforms",
    ],
}
# the submodules a bare ``import adahedge`` made reachable
EAGER_MODULES = ["bounds", "core", "reports", "simulation", "strategies"]


def python(code: str, **env: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter that imports
    from ``src``, with ``OPENBLAS_NUM_THREADS`` unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": str(SRC), **env},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestLazyExports:
    @pytest.mark.parametrize(
        "module,name", [(m, n) for m, names in EAGER_EXPORTS.items() for n in names]
    )
    def test_name_is_its_submodules_object(self, module, name):
        submodule = importlib.import_module(f"adahedge.{module}")
        assert getattr(adahedge, name) is getattr(submodule, name)

    def test_every_eager_name_is_exported(self):
        eager = {n for names in EAGER_EXPORTS.values() for n in names} | set(EAGER_MODULES)
        assert set(adahedge.__all__) == eager
        assert eager <= set(dir(adahedge))
        assert adahedge.__version__ == "0.1.0"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'adahedge' has no attribute 'nope'"):
            adahedge.nope
        with pytest.raises(ImportError):
            from adahedge import nope  # noqa: F401

    def test_bare_import_reaches_the_submodules(self):
        """In a new process, where no submodule is loaded yet."""
        code = (
            "import adahedge, importlib\n"
            f"for name in {EAGER_MODULES!r}:\n"
            "    print(getattr(adahedge, name) is importlib.import_module('adahedge.' + name))\n"
        )
        assert python(code) == ["True"] * len(EAGER_MODULES)


class TestImportEnvironment:
    def test_package_import_loads_no_numpy_and_leaves_the_environment(self):
        code = (
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import adahedge\n"
            "print('numpy' in sys.modules, dict(os.environ) == before)\n"
            "print('OPENBLAS_NUM_THREADS' in os.environ)\n"
        )
        assert python(code) == ["False True", "False"]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task"
    )
    def test_cli_import_starts_no_blas_thread(self):
        code = (
            "import os\n"
            "import adahedge.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        assert python(code) == ["1 1"]

    def test_cli_keeps_the_callers_thread_count(self):
        code = "import os, adahedge.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        assert python(code, OPENBLAS_NUM_THREADS="2") == ["2"]


# numpy routes these to BLAS: the ``@`` operator, and any of these names as
# an attribute (``np.dot``, ``x.dot``, ``np.linalg``) or in an import
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_uses(source: str) -> list[str]:
    """Each BLAS-backed call or import in ``source``, as ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            for name in names:
                for part in BLAS_NAMES.intersection(name.split(".")):
                    found.append(f"{node.lineno}: {part}")
    return found


@pytest.mark.parametrize(
    "path", sorted((SRC / "adahedge").glob("*.py")), ids=lambda path: path.name
)
def test_source_calls_no_blas(path):
    """The CLI loads numpy with one OpenBLAS thread because nothing here
    calls BLAS; a BLAS call would make that setting cost time."""
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "c = a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.vdot(a, b)",
        "np.inner(a, b)",
        "np.matmul(a, b)",
        "np.tensordot(a, b)",
        "np.einsum('ij,jk', a, b)",
        "np.linalg.norm(a)",
        "from numpy import einsum",
        "from numpy.linalg import norm",
        "import numpy.linalg",
    ],
)
def test_blas_scan_finds(source):
    assert len(blas_uses(source)) >= 1


def test_blas_scan_ignores_plain_names():
    """``inner`` is a local variable in ``bounds``."""
    assert blas_uses("inner = a * b\nx = inner + 1\nnp.add.reduce(a)") == []
