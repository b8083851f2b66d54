"""Start-up: importing spzeros starts no OpenBLAS worker pool, and a sweep
loads no thread pool of its own.

OpenBLAS reads its thread count once, when numpy loads, so each check runs
in a fresh interpreter.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spzeros"

# Variables OpenBLAS reads for its pool size, in order of precedence.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")

needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"),
    reason="counting threads reads /proc/self/task")


def _import_in_fresh_process(**env_vars):
    """Import spzeros.cli in a new interpreter; return its thread count and
    OPENBLAS_NUM_THREADS as they stand after the import."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_vars)
    code = ("import json, os; import spzeros.cli; "
            "print(json.dumps([len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       env=env, cwd=str(ROOT), timeout=60)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@needs_proc_tasks
def test_import_starts_no_blas_worker():
    threads, value = _import_in_fresh_process()
    assert value == "1"
    assert threads == 1


@needs_proc_tasks
def test_caller_blas_thread_count_wins():
    _, value = _import_in_fresh_process(OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_sweep_of_two_chunks_loads_no_pool():
    # Golden's momenta at depth 17 sweep 131,072 addresses in eight
    # chunks, which _sweep_chunks runs in turn. numpy itself imports
    # threading, so the check is on the modules a pool would bring.
    code = ("import os, sys; from spzeros import cli; "
            "code = cli.main(['moments', 'problems/golden.json', "
            "'--max-support', '17', '--m', '1', '-o', os.devnull]); "
            "print(code, sorted({'concurrent.futures', 'logging'} "
            "& set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, cwd=str(ROOT), timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0 []\n"


# Attribute and import names that reach threaded BLAS through numpy: the
# products, numpy.linalg, and np.roots / np.polyfit, which solve through
# LAPACK. np.einsum without `optimize` (poly.py's diagonal view) does not, and
# np.convolve (the Koenigs series, KOENIGS_ORDER + 1 terms) takes only dots of
# a few entries, which do not wake OpenBLAS's worker.
BLAS_NAMES = {"dot", "matmul", "vdot", "inner", "tensordot", "linalg",
              "roots", "polyfit"}


def _blas_calls(tree):
    """(line, name) of each BLAS-backed use in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if module.startswith("numpy") and (
                        alias.name in BLAS_NAMES or "linalg" in module):
                    yield node.lineno, alias.name
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "einsum"
              and any(kw.arg == "optimize" for kw in node.keywords)):
            yield node.lineno, "einsum(optimize=...)"


def test_blas_scan_flags_each_form():
    sample = ("import numpy as np\nfrom numpy.linalg import solve\n"
              "from numpy import tensordot\nc = a @ b\nc @= b\n"
              "np.dot(a, b)\na.dot(b)\nnp.linalg.norm(a)\nnp.roots(p)\n"
              "np.einsum('ij,jk', a, b, optimize=True)\n"
              "np.einsum('bii->bi', a)\n")
    assert sorted(_blas_calls(ast.parse(sample))) == [
        (2, "solve"), (3, "tensordot"), (4, "@"), (5, "@"), (6, "dot"),
        (7, "dot"), (8, "linalg"), (9, "roots"), (10, "einsum(optimize=...)")]


def test_package_calls_no_blas():
    # The premise of capping OpenBLAS at one thread in __init__.py.
    hits = [f"{path.name}:{line} {name}"
            for path in sorted(SRC.glob("*.py"))
            for line, name in _blas_calls(ast.parse(path.read_text()))]
    assert hits == []
