"""Quick tests of the benchmark's checks and tracer.

    python3 -m pytest -q bench/test_checks.py

Each check must pass on a real output at a small depth and fail on a row
perturbed by 1e-9 relative, a dropped row and a duplicated address.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spzeros import cli  # noqa: E402


def _cli_csv(tmp_path, *argv):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "-o", str(out)]) == 0
    return out.read_text()


def _edit(text, fn):
    """Apply fn to the list of data rows and return the CSV text again."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    body = fn(body)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + body)
    return buf.getvalue()


def _perturb(index, cols, rel=1e-9):
    """Scale the complex value in columns cols = (re, im) of one row."""
    def fn(body):
        for col in cols:
            body[index][col] = repr(float(body[index][col]) * (1.0 + rel))
        return body
    return fn


def _drop(index):
    return lambda body: body[:index] + body[index + 1:]


def _duplicate(src, dst):
    """Row dst becomes a copy of row src: one address twice, one missing."""
    def fn(body):
        body[dst] = list(body[src])
        return body
    return fn


def _relabel(src, dst):
    """Row dst keeps its value but takes row src's address."""
    def fn(body):
        body[dst][0] = body[src][0]
        return body
    return fn


def _fails(result):
    failures, _ = result
    return bool(failures)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


def test_zeros_check(tmp):
    text = _cli_csv(tmp, "zeros", run.CHEBYSHEV, "--max-support", "8")
    check = lambda t: checks.check_zeros_chebyshev(t, 8)  # noqa: E731
    failures, notes = check(text)
    assert failures == [] and notes["worst_rel_error"] < 1e-12
    assert _fails(check(_edit(text, _perturb(77, (1, 2)))))
    assert _fails(check(_edit(text, _drop(200))))
    assert _fails(check(_edit(text, _duplicate(3, 4))))
    assert _fails(check(_edit(text, _relabel(3, 4))))
    assert _fails(check(_edit(text, lambda body: body + [body[9]])))


def test_moments_check(tmp):
    text = _cli_csv(tmp, "moments", run.GOLDEN, "--m", "1,2,3",
                    "--max-support", "13")
    check = lambda t: checks.check_moments_golden(t, 13, (1, 2, 3))  # noqa
    assert check(text)[0] == []
    last = 3 * 14 - 1  # m = 3, shell 13
    assert _fails(check(_edit(text, _perturb(last, (2, 3)))))
    assert _fails(check(_edit(text, _perturb(2 * 14 - 1, (2, 3)))))
    assert _fails(check(_edit(text, _drop(20))))
    assert _fails(check(_edit(text, _duplicate(5, 6))))


def test_wh_check(tmp):
    points = run.wh_points(5)[:4]
    text = _cli_csv(tmp, "wh", run.CHEBYSHEV, "--max-support", "10",
                    *[f"--z={p.real!r},{p.imag!r}" for p in points])
    check = lambda t: checks.check_wh_chebyshev(t, points)  # noqa: E731
    assert check(text)[0] == []
    assert _fails(check(_edit(text, _perturb(1, (2, 3)))))
    assert _fails(check(_edit(text, _perturb(2, (4, 5), rel=1e-2))))
    assert _fails(check(_edit(text, _drop(3))))
    assert _fails(check(_edit(text, _duplicate(0, 1))))


def test_traced_child_reports_layers():
    cfg = {"problem": run.CHEBYSHEV, "trace": True,
           "argv": ["zeros", run.CHEBYSHEV, "--max-support", "6", "-o",
                    str(ROOT / "bench" / ".work" / "test_trace.csv")]}
    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"),
                           json.dumps(cfg)], cwd=ROOT, capture_output=True,
                          text=True, env=dict(os.environ, SPZEROS_THREADS="1"))
    (ROOT / "bench" / ".work" / "test_trace.csv").unlink()
    assert proc.returncode == 0, proc.stderr
    op = json.loads(proc.stdout.splitlines()[-1])
    assert op["exit_code"] == 0 and op["absent"] == []
    assert 0.0 < op["self_s_total"] <= op["wall_s"]
    tail = op["layers"]["branches.tail_products"]
    assert tail["leaves"] == 2 ** 6 and tail["unconverged"] == 0
    op["rows"] = 2 ** 6
    metrics = run.layer_metrics(op)
    assert metrics["branches.expand_level.nodes"][0] == 2 ** 6 - 1
    assert 0.0 < metrics["branches.tail_products.deep_share"][0] < 1.0


def test_absent_layer_is_reported(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", {
        "branches.tail_products": ([("spzeros.branches", "_no_such")], None)})
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["branches.tail_products"]
    assert t.report()["branches.tail_products"]["calls"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = {"layers": {}, "rows": 1}
    emitted = set(run.layer_metrics(op)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "cpu_s", "peak_rss_mb", "setup_s"}
