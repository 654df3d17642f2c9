"""Tests of the benchmark's own code, at tiny sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_config(tmp_path: Path) -> Path:
    # truncation_tol 1e-3 cuts the CLI's exact enumeration from 2^24 words to 2^9
    path = tmp_path / "tiny.json"
    doc = {"system": {"b": 2, "gamma": 0.4, "truncation_tol": 1e-3, "phi": [[1, 1.0, 0.0]]}}
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path / "out")
    return [
        workloads.FiberMC(samples=20_000, level=10),
        workloads.AttractorBox(points=20_000),
        workloads.DecompositionCLI(extra_args=("--config", str(_tiny_config(tmp_path)))),
        workloads.SeparationScan(base_points=2),
    ]


def _bindings():
    out = []
    for module, attr, *_ in layers.BINDINGS:
        owner = workloads.lab(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append(getattr(owner, name))
    return out


def _rep(workload, seed: int, mode: str) -> dict:
    inputs = workload.setup(seed)
    try:
        rec = worker.run_once(workload, inputs, mode == "traced")
    finally:
        workload.cleanup(inputs)
    return {**rec, "mode": mode, "setup_s": 0.1}


def test_wrappers_are_pass_through(tiny):
    before = _bindings()
    for w in tiny:
        plain = _rep(w, 5, "plain")
        traced = _rep(w, 5, "traced")
        assert plain["digest"] is not None, plain["detail"]
        assert traced["digest"] == plain["digest"], w.name
        assert traced["layers"]["periodic.calls"] > 0
    assert all(a is b for a, b in zip(before, _bindings())), "wrappers left installed"


def test_speed_monitor_samples_through_the_call():
    monitor = speed.Monitor()
    monitor.start()
    time.sleep(4.5 * speed.PERIOD_S)
    monitor.stop()
    # one sample at entry, then one per period (fewer if the thread starts late)
    assert 2 <= len(monitor.durations) <= 6
    assert 0 < monitor.busy_s < 4.5 * speed.PERIOD_S
    assert monitor.speed == pytest.approx(
        sum(speed.REFERENCE_KERNEL_S / d for d in monitor.durations) / len(monitor.durations)
    )


def test_layers_without_a_binding_are_absent(monkeypatch):
    measures = workloads.lab("measures")
    monkeypatch.delattr(measures, "_Hist")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["measures._Hist.add"]
    assert not {"measures.hist_s", "measures.hist_items", "measures.cells"} & set(tracer.metrics())


def test_emitted_names_match_benchmark_json(tiny):
    spec = lambda key: [(m["name"], m["unit"], m["better"]) for m in BENCH[key]]  # noqa: E731
    assert list(workloads.WORKLOADS) == [w["name"] for w in BENCH["workloads"]]
    assert [w.name for w in tiny] == list(workloads.WORKLOADS)
    assert run.END_TO_END == spec("end_to_end")
    assert layers.PER_LAYER == spec("per_layer")
    assert BENCH["command"] == ["python3", "perfbench/run.py"]

    sep = tiny[-1]
    plain = [_rep(sep, 1, "plain"), _rep(sep, 1, "plain")]
    traced = [_rep(sep, 1, "traced")]
    untraced_res = run.summarize(plain, trace=False)
    traced_res = run.summarize(plain[:1] + traced, trace=True)
    for res, key in ((untraced_res, "end_to_end"), (traced_res, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == [m["name"] for m in BENCH[key]]
        assert [m["unit"] for m in res["metrics"].values()] == [m["unit"] for m in BENCH[key]]


class _FailingCheck:
    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def check(self, inputs, out):
        return workloads.Check(False, "deliberately failing check")


class _Raising(_FailingCheck):
    def call(self, inputs):
        raise RuntimeError("deliberate failure")


def test_failures_are_counted(tiny):
    sep = tiny[-1]
    good = _rep(sep, 1, "plain")
    failing = _rep(_FailingCheck(sep), 1, "plain")
    raising = _rep(_Raising(sep), 1, "plain")
    assert good["ok"] and not failing["ok"] and not raising["ok"]
    assert "deliberate failure" in raising["detail"]
    res = run.summarize([good, failing, raising], trace=False)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 3, 2)
    # a repetition whose output differs from the others' is a failure too
    odd = {**good, "digest": "0" * 16}
    res = run.summarize([good, good, odd], trace=False)
    assert (res["correct"], res["failed"]) == (False, 1)


def test_launcher_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "separation-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
