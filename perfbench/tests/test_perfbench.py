"""The benchmark's own tests: tracing is transparent, the layer split adds
up, the service script is seeded, and the service generator is open loop.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Worlds are shrunk so the whole file takes well under a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracing
from repro import SimulationRng
from repro.workload import generate_workload
from workloads import WORKLOADS, Setup, service_script

HERE = Path(__file__).resolve().parent.parent


def small(name: str, **changes):
    """A shrunk copy of a benchmark workload."""
    spec = WORKLOADS[name]
    scale = {"dense": 0.02, "paper": 0.02, "service": 0.04, "figures": 0.02}[name]
    changes.setdefault("window", 6)
    if spec.service is not None:
        changes.setdefault("service", replace(spec.service, tick_ms=0.0, updates=10, budget=20))
    return replace(spec, scale=scale, worlds=1, **changes)


def traced_pair(spec, seed=3, steps=12):
    """An untraced and a traced world over the same steps, both timed on
    the wall clock as in the benchmark's traced run."""
    plain = Setup(spec, seed)
    untraced = run.World(plain, seed, 0.0, steps=steps, timer=run.wall_timer)
    plain.close()
    setup = Setup(spec, seed)
    tracer = tracing.Tracer()
    tracing.install(tracer, setup)
    traced = run.World(
        setup, seed, 0.0, steps=steps, sample_internals=True, timer=run.wall_timer
    )
    return untraced, traced, tracer


@pytest.mark.parametrize("name", ["paper", "service", "figures"])
def test_tracing_is_bit_identical(name):
    untraced, traced, tracer = traced_pair(small(name))
    assert not untraced.failures and not traced.failures
    assert traced.pins == untraced.pins
    assert traced.end == untraced.end
    assert tracer.spans, "the traced run recorded no spans"
    traced.setup.close()


@pytest.mark.parametrize("name", ["dense", "service", "figures"])
def test_self_times_and_unattributed_sum_to_wall(name):
    untraced, traced, tracer = traced_pair(small(name))
    metrics = tracing.per_layer([traced], [untraced], tracer)
    own, _, top = tracer.self_seconds()
    wall = sum(traced.step_s)
    unattributed = metrics["trace.unattributed_ms_per_step"][0] * traced.steps / 1000.0
    # Stated tolerance: 1e-6 of the traced wall time (float rounding only).
    assert sum(own.values()) + unattributed == pytest.approx(wall, rel=1e-6)
    assert 0.0 <= unattributed <= wall
    assert all(value >= -1e-9 for value in own.values())
    assert sum(own.values()) == pytest.approx(top, rel=1e-9)
    traced.setup.close()


def test_every_layer_metric_is_reported():
    untraced, traced, tracer = traced_pair(small("paper"))
    metrics = tracing.per_layer([traced], [untraced], tracer)
    assert set(metrics) == set(tracing.METRICS)
    assert metrics["server.self_ms_per_step"][0] > 0.0
    assert metrics["fanout.broadcasts_per_step"][0] > 0.0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(tracing.METRICS)
    traced.setup.close()


def test_missing_entry_point_reports_null(monkeypatch, capsys):
    monkeypatch.setitem(
        tracing.LAYERS, "network.cover", [(("system", "layout"), "no_such_method", None)]
    )
    monkeypatch.setitem(
        tracing.LAYERS, "motion", [(("system", "no_such_attribute"), "advance", None)]
    )
    untraced, traced, tracer = traced_pair(small("dense"))
    metrics = tracing.per_layer([traced], [untraced], tracer)
    assert metrics["network.cover_ms_per_step"][0] is None
    assert metrics["motion.ms_per_step"][0] is None
    assert metrics["trace.unattributed_ms_per_step"][0] is None
    assert metrics["evaluator.ms_per_step"][0] is not None
    assert "layer network.cover reported as null" in capsys.readouterr().err
    traced.setup.close()


def test_service_script_is_seeded():
    spec = WORKLOADS["service"]

    def first_ticks(seed):
        params = spec.params(seed)
        workload = generate_workload(params, SimulationRng(seed).fork(1))
        return list(itertools.islice(service_script(spec, params, workload, seed), 12))

    a, b, c = first_ticks(42), first_ticks(42), first_ticks(43)
    assert a == b
    assert a != c
    kinds = {op[0] for ops in a for op in ops}
    assert kinds == {"update", "install", "remove"}


def test_generator_is_open_loop():
    spec = small("service", window=4)
    spec = replace(spec, service=replace(spec.service, tick_ms=25.0))
    steady = Setup(spec, 5)
    base = run.World(steady, 5, 0.0, steps=40)
    steady.close()

    slowed = Setup(spec, 5)
    service = slowed.service
    tick = service.tick
    calls = itertools.count()

    def slow_tick():
        if next(calls) == 5:
            # Busy, not asleep: the generator's timeline runs on CPU time.
            end = time.process_time() + 0.5
            while time.process_time() < end:
                pass
        return tick()

    service.tick = slow_tick
    stalled = run.World(slowed, 5, 0.0, steps=40)
    slowed.close()
    # Later ticks stay due on the original schedule, so one slow tick
    # makes the following ticks start late and their ops wait longer.
    assert run.pct(stalled.generator.lateness, 90) > run.pct(base.generator.lateness, 90) + 0.1
    assert run.pct(stalled.generator.latency, 90) > run.pct(base.generator.latency, 90) + 0.1
    # Pacing decides when ticks run, never what they compute.
    assert stalled.end == base.end


def test_no_imports_of_harness_modules():
    for path in HERE.glob("*.py"):
        text = path.read_text()
        for module in ("repro.fastpath.bench", "repro.soak", "repro.cli"):
            assert module not in text, f"{path.name} imports {module}"


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
