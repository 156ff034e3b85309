"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 42 --seconds 20 --trace 0

Each run builds the workload's system ``SETUPS`` times (or once per world)
and reports the median set-up time, then measures: first a fixed window
of steps whose end state is checked and, for the pinned seed, compared
with ``pins.json``; then more steps until ``--seconds`` busy seconds have
been measured.  ``--trace 0`` prints the end-to-end metrics, timed in CPU
seconds at a reference host speed (see :class:`ReferenceTimer`);
``--trace 1`` the per-layer metrics of a traced copy of the run (see
``tracing.py``), timed on the wall clock.
The last line of standard output is the JSON result; the lines before it
name every metric with its unit and better direction.  The exit code is
non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import tracing
from tracing import pct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = ROOT / ".perfbench_out"
SETUPS = 4
#: Wall-time limit of a world's continuation, as a multiple of its budget.
WALL_CAP = 1.5


def _import_repro() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


# ------------------------------------------------------------ helpers


def result_hash(system) -> str:
    """Order-independent digest of every query's current result set."""
    payload = sorted(
        (int(qid), tuple(sorted(int(oid) for oid in members)))
        for qid, members in system.results().items()
    )
    return hashlib.sha256(repr(payload).encode("ascii")).hexdigest()


def error_sample(system) -> tuple[int, int]:
    """``(symmetric difference, oracle members)`` summed over queries."""
    results = system.results()
    oracle = system.oracle_results()
    diff = sum(len(results.get(qid, frozenset()) ^ members) for qid, members in oracle.items())
    return diff, sum(len(members) for members in oracle.values())


def state(system) -> dict:
    """The pinned observables: result hash, message counts, energy."""
    ledger = system.ledger
    return {
        "result_hash": result_hash(system),
        "uplink": ledger.uplink_count,
        "downlink": ledger.downlink_count,
        "energy_j": ledger.total_energy(),
    }


def world_seed(seed: int, world: int) -> int:
    return seed + 1000 * world


# ------------------------------------------------------------- timing

#: CPU seconds :func:`_yardstick` takes at the reference speed: the slower
#: of the two speeds of the reference host (a 2-vCPU Intel Xeon VM).
REFERENCE_YARDSTICK_S = 0.00085


def _yardstick() -> int:
    """A fixed piece of interpreter work: dict updates and integer
    arithmetic, the kind of work the simulation's steps are made of."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13
    return acc


class ReferenceTimer:
    """Times calls in CPU seconds at the reference host speed.

    CPU time leaves out the time the shared host runs other work on this
    core, but not the speed of the core itself: the reference host runs
    it at two speeds about 1.8x apart and switches between them within
    seconds, so the same steps took from 1x to 2x the CPU time of each
    other from one second to the next.  After every timed call the timer
    runs the fixed :func:`_yardstick` and scales the call's CPU time by
    ``REFERENCE_YARDSTICK_S`` over the mean of the yardstick's CPU times
    just before and just after the call.  Nothing the program does can
    change the yardstick, so a faster program still reads faster.
    """

    def __init__(self) -> None:
        for _ in range(20):  # warm the interpreter's caches
            _yardstick()
        self.last = self._yardstick_s()

    @staticmethod
    def _yardstick_s() -> float:
        t0 = time.process_time()
        _yardstick()
        return time.process_time() - t0

    def __call__(self, fn):
        """``(seconds at the reference speed, fn())``."""
        t0 = time.process_time()
        result = fn()
        busy = time.process_time() - t0
        after = self._yardstick_s()
        scale = 2.0 * REFERENCE_YARDSTICK_S / (self.last + after)
        self.last = after
        return busy * scale, result


def wall_timer(fn):
    """``(wall seconds, fn())``: the traced run's timer, on the clock its
    spans use."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


# ------------------------------------------------------------ service


class Generator:
    """Open-loop load generator of the ``service`` workload.

    Tick ``k`` is due at ``k * period`` on the generator's timeline, which
    advances by each tick's busy time as the run's timer measures it: a
    tick starts when it is due or when the previous tick ends, whichever
    is later.  Each tick submits its
    scripted ops -- whether or not earlier ones were applied -- and runs
    the service tick, so a slow tick makes later ticks late rather than
    slowing the offered load.  An op's latency runs from its tick's due
    time to the end of the tick that applied it; a late tick start is
    recorded as lateness.  The generator never waits in host time: the
    timeline is that of a dedicated core at the reference speed, so
    neighbours on a shared host do not enter the figures.
    """

    def __init__(self, setup, seed: int, timer) -> None:
        from workloads import fix_position, service_script

        spec = setup.spec
        self.system = setup.system
        self.uod = setup.params.uod
        self.fix_position = fix_position
        self.service = setup.service
        self.timer = timer
        self.period = spec.service.tick_ms / 1000.0
        self.script = service_script(spec, setup.params, setup.workload, seed)
        self.free = 0.0  # timeline instant the previous tick ended
        self.pending: deque = deque()
        self.installs: dict = {}
        self.lateness: list[float] = []
        self.latency: list[float] = []
        self.waits: list[int] = []
        self.queue_depth: list[int] = []
        self.submitted = 0
        self.failed = 0
        self.applied = 0

    def _submit(self, op, due: float, k: int) -> None:
        service = self.service
        kind = op[0]
        if kind == "update":
            _, oid, dx, dy, vel = op
            pos = self.fix_position(self.uod, self.system.client(oid).obj.pos, dx, dy)
            ticket = service.submit_update(oid, pos, vel)
        elif kind == "install":
            ticket = self.installs[op[1]] = service.install_query(op[2])
        else:
            install = self.installs.pop(op[1])
            if install.rejected:
                return  # its install never happened: no valid removal exists
            ticket = service.remove_query(install)
        self.submitted += 1
        if ticket.rejected:
            self.failed += 1
        else:
            self.pending.append((ticket, due, k))

    def _apply(self, ops, due: float, k: int) -> None:
        for op in ops:
            self._submit(op, due, k)
        self.queue_depth.append(self.service.queue_depth)
        try:
            self.service.tick()
        except Exception:
            # The admitted ops of a tick that raised count as failed.
            self.failed += sum(1 for t, _, _ in self.pending if t.applied)
            raise

    def tick(self, k: int) -> float:
        """Submit tick ``k``'s ops and run the service tick; returns the
        tick's busy time (submission included)."""
        due = k * self.period
        start = max(due, self.free)
        self.lateness.append(start - due)
        ops = next(self.script)
        busy, _ = self.timer(lambda: self._apply(ops, due, k))
        self.free = ended = start + busy
        pending = self.pending
        while pending and pending[0][0].applied:
            _, op_due, op_tick = pending.popleft()
            self.latency.append(ended - op_due)
            self.waits.append(k - op_tick)
            self.applied += 1
        return busy


# -------------------------------------------------------------- a world


class World:
    """Measurement of one built system: the pinned window plus the
    time-bounded continuation.

    Steps are timed by ``timer``: a :class:`ReferenceTimer` by default;
    the traced run passes :func:`wall_timer`.  After the window the world
    steps until ``budget`` busy seconds have been measured, so the work
    measured does not depend on the host's speed, or until ``WALL_CAP``
    times ``budget`` wall seconds have passed, so a crowded host cannot
    stretch a run without end.
    """

    def __init__(
        self,
        setup,
        seed: int,
        budget: float,
        steps: int | None = None,
        sample_internals: bool = False,
        timer=None,
    ):
        self.setup = setup
        spec = setup.spec
        system = setup.system
        self.step_s: list[float] = []
        self.failures: list[str] = []
        self.err = [0, 0]
        self.inflight: list[int] = []
        self.objects = len(setup.workload.objects)
        timer = timer or ReferenceTimer()
        self.generator = Generator(setup, seed, timer) if setup.service is not None else None
        inflight = getattr(system.transport, "pending_count", None) if sample_internals else None
        ledger = system.ledger
        up0, down0, energy0 = ledger.uplink_count, ledger.downlink_count, ledger.total_energy()
        started = time.perf_counter()
        busy = 0.0
        k = 0
        try:
            while True:
                if self.generator is not None:
                    step_s = self.generator.tick(k)
                else:
                    step_s = timer(system.step)[0]
                self.step_s.append(step_s)
                busy += step_s
                k += 1
                if inflight is not None:
                    self.inflight.append(inflight())
                if k <= spec.window:
                    diff, total = error_sample(system)
                    self.err[0] += diff
                    self.err[1] += total
                if k == spec.window:
                    self.pins = state(system)
                    self.window_counts = (
                        ledger.uplink_count - up0,
                        ledger.downlink_count - down0,
                        ledger.total_energy() - energy0,
                    )
                    self._check("invariants at window end", system.check_invariants)
                if steps is not None:
                    if k >= steps:
                        break
                elif k >= spec.window and (
                    busy >= budget or time.perf_counter() - started >= WALL_CAP * budget
                ):
                    break
        except Exception as exc:  # a step raised: the run is failed, not crashed
            self.failures.append(f"step {k} raised {type(exc).__name__}: {exc}")
            self.steps = k
            return
        self.steps = k
        self.end = state(system)
        self._check("invariants at run end", system.check_invariants)
        if setup.service is not None:
            self._check("service accounting", setup.service.check_accounting)

    def release(self) -> None:
        """Drop the references that keep the measured system alive."""
        self.setup = None
        if self.generator is not None:
            self.generator.system = self.generator.service = self.generator.script = None

    def _check(self, what: str, fn) -> None:
        try:
            fn()
        except AssertionError as exc:
            self.failures.append(f"{what}: {exc}")

    @property
    def ops(self) -> int:
        """Applied operations: scripted ops for the service, otherwise
        one position update per object per step."""
        if self.generator is not None:
            return self.generator.applied
        return self.objects * self.steps

    def latencies(self) -> list[float]:
        if self.generator is not None:
            return self.generator.latency
        return self.step_s


# ---------------------------------------------------------------- runs


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def check_pins(spec, seed: int, worlds: list[World], pins: dict) -> tuple[list[str], str]:
    """Compare the pooled window-end state with ``pins.json``."""
    entry = pins.get("workloads", {}).get(spec.name)
    if entry is None or seed != pins.get("seed"):
        return [], f"unpinned (seed {seed})"
    got = pooled_pins(worlds)
    bad = [
        f"pin {key}: expected {entry[key]!r}, got {got[key]!r}"
        for key in ("result_hash", "uplink", "downlink")
        if entry[key] != got[key]
    ]
    if not math.isclose(entry["energy_j"], got["energy_j"], rel_tol=1e-12):
        bad.append(f"pin energy_j: expected {entry['energy_j']!r}, got {got['energy_j']!r}")
    return bad, "pinned" if not bad else "pin mismatch"


def pooled_pins(worlds: list[World]) -> dict:
    if len(worlds) == 1:
        return dict(worlds[0].pins)
    digest = hashlib.sha256("".join(w.pins["result_hash"] for w in worlds).encode("ascii"))
    return {
        "result_hash": digest.hexdigest(),
        "uplink": sum(w.pins["uplink"] for w in worlds),
        "downlink": sum(w.pins["downlink"] for w in worlds),
        "energy_j": math.fsum(w.pins["energy_j"] for w in worlds),
    }


def end_to_end(spec, setup_s: list[float], worlds: list[World]) -> dict:
    busy = sum(sum(w.step_s) for w in worlds)
    steps = sum(w.steps for w in worlds)
    window = spec.window * len(worlds)
    up = sum(w.window_counts[0] for w in worlds)
    down = sum(w.window_counts[1] for w in worlds)
    energy = math.fsum(w.window_counts[2] for w in worlds)
    diff = sum(w.err[0] for w in worlds)
    total = sum(w.err[1] for w in worlds)
    latencies = [x for w in worlds for x in w.latencies()]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "steps_per_sec": (steps / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "uplink_msgs_per_step": (up / window, "msgs"),
        "downlink_msgs_per_step": (down / window, "msgs"),
        "energy_mj_per_step": (1000.0 * energy / window, "mJ"),
        "result_error": (diff / total if total else 0.0, "ratio"),
        "ingest_ops_per_sec": (sum(w.ops for w in worlds) / busy, "1/s"),
        "ingest_latency_p50_ms": (1000.0 * pct(latencies, 50), "ms"),
        "ingest_latency_p90_ms": (1000.0 * pct(latencies, 90), "ms"),
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, info)``."""
    from workloads import WORKLOADS, Setup

    spec = WORKLOADS[name]
    pins = load_pins()
    failures: list[str] = []
    setup_s: list[float] = []
    worlds: list[World] = []
    untraced: list[World] = []
    tracer = None
    if traced:
        tracer = tracing.Tracer()
    timer = wall_timer if traced else ReferenceTimer()
    builds = spec.worlds if traced else max(SETUPS, spec.worlds)
    for b in range(builds):
        w = b - (builds - spec.worlds)
        wseed = world_seed(seed, max(w, 0))
        gc.collect()
        setup = Setup(spec, wseed, timer=timer)
        setup_s.append(setup.seconds)
        if w < 0:
            setup.close()
            continue
        if not traced:
            world = World(setup, wseed, seconds / spec.worlds, timer=timer)
            world.release()
            setup.close()
            worlds.append(world)
            continue
        tracing.install(tracer, setup)
        world = World(
            setup, wseed, seconds / spec.worlds / 2, sample_internals=True, timer=wall_timer
        )
        worlds.append(world)
        # An untraced twin replays the same steps: the baseline of the
        # overhead ratio and of the bit-identity check.
        twin_setup = Setup(spec, wseed)
        twin = World(twin_setup, wseed, 0.0, steps=world.steps, timer=wall_timer)
        twin.release()
        twin_setup.close()
        untraced.append(twin)
    for world in worlds + untraced:
        failures.extend(world.failures)
    complete = not failures
    status = "not checked"
    if complete:
        bad, status = check_pins(spec, seed, worlds, pins)
        failures.extend(bad)
        bound = pins.get("result_error_max", {}).get(name)
        err = sum(w.err[0] for w in worlds) / max(1, sum(w.err[1] for w in worlds))
        if bound is not None and err > bound:
            failures.append(f"result_error {err:.4f} exceeds bound {bound}")
        if traced:
            for twin, world in zip(untraced, worlds):
                if (twin.pins, twin.end) != (world.pins, world.end):
                    failures.append("traced run diverged from its untraced twin")
    submitted = sum(w.generator.submitted for w in worlds if w.generator is not None)
    attempted = submitted or sum(w.ops for w in worlds)
    failed = sum(w.generator.failed for w in worlds if w.generator is not None)
    if complete and not traced:
        metrics = end_to_end(spec, setup_s, worlds)
    elif complete:
        metrics = tracing.per_layer(worlds, untraced, tracer)
        tracer.write(OUT / f"spans-{name}-{seed}.csv")
        for world in worlds:
            world.setup.close()
    else:
        metrics = {}
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": failed + (0 if not failures else max(1, len(failures))),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, {"failures": failures, "pins": status}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    better = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, metric in result["metrics"].items():
        print(f"{key:40s} {metric['value']!s:>24} {metric['unit']:8s} "
              f"{better.get(key, '?')} is better")
    print(f"pins: {info['pins']}")
    for failure in info["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
