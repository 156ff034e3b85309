"""Outside-in layer tracing for the benchmark's traced run.

:class:`Tracer` replaces a layer's entry points on the live objects of one
system with wrappers that record a span ``(layer, start, end, parent)``
per call, kept in memory and written out when the run ends.  Nothing in
``repro`` is edited: the wrappers sit around the calls into each layer,
so the traced system computes exactly what the untraced one does.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans.  Spans nest strictly (the
system is single-threaded), so the self times of all spans add up to the
time covered by top-level spans; the rest of a step is *unattributed*
(phase glue and measurement inside the engine).

An entry point the tracer cannot find -- renamed or removed by a later
refactor -- is reported with a warning on stderr and its layer's metrics
come out ``null``; an object that a workload simply does not have (the
fastpath on the reference engine, the coordinator on one shard, the
service on a plain simulation) leaves its layer at zero.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Missing(Exception):
    """A layer's owner object exists in no recognisable form."""


def _path(root, *names):
    """Follow attribute ``names`` from ``root``; ``None`` on a legitimately
    absent part, :class:`Missing` when an attribute does not exist."""
    obj = root
    for name in names:
        if obj is None:
            return None
        if not hasattr(obj, name):
            raise Missing(".".join(names))
        obj = getattr(obj, name)
    return obj


class Tracer:
    """Span recorder plus counters, installed on one system."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.missing: set[str] = set()

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Trace calls to ``owner.attr`` as spans of ``layer``.

        ``count(tracer, args, result)`` records layer counters after each
        call; a counter with ``before = True`` runs before it instead (with
        ``result`` ``None``), for arguments the call consumes.
        """
        before = getattr(count, "before", False)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.warn(layer, f"{type(owner).__name__}.{attr}")
            return
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if before:
                count(self, args, None)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if count is not None and not before:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)

    def warn(self, layer: str, what: str) -> None:
        if layer not in self.missing:
            print(f"perfbench: warning: entry point {what} not found; "
                  f"layer {layer} reported as null", file=sys.stderr)
        self.missing.add(layer)

    def self_seconds(self) -> tuple[dict[str, float], dict[str, float], float]:
        """``({layer: self s}, {layer: inclusive s}, top-level s)``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        top = 0.0
        for idx, (layer, start, end, parent) in enumerate(spans):
            own[layer] += end - start - child[idx]
            inclusive[layer] += end - start
            if parent < 0:
                top += end - start
        return own, inclusive, top

    def write(self, path: Path) -> None:
        """Write every span as ``layer,start_s,end_s,parent`` CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("layer,start_s,end_s,parent\n")
            for layer, start, end, parent in self.spans:
                out.write(f"{layer},{start:.9f},{end:.9f},{parent}\n")


# ----------------------------------------------------------- counters


def _count(key):
    def count(tracer, args, result):
        tracer.counts[key] += 1
    return count


def _count_flush(tracer, args, result):
    tracer.counts["transport.flushes"] += 1
    tracer.counts["transport.records"] += len(args[0].kind)


_count_flush.before = True  # the flush empties the buffer it is given


def _count_accept(tracer, args, result):
    tracer.counts["fanout.tries"] += 1
    tracer.counts["fanout.accepted"] += bool(result)


def _count_receivers(tracer, args, result):
    tracer.samples["coverage.receivers"].append(int(result.sum()))


#: Layer -> entry points ``(owner path from the Setup, method, counter)``.
#: An owner path resolving to ``None`` marks a layer the workload lacks.
LAYERS: dict[str, list[tuple]] = {
    "evaluator": [(("system", "_fastpath", "evaluator"), "run", None)],
    "runtime.reporting": [(("system", "_fastpath"), "reporting_phase", None)],
    "transport.flush": [(("system", "transport"), "flush_reports", _count_flush)],
    "server": [
        (("system", "server"), "apply_report_record", _count("server.records")),
        (("system", "server"), "on_uplink", _count("server.records")),
        (("system", "server"), "install_query", None),
        (("system", "server"), "remove_query", None),
    ],
    "ledger": [
        (("system", "ledger"), "record_uplink", None),
        (("system", "ledger"), "record_downlink", None),
    ],
    "fanout": [
        (("system", "transport"), "broadcast", _count("fanout.broadcasts")),
        (("system", "_fastpath", "fanout"), "try_broadcast", _count_accept),
    ],
    "coverage.mask": [
        (("system", "_fastpath", "coverage"), "receiver_mask", _count_receivers)
    ],
    "network.cover": [(("system", "layout"), "minimal_cover", None)],
    "motion": [(("system", "motion"), "advance", None)],
    "transport.begin_step": [(("system", "transport"), "begin_step", None)],
    "delivery": [(("system", "transport"), "delivery_phase", None)],
    "service.admit": [(("service",), "admit", None)],
    "rebalance": [(("coordinator",), "apply_rebalance", _count("rebalance.moves"))],
}

#: Per-client entry points of the reference path, wrapped on every client.
CLIENT_LAYERS = {
    "client.report": "report_phase",
    "client.eval": "evaluation_phase",
    "client.downlink": "on_downlink",
}


def install(tracer: Tracer, setup) -> None:
    """Wrap every layer entry point reachable from ``setup``."""
    for layer, entries in LAYERS.items():
        for path, attr, count in entries:
            try:
                owner = _path(setup, *path)
            except Missing:
                tracer.warn(layer, ".".join(path) + "." + attr)
                continue
            if owner is not None:
                tracer.wrap(owner, attr, layer, count)
    transport = setup.system.transport
    tracer.counts["delivery.stale_base"] += getattr(transport, "stale_epoch_reroutes", 0)
    clients = getattr(setup.system, "clients", None)
    if not isinstance(clients, dict):
        for layer in CLIENT_LAYERS:
            tracer.warn(layer, "MobiEyesSystem.clients")
        return
    for client in clients.values():
        for layer, attr in CLIENT_LAYERS.items():
            tracer.wrap(client, attr, layer)


# ------------------------------------------------------------- metrics

#: Per-layer metric -> (unit, layers it needs).  A metric is ``null`` when
#: one of its layers' entry points was not found.
METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "evaluator.ms_per_step": ("ms", ("evaluator",)),
    "evaluator.lqt_entries": ("count", ("metrics",)),
    "evaluator.evaluated_ratio": ("ratio", ("metrics",)),
    "runtime.reporting_self_ms_per_step": ("ms", ("runtime.reporting",)),
    "transport.flush_ms_per_step": ("ms", ("transport.flush",)),
    "transport.flushes_per_step": ("count", ("transport.flush",)),
    "transport.records_per_flush": ("count", ("transport.flush",)),
    "server.self_ms_per_step": ("ms", ("server",)),
    "server.records_per_step": ("count", ("server",)),
    "ledger.ms_per_step": ("ms", ("ledger",)),
    "fanout.ms_per_step": ("ms", ("fanout",)),
    "fanout.broadcasts_per_step": ("count", ("fanout",)),
    "fanout.accept_ratio": ("ratio", ("fanout",)),
    "coverage.mask_ms_per_step": ("ms", ("coverage.mask",)),
    "coverage.receivers_per_broadcast_p50": ("count", ("coverage.mask",)),
    "coverage.receivers_per_broadcast_p90": ("count", ("coverage.mask",)),
    "network.cover_ms_per_step": ("ms", ("network.cover",)),
    "motion.ms_per_step": ("ms", ("motion",)),
    "transport.begin_step_ms_per_step": ("ms", ("transport.begin_step",)),
    "client.report_ms_per_step": ("ms", ("client.report",)),
    "client.eval_ms_per_step": ("ms", ("client.eval",)),
    "client.downlink_ms_per_step": ("ms", ("client.downlink",)),
    "delivery.ms_per_step": ("ms", ("delivery",)),
    "delivery.inflight_p50": ("msgs", ("delivery",)),
    "delivery.inflight_max": ("msgs", ("delivery",)),
    "delivery.stale_reroutes_per_step": ("count", ()),
    "service.admit_ms_per_tick": ("ms", ("service.admit",)),
    "service.queue_depth_p90": ("ops", ()),
    "service.wait_ticks_p90": ("ticks", ()),
    "service.failed_ratio": ("ratio", ()),
    "rebalance.moves": ("count", ("rebalance",)),
    "rebalance.ms_per_move": ("ms", ("rebalance",)),
    "rebalance.imbalance_ops": ("ratio", ("rebalance",)),
    "trace.unattributed_ms_per_step": ("ms", tuple(LAYERS) + tuple(CLIENT_LAYERS)),
    "trace.overhead_ratio": ("ratio", ()),
    "generator.lateness_ms_p90": ("ms", ()),
}

#: Metric -> the layer whose self time it reports.
SELF_MS = {
    "evaluator.ms_per_step": "evaluator",
    "runtime.reporting_self_ms_per_step": "runtime.reporting",
    "transport.flush_ms_per_step": "transport.flush",
    "server.self_ms_per_step": "server",
    "ledger.ms_per_step": "ledger",
    "fanout.ms_per_step": "fanout",
    "coverage.mask_ms_per_step": "coverage.mask",
    "network.cover_ms_per_step": "network.cover",
    "motion.ms_per_step": "motion",
    "transport.begin_step_ms_per_step": "transport.begin_step",
    "client.report_ms_per_step": "client.report",
    "client.eval_ms_per_step": "client.eval",
    "client.downlink_ms_per_step": "client.downlink",
    "delivery.ms_per_step": "delivery",
    "service.admit_ms_per_tick": "service.admit",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(worlds, untraced, tracer: Tracer) -> dict:
    """Per-layer metrics of the traced worlds, as ``{name: (value, unit)}``."""
    steps = sum(w.steps for w in worlds)
    busy = sum(sum(w.step_s) for w in worlds)
    own, inclusive, top = tracer.self_seconds()
    counts = tracer.counts
    values = {name: 1000.0 * own.get(layer, 0.0) / steps for name, layer in SELF_MS.items()}

    lqt = evaluated = considered = 0.0
    for world in worlds:
        try:
            rows = world.setup.system.metrics.steps[-world.steps:]
        except AttributeError:
            tracer.warn("metrics", "MobiEyesSystem.metrics.steps")
            break
        for row in rows:
            lqt += row.mean_lqt_size * world.objects
            evaluated += row.evaluated_queries
            considered += (
                row.evaluated_queries + row.skipped_by_safe_period + row.skipped_by_grouping
            )
    values["evaluator.lqt_entries"] = lqt / steps
    values["evaluator.evaluated_ratio"] = _ratio(evaluated, considered)

    flushes = counts["transport.flushes"]
    values["transport.flushes_per_step"] = flushes / steps
    values["transport.records_per_flush"] = _ratio(counts["transport.records"], flushes)
    values["server.records_per_step"] = counts["server.records"] / steps
    values["fanout.broadcasts_per_step"] = counts["fanout.broadcasts"] / steps
    values["fanout.accept_ratio"] = _ratio(counts["fanout.accepted"], counts["fanout.tries"])
    receivers = tracer.samples["coverage.receivers"]
    values["coverage.receivers_per_broadcast_p50"] = pct(receivers, 50)
    values["coverage.receivers_per_broadcast_p90"] = pct(receivers, 90)

    inflight = [x for w in worlds for x in w.inflight]
    values["delivery.inflight_p50"] = pct(inflight, 50)
    values["delivery.inflight_max"] = float(max(inflight, default=0))
    stale = sum(getattr(w.setup.system.transport, "stale_epoch_reroutes", 0) for w in worlds)
    values["delivery.stale_reroutes_per_step"] = (stale - counts["delivery.stale_base"]) / steps

    gens = [w.generator for w in worlds if w.generator is not None]
    values["service.queue_depth_p90"] = pct([x for g in gens for x in g.queue_depth], 90)
    values["service.wait_ticks_p90"] = pct([x for g in gens for x in g.waits], 90)
    values["service.failed_ratio"] = _ratio(
        sum(g.failed for g in gens), sum(g.submitted for g in gens)
    )
    values["generator.lateness_ms_p90"] = 1000.0 * pct([x for g in gens for x in g.lateness], 90)

    moves = counts["rebalance.moves"]
    values["rebalance.moves"] = moves
    values["rebalance.ms_per_move"] = 1000.0 * _ratio(inclusive.get("rebalance", 0.0), moves)
    imbalance = 0.0
    for world in worlds:
        coordinator = world.setup.coordinator
        if coordinator is None:
            continue
        if not hasattr(coordinator, "shard_loads"):
            tracer.warn("rebalance", "Coordinator.shard_loads")
            break
        ops = [row["ops"] for row in coordinator.shard_loads()]
        imbalance = max(imbalance, _ratio(max(ops), sum(ops) / len(ops)))
    values["rebalance.imbalance_ops"] = imbalance

    values["trace.unattributed_ms_per_step"] = 1000.0 * (busy - top) / steps
    values["trace.overhead_ratio"] = busy / sum(sum(w.step_s) for w in untraced)
    out = {}
    for name, (unit, needs) in METRICS.items():
        value = None if tracer.missing.intersection(needs) else values[name]
        out[name] = (value, unit)
    return out
