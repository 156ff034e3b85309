"""The benchmark's workloads, built only from the public ``repro`` API.

Four workloads, each a Table 1 variant (see ``NOTES.md`` for why each
exists).  Every one runs with dead-reckoning threshold 1 mile, serial
shards, and ``batch_reports`` at its default.  The seed of a run replaces
``SimulationParameters.seed``; the same seed gives the same objects,
queries, motion and (for ``service``) the same ingest script.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import Circle, MobiEyesConfig, MobiEyesSystem, Point, QuerySpec, SimulationRng, Vector
from repro.core import MobiEyesService
from repro.workload import generate_workload, paper_defaults

DEFAULT_SEED = 42
DEAD_RECKONING_MILES = 1.0
#: Largest per-axis error of a scripted position fix.
FIX_ERROR_MILES = 0.5


@dataclass(frozen=True)
class ServiceLoad:
    """The open-loop ingest script of the ``service`` workload.

    Ops are assigned to ticks by schedule: ``updates`` position reports
    per tick (``burst`` times as many every ``burst_every``-th tick), and
    a moving-query install every ``install_every`` ticks, removed
    ``remove_after`` ticks later.  ``tick_ms`` is the host-time period the
    generator paces ticks at.
    """

    updates: int = 60
    burst: int = 3
    burst_every: int = 10
    install_every: int = 2
    remove_after: int = 10
    budget: int = 120
    tick_ms: float = 160.0


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: parameters plus system knobs."""

    name: str
    scale: float = 1.0
    radius_factor: float = 1.0
    speed_factor: float = 1.0
    hotspot_fraction: float = 0.0
    engine: str = "vectorized"
    shards: int = 1
    latency: int = 0
    rebalance_every: int = 0
    warmup: int = 3
    # Steps in the fixed, pinned window that every run completes before
    # its time-bounded continuation.
    window: int = 20
    # Independent worlds per run (seeds ``seed + 1000 * w``); their counts
    # and timings are pooled, which averages out per-world variation.
    worlds: int = 1
    service: ServiceLoad | None = None

    def params(self, seed: int):
        params = paper_defaults()
        params = replace(
            params,
            seed=seed,
            radius_factor=self.radius_factor,
            max_speeds=tuple(s * self.speed_factor for s in params.max_speeds),
            hotspot_fraction=self.hotspot_fraction,
            hotspot_width=0.2,
        )
        return params.scaled(self.scale) if self.scale != 1.0 else params


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("dense", radius_factor=3.0, speed_factor=0.1, window=40),
        Spec("paper", window=30, worlds=2),
        Spec(
            "service",
            scale=0.25,
            radius_factor=3.0,
            speed_factor=0.1,
            hotspot_fraction=0.5,
            shards=4,
            latency=1,
            rebalance_every=5,
            window=40,
            worlds=4,
            service=ServiceLoad(),
        ),
        Spec("figures", scale=0.06, engine="reference", window=50, worlds=16),
    )
}


def config_for(spec: Spec, params, engine: str | None = None) -> MobiEyesConfig:
    load = spec.service
    return MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        step_seconds=params.time_step_seconds,
        base_station_side=params.base_station_side,
        dead_reckoning_threshold=DEAD_RECKONING_MILES,
        engine=engine or spec.engine,
        shards=spec.shards,
        uplink_latency_steps=spec.latency,
        downlink_latency_steps=spec.latency,
        latency_seed=params.seed,
        rebalance_every_steps=spec.rebalance_every,
        rebalance_metric="ops",
        ingest_budget_per_step=load.budget if load is not None else 0,
    )


def _untimed(fn):
    return 0.0, fn()


class Setup:
    """A built, query-installed and warmed-up system (plus its service).

    ``seconds`` is the set-up time as ``timer`` measures it (``(seconds,
    result)`` of a call), summed over the phases -- generate, build,
    install, each warm-up step -- so that a calibrating timer rescales
    each phase on its own.
    """

    def __init__(self, spec: Spec, seed: int, engine: str | None = None, timer=_untimed) -> None:
        self.spec = spec
        self.seconds = 0.0

        def timed(fn):
            seconds, result = timer(fn)
            self.seconds += seconds
            return result

        self.params = params = spec.params(seed)
        rng = SimulationRng(params.seed)
        self.workload = timed(lambda: generate_workload(params, rng.fork(1)))
        self.system = timed(
            lambda: MobiEyesSystem(
                config_for(spec, params, engine),
                list(self.workload.objects),
                rng.fork(2),
                velocity_changes_per_step=params.velocity_changes_per_step,
                warmup_steps=spec.warmup,
            )
        )
        self.service = MobiEyesService(self.system) if spec.service is not None else None
        #: The sharded server's front end (``None`` for the monolith).
        self.coordinator = self.system.server if spec.shards > 1 else None
        timed(lambda: self.system.install_queries(self.workload.query_specs))
        for _ in range(spec.warmup):
            timed(lambda: (self.service or self.system).run(1))

    def close(self) -> None:
        self.system.close()


def service_script(spec: Spec, params, workload, seed: int):
    """Yield the ops of each tick, forever (deterministic in ``seed``).

    An op is ``("update", oid, dx, dy, vel)``, ``("install", n, spec)``
    or ``("remove", n)`` where ``n`` numbers the script's installs.  An
    update is a position fix: the submitter reads the object's position
    when the op is due and reports it displaced by ``(dx, dy)`` (at most
    ``FIX_ERROR_MILES`` each way) with the new velocity ``vel``, so the
    flash crowd stays where it is.  Only valid ops are emitted: removals
    name an install made earlier and :func:`fix_position` keeps every fix
    inside the universe of discourse.
    """
    load = spec.service
    rng = SimulationRng(seed).fork(7)
    oids = [obj.oid for obj in workload.objects]
    speed = max(params.max_speeds)
    radius = max(params.radius_means) * params.radius_factor
    removals: dict[int, list[int]] = {}
    installs = 0
    tick = 0
    while True:
        ops: list[tuple] = [("remove", n) for n in removals.pop(tick, ())]
        count = load.updates * (load.burst if tick % load.burst_every == load.burst_every - 1 else 1)
        for _ in range(count):
            oid = rng.choice(oids)
            dx = rng.uniform(-FIX_ERROR_MILES, FIX_ERROR_MILES)
            dy = rng.uniform(-FIX_ERROR_MILES, FIX_ERROR_MILES)
            vel = Vector.from_polar(rng.direction(), rng.uniform(0.0, speed))
            ops.append(("update", oid, dx, dy, vel))
        if tick % load.install_every == 0:
            query = QuerySpec(oid=rng.choice(oids), region=Circle(0.0, 0.0, radius))
            ops.append(("install", installs, query))
            removals.setdefault(tick + load.remove_after, []).append(installs)
            installs += 1
        yield ops
        tick += 1


def fix_position(uod, pos, dx: float, dy: float) -> Point:
    """``pos`` displaced by ``(dx, dy)``, clamped into ``uod``."""
    return Point(min(max(pos.x + dx, uod.lx), uod.ux), min(max(pos.y + dy, uod.ly), uod.uy))
