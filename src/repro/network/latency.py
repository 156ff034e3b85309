"""Per-link delivery latency for the deferred message pipeline.

The paper reasons about propagation delay analytically (dead reckoning
exists *because* velocity broadcasts take time to reach the objects) but
simulates instantaneous delivery.  :class:`LatencyModel` makes the delay
explicit: every uplink and every downlink hop is stamped with a
delivery delay in whole simulation steps, optionally widened by seeded
uniform jitter, and the transport defers the message into its envelope
queue until the delay elapses.  A region broadcast reaches each receiver
after ``downlink_steps``; without jitter (and without loss, reliability
or tracing) the transport parks it as one envelope for all its
receivers, with jitter it stamps one hop per receiver.

A delay of zero keeps the hop *inline* -- it completes within the
sending step, exactly the paper's synchrony assumption -- so the default
all-zero model is bit-identical to the pre-pipeline transport.  Jitter
rolls are drawn from the model's own seeded stream, one roll per stamped
hop in send order, so runs stay reproducible across engines and shard
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import SimulationRng


@dataclass
class LatencyModel:
    """Fixed per-link delays (in steps) plus optional seeded jitter.

    Attributes:
        uplink_steps: delivery delay of an object -> server message.
        downlink_steps: delivery delay of one server -> object hop (every
            receiver of a broadcast gets it after this delay).
        jitter_steps: extra uniform delay in ``[0, jitter_steps]`` added
            per hop, drawn from the seeded jitter stream (one draw per
            receiver of a broadcast).
        seed: seed of the jitter stream (unused while ``jitter_steps``
            is zero -- no randomness is consumed).
    """

    uplink_steps: int = 0
    downlink_steps: int = 0
    jitter_steps: int = 0
    seed: int = 0
    _rng: SimulationRng = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("uplink_steps", "downlink_steps", "jitter_steps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        self._rng = SimulationRng(seed=self.seed)

    @property
    def is_zero(self) -> bool:
        """Whether every hop is instantaneous (the inline fast path)."""
        return self.uplink_steps == 0 and self.downlink_steps == 0 and self.jitter_steps == 0

    @property
    def worst_case_rtt_steps(self) -> int:
        """Upper bound on a reliable exchange's round trip, in steps; the
        reliability layer's retransmit timeout."""
        return self.uplink_steps + self.downlink_steps + 2 * self.jitter_steps

    def _jitter(self) -> int:
        if self.jitter_steps == 0:
            return 0
        return self._rng.randint(0, self.jitter_steps)

    def uplink_delay(self) -> int:
        """Stamp one object -> server hop (consumes a jitter roll)."""
        return self.uplink_steps + self._jitter()

    def downlink_delay(self) -> int:
        """Stamp one server -> object hop (consumes a jitter roll)."""
        return self.downlink_steps + self._jitter()

    @classmethod
    def from_config(cls, config) -> "LatencyModel | None":
        """The model a :class:`~repro.core.config.MobiEyesConfig` asks for,
        or ``None`` when the config keeps every hop instantaneous."""
        if not (
            config.uplink_latency_steps
            or config.downlink_latency_steps
            or config.latency_jitter_steps
        ):
            return None
        return cls(
            uplink_steps=config.uplink_latency_steps,
            downlink_steps=config.downlink_latency_steps,
            jitter_steps=config.latency_jitter_steps,
            seed=config.latency_seed,
        )
