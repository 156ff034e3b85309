"""Regenerate ``pins.json``: the pinned window-end state of every workload.

Usage (from the repository root)::

    python3 perfbench/pin.py            # check the pins, exit 1 on mismatch
    python3 perfbench/pin.py --write    # record them

For the default seed, each workload's pinned window is run with the
benchmark's engine and replayed with the other engine; the result hash,
message counts and energy must agree bit for bit before they are pinned.
A pin changes only with a semantic change, which CHANGES.md must argue.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

#: Upper bound on ``result_error`` per workload.  With a 1-mile
#: dead-reckoning threshold results lag the truth by a few percent; the
#: service's one-step latency and ingest fixes lag more.
RESULT_ERROR_MAX = {"dense": 0.1, "paper": 0.1, "service": 0.2, "figures": 0.1}


def window_state(spec, seed: int, engine: str | None) -> tuple[dict, float]:
    """Pooled pins and result error of the pinned window on ``engine``."""
    from workloads import Setup

    worlds = []
    for w in range(spec.worlds):
        wseed = run.world_seed(seed, w)
        setup = Setup(spec, wseed, engine=engine)
        world = run.World(setup, wseed, 0.0, steps=spec.window)
        setup.close()
        if world.failures:
            raise SystemExit(f"{spec.name} on {engine or spec.engine}: {world.failures}")
        worlds.append(world)
    err = sum(w.err[0] for w in worlds) / sum(w.err[1] for w in worlds)
    return run.pooled_pins(worlds), err


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    run._import_repro()
    from workloads import DEFAULT_SEED, WORKLOADS

    pins = {"seed": DEFAULT_SEED, "result_error_max": RESULT_ERROR_MAX, "workloads": {}}
    ok = True
    for name, spec in WORKLOADS.items():
        state, err = window_state(spec, DEFAULT_SEED, None)
        other = "vectorized" if spec.engine == "reference" else "reference"
        replay, _ = window_state(spec, DEFAULT_SEED, other)
        match = state == replay
        ok &= match
        print(f"{name}: {other} replay {'matches' if match else 'DIFFERS'}; "
              f"result_error {err:.4f}", flush=True)
        pins["workloads"][name] = state
    if not ok:
        return 1
    if args.write:
        run.PINS.write_text(json.dumps(pins, indent=2) + "\n")
        print(f"wrote {run.PINS}")
        return 0
    recorded = run.load_pins()
    if recorded != pins:
        print("pins.json differs from this tree's window state")
        return 1
    print("pins.json matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
