"""Regenerate ``reference.json``, the exact per-unit statistics every run checks.

Run from the repository root::

    python3 figbench/make_reference.py

Timing units (``fig12_*``) come from the scalar RT unit, the
differential oracle of the default vector engine.  ``functional_limit``
units come from the default engines checked against the model
invariants: the oracle kinds have one implementation, and the scalar
functional engine legitimately differs in traversal-order-dependent
counts.  Regenerate only when a change alters simulated statistics on
purpose, and say so in its description.
"""

from __future__ import annotations

import json
import sys

import run

#: The default ``WorkloadParams.seed`` and one held-out seed.
SEEDS = (1, 2)


def reference_units(workload: str, seed: int, caps) -> dict:
    """Reference statistics for one workload and seed."""
    import workloads as wl
    from probe import SpeedProbe
    from tracer import Tracer

    inputs = wl.setup(workload, seed, caps, Tracer(enabled=False))
    if workload != "functional_limit":
        return wl.oracle_reference(inputs)
    units, failed = wl.functional_pass(inputs, Tracer(enabled=False), SpeedProbe())
    broken = failed + wl.invariant_errors(workload, inputs, units)
    if broken:
        raise RuntimeError(f"{workload} seed {seed}: units failed: {broken}")
    return {name: wl.exact(stats) for name, stats in units.items()}


def main() -> int:
    run.pin_environment()
    run.import_checkout()
    import workloads as wl

    caps = wl.Caps()
    data = {
        "caps": caps.as_dict(),
        "workloads": {
            workload: {
                str(seed): reference_units(workload, seed, caps) for seed in SEEDS
            }
            for workload in wl.WORKLOADS
        },
    }
    run.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
