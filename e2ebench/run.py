#!/usr/bin/env python3
"""End-to-end benchmark of the F3R solver through its front doors.

Run from the repository root::

    python3 e2ebench/run.py --workload direct-hpcg --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, measured with timing wrappers
around each layer's public entry points (see ``tracing.py``).  The workloads,
their rates, latency limits and environment pins are defined in
``workloads.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's diagnostics (work mix, sample counts, flags).  The exit code
is 0 when every answer was correct, 1 when one was not, and 2 when the
program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent


def _pin_environment(pins: dict) -> None:
    """Apply ``{name: [value, reason]}``; an empty value unsets the variable."""
    for name, (value, _reason) in pins.items():
        if value == "":
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def _reap_children() -> list[int]:
    """Stop the multiprocessing resource tracker and any straggler process."""
    import gc
    from multiprocessing import resource_tracker

    import measure

    # collect the closed gateways' queues first: their finalizers unlink the
    # semaphores the tracker would otherwise reclaim (and warn about)
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    stragglers = measure.descendants()
    for pid in stragglers:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return stragglers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: {src / 'repro'} not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    definitions = json.loads((HERE / "workloads.json").read_text())
    spec = definitions["workloads"].get(args.workload)
    if spec is None:
        print(f"e2ebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(definitions['workloads'])}", file=sys.stderr)
        return 2

    # pins must be in place before repro is imported (modules read them at
    # import) and before any worker or server process is spawned
    pins = {**definitions["common"]["env"], **spec["env"]}
    _pin_environment(pins)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(src))

    import workloads

    result, diagnostics = workloads.RUNNERS[args.workload](
        spec, args.seed, args.seconds, bool(args.trace))

    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    produced = result["metrics"]
    if set(produced) != set(units):
        raise RuntimeError(
            f"metric set mismatch: missing {sorted(set(units) - set(produced))}, "
            f"unexpected {sorted(set(produced) - set(units))}")
    bad = [name for name, value in produced.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metric values: {bad}")
    result["metrics"] = {name: {"value": produced[name], "unit": units[name]}
                         for name in units}
    stragglers = _reap_children()
    diagnostics.update(workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace,
                       env={name: value for name, (value, _) in pins.items()},
                       killed_stragglers=stragglers)
    print(json.dumps({"diagnostics": diagnostics}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
