"""Benchmark of the K_{m,n} sandpile toolkit.

    python3 kmnbench/run.py --workload rank_ladder --seed 1 --seconds 15 --trace 0
    python3 kmnbench/run.py            # every workload, untraced then traced

Each workload runs three components in one process: its own at full scale
for at least ``--seconds`` (a single-client closed loop of whole rounds), and
small fixed probes of the other two, so that every run reports every
end-to-end metric.  ``--trace 1`` wraps the layers in spans and reports the per-layer
metrics instead.  The last line of standard output is one JSON object.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import clirank
import gfcheck
import ladder
from common import median
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "bipartite_sandpile"
WORKLOADS = ("rank_ladder", "rank_cli", "gf_verify")
SETUP_REPEATS = 3


def fresh_import():
    """Import the package from source, dropping any earlier copy first."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    mods = {"top": importlib.import_module(PACKAGE)}
    for sub in ("core", "rank", "cli", "genfunc", "cylindric", "series", "oracle"):
        mods[sub] = importlib.import_module(f"{PACKAGE}.{sub}")
    return types.SimpleNamespace(**mods)


def components(pkg, workload: str, seed: int):
    """The workload's own component at full scale, then the two probes."""
    kinds = {"rank_ladder": ladder.Ladder, "rank_cli": clirank.CliStream, "gf_verify": gfcheck.GfVerify}
    home = kinds[workload](pkg, seed, full=True)
    probes = [kind(pkg, seed, full=False) for name, kind in kinds.items() if name != workload]
    return [home] + probes


def drive(home, home_tracer, probes, seconds: float) -> None:
    """Closed loop of whole rounds of the home component: at least its
    ``min_rounds``, and a new one while less than ``seconds`` of its own time
    have passed.  The probes' fixed rounds are spread evenly over the home
    component's first ``min_rounds``, one probe round at a time between home
    steps, so that a slow stretch of the host, which can last ten seconds,
    reaches a few of a probe's rounds and not all of them.  Every probe round
    starts from a collected heap, so that the home component's garbage is
    not swept on the probe's clock; the time probes take is not counted
    against the home component."""
    queue = sorted(
        [((k + 0.5) / part.probe_rounds, i, part, tracer)
         for i, (part, tracer) in enumerate(probes) for k in range(part.probe_rounds)],
        key=lambda item: item[:2],
    )

    def probe_round(item) -> None:
        _, _, part, tracer = item
        gc.collect()
        for step in part.round_steps(tracer):
            step()

    gc.collect()
    start = time.perf_counter()
    paused = 0.0
    rounds = steps_done = done = 0
    while rounds < home.min_rounds or time.perf_counter() - start - paused < seconds:
        steps = home.round_steps(home_tracer)
        planned = home.min_rounds * len(steps)
        for step in steps:
            step()
            steps_done += 1
            t0 = time.perf_counter()
            while done < len(queue) and queue[done][0] <= steps_done / planned:
                probe_round(queue[done])
                done += 1
            paused += time.perf_counter() - t0
        rounds += 1
    for item in queue[done:]:
        probe_round(item)


def package_missing() -> bool:
    if (SRC / PACKAGE / "__init__.py").is_file():
        return False
    print(f"error: package source {SRC / PACKAGE} not found", file=sys.stderr)
    return True


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path.insert(0, str(SRC))

    setup_times = []
    parts = None
    for _ in range(SETUP_REPEATS):
        parts = None
        gc.collect()
        t0 = time.perf_counter()
        pkg = fresh_import()
        parts = components(pkg, workload, seed)
        for part in parts:
            part.warm_up()
        setup_times.append(time.perf_counter() - t0)
    home, probes = parts[0], parts[1:]
    # the inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    tracers = [Tracer() if trace else None for _ in parts]
    drive(home, tracers[0], list(zip(probes, tracers[1:])), seconds)
    for part, tracer in zip(parts, tracers):
        part.finish(tracer)

    errors = []
    for part in parts:
        errors.extend(part.check())
    failures = home.failures

    cores = os.cpu_count()
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"python {platform.python_version()} cores {cores}")
    print(f"attempted {home.attempted} failed {sum(failures.values())}")
    for reason, count in sorted(failures.items()):
        print(f"failure x{count} {reason}")
    for part in probes:
        print(f"probe {part.name}: {part.attempted} operations")
    for error in errors[:20]:
        print(f"CHECK FAILED {error}")

    if trace:
        metrics = {}
        for part, tracer in zip(parts, tracers):
            metrics.update(part.layers(tracer))
        units = layer_units()
        traced = home.traced_end_to_end()
        print("traced_end_to_end " + json.dumps(traced))
        dump = {name: tracer.dump() for name, tracer in zip((p.name for p in parts), tracers)}
    else:
        metrics = {"setup_s": median(setup_times)}
        for part in parts:
            metrics.update(part.end_to_end())
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = E2E_UNITS
        dump = None

    result = {
        "correct": not errors,
        "attempted": home.attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for name in units:
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    write_result(workload, seed, trace, result, dump)
    print(json.dumps(result))
    return 0


E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rank_vertices_per_s": "vertices/s",
    "rank_top_s": "s",
    "cli_calls_per_s": "calls/s",
    "cli_p50_ms": "ms",
    "cli_tail_ms": "ms",
    "gf_verify_s": "s",
    "gf_boundary_s": "s",
}


def layer_units() -> dict[str, str]:
    def unit(name: str) -> str:
        if name.endswith("_alloc_mb"):
            return "MB"
        if name.endswith("_s"):
            return "s"
        if name.endswith("_yield"):
            return "ratio"
        return "count"

    names = [*ladder.LAYER_METRICS, *clirank.LAYER_METRICS, *gfcheck.LAYER_METRICS]
    return {name: unit(name) for name in names}


def write_result(workload, seed, trace, result, dump) -> None:
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"result": result, "trace": dump}))


# ---------------------------------------------------------------------------
# one command for every workload


def run_all(seed: int, seconds: int) -> int:
    """Each workload in its own process, untraced and then traced, one after
    the other; prints the tracing overhead on each workload's own metric."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit code {proc.returncode}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            runs[trace] = (json.loads(lines[-1]), lines)
            ok &= runs[trace][0]["correct"]
        if len(runs) == 2:
            traced = next(json.loads(line.split(" ", 1)[1]) for line in runs[1][1]
                          if line.startswith("traced_end_to_end "))
            for name, value in traced.items():
                base = runs[0][0]["metrics"][name]["value"]
                print(f"tracing overhead {workload} {name}: {100 * (value / base - 1):+.1f}%")
            summary[workload] = {t: r[0] for t, r in runs.items()}
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if package_missing():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
