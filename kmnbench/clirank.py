"""rank_cli: in-process ``cli.main(["rank", "-i", <json>, "--proof"])`` on a
seeded stream of small shapes, stdout captured.

The stream is made of groups, each every shape of a square of sizes a
fixed number of times.  Each input takes one of the three degree regimes
deg < 0, 0 <= deg <= 2g-2 and deg > 2g-2 by (m + 2n + repeat) mod 3, so
every regime covers the sizes evenly (a shape with g = 0 has no middle
regime and takes the upper one).
The seed draws the values, which lie outside the stable range, the degree
within its regime, and the order.  The full stream also carries a fixed set
of malformed inputs, the same in every round and for every seed, whose
correct outcome is exit code 2 with no exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import types
from functools import partial

from common import MIN_TAIL_SAMPLES, TAIL_PERCENTILE, median, percentile, seeded_rng
from spans import rebound

# groups: (smallest side, largest side, repeats).  The probe adds to its
# small shapes a ninth of mid-size ones, so that its p99 falls among calls
# whose greedy certificate takes several milliseconds, not among the small
# calls that a stall of the host pushes up.
FULL = {"groups": [(1, 32, 1)], "malformed": True, "oracle": True}
PROBE = {"groups": [(1, 8, 14), (13, 16, 7)], "malformed": False, "oracle": False}

# The exponential oracle's cost grows with the rank, so it runs on the small
# shapes up to degree 2g; above that the rank is deg - g, checked directly.
ORACLE_MAX_VERTICES = 7

# (label, JSON text, program fault that makes it fail today, or None)
MALFORMED = (
    ("bad_json", '{"m": 3, "n": 2, "a": [0, 1], "sink"', None),
    ("missing_sink", '{"m": 2, "n": 2, "a": [0], "b": [0, 1]}', None),
    ("null_sink", '{"m": 2, "n": 2, "a": [0], "sink": null, "b": [0, 1]}', None),
    ("short_b", '{"m": 2, "n": 3, "a": [0], "sink": 0, "b": [0, 1]}', None),
    ("zero_m", '{"m": 0, "n": 2, "a": [], "sink": 0, "b": [0, 0]}', None),
    ("string_m", '{"m":"2","n":2,"a":[0],"sink":0,"b":[0,0]}', "a"),
    ("float_m", '{"m":2.0,"n":2,"a":[0],"sink":0,"b":[0,0]}', "a"),
    ("bool_sink", '{"m":1,"n":2,"a":[],"sink":true,"b":[0,0]}', "b"),
)
FAULTS = {
    "a": "fault (a): core.from_json_dict passes a non-int size to GraphShape",
    "b": "fault (b): JSON true is accepted as the integer 1",
}
LAYER_METRICS = ("core.loads_s", "rank.rank_of_s", "rank.rank_greedy_s", "rank.greedy_steps", "cli.self_s")


class _TracedJson(types.ModuleType):
    """Stands in for ``json`` inside the cli module: ``loads`` is traced,
    everything else is the real module's."""

    def __init__(self, loads) -> None:
        super().__init__("json")
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class CliStream:
    name = "rank_cli"
    probe_rounds = 3  # rounds a probe makes in every run
    min_rounds = 3  # the tail takes each input's median over the rounds

    def __init__(self, pkg, seed: int, full: bool) -> None:
        self.pkg = pkg
        self.spec = FULL if full else PROBE
        rng = seeded_rng("rank_cli", seed, "full" if full else "probe")
        self.entries = [
            self._valid(rng, m, n, (m + 2 * n + rep) % 3)
            for lo, hi, repeats in self.spec["groups"]
            for rep in range(repeats)
            for m in range(lo, hi + 1)
            for n in range(lo, hi + 1)
        ]
        rng.shuffle(self.entries)
        if self.spec["malformed"]:
            gap = len(self.entries) // len(MALFORMED)
            for k, (label, text, fault) in enumerate(MALFORMED):
                self.entries.insert(k * (gap + 1), {"label": label, "text": text, "fault": fault})
        self.outputs: list = [None] * len(self.entries)  # (code, stdout) of round 1
        assert len(self.entries) >= MIN_TAIL_SAMPLES
        self.latencies: list[float] = []
        self.input_latencies: list[list[float]] = [[] for _ in self.entries]
        self.rounds = 0
        self.failures: dict[str, int] = {}
        self.mismatches = 0
        self.traced_main: list[float] = []
        self.greedy_steps = 0

    @staticmethod
    def _valid(rng, m: int, n: int, regime: int) -> dict:
        g = (m - 1) * (n - 1)
        if regime == 1 and g == 0:
            regime = 2
        lo, hi = ((-(m + n), -1), (0, 2 * g - 2), (2 * g - 1, 3 * g + m + n))[regime]
        a = [rng.randrange(-2 * n, 3 * n) for _ in range(m - 1)]
        b = [rng.randrange(-2 * m, 3 * m) for _ in range(n)]
        degree = rng.randint(lo, hi)
        data = {"m": m, "n": n, "a": a, "sink": degree - sum(a) - sum(b), "b": b}
        return {"label": None, "text": json.dumps(data), "data": data, "degree": degree}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def _call(self, text: str):
        out, err = io.StringIO(), io.StringIO()
        main = self.pkg.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(["rank", "-i", text, "--proof"])
            except Exception as exc:  # an escaping exception is a counted failure
                code = exc
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), elapsed

    def warm_up(self) -> None:
        for entry in self.entries[:3]:
            self._call(entry["text"])

    def round_steps(self, tracer=None) -> list:
        patches = [] if tracer is None else self._trace_patches(tracer)
        steps = [partial(self._step, k, entry, tracer, patches) for k, entry in enumerate(self.entries)]
        steps.append(self._end_round)
        return steps

    def _step(self, k: int, entry: dict, tracer, patches) -> None:
        if tracer is None:
            code, out, elapsed = self._call(entry["text"])
        else:
            with rebound(patches), tracer.span("cli.main"):
                code, out, elapsed = self._call(entry["text"])
            self.traced_main.append(elapsed)
        self.latencies.append(elapsed)
        self.input_latencies[k].append(elapsed)
        if entry["label"] is not None:
            self._score_malformed(entry, code)
        if self.outputs[k] is None:
            self.outputs[k] = (code if isinstance(code, int) else repr(code), out)
        elif self.outputs[k][1] != out:
            self.mismatches += 1

    def _end_round(self) -> None:
        self.rounds += 1

    def finish(self, tracer=None) -> None:
        pass

    def _score_malformed(self, entry: dict, code) -> None:
        if code == 2:
            return
        if isinstance(code, Exception):
            seen = f"{type(code).__name__} escaped cli.main"
        else:
            seen = f"exit code {code}, expected 2"
        tag = FAULTS.get(entry["fault"], "unexplained")
        reason = f"{entry['label']}: {seen} [{tag}]"
        self.failures[reason] = self.failures.get(reason, 0) + 1

    # -- traced: spans around the layers cli.main calls -------------------

    def _trace_patches(self, tracer):
        cli = self.pkg.cli

        def count_steps(args, result):
            self.greedy_steps += result[0] + 1

        return [
            (cli, "json", _TracedJson(tracer.wrap(json.loads, "core.loads"))),
            (cli, "from_json_dict", tracer.wrap(cli.from_json_dict, "core.loads")),
            (cli, "rank_of", tracer.wrap(cli.rank_of, "rank.rank_of")),
            (cli, "rank_greedy", tracer.wrap(cli.rank_greedy, "rank.rank_greedy", count_steps)),
        ]

    def layers(self, tracer) -> dict[str, float]:
        totals = tracer.totals()
        calls = self.attempted

        def per_call(name: str) -> float:
            return totals.get(name, {"total": 0.0})["total"] / calls

        return {
            "core.loads_s": per_call("core.loads"),
            "rank.rank_of_s": per_call("rank.rank_of"),
            "rank.rank_greedy_s": per_call("rank.rank_greedy"),
            "rank.greedy_steps": self.greedy_steps / self.rounds,
            "cli.self_s": totals["cli.main"]["self"] / calls,
        }

    def end_to_end(self) -> dict[str, float]:
        return {
            "cli_calls_per_s": len(self.latencies) / sum(self.latencies),
            "cli_p50_ms": 1e3 * median(self.latencies),
            # each input's median over the rounds, so that a stall of the
            # host on one call does not reach the tail
            "cli_tail_ms": 1e3 * percentile([median(v) for v in self.input_latencies], TAIL_PERCENTILE),
        }

    def traced_end_to_end(self) -> dict[str, float]:
        return {"cli_p50_ms": 1e3 * median(self.traced_main)}

    # -- checks -------------------------------------------------------------

    def check(self) -> list[str]:
        errors = []
        if self.mismatches:
            errors.append(f"rank_cli: {self.mismatches} calls printed other output than in round 1")
        for entry, (code, out) in zip(self.entries, self.outputs):
            if entry["label"] is None:
                errors.extend(self._check_valid(entry, code, out))
        return errors

    def _check_valid(self, entry: dict, code, out: str) -> list[str]:
        data, degree = entry["data"], entry["degree"]
        m, n = data["m"], data["n"]
        g = (m - 1) * (n - 1)
        where = f"rank_cli {entry['text'][:60]}"
        if code != 0:
            return [f"{where}: exit code {code}"]
        report = json.loads(out)
        rank, park, gaps, proof = (
            report["rank"], report["parking_sorted"], report["r_vector"], report["proof"],
        )
        errors = []
        # the proof: non-negative, supported on the b-part, degree rank + 1
        if (proof["m"], proof["n"]) != (m, n) or len(proof["b"]) != n:
            errors.append(f"{where}: proof has the wrong shape")
        elif any(proof["a"]) or proof["sink"] != 0 or min(proof["b"]) < 0:
            errors.append(f"{where}: proof is not a non-negative configuration on b")
        elif sum(proof["b"]) != rank + 1:
            errors.append(f"{where}: proof degree {sum(proof['b'])} != rank + 1 = {rank + 1}")
        # the parking sorted representative
        pa, pb, ps = park["a"], park["b"], park["sink"]
        if (park["m"], park["n"]) != (m, n) or ps is None:
            errors.append(f"{where}: parking_sorted has the wrong shape")
            return errors
        if sum(pa) + ps + sum(pb) != degree:
            errors.append(f"{where}: parking_sorted changed the degree")
        if not (all(0 <= v < n for v in pa) and all(0 <= v < m for v in pb)):
            errors.append(f"{where}: parking_sorted is not stable")
        if pa != sorted(pa) or pb != sorted(pb):
            errors.append(f"{where}: parking_sorted is not sorted")
        # row i gap: green column b_i + 1 minus red column #{a-values <= i-2}
        expect = [pb[i - 1] + 1 - sum(1 for v in pa if v <= i - 2) for i in range(1, n + 1)]
        if gaps != expect:
            errors.append(f"{where}: r_vector {gaps} != recomputed {expect}")
        if max(expect) > 1:
            errors.append(f"{where}: parking_sorted has a row gap above 1")
        # degree regimes, then the oracle on small shapes
        if degree < 0 and rank != -1:
            errors.append(f"{where}: degree {degree} < 0 but rank {rank}")
        if degree > 2 * g - 2 and rank != degree - g:
            errors.append(f"{where}: degree {degree} > 2g-2 but rank {rank} != deg - g")
        if self.spec["oracle"] and m + n - 1 <= ORACLE_MAX_VERTICES and degree <= 2 * g:
            u = self.pkg.top.config(m, n, data["a"], data["sink"], data["b"])
            expected = self.pkg.oracle.rank_by_definition(u, restrict_support=True)
            if rank != expected:
                errors.append(f"{where}: rank {rank} != oracle {expected}")
        return errors
