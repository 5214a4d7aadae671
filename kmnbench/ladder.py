"""rank_ladder: ``rank_of`` on seeded configurations along a doubling ladder
of m+n, plus one strongly unbalanced shape (m much smaller than n).

Every shape gets four inputs whose values lie outside the stable range
(a-values in [-2n, 3n), b-values in [-2m, 3m)), so ``stabilize`` has real
quotients.  The first three take one seeded draw of values, each rotated by
its own seeded shift, and differ in degree:

  low     degree in [-g, -1]        rank must be -1
  high    degree in [2g-1, 3g]      rank must be deg - g
  mid     degree in [0, 2g-2]       checked through its mirror
  mirror  K - mid, then one a-vertex and one b-vertex toppled

with g = (m-1)(n-1) and K the canonical divisor built here from the vertex
degrees.  Riemann-Roch on (mid, mirror) checks rank and toppling invariance
together; one extra untimed call per run checks toppling alone.
"""

from __future__ import annotations

import time
import tracemalloc
from array import array
from functools import partial
from typing import NamedTuple

from common import median, seeded_rng, uniform_array

FULL = {"rungs": [100_000 * 2**k for k in range(5)], "unbalanced": (16, 400_000)}
PROBE = {"rungs": [1_000 * 2**k for k in range(5)], "unbalanced": (16, 4_000)}

PIPELINE = (
    ("core.stabilize", "core", "stabilize"),
    ("core.sort_config", "core", "sort_config"),
    ("rank.park_sort", "rank", "park_sort"),
    ("rank.rank_parking_sorted", "rank", "rank_parking_sorted"),
)
# guard timed on the output of the pipeline layer at the same position
GUARDS = (
    ("core.is_stable", "core", "is_stable"),
    ("core.is_sorted", "core", "is_sorted"),
    ("rank.is_parking_sorted", "rank", "is_parking_sorted"),
)
LAYER_METRICS = (
    [name + "_s" for name, _, _ in PIPELINE]
    + [name + "_s" for name, _, _ in GUARDS]
    + ["rank.r_vector_s"]
    + [name + "_alloc_mb" for name, _, _ in PIPELINE]
)


class Input(NamedTuple):
    m: int
    n: int
    a: array
    sink: int
    b: array
    degree: int
    kind: str


def _toppled(m, n, a, sink, b, i, j):
    """Topple a-vertex i and b-vertex j once each: a_i loses n and every
    b-vertex gains 1; b_j loses m and every a-vertex, the sink too, gains 1."""
    a2 = array("i", [v + 1 for v in a])
    a2[i] -= n
    b2 = array("i", [v + 1 for v in b])
    b2[j] -= m
    return a2, sink + 1, b2


class Ladder:
    name = "rank_ladder"
    probe_rounds = 8  # rounds a probe makes in every run
    min_rounds = 1  # a round takes half a minute

    def __init__(self, pkg, seed: int, full: bool) -> None:
        self.pkg = pkg
        spec = FULL if full else PROBE
        um, utotal = spec["unbalanced"]
        self.shapes = [(t // 2, t - t // 2) for t in spec["rungs"]] + [(um, utotal - um)]
        self.top = len(spec["rungs"]) - 1  # index of the top balanced rung
        rng = seeded_rng("rank_ladder", seed, "full" if full else "probe")
        self.inputs = [self._shape_inputs(rng, m, n) for m, n in self.shapes]
        mid = self.inputs[0][2]
        i, j = rng.randrange(mid.m - 1), rng.randrange(mid.n)
        a, sink, b = _toppled(mid.m, mid.n, mid.a, mid.sink, mid.b, i, j)
        self.toppled_mid = Input(mid.m, mid.n, a, sink, b, mid.degree, "toppled")
        self.results: list[dict] = []  # per round, (shape index, kind) -> rank
        self.times: list[tuple[int, float]] = []  # (shape index, seconds)
        self.layer_times: dict[str, list[float]] = {}
        self.layer_alloc: dict[str, float] = {}
        self.pipeline_top: list[float] = []
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}

    @staticmethod
    def _shape_inputs(rng, m, n):
        g = (m - 1) * (n - 1)
        # One draw of values per shape; each kind takes it rotated by its own
        # seeded shift, which keeps set-up short at 1.6e6 vertices.
        a = uniform_array(rng, m - 1, -2 * n, 3 * n)
        b = uniform_array(rng, n, -2 * m, 3 * m)
        total = sum(a) + sum(b)
        out = []
        for kind, lo, hi in (("low", -g, -1), ("high", 2 * g - 1, 3 * g), ("mid", 0, 2 * g - 2)):
            i, j = rng.randrange(m - 1), rng.randrange(n)
            degree = rng.randint(lo, hi)
            out.append(Input(m, n, a[i:] + a[:i], degree - total, b[j:] + b[:j], degree, kind))
        mid = out[2]
        # K - mid: n-2 on every a-vertex and the sink, m-2 on every b-vertex
        ka = array("i", [n - 2 - v for v in mid.a])
        kb = array("i", [m - 2 - v for v in mid.b])
        a, sink, b = _toppled(m, n, ka, n - 2 - mid.sink, kb, rng.randrange(m - 1), rng.randrange(n))
        out.append(Input(m, n, a, sink, b, 2 * g - 2 - mid.degree, "mirror"))
        return out

    def _config(self, x: Input):
        return self.pkg.top.config(x.m, x.n, tuple(x.a), x.sink, tuple(x.b))

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.results)

    def warm_up(self) -> None:
        self.pkg.top.rank_of(self.pkg.top.config(7, 5, [0, 0, 0, 3, 3, 3], 21, [0, 0, 0, 3, 3]))

    # -- one round: every input once, one step per rank computation --------

    def round_steps(self, tracer=None) -> list:
        """Each kind of input climbs the ladder in turn, so the top rung's
        calls are spread over the whole round."""
        ranks: dict[tuple[int, str], int] = {}
        step = self._step if tracer is None else self._traced_step
        steps = [
            partial(step, s, group[k], ranks, tracer)
            for k in range(len(self.inputs[0]))
            for s, group in enumerate(self.inputs)
        ]
        steps.append(lambda: self.results.append(ranks))
        return steps

    def _step(self, s: int, x: Input, ranks: dict, tracer) -> None:
        u = self._config(x)
        t0 = time.perf_counter()
        r = self.pkg.top.rank_of(u)
        self.times.append((s, time.perf_counter() - t0))
        ranks[s, x.kind] = r

    def finish(self, tracer=None) -> None:
        if tracer is not None:
            self._alloc_pass()

    def end_to_end(self) -> dict[str, float]:
        total_vertices = sum(self.shapes[s][0] + self.shapes[s][1] for s, _ in self.times)
        return {
            "rank_vertices_per_s": total_vertices / sum(t for _, t in self.times),
            "rank_top_s": median([t for s, t in self.times if s == self.top]),
        }

    # -- traced: the pipeline layer by layer ------------------------------

    def _traced_step(self, s: int, x: Input, ranks: dict, tracer) -> None:
        """The four pipeline layers called one after the other, each guard
        timed on the pipeline's own intermediate value, plus one gap scan."""
        pkg = self.pkg
        guards = dict(zip([name for name, _, _ in PIPELINE], GUARDS))
        value = self._config(x)
        first = len(tracer.spans)
        with tracer.span("ladder.rank_of"):
            for name, mod, fn in PIPELINE:
                with tracer.span(name):
                    value = getattr(getattr(pkg, mod), fn)(value)
                if name in guards:
                    gname, gmod, gfn = guards[name]
                    with tracer.span(gname):
                        ok = getattr(getattr(pkg, gmod), gfn)(value)
                    if not ok:
                        self.errors.append(f"{gname} rejected the output of {name}")
                if name == "rank.park_sort":
                    with tracer.span("rank.r_vector"):
                        pkg.rank.r_vector(value)
        ranks[s, x.kind] = value
        if s == self.top:
            spent = {k: v["total"] for k, v in tracer.totals(first).items()}
            self.pipeline_top.append(sum(spent[name] for name, _, _ in PIPELINE))
            for name, t in spent.items():
                self.layer_times.setdefault(name, []).append(t)

    def _alloc_pass(self) -> None:
        """Peak bytes allocated inside each pipeline layer, for the top rung's
        mid input, with tracemalloc on only for this pass."""
        pkg = self.pkg
        value = self._config(self.inputs[self.top][2])
        tracemalloc.start()
        try:
            for name, mod, fn in PIPELINE:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                value = getattr(getattr(pkg, mod), fn)(value)
                self.layer_alloc[name] = (tracemalloc.get_traced_memory()[1] - before) / 2**20
        finally:
            tracemalloc.stop()

    def layers(self, tracer=None) -> dict[str, float]:
        out = {}
        for name, _, _ in PIPELINE + GUARDS:
            out[name + "_s"] = median(self.layer_times[name])
        out["rank.r_vector_s"] = median(self.layer_times["rank.r_vector"])
        for name, _, _ in PIPELINE:
            out[name + "_alloc_mb"] = self.layer_alloc[name]
        return out

    def traced_end_to_end(self) -> dict[str, float]:
        return {"rank_top_s": median(self.pipeline_top)}

    # -- checks -------------------------------------------------------------

    def check(self) -> list[str]:
        errors = list(self.errors)
        first = self.results[0]
        for k, later in enumerate(self.results[1:], start=2):
            if later != first:
                errors.append(f"rank_ladder: round {k} ranks differ from round 1")
        for s, ((m, n), group) in enumerate(zip(self.shapes, self.inputs)):
            g = (m - 1) * (n - 1)
            got = {x.kind: first[s, x.kind] for x in group}
            where = f"rank_ladder K_{{{m},{n}}}"
            degree = {x.kind: x.degree for x in group}
            if got["low"] != -1:
                errors.append(f"{where}: degree {degree['low']} < 0 but rank {got['low']}")
            if got["high"] != degree["high"] - g:
                errors.append(f"{where}: degree > 2g-2 but rank {got['high']} != deg - g")
            if got["mid"] - got["mirror"] != degree["mid"] + 1 - g:
                errors.append(
                    f"{where}: Riemann-Roch fails: r(u)={got['mid']} r(K-u)={got['mirror']} "
                    f"deg={degree['mid']} g={g}"
                )
        mid = self.toppled_mid
        if self.pkg.top.rank_of(self._config(mid)) != first[0, "mid"]:
            errors.append(f"rank_ladder K_{{{mid.m},{mid.n}}}: toppling changed the rank")
        return errors
