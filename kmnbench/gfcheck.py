"""gf_verify: the product-formula check ``genfunc.verify_gf`` and both
boundary-series identities (direct enumeration against the closed form).

These inputs are fixed by their caps; the seed does not change them.  The
work is many tiny validated rank/statistic calls over every parking sorted
configuration, plus multivariate series products and inverses.
"""

from __future__ import annotations

import math
import time
from functools import partial

from common import median
from spans import rebound

# (mmax, nmax, x/y cap) of verify_gf, then (m/n bound, x/y cap) of the
# boundary identities and how often a round checks them: one verify_gf takes
# about twelve times as long as one boundary check, so a round repeats the
# latter to give it more samples
FULL = {"gf": (5, 5, 8), "boundary": (4, 6), "boundary_repeats": 2}
PROBE = {"gf": (3, 3, 6), "boundary": (3, 6), "boundary_repeats": 1}
CATALAN_SEMIPERIMETER = 10

LAYER_METRICS = (
    "genfunc.enumerate_s",
    "genfunc.enumerate_yield",
    "genfunc.stats_s",
    "genfunc.sink_evals",
    "rank.is_parking_sorted_calls",
    "series.mul_s",
    "series.mul_calls",
    "series.mul_term_pairs",
    "series.geom_inverse_s",
    "series.inverse_keys",
    "genfunc.polyomino_s",
    "cylindric.boundary_sets_s",
)


def narayana(m: int, n: int) -> int:
    k = m + n - 1
    return math.comb(k, m) * math.comb(k, m - 1) // k


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def candidates(m: int, n: int) -> int:
    """Sorted stable pairs with first b-value 0: what enumeration filters."""
    return math.comb(n - 1 + m - 1, m - 1) * math.comb(m + n - 2, n - 1)


class GfVerify:
    name = "gf_verify"
    probe_rounds = 10  # rounds a probe makes in every run
    min_rounds = 3  # so that the median is not a mean of two

    def __init__(self, pkg, seed: int, full: bool) -> None:
        self.pkg = pkg
        spec = FULL if full else PROBE
        self.gf_caps = spec["gf"]
        self.boundary_caps = spec["boundary"]
        self.boundary_repeats = spec["boundary_repeats"]
        self.gf_times: list[float] = []
        self.boundary_times: list[float] = []
        self.reports: list = []
        self.round_layers: list[dict[str, float]] = []
        self.failures: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.reports)

    def warm_up(self) -> None:
        self.pkg.genfunc.verify_gf(2, 2, 3, 3)

    def round_steps(self, tracer=None) -> list:
        steps = [self._product_formula] + [self._boundary] * self.boundary_repeats
        if tracer is None:
            return steps
        start = {}

        def begin():
            start["span"], start["counts"] = len(tracer.spans), dict(tracer.counts)

        def traced(step):
            with rebound(self._trace_patches(tracer)):
                step()

        def end():
            self.round_layers.append(self._round_layers(tracer, start["span"], start["counts"]))

        return [begin] + [partial(traced, step) for step in steps] + [end]

    def _product_formula(self) -> None:
        wh_m, wh_n, xy = self.gf_caps
        t0 = time.perf_counter()
        report = self.pkg.genfunc.verify_gf(wh_m, wh_n, xy, xy)
        self.gf_times.append(time.perf_counter() - t0)
        self.reports.append(("product formula", report))

    def _boundary(self) -> None:
        genfunc, series = self.pkg.genfunc, self.pkg.series
        bound, bxy = self.boundary_caps
        t0 = time.perf_counter()
        ring = series.SeriesRing(("x", "y", "w", "h"), (bxy, bxy, bound, bound))
        direct_plus, direct_minus = genfunc.boundary_series_direct(bound, bound, ring)
        closed_plus, closed_minus = genfunc.boundary_series_closed(ring)
        plus = genfunc.compare_series(direct_plus, closed_plus)
        minus = genfunc.compare_series(direct_minus, closed_minus)
        self.boundary_times.append(time.perf_counter() - t0)
        self.reports.append(("boundary identities", plus.ok and minus.ok))

    def finish(self, tracer=None) -> None:
        pass

    def end_to_end(self) -> dict[str, float]:
        return {"gf_verify_s": median(self.gf_times), "gf_boundary_s": median(self.boundary_times)}

    def traced_end_to_end(self) -> dict[str, float]:
        return self.end_to_end()

    # -- traced: spans and counters at the genfunc / series / cylindric seams

    def _trace_patches(self, tracer):
        genfunc, series, rank, cylindric = (
            self.pkg.genfunc, self.pkg.series, self.pkg.rank, self.pkg.cylindric,
        )
        Series = series.TruncatedSeries

        def enumerated(args, family):
            m, n = family.shape.m, family.shape.n
            tracer.count("enumerate.kept", len(family.configs))
            tracer.count("enumerate.candidates", candidates(m, n))

        def multiplied(args, result):
            tracer.count("series.mul_calls")
            tracer.count("series.mul_term_pairs", len(args[0].coeffs) * len(args[1].coeffs))

        def inverted(args, result):
            tracer.count("series.inverse_keys", math.prod(c + 1 for c in args[0].ring.caps))

        patches = [
            (genfunc, "enumerate_parking_sorted",
             tracer.wrap(genfunc.enumerate_parking_sorted, "genfunc.enumerate", enumerated)),
            (genfunc, "xy_table", tracer.wrap(genfunc.xy_table, "genfunc.xy_table")),
            (genfunc, "polyomino_series", tracer.wrap(genfunc.polyomino_series, "genfunc.polyomino")),
            (genfunc, "boundary_sets", tracer.wrap(genfunc.boundary_sets, "cylindric.boundary_sets")),
            (Series, "__mul__", tracer.wrap(Series.__mul__, "series.mul", multiplied)),
            (Series, "geom_inverse", tracer.wrap(Series.geom_inverse, "series.geom_inverse", inverted)),
            (rank, "is_parking_sorted", tracer.counted(rank.is_parking_sorted, "is_parking_sorted")),
            (cylindric, "is_parking_sorted",
             tracer.counted(cylindric.is_parking_sorted, "is_parking_sorted")),
        ]
        for name in ("xpara", "ypara", "rank_parking_sorted"):
            patches.append((genfunc, name, tracer.counted(getattr(genfunc, name), "sink_evals")))
        return patches

    @staticmethod
    def _round_layers(tracer, first: int, before: dict) -> dict[str, float]:
        totals = tracer.totals(first)
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}

        def spent(name: str, key: str = "total") -> float:
            return totals.get(name, {key: 0.0})[key]

        return {
            "genfunc.enumerate_s": spent("genfunc.enumerate"),
            "genfunc.enumerate_yield": counts["enumerate.kept"] / counts["enumerate.candidates"],
            "genfunc.stats_s": spent("genfunc.xy_table", "self"),
            "genfunc.sink_evals": counts["sink_evals"],
            "rank.is_parking_sorted_calls": counts["is_parking_sorted"],
            "series.mul_s": spent("series.mul"),
            "series.mul_calls": counts["series.mul_calls"],
            "series.mul_term_pairs": counts["series.mul_term_pairs"],
            "series.geom_inverse_s": spent("series.geom_inverse"),
            "series.inverse_keys": counts["series.inverse_keys"],
            "genfunc.polyomino_s": spent("genfunc.polyomino"),
            "cylindric.boundary_sets_s": spent("cylindric.boundary_sets"),
        }

    def layers(self, tracer) -> dict[str, float]:
        return {name: median([r[name] for r in self.round_layers]) for name in LAYER_METRICS}

    # -- checks -------------------------------------------------------------

    def check(self) -> list[str]:
        genfunc, series = self.pkg.genfunc, self.pkg.series
        errors = [f"gf_verify: {label} failed: {report}" for label, report in self.reports
                  if not (report is True or getattr(report, "ok", False))]
        wh_m, wh_n, xy = self.gf_caps
        ring = series.SeriesRing(("x", "y"), (xy, xy))
        for m in range(1, wh_m + 1):
            for n in range(1, wh_n + 1):
                shape = self.pkg.core.GraphShape(m, n)
                found = len(genfunc.enumerate_parking_sorted(shape).configs)
                if found != narayana(m, n):
                    errors.append(f"gf_verify K_{{{m},{n}}}: {found} parking sorted, "
                                  f"Narayana says {narayana(m, n)}")
                table = genfunc.xy_table(shape, ring).coeffs
                if any(table.get((j, i), 0) != c for (i, j), c in table.items()):
                    errors.append(f"gf_verify K_{{{m},{n}}}: xy table not symmetric in x and y")
        top = CATALAN_SEMIPERIMETER
        counts = genfunc.polyomino_counts((top // 2) * (top - top // 2), top - 1, top - 1)
        for p in range(2, top + 1):
            total = sum(c for (_, w, h), c in counts.items() if w + h == p)
            if total != catalan(p - 1):
                errors.append(f"gf_verify: {total} polyominoes of semi-perimeter {p}, "
                              f"Catalan says {catalan(p - 1)}")
        return errors
