"""Run the three enumerative verifications and print their reports.

Usage: python scripts/verify_theorems.py [--fast]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bipartite_sandpile import genfunc, oracle
from bipartite_sandpile.series import SeriesRing


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    print(f"{label} ({time.perf_counter() - start:.1f}s): {result}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fast", action="store_true", help="smaller caps for a quick pass")
    args = parser.parse_args()
    wh, xy, q = (3, 6, 8) if args.fast else (16, 16, 10)

    ok = True

    report = timed(
        f"main product formula (m,n <= {wh}, x,y <= {xy})",
        lambda: genfunc.verify_gf(wh, wh, xy, xy).describe(),
    )
    ok &= report.startswith("PASS")

    ring = SeriesRing(("q", "w", "h"), (q, 5, 5))
    plain = genfunc.polyomino_series(genfunc.PolyominoWeights("q"), ring)
    lifted = genfunc.polyomino_series(genfunc.PolyominoWeights("q", height_offset=1), ring)
    identity = plain == (ring.monomial({"q": 1, "h": 1}) + lifted) * (ring.var("w") + plain)
    quotient = plain == genfunc.polyomino_series_via_l(ring)
    brute = oracle.polyomino_bruteforce(4, 4)
    max_area = max(a for a, _, _ in brute)
    counts = genfunc.polyomino_counts(max_area, 4, 4) == brute
    print(f"polyomino identity: {'PASS' if identity else 'FAIL'}")
    print(f"polyomino L-quotient: {'PASS' if quotient else 'FAIL'}")
    print(f"polyomino counts vs brute force (w,h <= 4): {'PASS' if counts else 'FAIL'}")
    ok &= identity and quotient and counts

    bounds = 3 if args.fast else 4
    ring4 = SeriesRing(("x", "y", "w", "h"), (6, 6, bounds, bounds))
    direct_plus, direct_minus = genfunc.boundary_series_direct(bounds, bounds, ring4)
    closed_plus, closed_minus = genfunc.boundary_series_closed(ring4)
    plus_ok = genfunc.compare_series(direct_plus, closed_plus).ok
    minus_ok = genfunc.compare_series(direct_minus, closed_minus).ok
    print(f"boundary series, positive side (m,n <= {bounds}): {'PASS' if plus_ok else 'FAIL'}")
    print(f"boundary series, negative side (m,n <= {bounds}): {'PASS' if minus_ok else 'FAIL'}")
    ok &= plus_ok and minus_ok

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
