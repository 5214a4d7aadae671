import re
from itertools import combinations_with_replacement

from hypothesis import strategies as st

from bipartite_sandpile.cli import build_parser
from bipartite_sandpile.core import Configuration, GraphShape


# values far outside the stable range, beyond 2^63 included
WIDE_INTS = st.integers(-40, 40) | st.integers(-(2**70), 2**70)
# (m, n, a, sink, b) for config(), 1 <= m, n <= 7, every value from WIDE_INTS
WIDE_PARTS = st.integers(1, 7).flatmap(
    lambda m: st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(m),
            st.just(n),
            st.lists(WIDE_INTS, min_size=m - 1, max_size=m - 1),
            WIDE_INTS,
            st.lists(WIDE_INTS, min_size=n, max_size=n),
        )
    )
)


def cli_subcommands() -> list[str]:
    """The subcommands of the kmn-sandpile parser, read off its usage line."""
    return re.search(r"\{([^}]*)\}", build_parser().format_usage()).group(1).split(",")


def stable_sorted_partials(m: int, n: int):
    """Every stable sorted partial configuration of K_{m,n}."""
    shape = GraphShape(m, n)
    for a in combinations_with_replacement(range(n), m - 1):
        for b in combinations_with_replacement(range(m), n):
            yield Configuration(shape, a, None, b)


def exhaustive_suite(m: int, n: int, sink_lo: int = -3, sink_hi: int | None = None):
    """Stable sorted configurations with a sink sweep, as in the oracle
    equivalence runs."""
    if sink_hi is None:
        sink_hi = 3 * m * n
    for u in stable_sorted_partials(m, n):
        for sink in range(sink_lo, sink_hi + 1):
            yield u.with_sink(sink)
