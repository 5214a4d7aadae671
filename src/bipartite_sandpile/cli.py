"""Command line surface: rank, park, sort, rvector, render, enumerate,
verify-gf.

Configurations travel as JSON objects {"m", "n", "a", "sink", "b"}; the
--input flag takes a file path, "-" for stdin, or the JSON text itself.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import genfunc, render
from .core import (
    Configuration,
    GraphShape,
    SandpileError,
    degree,
    dumps,
    from_json_dict,
    sort_config,
    stabilize,
    to_json_dict,
)
# rank_of is not called here: kmnbench/clirank.py's traced run wraps it
from .rank import (
    parking_representative,
    r_vector,
    rank_greedy,
    rank_of,
    rank_scan,
    rank_with_proof,
    verify_rank_proof,
)
from .series import SeriesRing

USAGE_ERROR = 2
DOMAIN_ERROR = 1

# rank --check runs rank_greedy and rank_scan, whose work grows with the
# degree times m+n.  At these bounds (2-core host, Python 3.11) a --check call
# takes at most about 0.17 s, at K_{2,62} with the whole degree on the sink;
# its time grows linearly with the degree
CHECK_MAX_VERTICES = 64  # m + n
CHECK_MAX_DEGREE = 16384

# render draws every cell of the m x n grid and, with --cylindric, one label
# per sink unit; at this size a text picture takes up to about two seconds
RENDER_MAX_CELLS = 250_000

# enumerate and verify-gf run a row transfer whose work is rows times Q
# values times (c, b) states times table cells, polynomial in m, n and the
# caps, and verify-gf also builds the closed form one (x, y) slice at a
# time, polynomial in the caps.  At these bounds (2-core host, Python 3.11)
# verify-gf --wmax 16 --hmax 16 --xymax 16 takes about 1.2 s (family series
# 0.65 s, closed form 0.4 s), enumerate 16 16 about 0.4 s with
# --table xy --xymax 16 and at most 4.5 s with --table dr over 64 degrees
# (--dmin 191, where the window costs most)
FAMILY_MAX_SIDE = 16  # m and n of enumerate, --wmax and --hmax of verify-gf
FAMILY_MAX_XY = 16  # --xymax of both
ENUMERATE_MAX_DEGREES = 64  # degrees in the --dmin..--dmax window of --table dr


def _read_configuration(raw: str) -> Configuration:
    """The configuration given by --input: "-" reads stdin; any other value
    is the JSON text itself when it parses, else the path of a JSON file."""
    text = sys.stdin.read() if raw == "-" else raw
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        if raw == "-":
            raise UsageError(f"malformed configuration JSON: {exc}")
        try:
            with open(raw, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError) as err:
            raise UsageError(f"input is neither JSON ({exc}) nor a readable file ({err})")
        try:
            data = json.loads(text)
        except ValueError as err:  # as below, or not JSON at all
            raise UsageError(f"malformed configuration JSON in {raw}: {err}")
    except ValueError as exc:  # JSON with an integer past Python's int-string limit
        raise UsageError(f"malformed configuration JSON: {exc}")
    try:
        return from_json_dict(data)
    except SandpileError as exc:
        raise UsageError(f"malformed configuration JSON: {exc}")


class UsageError(Exception):
    pass


def _require_sink(u: Configuration) -> Configuration:
    if u.sink is None:
        raise UsageError('input configuration is missing the "sink" field')
    return u


def _emit_config(u: Configuration, fmt: str) -> str:
    if fmt == "json":
        return dumps(u)
    return "a=" + " ".join(map(str, u.a)) + f" sink={u.sink} b=" + " ".join(map(str, u.b))


# ---------------------------------------------------------------------------
# subcommands


def cmd_rank(args: argparse.Namespace) -> int:
    u = _require_sink(_read_configuration(args.input))
    cert = rank_with_proof(u)
    report: dict = {
        "rank": cert.rank,
        "parking_sorted": to_json_dict(cert.parking),
        "r_vector": list(cert.gaps.entries),
    }
    if args.check:
        _require_checkable(u)
        greedy_value, greedy_proof = rank_greedy(u)
        scan_value = rank_scan(u)
        same_proof = cert.proof == greedy_proof
        verified = verify_rank_proof(u, cert.rank, cert.proof)
        if not (cert.rank == greedy_value == scan_value and same_proof and verified):
            print(
                f"rank disagreement: pipeline={cert.rank} greedy={greedy_value} scan={scan_value}"
                f" same proof={same_proof} proof verified={verified}",
                file=sys.stderr,
            )
            return DOMAIN_ERROR
        report["checked"] = True
    if args.proof:
        report["proof"] = to_json_dict(cert.proof.f)
    if args.format == "json":
        print(json.dumps(report))
    else:
        print(f"rank {cert.rank}")
        print("parking " + _emit_config(cert.parking, "text"))
        print("rvector " + " ".join(map(str, cert.gaps.entries)))
        if args.proof:
            print("proof " + _emit_config(cert.proof.f, "text"))
    return 0


def _require_checkable(u: Configuration) -> None:
    size, deg = u.shape.m + u.shape.n, degree(u)
    if size > CHECK_MAX_VERTICES or deg > CHECK_MAX_DEGREE:
        raise SandpileError(
            f"rank --check accepts m + n <= {CHECK_MAX_VERTICES} and degree <= {CHECK_MAX_DEGREE},"
            f" got m + n = {size} and degree {deg}"
        )


def cmd_park(args: argparse.Namespace) -> int:
    u = _require_sink(_read_configuration(args.input))
    print(_emit_config(parking_representative(u), args.format))
    return 0


def cmd_sort(args: argparse.Namespace) -> int:
    u = _read_configuration(args.input)
    print(_emit_config(sort_config(u), args.format))
    return 0


def cmd_rvector(args: argparse.Namespace) -> int:
    u = _read_configuration(args.input)
    gaps = r_vector(u)
    if args.format == "json":
        print(json.dumps(list(gaps.entries)))
    else:
        print(" ".join(map(str, gaps.entries)))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    u = _read_configuration(args.input)
    if args.cylindric:
        drawn = parking_representative(_require_sink(u))
        labels = max(drawn.sink + 1, 0)
    else:
        drawn = _stable_sorted(u)
        labels = 0
    cells = u.shape.m * u.shape.n + labels
    if cells > RENDER_MAX_CELLS:
        raise SandpileError(f"render draws at most {RENDER_MAX_CELLS} cells, got {cells}")
    if args.cylindric:
        spec = render.cylindric_diagram(drawn)
    else:
        spec = render.diagram_of(drawn, shade_intersection=args.shade)
    if args.format == "svg":
        sys.stdout.write(render.render_svg(spec))
    else:
        sys.stdout.write(render.render_text(spec))
    return 0


def _stable_sorted(u: Configuration) -> Configuration:
    """sort_config(stabilize(u)); a partial input stays partial, since the
    sink never topples and stabilizing the rest does not read it."""
    if u.sink is None:
        return sort_config(stabilize(u.with_sink(0))).with_sink(None)
    return sort_config(stabilize(u))


def _require_within(who: str, limits: list[tuple[str, int, int]]) -> None:
    """Refuse, before any work, every (name, value, bound) with value > bound."""
    over = [f"{name} = {value} (at most {bound})" for name, value, bound in limits if value > bound]
    if over:
        raise SandpileError(f"{who} refuses " + ", ".join(over))


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = GraphShape(args.m, args.n)
    if args.table == "dr" and args.dmin > args.dmax:
        raise UsageError(f"--dmin {args.dmin} is above --dmax {args.dmax}")
    limits = [("m", args.m, FAMILY_MAX_SIDE), ("n", args.n, FAMILY_MAX_SIDE)]
    if args.table == "xy":
        limits.append(("--xymax", args.xymax, FAMILY_MAX_XY))
    else:
        limits.append(("degrees in --dmin..--dmax", args.dmax - args.dmin + 1, ENUMERATE_MAX_DEGREES))
    _require_within("enumerate", limits)
    if args.table == "xy":
        ring = SeriesRing(("x", "y"), (args.xymax, args.xymax))
        sys.stdout.write(genfunc.xy_csv(genfunc.xy_table(shape, ring)))
    else:
        window = (args.dmin, args.dmax)
        table = genfunc.degree_rank_table(shape, window)
        sys.stdout.write(genfunc.degree_rank_csv(table, window))
    return 0


def cmd_verify_gf(args: argparse.Namespace) -> int:
    _require_within(
        "verify-gf",
        [
            ("--wmax", args.wmax, FAMILY_MAX_SIDE),
            ("--hmax", args.hmax, FAMILY_MAX_SIDE),
            ("--xymax", args.xymax, FAMILY_MAX_XY),
        ],
    )
    report = genfunc.verify_gf(args.wmax, args.hmax, args.xymax, args.xymax)
    print(f"main identity m<={args.wmax} n<={args.hmax} xy<={args.xymax}: {report.describe()}")
    return 0 if report.ok else DOMAIN_ERROR


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


_cap = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmn-sandpile",
        description="Sandpile ranks and enumeration on complete bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "--input",
            "-i",
            required=True,
            help='configuration JSON: a file path, "-" for stdin, or the JSON itself',
        )

    p = sub.add_parser("rank", help="rank of a configuration (linear-time pipeline)")
    add_input(p)
    p.add_argument("--proof", action="store_true", help="include a proof for the rank")
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-run the reference routes rank_greedy and rank_scan and verify the proof;"
        f" needs m + n <= {CHECK_MAX_VERTICES} and degree <= {CHECK_MAX_DEGREE}, where a call takes"
        " at most about 0.2 s",
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("park", help="sorted parking representative")
    add_input(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_park)

    p = sub.add_parser("sort", help="sorted form of a stable configuration")
    add_input(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=cmd_sort)

    p = sub.add_parser("rvector", help="row-gap vector of a stable sorted configuration")
    add_input(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(handler=cmd_rvector)

    render_help = (
        "draw the stabilized sorted configuration, or with --cylindric the labelled strip of"
        f" its parking representative; refuses more than {RENDER_MAX_CELLS} grid cells (m*n)"
        " plus labels (the parked sink + 1, with --cylindric)"
    )
    p = sub.add_parser("render", help=render_help, description=render_help)
    add_input(p)
    p.add_argument("--format", choices=("text", "svg"), default="text")
    p.add_argument("--cylindric", action="store_true", help="labelled cylindric strip")
    p.add_argument("--shade", action="store_true", help="shade the intersection area")
    p.set_defaults(handler=cmd_render)

    enumerate_help = (
        "tables over all parking sorted configurations; refuses m or n above"
        f" {FAMILY_MAX_SIDE}, --xymax above {FAMILY_MAX_XY} and a --dmin..--dmax window"
        f" of more than {ENUMERATE_MAX_DEGREES} degrees"
    )
    p = sub.add_parser("enumerate", help=enumerate_help, description=enumerate_help)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--table", choices=("xy", "dr"), default="xy")
    p.add_argument("--xymax", type=_cap, default=10, help="exponent cap for the xy table")
    p.add_argument("--dmin", type=int, default=-3)
    p.add_argument("--dmax", type=int, default=17)
    p.set_defaults(handler=cmd_enumerate)

    verify_help = (
        "check the product formula for the family series; refuses --wmax or --hmax"
        f" above {FAMILY_MAX_SIDE} and --xymax above {FAMILY_MAX_XY}"
    )
    p = sub.add_parser("verify-gf", help=verify_help, description=verify_help)
    p.add_argument("--wmax", type=_int_at_least(1), default=4)
    p.add_argument("--hmax", type=_int_at_least(1), default=4)
    p.add_argument("--xymax", type=_cap, default=6)
    p.set_defaults(handler=cmd_verify_gf)

    return parser


def _attach_input_values(argv: list[str]) -> list[str]:
    """Rewrite "-i VALUE" / "--input VALUE" as "--input=VALUE", so that a
    value starting with "-" (such as the JSON number -1e+16) is not read as
    a flag."""
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("-i", "--input") else None
        out.append(arg if value is None else f"--input={value}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_input_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 after --help
        return exc.code
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SandpileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
