"""Deterministic text and SVG pictures of configuration diagrams.

A stable sorted configuration is drawn as its two lattice paths in the m x n
grid; the cylindric variant extends the grid to the right and writes the rank
loop's cell labels, coloured by their side of the red path.

Text glyphs: ``R``/``G`` mark red/green path edges, ``B`` both on top of each
other, ``|``/``-`` plain grid edges, ``#`` a shaded intersection cell.  Cell
labels carry a side suffix, ``r`` for right of the red cut and ``l`` for left.
SVG output is a single self-contained document with 20 px cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Configuration, GraphShape, SandpileError, is_sorted, is_stable, value_counts
from .cylindric import label_cells
from .rank import red_columns

CELL_PX = 20


@dataclass(frozen=True)
class CellLabel:
    """A label placed in the cell with this bottom-left corner (0-based)."""

    column: int
    row: int
    text: str
    side: str | None = None  # "left" / "right" / None


@dataclass(frozen=True)
class DiagramSpec:
    """Everything a renderer needs: the two step strings (from the southwest
    corner), the drawable grid width, and optional cell decoration."""

    shape: GraphShape
    red_steps: str
    green_steps: str
    width: int
    labels: tuple[CellLabel, ...] = ()
    shaded: tuple[tuple[int, int], ...] = ()


def diagram_of(u: Configuration, shade_intersection: bool = False) -> DiagramSpec:
    """Paths of a stable sorted configuration: the green path turns north at
    distance b-value+1, the red path turns east at height a-value+1, and the
    sink column is pinned to the full grid height."""
    if not (is_stable(u) and is_sorted(u)):
        raise SandpileError("diagram_of expects a stable sorted configuration")
    m, n = u.shape.m, u.shape.n
    red = []
    prev = 0
    for v in u.a:
        height = v + 1
        red.append("N" * (height - prev) + "E")
        prev = height
    red.append("N" * (n - prev) + "E")
    green = []
    prev = 0
    for v in u.b:
        x = v + 1
        green.append("E" * (x - prev) + "N")
        prev = x
    green.append("E" * (m - prev))
    shaded = ()
    if shade_intersection:
        # the cells under the red path (the sink column at full height) and
        # left of the green path: row t holds the columns red_t .. b_t
        rows = enumerate(zip(red_columns(value_counts(n - 1, u.a)), u.b))
        shaded = tuple(sorted((c, t) for t, (lo, hi) in rows for c in range(lo, hi + 1)))
    return DiagramSpec(u.shape, "".join(red), "".join(green), m, (), shaded)


def configuration_of(spec: DiagramSpec) -> Configuration:
    """Inverse of diagram_of (up to the sink value, which a diagram omits)."""
    m, n = spec.shape.m, spec.shape.n
    b = []
    x = 0
    for step in spec.green_steps:
        if step == "E":
            x += 1
        else:
            b.append(x - 1)
    a = []
    y = 0
    for step in spec.red_steps:
        if step == "N":
            y += 1
        else:
            a.append(y - 1)
    if len(b) != n or len(a) != m:
        raise SandpileError("step strings do not fit the shape")
    return Configuration(spec.shape, tuple(a[: m - 1]), None, tuple(b))


def cylindric_diagram(u: Configuration) -> DiagramSpec:
    """The labelled strip for a full parking sorted configuration: one cell
    per sink unit, columns growing eastward as the labels wrap rows."""
    cells = label_cells(u, range(u.require_sink() + 1))  # checks u is parking sorted
    base = diagram_of(u)
    labels = tuple(CellLabel(c.column, c.row, str(c.s), c.side) for c in cells)
    width = max([base.width] + [c.column + 1 for c in cells])
    return DiagramSpec(u.shape, base.red_steps, base.green_steps, width, labels)


# ---------------------------------------------------------------------------
# text


def _path_edges(steps: str) -> tuple[set, set]:
    """Horizontal and vertical unit edges of a path starting at the origin,
    each named by its lower-left vertex."""
    horiz, vert = set(), set()
    x = y = 0
    for step in steps:
        if step == "E":
            horiz.add((x, y))
            x += 1
        else:
            vert.add((x, y))
            y += 1
    return horiz, vert


def _edge_glyph(red: bool, green: bool, plain: str) -> str:
    if red and green:
        return "B"
    if red:
        return "R"
    if green:
        return "G"
    return plain


def render_text(spec: DiagramSpec) -> str:
    """Rows printed from the top so the picture matches the usual figures."""
    n = spec.shape.n
    width = spec.width
    red_h, red_v = _path_edges(spec.red_steps)
    green_h, green_v = _path_edges(spec.green_steps)
    label_at = {(lab.column, lab.row): lab for lab in spec.labels}
    shaded = set(spec.shaded)
    cell_w = 3
    for lab in spec.labels:
        cell_w = max(cell_w, len(lab.text) + 1)

    def horizontal_line(y: int) -> str:
        parts = []
        for x in range(width):
            glyph = _edge_glyph((x, y) in red_h, (x, y) in green_h, "-")
            parts.append("+" + glyph * cell_w)
        return "".join(parts) + "+"

    def cell_line(t: int) -> str:
        parts = []
        for x in range(width):
            parts.append(_edge_glyph((x, t) in red_v, (x, t) in green_v, "|"))
            lab = label_at.get((x, t))
            if lab is not None:
                suffix = {"right": "r", "left": "l", None: " "}[lab.side]
                parts.append((lab.text + suffix).rjust(cell_w))
            elif (x, t) in shaded:
                parts.append("#" * cell_w)
            else:
                parts.append(" " * cell_w)
        parts.append(_edge_glyph((width, t) in red_v, (width, t) in green_v, "|"))
        return "".join(parts)

    lines = []
    for t in range(n - 1, -1, -1):
        lines.append(horizontal_line(t + 1))
        lines.append(cell_line(t))
    lines.append(horizontal_line(0))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG


def _polyline_points(steps: str, n: int) -> str:
    pts = [(0, 0)]
    x = y = 0
    for step in steps:
        if step == "E":
            x += 1
        else:
            y += 1
        pts.append((x, y))
    return " ".join(f"{px * CELL_PX},{(n - py) * CELL_PX}" for px, py in pts)


def render_svg(spec: DiagramSpec) -> str:
    """Self-contained SVG 1.1: grey grid, green under red path, coloured
    labels, pink shading."""
    n = spec.shape.n
    width = spec.width
    w_px, h_px = width * CELL_PX, n * CELL_PX
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px + 2}" height="{h_px + 2}" viewBox="-1 -1 {w_px + 2} {h_px + 2}">',
        f'<rect x="-1" y="-1" width="{w_px + 2}" height="{h_px + 2}" fill="white"/>',
    ]
    for col, row in spec.shaded:
        out.append(
            f'<rect x="{col * CELL_PX}" y="{(n - row - 1) * CELL_PX}" '
            f'width="{CELL_PX}" height="{CELL_PX}" fill="#ffc0cb"/>'
        )
    for gx in range(width + 1):
        out.append(
            f'<line x1="{gx * CELL_PX}" y1="0" x2="{gx * CELL_PX}" y2="{h_px}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    for gy in range(n + 1):
        out.append(
            f'<line x1="0" y1="{gy * CELL_PX}" x2="{w_px}" y2="{gy * CELL_PX}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
    out.append(
        f'<polyline points="{_polyline_points(spec.green_steps, n)}" fill="none" '
        'stroke="green" stroke-width="4"/>'
    )
    out.append(
        f'<polyline points="{_polyline_points(spec.red_steps, n)}" fill="none" '
        'stroke="red" stroke-width="2"/>'
    )
    for lab in spec.labels:
        colour = {"right": "red", "left": "green", None: "black"}[lab.side]
        cx = lab.column * CELL_PX + CELL_PX // 2
        cy = (n - lab.row - 1) * CELL_PX + CELL_PX // 2 + 4
        out.append(
            f'<text x="{cx}" y="{cy}" font-size="10" text-anchor="middle" '
            f'fill="{colour}">{lab.text}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
