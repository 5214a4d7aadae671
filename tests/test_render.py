import pytest

from bipartite_sandpile.core import SandpileError, config
from bipartite_sandpile.render import (
    configuration_of,
    cylindric_diagram,
    diagram_of,
    render_svg,
    render_text,
)

from conftest import stable_sorted_partials

FIG_CONFIG = config(7, 5, [0, 0, 0, 2, 2, 2], None, [0, 0, 4, 4, 4])


class TestDiagramOf:
    def test_paths_of_figure_configuration(self):
        spec = diagram_of(FIG_CONFIG)
        # green: east run of length b_i+1 - b_{i-1} before each north step
        assert spec.green_steps == "ENNEEEENNNEE"
        # red: north run to a_j+1 before each east step, sink column at top
        assert spec.red_steps == "NEEENNEEENNE"
        assert spec.width == 7

    def test_round_trip(self):
        for u in (FIG_CONFIG, config(3, 4, [1, 3], None, [0, 2, 2, 2])):
            assert configuration_of(diagram_of(u)) == u

    def test_reverse_round_trip(self):
        spec = diagram_of(FIG_CONFIG)
        assert diagram_of(configuration_of(spec)) == spec

    def test_parking_intersection_one_cell_per_row(self):
        u = config(7, 5, [0, 0, 0, 3, 3, 3], None, [0, 0, 0, 3, 3])
        spec = diagram_of(u, shade_intersection=True)
        rows = [row for _, row in spec.shaded]
        assert all(rows.count(r) <= 1 for r in set(rows))

    def test_unsorted_rejected(self):
        with pytest.raises(SandpileError):
            diagram_of(config(2, 2, [1], None, [1, 0]))

    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_shading_is_the_intersection_area(self, m, n):
        # cell (column c, row t), 0-based, lies under the red path (the sink
        # column at full height) and left of the green path
        for u in stable_sorted_partials(m, n):
            cells = [
                (c, t)
                for c in range(m)
                for t in range(n)
                if (c == m - 1 or u.a[c] >= t) and u.b[t] >= c
            ]
            assert diagram_of(u, shade_intersection=True).shaded == tuple(cells)


class TestRenderText:
    def test_deterministic(self):
        spec = diagram_of(FIG_CONFIG, shade_intersection=True)
        assert render_text(spec) == render_text(spec)

    def test_plain_grid_and_paths_only(self):
        spec = diagram_of(config(2, 2, [1], None, [0, 1]))
        text = render_text(spec)
        assert "#" not in text
        assert text.count("\n") == 5  # 2n+1 rows
        assert "R" in text and "G" in text

    def test_superposed_edges_marked(self):
        # the figure configuration shares its last top edge between paths
        assert "B" in render_text(diagram_of(FIG_CONFIG))

    def test_shaded_cells_marked(self):
        spec = diagram_of(FIG_CONFIG, shade_intersection=True)
        assert "#" in render_text(spec)


class TestCylindric:
    def test_running_example_right_label_count(self):
        u = config(7, 5, [0, 0, 0, 3, 3, 3], 21, [0, 0, 0, 3, 3])
        spec = cylindric_diagram(u)
        assert sum(1 for lab in spec.labels if lab.side == "right") == 13
        text = render_text(spec)
        assert text.count("r") - text.count("rvector") == 13  # suffix glyphs
        assert "21" in text

    def test_negative_sink_has_no_labels(self):
        u = config(7, 5, [0, 0, 0, 3, 3, 3], -1, [0, 0, 0, 3, 3])
        assert cylindric_diagram(u).labels == ()


class TestRenderSvg:
    def test_deterministic_and_self_contained(self):
        spec = cylindric_diagram(config(7, 5, [0, 0, 0, 3, 3, 3], 21, [0, 0, 0, 3, 3]))
        svg = render_svg(spec)
        assert svg == render_svg(spec)
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert 'stroke="red"' in svg and 'stroke="green"' in svg
        assert svg.count('fill="red"') == 13

    def test_cell_size_fixed(self):
        svg = render_svg(diagram_of(FIG_CONFIG))
        assert 'width="142"' in svg  # 7 cells * 20 px + 2
