import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipartite_sandpile import genfunc, render
from bipartite_sandpile.cli import (
    CHECK_MAX_DEGREE,
    CHECK_MAX_VERTICES,
    ENUMERATE_MAX_DEGREES,
    FAMILY_MAX_SIDE,
    FAMILY_MAX_XY,
    RENDER_MAX_CELLS,
    main,
)
from bipartite_sandpile.core import from_json_dict, sort_config, stabilize, to_json_dict
from bipartite_sandpile.rank import parking_representative, r_vector, rank_greedy

from conftest import cli_subcommands

RUN75 = '{"m":7,"n":5,"a":[0,0,0,3,3,3],"sink":21,"b":[0,0,0,3,3]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "rank", "-i", RUN75)
        assert code == 0
        report = json.loads(out)
        assert report["rank"] == 12
        assert report["r_vector"] == [1, -2, -2, 1, -2]

    def test_check_and_proof(self, capsys):
        code, out, _ = run(capsys, "rank", "-i", RUN75, "--check", "--proof")
        assert code == 0
        report = json.loads(out)
        assert report["checked"] is True
        proof = report["proof"]
        assert sum(proof["a"]) == 0 and proof["sink"] == 0
        assert sum(proof["b"]) == 13

    def test_check_does_not_change_the_proof(self, capsys):
        _, alone, _ = run(capsys, "rank", "-i", RUN75, "--proof")
        _, checked, _ = run(capsys, "rank", "-i", RUN75, "--check", "--proof")
        assert json.loads(checked)["proof"] == json.loads(alone)["proof"]
        _, alone, _ = run(capsys, "rank", "-i", RUN75, "--proof", "--format", "text")
        _, checked, _ = run(capsys, "rank", "-i", RUN75, "--check", "--proof", "--format", "text")
        assert checked == alone and "proof " in alone

    def test_proof_of_the_running_example(self, capsys):
        code, out, _ = run(capsys, "rank", "-i", RUN75, "--proof")
        assert code == 0
        assert json.loads(out) == {
            "rank": 12,
            "parking_sorted": {"m": 7, "n": 5, "a": [0, 0, 0, 3, 3, 3], "sink": 21, "b": [0, 0, 0, 3, 3]},
            "r_vector": [1, -2, -2, 1, -2],
            "proof": {"m": 7, "n": 5, "a": [0] * 6, "sink": 0, "b": [5, 2, 1, 4, 1]},
        }

    def test_check_alone_prints_no_proof(self, capsys):
        code, out, _ = run(capsys, "rank", "-i", RUN75, "--check", "--format", "text")
        assert code == 0 and "proof" not in out

    def test_missing_sink_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rank", "-i", '{"m":2,"n":2,"a":[0],"sink":null,"b":[0,0]}')
        assert code == 2
        assert "sink" in err

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "rank", "-i", '{"m":2,')
        assert code == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "rank", "-i", RUN75, "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "rank 12"

    def test_value_starting_with_a_dash_is_input_not_a_flag(self, capsys):
        code, _, err = run(capsys, "rank", "-i", "-1e+16")
        assert code == 2 and "object" in err
        code, out, _ = run(capsys, "rank", "--input", RUN75)
        assert code == 0 and json.loads(out)["rank"] == 12

    def test_json_array_is_parsed_not_opened(self, capsys):
        code, _, err = run(capsys, "rank", "-i", "[1,2]")
        assert code == 2 and "object" in err and "No such file" not in err

    def test_file_path(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(RUN75)
        code, out, _ = run(capsys, "rank", "-i", str(path))
        assert code == 0 and json.loads(out)["rank"] == 12
        code, _, err = run(capsys, "rank", "-i", str(tmp_path / "missing.json"))
        assert code == 2 and "No such file" in err
        path.write_text('{"m":2,')
        code, _, err = run(capsys, "rank", "-i", str(path))
        assert code == 2 and "malformed" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(RUN75))
        code, out, _ = run(capsys, "rank", "-i", "-")
        assert code == 0 and json.loads(out)["rank"] == 12


class TestParkSortRvector:
    def test_park_round_trips_through_json(self, capsys):
        code, out, _ = run(capsys, "park", "-i", '{"m":2,"n":2,"a":[5],"sink":0,"b":[7,-3]}')
        assert code == 0
        again_code, again_out, _ = run(capsys, "park", "-i", out.strip())
        assert again_code == 0
        assert json.loads(again_out) == json.loads(out)

    def test_sort(self, capsys):
        code, out, _ = run(
            capsys, "sort", "-i", '{"m":7,"n":5,"a":[2,0,2,2,0,0],"sink":null,"b":[4,4,0,0,4]}'
        )
        assert code == 0
        data = json.loads(out)
        assert data["a"] == [0, 0, 0, 2, 2, 2] and data["b"] == [0, 0, 4, 4, 4]

    def test_sort_rejects_unstable(self, capsys):
        code, _, err = run(capsys, "sort", "-i", '{"m":2,"n":2,"a":[9],"sink":0,"b":[0,0]}')
        assert code == 1 and "stable" in err

    def test_rvector_text(self, capsys):
        code, out, _ = run(
            capsys, "rvector", "-i", '{"m":7,"n":5,"a":[0,0,0,3,3,3],"sink":null,"b":[0,0,0,3,3]}'
        )
        assert code == 0
        assert out.strip() == "1 -2 -2 1 -2"


class TestRender:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "render", "-i", '{"m":7,"n":5,"a":[0,0,0,2,2,2],"sink":null,"b":[0,0,4,4,4]}'
        )
        assert code == 0 and "R" in out and "G" in out

    def test_cylindric_svg(self, capsys):
        code, out, _ = run(capsys, "render", "-i", RUN75, "--cylindric", "--format", "svg")
        assert code == 0
        assert out.count('fill="red"') == 13

    def test_size_bound_counts_labels_with_cylindric(self, capsys):
        def one_cell(sink):
            return json.dumps({"m": 1, "n": 1, "a": [], "sink": sink, "b": [0]})

        # one grid cell plus sink + 1 labels: first one past the bound, so that
        # a broken bound fails here before 10^9 labels are drawn
        for sink in (RENDER_MAX_CELLS - 1, 10**9):
            start = time.perf_counter()
            code, out, err = run(capsys, "render", "-i", one_cell(sink), "--cylindric")
            assert code == 1 and out == "" and str(RENDER_MAX_CELLS) in err
            assert time.perf_counter() - start < 2.0
        code, _, _ = run(capsys, "render", "-i", one_cell(10**9))
        assert code == 0

    def test_cylindric_draws_the_parking_representative(self, capsys):
        text = '{"m":3,"n":3,"a":[1,2],"sink":4,"b":[2,2,1]}'
        code, out, err = run(capsys, "render", "-i", text, "--cylindric")
        assert code == 0, err
        parked = parking_representative(from_json_dict(json.loads(text)))
        assert out == render.render_text(render.cylindric_diagram(parked))

    def test_plain_draws_the_stabilized_sorted_form(self, capsys):
        text = '{"m":3,"n":3,"a":[7,-2],"sink":0,"b":[5,0,4]}'
        code, out, err = run(capsys, "render", "-i", text, "--shade")
        assert code == 0, err
        drawn = sort_config(stabilize(from_json_dict(json.loads(text))))
        assert out == render.render_text(render.diagram_of(drawn, shade_intersection=True))

    def test_plain_stabilizes_a_partial_input(self, capsys):
        text = '{"m":3,"n":3,"a":[7,-2],"sink":null,"b":[5,0,4]}'
        code, out, err = run(capsys, "render", "-i", text)
        assert code == 0, err
        full = from_json_dict(json.loads(text)).with_sink(0)
        drawn = sort_config(stabilize(full)).with_sink(None)
        assert out == render.render_text(render.diagram_of(drawn))

    def test_size_bound_counts_the_labels_of_the_parked_sink(self, capsys):
        # stabilizing moves almost all of a-value 10^9 onto the sink
        text = json.dumps({"m": 2, "n": 2, "a": [10**9], "sink": 0, "b": [0, 0]})
        start = time.perf_counter()
        code, out, err = run(capsys, "render", "-i", text, "--cylindric")
        assert code == 1 and out == "" and str(RENDER_MAX_CELLS) in err
        assert time.perf_counter() - start < 2.0
        code, out, _ = run(capsys, "render", "-i", text)
        assert code == 0 and out

    def test_size_bound_counts_grid_cells(self, capsys):
        m = n = 501
        grid = json.dumps({"m": m, "n": n, "a": [0] * (m - 1), "sink": None, "b": [0] * n})
        assert m * n > RENDER_MAX_CELLS
        code, out, _ = run(capsys, "render", "-i", grid)
        assert code == 1 and out == ""


class TestEnumerate:
    def test_xy_table_matches_figure(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "3", "--table", "xy", "--xymax", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y\\x,0,1,2"
        assert lines[1] == "0,15,35,57"

    def test_degree_rank_table(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "3", "--table", "dr", "--dmin", "0", "--dmax", "0")
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1] for line in out.strip().splitlines()[1:]}
        assert rows["0"] == "1"


    @pytest.mark.parametrize(
        "argv",
        [
            [str(FAMILY_MAX_SIDE + 1), "2"],
            ["2", str(FAMILY_MAX_SIDE + 1)],
            ["3", "3", "--xymax", str(FAMILY_MAX_XY + 1)],
            ["3", "3", "--table", "dr", "--dmin", "0", "--dmax", str(ENUMERATE_MAX_DEGREES)],
        ],
    )
    def test_size_bound(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-limit call did the work")

        monkeypatch.setattr(genfunc, "xy_table", forbidden)
        monkeypatch.setattr(genfunc, "degree_rank_table", forbidden)
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 1 and out == "" and "enumerate refuses" in err

    def test_window_running_backwards_is_a_usage_error(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a backwards window did the work")

        monkeypatch.setattr(genfunc, "degree_rank_table", forbidden)
        code, out, err = run(capsys, "enumerate", "3", "3", "--table", "dr", "--dmin", "5", "--dmax", "2")
        assert code == 2 and out == "" and "--dmin 5 is above --dmax 2" in err

    def test_largest_shape_is_accepted(self, capsys):
        side, xy = str(FAMILY_MAX_SIDE), str(FAMILY_MAX_XY)
        code, out, _ = run(capsys, "enumerate", side, side, "--xymax", xy)
        assert code == 0 and out.count("\n") == FAMILY_MAX_XY + 2

    def test_largest_window_is_accepted(self, capsys):
        window = ["--dmin", "0", "--dmax", str(ENUMERATE_MAX_DEGREES - 1)]
        code, out, _ = run(capsys, "enumerate", str(FAMILY_MAX_SIDE), "2", "--table", "dr", *window)
        assert code == 0 and out.startswith("r\\d,0,1,")


class TestVerifyGf:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "verify-gf", "--wmax", "2", "--hmax", "2", "--xymax", "4")
        assert code == 0 and "PASS" in out

    def test_default_documented_caps(self, capsys):
        code, out, _ = run(capsys, "verify-gf", "--wmax", "4", "--hmax", "4", "--xymax", "6")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize(
        "caps",
        [(FAMILY_MAX_SIDE, FAMILY_MAX_SIDE, 2), (FAMILY_MAX_SIDE, 2, FAMILY_MAX_XY),
         (2, FAMILY_MAX_SIDE, FAMILY_MAX_XY)],
    )
    def test_at_the_bounds(self, capsys, caps):
        wmax, hmax, xymax = map(str, caps)
        code, out, _ = run(capsys, "verify-gf", "--wmax", wmax, "--hmax", hmax, "--xymax", xymax)
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize(
        "flag,limit",
        [("--wmax", FAMILY_MAX_SIDE), ("--hmax", FAMILY_MAX_SIDE), ("--xymax", FAMILY_MAX_XY)],
    )
    def test_size_bound(self, capsys, monkeypatch, flag, limit):
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-limit call did the work")

        monkeypatch.setattr(genfunc, "verify_gf", forbidden)
        code, out, err = run(capsys, "verify-gf", "--wmax", "1", "--hmax", "1", flag, str(limit + 1))
        assert code == 1 and out == "" and "verify-gf refuses" in err and str(limit) in err


def _random_payloads(count: int = 100):
    import random

    rng = random.Random(123)
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        yield json.dumps(
            {
                "m": m,
                "n": n,
                "a": [rng.randint(-6, 12) for _ in range(m - 1)],
                "sink": rng.randint(-6, 20),
                "b": [rng.randint(-6, 12) for _ in range(n)],
            }
        )


class TestRankCheckOnRandoms:
    def test_hundred_random_inputs_agree(self, capsys):
        for payload in _random_payloads():
            code, out, _ = run(capsys, "rank", "-i", payload, "--check")
            assert code == 0 and json.loads(out)["checked"] is True

    def test_proof_output_matches_the_reference_routes(self, capsys):
        # the greedy loop's proof, the parking map and the gap scan of the
        # parked configuration, each computed on its own
        for payload in _random_payloads():
            u = from_json_dict(json.loads(payload))
            code, out, _ = run(capsys, "rank", "-i", payload, "--proof")
            assert code == 0
            report = json.loads(out)
            value, proof = rank_greedy(u)
            park = parking_representative(u)
            assert report["rank"] == value
            assert report["proof"] == to_json_dict(proof.f)
            assert report["parking_sorted"] == to_json_dict(park)
            assert report["r_vector"] == list(r_vector(park).entries)

    def test_check_refuses_large_inputs(self, capsys):
        m = CHECK_MAX_VERTICES // 2
        n = CHECK_MAX_VERTICES - m
        at_bound = {"m": m, "n": n, "a": [0] * (m - 1), "sink": 3, "b": [0] * n}
        code, out, _ = run(capsys, "rank", "-i", json.dumps(at_bound), "--check")
        assert code == 0 and json.loads(out)["checked"] is True
        too_wide = dict(at_bound, n=n + 1, b=[0] * (n + 1))
        code, out, err = run(capsys, "rank", "-i", json.dumps(too_wide), "--check")
        assert code == 1 and out == "" and "m + n <=" in err
        code, out, _ = run(capsys, "rank", "-i", json.dumps(too_wide))
        assert code == 0
        too_high = {"m": 1, "n": 1, "a": [], "sink": CHECK_MAX_DEGREE + 1, "b": [0]}
        code, out, err = run(capsys, "rank", "-i", json.dumps(too_high), "--check")
        assert code == 1 and "degree <=" in err
        code, out, _ = run(capsys, "rank", "-i", json.dumps(dict(too_high, sink=CHECK_MAX_DEGREE)), "--check")
        assert code == 0 and json.loads(out)["rank"] == CHECK_MAX_DEGREE

    def test_check_at_both_bounds_on_the_costliest_shape(self, capsys):
        # K_{2,62} with the whole degree on the sink is where a --check call
        # takes longest at these bounds
        at_bound = {"m": 2, "n": 62, "a": [0], "sink": CHECK_MAX_DEGREE, "b": [0] * 62}
        code, out, _ = run(capsys, "rank", "-i", json.dumps(at_bound), "--check")
        assert code == 0 and json.loads(out)["checked"] is True
        code, out, err = run(capsys, "rank", "-i", json.dumps(dict(at_bound, sink=CHECK_MAX_DEGREE + 1)), "--check")
        assert code == 1 and out == "" and "degree <=" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
SMALL_INTS = st.integers(-3, 6)
CONFIG_SHAPED = st.fixed_dictionaries(
    {
        "m": SMALL_INTS | JSON_VALUES,
        "n": SMALL_INTS | JSON_VALUES,
        "a": st.lists(SMALL_INTS | JSON_VALUES, max_size=5) | JSON_VALUES,
        "b": st.lists(SMALL_INTS | JSON_VALUES, max_size=5) | JSON_VALUES,
    },
    optional={"sink": SMALL_INTS | JSON_VALUES},
)


class TestRankInputFuzz:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | CONFIG_SHAPED)
    def test_any_json_gives_an_exit_code(self, value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # the "=" form keeps argparse from reading a text such as -1e+16 as a flag
            code = main(["rank", "--input=" + json.dumps(value)])
        assert code in (0, 1, 2)
        if code == 0:
            assert "rank" in json.loads(out.getvalue())


SMALL_CONFIG = '{"m":2,"n":3,"a":[1],"sink":3,"b":[0,1,1]}'
# integers stay in -2..4 so that enumerate and verify-gf stay small
ARGV_TOKENS = st.integers(-2, 4).map(str) | st.sampled_from(
    [
        "-i", "--input", SMALL_CONFIG, "[1,2]", "--format", "json", "text", "svg",
        "--check", "--proof", "--cylindric", "--shade", "--table", "xy", "dr",
        "--xymax", "--dmin", "--dmax", "--wmax", "--hmax", "--help", "--bogus",
    ]
)


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(cli_subcommands()), st.lists(ARGV_TOKENS, max_size=8))
    def test_any_argv_gives_an_exit_code(self, command, tokens):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, *tokens])
        assert code in (0, 1, 2)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main(["bench"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["rank", "--help"]) == 0
        assert "usage: kmn-sandpile rank" in capsys.readouterr().out

    # argparse rejects these values itself, like any other bad argument
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-gf", "--wmax", "-1"],
            ["enumerate", "3", "3", "--xymax", "-1"],
            ["verify-gf", "--wmax", "0"],
            ["verify-gf", "--hmax", "0"],
        ],
    )
    def test_out_of_range_argument(self, capsys, argv):
        assert main(argv) == 2
        assert "expected an integer >=" in capsys.readouterr().err

    def test_integer_past_the_int_string_limit_as_the_input(self, capsys):
        code, _, err = run(capsys, "rank", "-i", "9" * 5000)
        assert code == 2 and "malformed configuration JSON" in err

    def test_integer_past_the_int_string_limit_as_the_sink(self, capsys):
        text = '{"m":1,"n":1,"a":[],"sink":%s,"b":[0]}' % ("9" * 5000)
        code, _, err = run(capsys, "rank", "-i", text)
        assert code == 2 and "malformed configuration JSON" in err
