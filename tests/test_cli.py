import hashlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from tropmat.cli import main

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def graph_path(tmp_path_factory):
    text = resources.files("tropmat").joinpath("data/running_example.json").read_text()
    path = tmp_path_factory.mktemp("cli") / "running.json"
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="session")
def k4_path(tmp_path_factory):
    text = resources.files("tropmat").joinpath("data/k4.json").read_text()
    path = tmp_path_factory.mktemp("cli") / "k4.json"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHappyPaths:
    def test_bases_text(self, capsys, graph_path):
        code, out, _ = run(capsys, "bases", "--graph", graph_path)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "ground size 5, rank 3, 8 bases"
        assert lines[1] == "B1 = {1, 2, 4}"
        assert lines[-1] == "B8 = {3, 4, 5}"

    def test_bases_json(self, capsys, graph_path):
        code, out, _ = run(capsys, "bases", "--format", "json", "--graph", graph_path)
        obj = json.loads(out)
        assert code == 0
        assert obj["ground_size"] == 5
        assert len(obj["bases"]) == 8

    def test_bases_from_file(self, capsys):
        code, out, _ = run(capsys, "bases", "--bases", str(DATA / "running_example_bases.json"))
        assert code == 0
        assert "8 bases" in out

    def test_nonbases(self, capsys, graph_path):
        code, out, _ = run(capsys, "nonbases", "--graph", graph_path)
        assert code == 0
        assert out.splitlines() == ["2 non bases", "{1, 2, 3}", "{2, 4, 5}"]

    def test_origin_type(self, capsys, graph_path):
        code, out, _ = run(capsys, "origin-type", "--graph", graph_path)
        assert code == 0
        assert out.splitlines() == [
            "type at 0: (12345, 1267, 34678, 13568, 24578)",
            "coarse: (5, 4, 5, 5, 5)",
        ]

    def test_fvector(self, capsys, graph_path):
        code, out, _ = run(capsys, "complex", "--fvector", "--graph", graph_path)
        assert code == 0
        assert out.strip() == "[14, 78, 172, 180, 73]"

    def test_fvector_with_empty_face(self, capsys, graph_path):
        code, out, _ = run(
            capsys, "complex", "--fvector", "--with-empty-face",
            "--format", "json", "--graph", graph_path,
        )
        assert code == 0
        assert json.loads(out) == [1, 14, 78, 172, 180, 73]

    def test_cross_validate(self, capsys, graph_path):
        code, out, _ = run(
            capsys, "coarse-types", "--cross-validate", "--graph", graph_path
        )
        assert code == 0
        assert out.strip() == "OK: 73 cells, formula == enumeration"

    def test_formula_and_brute_agree_in_size(self, capsys, graph_path):
        code, out, _ = run(capsys, "coarse-types", "--formula", "--graph", graph_path)
        assert code == 0
        assert out.splitlines()[0] == "73 coarse types from the counting formula"
        code, out, _ = run(capsys, "coarse-types", "--brute", "--graph", graph_path)
        assert code == 0
        assert out.splitlines()[0] == "73 maximal cells by enumeration"

    def test_ideal(self, capsys, graph_path):
        code, out, _ = run(capsys, "ideal", "--graph", graph_path)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "73 generators in 5 variables"
        assert len(lines) == 74
        assert lines[1] == "x_5^8"

    def test_ideal_zero_based(self, capsys, graph_path):
        code, out, _ = run(capsys, "ideal", "--zero-based-vars", "--graph", graph_path)
        assert code == 0
        assert out.splitlines()[1] == "x_4^8"

    def test_hypersimplex_halfspaces(self, capsys):
        code, out, _ = run(capsys, "hypersimplex-halfspaces", "-k", "2", "-d", "2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "6 halfspaces for the uniform matroid (2, 2)"
        assert len(lines) == 7

    def test_check_minimal(self, capsys):
        code, out, _ = run(
            capsys, "check-minimal", "--uniform", "2", "3",
            "--apex", "0,0,0,0", "--sectors", "1,2,3",
        )
        assert code == 0
        assert out.strip() == "min(x_1, x_2, x_3) <= x_4: minimal"

    def test_verify_exterior(self, capsys):
        code, out, _ = run(capsys, "verify-exterior", "--uniform", "2", "2")
        assert code == 0
        assert out.splitlines() == [
            "7 probes, 0 counterexamples",
            "exterior description verified",
        ]

    def test_skeleton(self, capsys, graph_path):
        code, out, _ = run(capsys, "skeleton", "--graph", graph_path)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "graph skeleton {"
        assert sum(1 for l in lines if "--" in l) == 29

    def test_check_single_input(self, capsys):
        code, out, _ = run(capsys, "check", "--uniform", "2", "3")
        assert code == 0
        first, last = out.splitlines()
        assert first.endswith("; 16 probes, exterior description verified)")
        assert last == "all 1 checks passed"

    @pytest.mark.parametrize("d, cells", [("2", 10), ("3", 29)])
    def test_check_rank_one_compares_multisets(self, capsys, monkeypatch, d, cells):
        # every two elements are parallel, and the closed forms still list
        # each cell once: the formula one row per maximal cell, and
        # bounded-cells the tropical simplex alone
        import tropmat.cli as cli

        ranks = []
        original = cli.hypersimplex_coarse_types
        monkeypatch.setattr(cli, "hypersimplex_coarse_types",
                            lambda k, d: ranks.append(k) or original(k, d))
        code, out, _ = run(capsys, "check", "--uniform", "1", d)
        assert code == 0
        first, last = out.splitlines()
        assert first.startswith("input: ok (")
        assert "1 bounded cells; f-vector" in first
        assert f"OK: {cells} cells, formula == enumeration" in first
        assert last == "all 1 checks passed"
        assert ranks == [1]
        _, out, _ = run(capsys, "bounded-cells", "--uniform", "1", d)
        assert out.startswith("1 maximal bounded cells\n")

    def test_check_parallel_elements(self, capsys, tmp_path):
        # U(2,3) with element 1 doubled
        path = tmp_path / "bases.json"
        path.write_text('{"ground_size": 4, "bases": [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]]}')
        code, out, _ = run(capsys, "check", "--bases", str(path))
        assert code == 0
        first, last = out.splitlines()
        assert first.startswith("input: ok (10 pseudovertices, 9 bounded cells;")
        assert "OK: 32 cells, formula == enumeration" in first
        assert last == "all 1 checks passed"
        code, out, _ = run(capsys, "coarse-types", "--cross-validate", "--bases", str(path))
        assert (code, out) == (0, "OK: 32 cells, formula == enumeration\n")

    def test_check_k4_runs_the_complex(self, capsys, k4_path):
        code, out, _ = run(capsys, "check", "--graph", k4_path)
        assert code == 0
        first, last = out.splitlines()
        assert first.startswith("input: ok (")
        assert "f-vector (38, 307, 981, 1598, 1329, 444)" in first
        assert "OK: 444 cells, formula == enumeration" in first
        assert "exterior" not in first
        assert last == "all 1 checks passed"

    def test_corners_and_generators_and_pv_and_bounded(self, capsys, graph_path):
        for cmd, needle in [
            ("corners", "c_1 = (1, 0, 0, 0, 0)"),
            ("generators", "v1 = (0, 0, 1, 0, 1)"),
            ("pseudovertices", "14 pseudovertices"),
            ("bounded-cells", "16 maximal bounded cells"),
        ]:
            code, out, _ = run(capsys, cmd, "--graph", graph_path)
            assert code == 0
            assert needle in out


class TestDeterminism:
    def test_json_complex_is_byte_stable(self, capsys, graph_path):
        _, one, _ = run(capsys, "complex", "--format", "json", "--graph", graph_path)
        _, two, _ = run(capsys, "complex", "--format", "json", "--graph", graph_path)
        assert one == two
        obj = json.loads(one)
        assert obj["f_vector"] == [14, 78, 172, 180, 73]
        assert len(obj["cells"]) == 517


# sha256 of the JSON output, recorded from the permutation and count_b
# implementation of the closed forms that the prefix walk replaced; the
# complex and brute-force digests pin the witnesses, recorded from the face
# closure that rebuilt each dequeued cell's matrix and canonicalised a
# Fraction witness
FROZEN_DIGESTS = {
    ("running", "coarse-types --formula"):
        "cb49f79435a840d0820ff9aecfd6a815ecca2db3736f52c4d0d8bffa6240f906",
    ("running", "bounded-cells"):
        "c9b84e39fd55eb850757d55ee4c8f7e8ab08828270215de61c149412155644a7",
    ("running", "ideal"):
        "b08675ececf5e7a826d61faf4261920421baea5ef3f2fc0c797174c33a455ca0",
    ("running", "bases"):
        "16ad8daca68575bbe518f2ecde8e2410228d5e8c0dc4bd3c74f3e6302e5ea6b1",
    ("running", "complex"):
        "42202ace739f6c3f1abe8c57b49164c225b9d63f16561f60d5b160aee08733e2",
    ("running", "coarse-types --brute"):
        "1d7fc289cd20840348033ec67612241398d60a69fd580af33b5371e25e249af7",
    ("k4", "coarse-types --formula"):
        "b0ac06ce967c4300c335c7ab8b772ed21e136895509eb675ca6a15ca39faf020",
    ("k4", "bounded-cells"):
        "b761ba844c3d0e0652d1778a9d9c7fb4dd7d4550c93f73cd22e4c5df6d453674",
    ("k4", "ideal"):
        "17fdc7db8f1465409732207eb0784c861dd5c566a8041fbd522feb8c4c805c31",
    ("k4", "bases"):
        "31e40c4f9312fd499e7b316934c633d5975a682c5d8e9d057db0fd88a391ec0e",
}


class TestFrozenBytes:
    @pytest.mark.parametrize("graph, command", sorted(FROZEN_DIGESTS))
    def test_json_digest(self, capsys, graph_path, k4_path, graph, command):
        path = graph_path if graph == "running" else k4_path
        code, out, _ = run(capsys, *command.split(), "--format", "json", "--graph", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_DIGESTS[graph, command]


class TestCheckSearchesOnce:
    def test_one_maximal_cell_search(self, capsys, monkeypatch):
        import tropmat.cells as cells

        calls = []
        original = cells.enumerate_maximal_cells

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cells, "enumerate_maximal_cells", counting)
        monkeypatch.setattr("tropmat.cli.enumerate_maximal_cells", counting)
        code, out, _ = run(capsys, "check", "--uniform", "2", "3")
        assert code == 0
        assert out.splitlines()[-1] == "all 1 checks passed"
        assert len(calls) == 1


class TestCheckCatchesFaults:
    """A fault planted in one input of check --uniform 2 3 fails it."""

    @staticmethod
    def failed_check(capsys):
        code, out, _ = run(capsys, "check", "--uniform", "2", "3")
        assert code == 2
        first, last = out.splitlines()
        assert first.startswith("input: FAIL (")
        assert last == "1 of 1 checks failed"
        return first

    def test_closed_form_drops_a_bounded_cell(self, capsys, monkeypatch):
        import tropmat.cli as cli

        original = cli.maximal_bounded_cells
        monkeypatch.setattr(cli, "maximal_bounded_cells", lambda p: original(p)[1:])
        assert "maximal bounded cells disagree" in self.failed_check(capsys)

    def test_enumeration_drops_a_bounded_cell(self, capsys, monkeypatch):
        # a bounded edge is neither a 0-cell nor a maximal bounded cell, and
        # the f-vector still counts it: only the bounded Euler sum sees it go
        import tropmat.cli as cli
        from tropmat.cells import CellComplexModel

        original = cli.enumerate_all_cells

        def dropping(p, cap):
            cx = original(p, cap=cap)
            edge = next(rec for rec in cx.cells if rec.bounded and rec.dim == 1)
            cells = tuple(rec for rec in cx.cells if rec is not edge)
            return CellComplexModel(cx.n_coords, cells, cx.f_vector)

        monkeypatch.setattr(cli, "enumerate_all_cells", dropping)
        assert "Euler characteristic 2 != 1 on the bounded cells" in self.failed_check(capsys)

    def test_closed_form_repeats_a_bounded_cell(self, capsys, monkeypatch):
        # the same set of cells, one of them listed twice
        import tropmat.cli as cli

        original = cli.maximal_bounded_cells
        monkeypatch.setattr(cli, "maximal_bounded_cells", lambda p: original(p) + original(p)[:1])
        assert "maximal bounded cells disagree" in self.failed_check(capsys)

    def test_hypersimplex_table_changes_a_row(self, capsys, monkeypatch):
        import tropmat.cli as cli

        original = cli.hypersimplex_coarse_types
        monkeypatch.setattr(cli, "hypersimplex_coarse_types",
                            lambda k, d: original(k, d)[:-1] + ((4, 1, 1, 0),))
        assert "hypersimplex coarse types disagree" in self.failed_check(capsys)


class TestFailurePaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bases", "--graph", "/no/such/file.json")
        assert code == 1
        assert "error:" in err

    def test_no_input(self, capsys):
        code, _, err = run(capsys, "bases")
        assert code == 1
        assert "exactly one" in err

    def test_two_inputs(self, capsys, graph_path):
        code, _, err = run(capsys, "bases", "--graph", graph_path, "--uniform", "2", "3")
        assert code == 1
        assert "exactly one" in err

    def test_invalid_graph(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
        code, _, err = run(capsys, "bases", "--graph", str(bad))
        assert code == 1
        assert "bridge" in err.lower()

    def test_mode_required(self, capsys, graph_path):
        code, _, err = run(capsys, "coarse-types", "--graph", graph_path)
        assert code == 1
        assert "exactly one of" in err

    def test_bad_apex_arity(self, capsys):
        code, _, err = run(
            capsys, "check-minimal", "--uniform", "2", "3",
            "--apex", "0,0", "--sectors", "1",
        )
        assert code == 1

    def test_cross_validation_mismatch_exits_two(self, capsys, monkeypatch):
        import tropmat.cells as cells

        original = cells.maximal_cell_coarse_types
        monkeypatch.setattr(cells, "maximal_cell_coarse_types", lambda m: original(m)[1:])
        code, out, _ = run(
            capsys, "coarse-types", "--cross-validate", "--uniform", "1", "1"
        )
        assert code == 2
        assert out.startswith("MISMATCH")

    def test_rank_one_report_json(self, capsys, monkeypatch):
        # a formula that lists its last row twice agrees with the
        # enumeration as a set only
        import tropmat.cells as cells

        original = cells.maximal_cell_coarse_types
        monkeypatch.setattr(cells, "maximal_cell_coarse_types",
                            lambda m: original(m) + original(m)[-1:])
        code, out, _ = run(capsys, "coarse-types", "--cross-validate", "--format", "json",
                           "--uniform", "1", "2")
        assert code == 2
        assert out == (
            '{"cell_count": 10, "formula_count": 11, "multiset_equal": false, "ok": false,'
            ' "only_enumerated": [], "only_formula": [[[1, 1, 1], 1]], "set_equal": true}\n')

    @pytest.mark.parametrize("doc", [
        '{"ground_size": "3", "bases": [[1, 2], [1, 3], [2, 3]]}',
        '{"ground_size": 3, "bases": [1, 2]}',
        '{"ground_size": 3, "bases": [[1.9, 2], [1, 3], [2, 3]]}',
        '{"ground_size": 3, "bases": [[true, 2], [1, 3], [2, 3]]}',
    ])
    def test_malformed_basis_file(self, capsys, tmp_path, doc):
        path = tmp_path / "bases.json"
        path.write_text(doc)
        code, _, err = run(capsys, "bases", "--bases", str(path))
        assert code == 1
        assert err.startswith("error:")

    def test_zero_denominator_apex(self, capsys):
        code, _, err = run(capsys, "check-minimal", "--uniform", "2", "3",
                           "--apex", "1/0,0,0,0", "--sectors", "1")
        assert code == 1
        assert err.startswith("error:") and "1/0" in err

    def test_cap_exceeded(self, capsys, graph_path):
        code, _, err = run(
            capsys, "complex", "--graph", graph_path, "--cap", "100"
        )
        assert code == 1
        assert "exceed" in err
        assert "maximal-cell search" in err and "cap 100" in err

    def test_check_beyond_the_cap_fails(self, capsys):
        code, out, err = run(capsys, "check", "--uniform", "2", "3", "--cap", "1000")
        assert code == 1
        assert "ok" not in out
        assert err.strip() == "error: face closure: 1001 face candidates exceed cap 1000"

    def test_check_cap_reaches_the_exterior_check(self, capsys, monkeypatch):
        import tropmat.cli as cli
        from tropmat.cells import DEFAULT_CAP

        caps = []
        original = cli.verify_exterior_description

        def spying(system, generators, cap=DEFAULT_CAP):
            caps.append(cap)
            return original(system, generators, cap)

        monkeypatch.setattr(cli, "verify_exterior_description", spying)
        code, out, _ = run(capsys, "check", "--uniform", "2", "3", "--cap", "5000")
        assert code == 0
        assert out.splitlines()[-1] == "all 1 checks passed"
        assert caps == [5000]

    def test_cap_only_where_enumeration_runs(self):
        import argparse

        from tropmat.cli import _build_parser

        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        with_cap = {name for name, sp in sub.choices.items()
                    if any("--cap" in a.option_strings for a in sp._actions)}
        assert len(sub.choices) == 15
        assert with_cap == {"complex", "coarse-types", "skeleton", "check"}


class TestConsoleScript:
    def test_entry_point_runs(self, graph_path):
        proc = subprocess.run(
            [sys.executable, "-m", "tropmat.cli", "origin-type", "--graph", graph_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "(12345, 1267, 34678, 13568, 24578)" in proc.stdout
