import json

import pytest

from thickset import cli
from thickset.cli import main, parse_description, reproduce_rows
from thickset.render import render_ball_system, render_set_1d
from thickset.balls import grid_ifs_example, hex_packing_example
from thickset.cantor import off_center_cantor
from fractions import Fraction as Q


class TestDescriptions:
    def test_shorthand(self):
        d = parse_description("middle_cantor:1/3")
        assert d == {"schema": "thickset/1", "kind": "middle_cantor",
                     "epsilon": "1/3"}

    def test_json_inline(self):
        d = parse_description('{"kind":"off_center","a":"3/10"}')
        assert d["kind"] == "off_center" and d["schema"] == "thickset/1"

    def test_json_file(self, tmp_path):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps({"schema": "thickset/1", "kind": "grid_ifs",
                                 "n": 10, "rho": "19/200", "d": "1/100",
                                 "seed": 1}))
        d = parse_description(str(p))
        assert d["kind"] == "grid_ifs"

    def test_ifs1d_json(self):
        code = main(["thickness", "--set",
                     '{"kind":"ifs1d","hull":["0","1"],'
                     '"branches":[{"scale":"1/3","offset":"0"},'
                     '{"scale":"1/3","offset":"2/3"}]}'])
        assert code == 0

    def test_bad_schema(self):
        code = main(["thickness", "--set",
                     '{"schema":"other/9","kind":"middle_cantor",'
                     '"epsilon":"1/3"}'])
        assert code == 1


class TestExitCodes:
    def test_verdict_zero(self, capsys):
        assert main(["thickness", "--set", "middle_cantor:1/3"]) == 0
        assert "1 (stabilized)" in capsys.readouterr().out

    def test_sound_infeasible_is_zero(self):
        assert main(["search-kap", "--set", "middle_cantor:2/5",
                     "--k", "3", "--depth", "6"]) == 0

    def test_hypothesis_failure_two(self):
        assert main(["find-ap", "--set", "middle_cantor:2/5",
                     "--depth", "8"]) == 2

    def test_input_error_one(self):
        assert main(["thickness", "--set", "bogus:zzz"]) == 1
        assert main(["search-kap", "--set", "middle_cantor:1/3",
                     "--k", "2", "--depth", "4"]) == 1

    def test_unknown_three(self, monkeypatch):
        monkeypatch.setenv("THICKSET_MAX_NODES", "5")
        assert main(["search-kap", "--set", "middle_cantor:1/3",
                     "--k", "3", "--depth", "6"]) == 3

    def test_thickness_ignores_huge_depth(self, capsys):
        assert main(["thickness", "--set", "middle_cantor:1/3",
                     "--depth", "100000"]) == 0
        assert "1 (stabilized)" in capsys.readouterr().out

    def test_thickness_over_budget_three(self, monkeypatch, tmp_path):
        # the second gap is 10^-9 long, so thickness needs gaps to depth 17
        monkeypatch.setenv("THICKSET_MAX_NODES", "1000")
        out = tmp_path / "t.json"
        hostile = ('{"kind":"ifs1d","hull":["0","1"],"branches":['
                   '{"scale":"3/10","offset":"0"},'
                   '{"scale":"199999999/1000000000","offset":"3/5"},'
                   '{"scale":"1/5","offset":"4/5"}]}')
        assert main(["thickness", "--set", hostile, "--out", str(out)]) == 3
        assert not out.exists()
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["outputs"] == []

    def test_wrong_shaped_description_one(self, tmp_path):
        out = tmp_path / "t.json"
        for desc in ('{"kind":"ifs1d","hull":5,"branches":[]}',
                     '{"kind":"ifs1d","hull":["0"],"branches":[]}',
                     '{"kind":"ifs1d","hull":["0","1"],"branches":[5]}',
                     '{"kind":"grid_ifs","n":[10],"rho":"19/200",'
                     '"d":"1/100"}'):
            assert main(["thickness", "--set", desc, "--out", str(out)]) == 1
            manifest = json.loads(
                (tmp_path / "t.json.manifest.json").read_text())
            assert manifest["exit_code"] == 1 and manifest["outputs"] == []
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        assert main(["construct", "--set", str(listed)]) == 1

    def test_pair_refinement_over_budget_three(self, monkeypatch, tmp_path):
        monkeypatch.setenv("THICKSET_MAX_NODES", "50")
        out = tmp_path / "w.json"
        assert main(["find-ap", "--set", "grid_ifs:seed=1",
                     "--out", str(out)]) == 3
        assert not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["outputs"] == []

    @pytest.mark.parametrize("exc, code, prefix", [
        (RuntimeError("boom"), 1, "internal error: RuntimeError: boom"),
        (ZeroDivisionError("x"), 1, "internal error: ZeroDivisionError"),
        (RecursionError("deep"), 3, "indeterminate: RecursionError"),
        (MemoryError(), 3, "indeterminate: MemoryError"),
    ])
    def test_unexpected_exception_mapped(self, monkeypatch, tmp_path,
                                         capsys, exc, code, prefix):
        def handler(run):
            raise exc

        monkeypatch.setitem(cli.HANDLERS, "construct", handler)
        out = tmp_path / "c.json"
        assert main(["construct", "--set", "middle_cantor:1/3",
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(prefix)
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["exit_code"] == code and manifest["outputs"] == []

    def test_search_kap_huge_k(self, capsys):
        # decided from the gap alone: no depth-1 enumeration
        assert main(["search-kap", "--set", "middle_cantor:2/5",
                     "--k", "100000", "--depth", "2"]) == 0
        assert "infeasible_at_depth (k=100000, depth=1, explored=99999)" \
            in capsys.readouterr().out

    def test_gap_lemma_fail_two(self):
        assert main(["certify-gap-lemma", "--set", "middle_cantor:2/5",
                     "--set2", "middle_cantor:2/5"]) == 2
        assert main(["certify-gap-lemma", "--set", "middle_cantor:1/3",
                     "--set2", "middle_cantor:1/3"]) == 0


class TestArtifacts:
    def test_witness_json_and_manifest(self, tmp_path):
        out = tmp_path / "w.json"
        code = main(["find-ap", "--set", "middle_cantor:1/3",
                     "--depth", "12", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "thickset/1"
        assert data["exact_pair"] == {"a": "1/3", "b": "1"}
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["command"] == "find-ap"
        assert manifest["exit_code"] == 0
        assert manifest["outputs"] == [str(out)]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["find-ap", "--set", "middle_cantor:1/3",
                     "--depth", "10", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "point,approx,error_bound"
        assert len(lines) == 4

    def test_csv_format_nd(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(["find-ap", "--set",
                     '{"kind":"grid_ifs","n":10,"rho":"19/200",'
                     '"d":"1/100","seed":1}',
                     "--depth", "4", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4 and "," in lines[1]

    def test_construct_exit(self, tmp_path):
        assert main(["construct", "--set", "off_center:3/10",
                     "--depth", "3"]) == 0
        assert main(["construct", "--set", "hex_packing:1"]) == 0

    def test_kap_certificate_json(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["search-kap", "--set", "off_center:3/10", "--k", "4",
                     "--depth", "10", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"].startswith("infeasible")
        assert data["explored_nodes"] > 0

    def test_determinism_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["find-combo", "--set", "middle_cantor:1/3",
                         "--lam", "1/3", "--depth", "10",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", "--set", "off_center:3/10",
                         "--depth", "2", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")


class TestReproduce:
    def test_all_rows_pass(self):
        rows = reproduce_rows()
        assert len(rows) == 6
        assert all(r["pass"] for r in rows)

    def test_cli_exit(self, capsys):
        assert main(["reproduce", "--table", "section6"]) == 0
        out = capsys.readouterr().out
        for target in ("8.5975", "10/3", "0.27938814", "7.25137",
                       "0.26243", "7.25077"):
            assert target in out
        assert "FAIL" not in out


class TestRender:
    def test_set_bars_match_cover(self):
        svg = render_set_1d(off_center_cantor(Q(3, 10)), depth=2)
        # one bar per cover interval per depth: 1 + 2 + 4
        assert svg.count("<rect") == 7

    def test_grid_squares(self):
        svg = render_ball_system(grid_ifs_example(10, Q(19, 200),
                                                  Q(1, 100), 1), depth=1)
        assert svg.count("<rect") == 101  # root + 100 children

    def test_hex_circles(self):
        svg = render_ball_system(hex_packing_example(1), depth=1)
        assert svg.count("<circle") == 86

    def test_triangle_overlay(self):
        svg = render_ball_system(
            hex_packing_example(1), depth=1,
            marks=[(Q(0), Q(0)), (Q(1, 4), Q(0)), (Q(1, 8), Q(1, 5))])
        assert "<polygon" in svg

    def test_plot_witness_overlay(self, tmp_path):
        w = tmp_path / "w.json"
        assert main(["find-ap", "--set", "middle_cantor:1/3",
                     "--depth", "10", "--out", str(w)]) == 0
        out = tmp_path / "plot.svg"
        assert main(["plot", "--set", "middle_cantor:1/3", "--depth", "3",
                     "--witness", str(w), "--out", str(out)]) == 0
        assert "circle" in out.read_text()

    def test_empty_witness_error(self, tmp_path):
        w = tmp_path / "empty.json"
        w.write_text("{}")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--set", "middle_cantor:1/3",
                     "--witness", str(w), "--out", str(out)]) == 1
