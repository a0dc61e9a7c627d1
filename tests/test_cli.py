import argparse
import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from thickset import cantor, cli, render
from thickset.cli import main, parse_description, reproduce_rows
from thickset.render import render_ball_system, render_set_1d
from thickset.balls import grid_ifs_example, hex_packing_example
from thickset.cantor import affine_image, ifs_from_branches, off_center_cantor
from thickset.errors import Indeterminate
from fractions import Fraction as Q

from oracles import ref_render_set_1d


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

    def test_set_read_once_per_call(self, tmp_path, monkeypatch):
        # the manifest hashes the description the handler ran on, even
        # when --out then overwrites the --set file
        desc = {"kind": "middle_cantor", "epsilon": "1/3"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(desc))
        calls = []

        def counting(text):
            calls.append(text)
            return parse_description(text)

        monkeypatch.setattr(cli, "parse_description", counting)
        assert main(["construct", "--set", str(path), "--out",
                     str(path)]) == 0
        assert calls == [str(path)]
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        want = cli.canonical_description({**desc, "schema": cli.SCHEMA})
        assert manifest["input_hash"] == \
            hashlib.sha256(want.encode()).hexdigest()

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

    def test_depth_one_kap_walk_over_budget_three(self, monkeypatch,
                                                  tmp_path):
        monkeypatch.setenv("THICKSET_MAX_NODES", str(10**5))
        out = tmp_path / "k.json"
        assert main(["search-kap", "--set", "middle_cantor:1/100000",
                     "--k", "3000", "--depth", "1", "--out", str(out)]) == 3
        manifest = json.loads((tmp_path / "k.json.manifest.json").read_text())
        assert manifest["exit_code"] == 3

    def test_long_k_walk_memory_stays_flat(self, monkeypatch):
        # a walk charged m pair checks at position m cannot pass position
        # isqrt(2 * budget), so its state must not grow with k; state kept
        # for every position costs about 0.35 KB each, some 70 MB at this k
        monkeypatch.setenv("THICKSET_MAX_NODES", str(10**5))
        tracemalloc.start()
        try:
            code = main(["search-kap", "--set", "middle_cantor:1/1000000",
                         "--k", "200000", "--depth", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**20

    def test_thickness_ignores_huge_depth(self, capsys):
        assert main(["thickness", "--set", "middle_cantor:1/3",
                     "--depth", "100000"]) == 0
        assert "1 (stabilized)" in capsys.readouterr().out

    @pytest.mark.parametrize("args, shapes", [
        (["--set", "middle_thirds", "--depth", "8"], 511),
        (["--set", "grid_ifs:seed=1", "--depth", "1"], 101)],
        ids=["bars", "squares"])
    def test_plot_over_budget_three(self, monkeypatch, tmp_path, capsys,
                                    args, shapes):
        # the plot counts its shapes against the node budget: all of them
        # fit a budget of exactly that many, and a budget of 100 refuses
        out = tmp_path / "p.svg"
        monkeypatch.setenv("THICKSET_MAX_NODES", str(shapes))
        assert main(["plot", *args, "--out", str(out)]) == 0
        out.unlink()
        monkeypatch.setenv("THICKSET_MAX_NODES", "100")
        assert main(["plot", *args, "--out", str(out)]) == 3
        assert "over the node budget of 100" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "p.svg.manifest.json").read_text())
        assert (manifest["exit_code"], manifest["outputs"]) == (3, [])

    def test_plot_cap_three(self, tmp_path, capsys):
        # 7 branches to depth 8 are 6.7 million bars, which the default
        # budget admits; the cap refuses depth 6, 137257 bars, before
        # deriving it
        out = tmp_path / "p.svg"
        seven = json.dumps({"kind": "ifs1d", "hull": ["0", "1"],
                            "branches": [{"scale": "1/13",
                                          "offset": f"{2 * i}/13"}
                                         for i in range(7)]})
        assert main(["plot", "--set", seven, "--depth", "8",
                     "--out", str(out)]) == 3
        assert "plot needs 137257 shapes to depth 6, over the plot cap " \
            "of 100000 shapes" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "p.svg.manifest.json").read_text())
        assert (manifest["exit_code"], manifest["outputs"]) == (3, [])

    @pytest.mark.parametrize("budget, cap, message", [
        (None, 511, None), (None, 510, "the plot cap of 510 shapes"),
        ("510", 511, "the node budget of 510"),
        ("511", 510, "the plot cap of 510 shapes")])
    def test_plot_takes_the_lower_limit(self, monkeypatch, budget, cap,
                                        message):
        # the middle thirds to depth 8 are 511 bars
        if budget is not None:
            monkeypatch.setenv("THICKSET_MAX_NODES", budget)
        monkeypatch.setattr(render, "MAX_SHAPES", cap)
        if message is None:
            assert render_set_1d(cantor.middle_thirds(), 8).count("<rect") \
                == 511
        else:
            with pytest.raises(Indeterminate, match=f"511 shapes to depth "
                               f"8, over {message}"):
                render_set_1d(cantor.middle_thirds(), 8)

    def test_plot_counts_a_level_before_deriving_it(self, monkeypatch):
        # 101 squares pass a budget of 100 before a child is derived
        sys = grid_ifs_example(10, Q(19, 200), Q(1, 100), 1)
        monkeypatch.setenv("THICKSET_MAX_NODES", "100")
        monkeypatch.setattr(type(sys.generator), "children", None)
        with pytest.raises(Indeterminate, match="101 shapes to depth 1"):
            render_ball_system(sys, depth=1)

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

    def test_thickness_deep_gaps_zero(self, tmp_path):
        # gaps reach depth 12, below 265720 images, which the default
        # budget admits; the bridge walks visit a few dozen
        out = tmp_path / "t.json"
        deep = ('{"kind":"ifs1d","hull":["0","1"],"branches":['
                '{"scale":"1/2","offset":"0"},'
                '{"scale":"1/5","offset":"3/5"},'
                '{"scale":"819/4096","offset":"3277/4096"}]}')
        start = time.perf_counter()
        assert main(["thickness", "--set", deep, "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(out.read_text())["value"] == "4"

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

    @pytest.mark.parametrize("desc", [
        '{"kind":"grid_ifs","n":10.7,"rho":"19/200","d":"1/100"}',
        '{"kind":"grid_ifs","n":true,"rho":"19/200","d":"1/100"}',
        '{"kind":"grid_ifs","n":10,"rho":"19/200","d":"1/100","seed":1.5}',
        '{"kind":"grid_ifs","n":10,"rho":"19/200","d":"1/100","seed":true}',
        '{"kind":"hex_packing","gamma":true}',
        '{"kind":"middle_cantor","epsilon":false}',
        '{"kind":"ifs1d","hull":[0,1,5],"branches":[{"scale":"1/3",'
        '"offset":"0"},{"scale":"1/3","offset":"2/3"}]}',
        '{"kind":"ifs1d","hull":"01","branches":[{"scale":"1/3",'
        '"offset":"0"},{"scale":"1/3","offset":"2/3"}]}',
    ])
    def test_json_number_not_truncated_one(self, tmp_path, capsys, desc):
        # a float or bool where an integer or rational belongs, and a
        # hull that is not two numbers, are refused rather than read as
        # the nearest value that builds
        out = tmp_path / "c.json"
        assert main(["construct", "--set", desc, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not out.exists()
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []

    def test_pair_refinement_over_budget_three(self, monkeypatch, tmp_path):
        monkeypatch.setenv("THICKSET_MAX_NODES", "50")
        out = tmp_path / "w.json"
        assert main(["find-ap", "--set", "grid_ifs:seed=1",
                     "--out", str(out)]) == 3
        assert not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["outputs"] == []

    def test_deep_combo_exits_zero(self, tmp_path, capsys):
        # a recursive simplest rational after this descent passes the
        # interpreter's limit and would turn the witness into exit 3
        out = tmp_path / "w.json"
        assert main(["find-combo", "--set", "middle_cantor:1/5", "--lam",
                     "2/7", "--depth", "3000", "--out", str(out)]) == 0
        assert "witness found" in capsys.readouterr().out
        assert json.loads(out.read_text())["depth_used"] == 3000
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 0 and manifest["outputs"] == [str(out)]

    def test_witness_past_the_digit_limit_exits_zero(self, tmp_path):
        # the depth-9020 rationals have more than 4300 digits, the
        # interpreter's default limit on int/str conversion; main lifts it
        # for the call and restores it
        limit = sys.get_int_max_str_digits()
        out, svg = tmp_path / "w.json", tmp_path / "w.svg"
        assert main(["find-ap", "--set", "middle_thirds", "--depth", "9020",
                     "--out", str(out)]) == 0
        assert sys.get_int_max_str_digits() == limit
        rationals = []

        def collect(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    collect(item)
            elif isinstance(node, str) and re.fullmatch(r"-?\d+(/\d+)?",
                                                        node):
                rationals.append(node)

        collect(json.loads(out.read_text()))
        assert len(rationals) >= 8 and max(map(len, rationals)) > 2 * 4300
        sys.set_int_max_str_digits(0)
        try:
            assert all(str(Q(r)) == r for r in rationals)
        finally:
            sys.set_int_max_str_digits(limit)
        assert main(["plot", "--set", "middle_thirds", "--witness", str(out),
                     "--out", str(svg)]) == 0
        assert svg.read_text().count("<circle") == 3

    def test_line_descent_over_budget_three(self, monkeypatch, tmp_path):
        monkeypatch.setenv("THICKSET_MAX_NODES", "50")
        out = tmp_path / "w.json"
        assert main(["find-ap", "--set", "middle_thirds", "--depth", "40",
                     "--out", str(out)]) == 3
        assert not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 3 and manifest["outputs"] == []

    @pytest.mark.parametrize("argv", [
        ["find-ap", "--set", "middle_thirds"],
        ["find-combo", "--set", "middle_thirds", "--lam", "1/3"],
        ["find-triangle", "--set", "middle_thirds"],
        ["find-triangle", "--set", "middle_thirds", "--triangle",
         "0,0;1,0;2,0"],
        ["find-ap", "--set", "grid_ifs:seed=1"],
        ["find-triangle", "--set", "hex_packing:0.99999"],
        ["certify-gap-lemma", "--set", "hex_packing:1", "--set2",
         "hex_packing:1"],
        ["construct", "--set", "middle_thirds"],
        ["plot", "--set", "middle_thirds"],
        ["construct", "--set", "hex_packing:1"],
        ["thickness", "--set", "middle_thirds"],
        ["thickness", "--set", "hex_packing:1"],
        ["certify-gap-lemma", "--set", "middle_thirds", "--set2",
         "middle_thirds"],
    ])
    def test_negative_depth_one(self, tmp_path, capsys, argv):
        out = tmp_path / "w.json"
        assert main(argv + ["--depth", "-3", "--out", str(out)]) == 1
        assert "depth must be nonnegative" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["depth"] == -3

    @pytest.mark.parametrize("triangle", [
        "0;1,0;0,1", "0,0;1,0,0;0,1", "0,0;1,0",
        '{"vertices":5}', '{"vertices":"abc"}',
        '{"vertices":[[0],[1,0],[0,1]]}', '{"vertices":[[0,0],[1,0]]}',
        '{"vertices":[[0,0,0],[1,0],[0,1]]}', '{"vertices":["12","34","56"]}',
    ])
    def test_malformed_triangle_one(self, tmp_path, capsys, triangle):
        out = tmp_path / "w.json"
        assert main(["find-triangle", "--set", "middle_thirds", "--triangle",
                     triangle, "--depth", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: a triangle needs exactly three "
                              "vertices of two coordinates each")
        assert "Traceback" not in err and not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1

    @pytest.mark.parametrize("argv", [
        ["find-ap", "--set", "middle_thirds"],
        ["find-ap", "--set", "grid_ifs:seed=1"],
        ["find-triangle", "--set", "hex_packing:0.99999"],
        ["thickness", "--set", "middle_thirds"],
    ])
    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_nonpositive_precision_bits_one(self, tmp_path, capsys, argv,
                                            bits):
        out = tmp_path / "w.json"
        assert main(argv + ["--precision-bits", bits, "--depth", "2",
                            "--out", str(out)]) == 1
        assert "precision bits must be positive" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert manifest["precision_bits"] == int(bits)

    @pytest.mark.parametrize("bits, code", [("128", 3), ("256", 0)])
    def test_equilateral_reads_precision_bits(self, tmp_path, bits, code):
        # depth 100 on the middle thirds needs about 158 bits of
        # sqrt(3)/2, and --precision-bits sets them
        assert main(["find-triangle", "--set", "middle_thirds", "--depth",
                     "100", "--precision-bits", bits,
                     "--out", str(tmp_path / "w.json")]) == code

    @pytest.mark.parametrize("bits, code", [("128", 3), ("160", 0)])
    def test_deep_triangle_names_the_precision(self, tmp_path, capsys, bits,
                                               code):
        # 128 bits of sqrt(3)/2 reach depth 81: at 82 the difference hit
        # dead-ends and says that its enclosure is too wide
        assert main(["find-triangle", "--set", "middle_thirds", "--depth",
                     "82", "--precision-bits", bits,
                     "--out", str(tmp_path / "w.json")]) == code
        err = capsys.readouterr().err
        named = "difference hit (delta enclosure" in err \
            and "more precision bits" in err
        assert named == (code == 3)

    @pytest.mark.parametrize("command", ["thickness", "certify-gap-lemma"])
    def test_ball_systems_read_precision_bits(self, tmp_path, command):
        # the hex thickness bound, and the gap-lemma details built on it,
        # narrow with the bits they are computed to
        argv = [command, "--set", "hex_packing:1"]
        if command == "certify-gap-lemma":
            argv += ["--set2", "hex_packing:0.99999"]
        artifacts = []
        for bits in ("16", "256"):
            out = tmp_path / f"{bits}.json"
            assert main(argv + ["--precision-bits", bits,
                                "--out", str(out)]) == 0
            artifacts.append(json.loads(out.read_text()))
        if command == "thickness":
            low, high = (Q(a["lower_bound"]["hi"]) - Q(a["lower_bound"]["lo"])
                         for a in artifacts)
            assert low > Q(1, 10**5) and high < Q(1, 10**70)
        else:
            assert artifacts[0]["details"] != artifacts[1]["details"]

    @pytest.mark.parametrize("command", ["thickness", "certify-gap-lemma"])
    @pytest.mark.parametrize("bits, code", [("1", 3), ("2", 0)])
    def test_hex_precision_exhaustion_three(self, tmp_path, capsys, command,
                                            bits, code):
        # at 1 bit the enclosure of (2 - sqrt 3)/sqrt 3 reaches 0, and the
        # hex bound's divisors with it: running out of precision, not bad
        # input
        argv = [command, "--set", "hex_packing:1"]
        if command == "certify-gap-lemma":
            argv += ["--set2", "hex_packing:1"]
        out = tmp_path / "t.json"
        assert main(argv + ["--precision-bits", bits,
                            "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("at 1 precision bits" in err) == (code == 3)
        assert out.exists() == (code == 0)
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert (manifest["exit_code"], manifest["precision_bits"]) == \
            (code, int(bits))

    @pytest.mark.parametrize("argv", [
        ["thickness", "--set", "middle_thirds"],
        ["find-ap", "--set", "middle_thirds", "--depth", "4"]])
    def test_unwritten_artifact_reports_nothing(self, tmp_path, monkeypatch,
                                                capsys, argv):
        # an --out naming a directory: no result printed, no verdict
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(argv + ["--out", "."]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        manifest = json.loads((tmp_path / "work.manifest.json").read_text())
        assert (manifest["exit_code"], manifest["verdicts"],
                manifest["outputs"]) == (1, [], [])

    @pytest.mark.parametrize("out_args", [["--out", "{}"], ["--out={}"]])
    def test_rejected_arguments_write_manifest(self, tmp_path, out_args):
        out = tmp_path / "o.json"
        argv = ["find-ap", "--set", "grid_ifs:seed=1", "--depth", "zz"]
        assert main(argv + [a.format(out) for a in out_args]) == 1
        assert not out.exists()
        manifest = json.loads((tmp_path / "o.json.manifest.json").read_text())
        assert (manifest["command"], manifest["exit_code"], manifest["depth"],
                manifest["outputs"]) == ("find-ap", 1, None, [])

    def test_help_writes_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["find-ap", "--help", "--out", "w.json"]) == 0
        assert "--depth" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["w.json.manifest.json"]
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert (manifest["command"], manifest["exit_code"],
                manifest["outputs"]) == ("find-ap", 0, [])

    def test_no_seed_flag(self, tmp_path):
        # nothing read --seed; the grid's seed is a description field
        out = tmp_path / "t.json"
        argv = ["thickness", "--set", "middle_cantor:1/3", "--out", str(out)]
        assert main(argv + ["--seed", "3"]) == 1
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
        assert "seed" not in manifest

    def test_rejected_arguments_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["find-ap", "--set", "middle_thirds", "--out"]) == 1
        assert main(["find-ap", "--depth", "zz"]) == 1
        assert list(tmp_path.iterdir()) == []

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

        text, _, options = cli.COMMANDS["construct"]
        monkeypatch.setitem(cli.COMMANDS, "construct",
                            (text, handler, options))
        out = tmp_path / "c.json"
        assert main(["construct", "--set", "middle_cantor:1/3",
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(prefix)
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["exit_code"] == code and manifest["outputs"] == []

    def test_unwritable_out_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.json"
        assert main(["construct", "--set", "middle_thirds",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cannot write manifest: " in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("extra, out", [
        (["--witness", "missing.json"], "p.svg"),
        ([], "."),
    ])
    def test_plot_io_errors_one(self, tmp_path, monkeypatch, capsys, extra,
                                out):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["plot", "--set", "middle_thirds", "--out", out]
                    + extra) == 1
        assert capsys.readouterr().err.startswith("input error: ")
        # beside the absolute --out: "." names the working directory
        want = {"p.svg": work / "p.svg.manifest.json",
                ".": tmp_path / "work.manifest.json"}[out]
        manifest = json.loads(want.read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []

    @pytest.mark.parametrize("out, want", [
        (".", "work.manifest.json"),
        ("some/dir", "work/some/dir.manifest.json"),
        ("some/dir/../dir/", "work/some/dir.manifest.json"),
    ])
    def test_directory_out_manifest_path(self, tmp_path, monkeypatch,
                                         capsys, out, want):
        # an --out naming a directory is an input error; the manifest goes
        # beside the directory, named after it, and no hidden file is left
        work = tmp_path / "work"
        (work / "some" / "dir").mkdir(parents=True)
        monkeypatch.chdir(work)
        assert main(["thickness", "--set", "middle_thirds",
                     "--out", out]) == 1
        assert "Is a directory" in capsys.readouterr().err
        manifest = json.loads((tmp_path / want).read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []
        assert sorted(p.name for p in work.iterdir()) == ["some"]

    def test_unknown_grid_key_one(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["find-ap", "--set", "grid_ifs:sed=4", "--depth", "3",
                     "--out", str(out)]) == 1
        assert "grid_ifs takes n, rho, d and seed: 'sed=4'" \
            in capsys.readouterr().err
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []

    @pytest.mark.parametrize("desc, message", [
        ('{"kind":"grid_ifs","n":10,"rho":"19/200","d":"1/100","sed":4}',
         "grid_ifs takes n, rho, d and seed: 'sed'"),
        ('{"kind":"middle_cantor","epsilon":"1/3","eps":"1/2"}',
         "middle_cantor takes epsilon: 'eps'"),
        ('{"kind":"ifs1d","hull":["0","1"],"branches":[],"scale":"1/3"}',
         "ifs1d takes hull and branches: 'scale'"),
        ('{"kind":"hex_packing","gamma":"1","rho":"1/2","n":3}',
         "hex_packing takes gamma: 'n, rho'"),
        ('{"kind":"off_center","a":"3/10","b":"1/10"}',
         "off_center takes a: 'b'"),
        ('{"kind":"ifs1d","hull":["0","1"],"branches":[{"scale":"1/3",'
         '"offset":"0","sclae":"1/2"},{"scale":"1/3","offset":"2/3"}]}',
         "branch takes scale and offset: 'sclae'"),
        ('{"kind":"ifs1d","hull":["0","1"],"branches":[{"scale":"1/3"},'
         '{"scale":"1/3","offset":"2/3"}]}', "ifs1d branch 0 lacks offset"),
        ('{"kind":"ifs1d","hull":["0","1"],"branches":[{"scale":"1/3",'
         '"offset":"0"},{"offset":"2/3"}]}', "ifs1d branch 1 lacks scale"),
        ('{"kind":"ifs1d","hull":["0","1"]}', "ifs1d lacks branches"),
        ('{"kind":"ifs1d","branches":[]}', "ifs1d lacks hull"),
        ('{"kind":"ifs1d","hull":["0","1"],"branches":[["1/3","0"],'
         '{"scale":"1/3","offset":"2/3"}]}',
         "ifs1d branch 0 is not a JSON object"),
        ('{"kind":"middle_cantor"}', "middle_cantor lacks epsilon"),
    ])
    def test_unknown_json_key_one(self, tmp_path, capsys, desc, message):
        out = tmp_path / "c.json"
        assert main(["construct", "--set", desc, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []

    def test_grid_part_without_value_one(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["construct", "--set", "grid_ifs:n", "--out",
                     str(out)]) == 1
        assert "grid_ifs part 'n' is not of the form key=value" \
            in capsys.readouterr().err
        manifest = json.loads((tmp_path / "w.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1

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

    @pytest.mark.parametrize("extra, code, said", [
        (["--r", "19/400"], 2, "fail: r-uniformity"),
        (["--depth", "0"], 3, "unknown: root meets shrunk ball undecided")])
    def test_gap_lemma_ball_systems(self, tmp_path, capsys, extra, code,
                                    said):
        assert main(["certify-gap-lemma", "--set", "grid_ifs:seed=1",
                     "--set2", "grid_ifs:seed=2", *extra,
                     "--out", str(tmp_path / "g.json")]) == code
        assert said in capsys.readouterr().out


def input_hash(tmp_path, argv) -> str:
    """The manifest's input_hash of one run of ``argv``, whatever its
    exit code."""
    out = tmp_path / "o.out"
    main(argv + ["--out", str(out)])
    return json.loads(Path(f"{out}.manifest.json").read_text())["input_hash"]


class TestInputHash:
    def test_set2_reaches_hash(self, tmp_path):
        base = ["certify-gap-lemma", "--set", "middle_cantor:1/3", "--set2"]
        assert input_hash(tmp_path, base + ["middle_cantor:1/3"]) != \
            input_hash(tmp_path, base + ["off_center:3/10"])

    @pytest.mark.parametrize("argv, key, values", [
        (["find-combo", "--set", "middle_cantor:1/3"], "--lam",
         ("1/2", "2/5")),
        (["find-combo", "--set", "middle_cantor:1/3", "--lam", "1/2"],
         "--r", ("1/5", "1/4")),
        (["find-triangle", "--set", "hex_packing:0.99999", "--depth", "0"],
         "--triangle", ("equilateral", "0,0;1,0;0,1")),
        (["search-kap", "--set", "off_center:3/10", "--depth", "2"], "--k",
         ("3", "4")),
        (["reproduce"], "--table", ("section6", "other")),
    ])
    def test_other_inputs_reach_hash(self, tmp_path, argv, key, values):
        a, b = (input_hash(tmp_path, argv + [key, v]) for v in values)
        assert a != b

    def test_witness_content_reaches_hash(self, tmp_path):
        w = tmp_path / "w.json"
        argv = ["plot", "--set", "middle_cantor:1/3", "--depth", "2",
                "--witness", str(w)]
        hashes = []
        for depth in ("6", "10"):
            assert main(["find-ap", "--set", "middle_cantor:1/3", "--depth",
                         depth, "--out", str(w)]) == 0
            hashes.append(input_hash(tmp_path, argv))
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("command", ["construct", "thickness"])
    def test_set_alone_hashes_description(self, tmp_path, command):
        desc = {"kind": "middle_cantor", "epsilon": "1/3",
                "schema": cli.SCHEMA}
        want = hashlib.sha256(
            cli.canonical_description(desc).encode()).hexdigest()
        assert input_hash(tmp_path, [command, "--set",
                                     "middle_cantor:1/3"]) == want

    def test_set2_read_once_per_call(self, tmp_path, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_description(text)

        monkeypatch.setattr(cli, "parse_description", counting)
        input_hash(tmp_path, ["certify-gap-lemma", "--set",
                              "middle_cantor:1/3", "--set2",
                              "off_center:3/10"])
        assert sorted(calls) == ["middle_cantor:1/3", "off_center:3/10"]


class TestSharedParser:
    def test_parser_built_once(self, monkeypatch):
        assert main(["thickness", "--set", "middle_thirds"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["construct", "--set", "off_center:3/10",
                     "--depth", "3"]) == 0
        assert main(["thickness", "--set", "middle_cantor:1/3"]) == 0
        assert main(["search-kap", "--set", "middle_cantor:1/3",
                     "--k", "3", "--depth", "3"]) == 0
        assert built == []

    def test_rejection_leaves_parser_unchanged(self, tmp_path):
        out = tmp_path / "w.json"
        manifest = tmp_path / "w.json.manifest.json"
        valid = ["find-ap", "--set", "middle_cantor:1/3", "--depth", "10",
                 "--out", str(out)]

        def files():
            m = json.loads(manifest.read_text())
            m.pop("wall_time_s")
            return out.read_bytes(), json.dumps(m, sort_keys=True)

        cli.make_parser.cache_clear()
        assert main(valid) == 0
        first = files()
        out.unlink()
        manifest.unlink()
        assert main(["find-ap", "--set", "middle_cantor:1/3", "--depth", "zz",
                     "--out", str(tmp_path / "r.json")]) == 1
        assert main(valid) == 0
        assert files() == first

    def test_help_wraps_to_columns_of_each_call(self, monkeypatch, capsys):
        texts = []
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(["--help"]) == 0
            texts.append(capsys.readouterr().out)
        narrow, wide = texts
        assert len(narrow.splitlines()) > len(wide.splitlines())

    def test_python_m_thickset(self, tmp_path):
        out = tmp_path / "r.json"
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "thickset", "reproduce", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert manifest["exit_code"] == 0
        assert manifest["outputs"] == [str(out)]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in cli.make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class ArgsRecorder:
    """Parsed arguments that note each name read from them while
    ``active`` is nonempty."""

    def __init__(self, args, reads, active):
        self._args, self._reads, self._active = args, reads, active

    def __getattr__(self, name):
        if self._active:
            self._reads.add(name)
        return getattr(self._args, name)


# the options a command takes and does not read, each for the reason given
UNREAD_OPTIONS = {
    ("thickness", "depth"):
        "bench/workloads.py passes it (ROADMAP item 18)",
}

# each command once on a set on the line, and once on a ball system where
# it takes one; run i writes i.json, so the plots draw the first two runs'
# witnesses
OPTION_RUNS = [
    ["find-ap", "--set", "middle_thirds", "--depth", "4"],
    ["find-ap", "--set", "grid_ifs:seed=1", "--depth", "3"],
    ["construct", "--set", "middle_thirds"],
    ["construct", "--set", "hex_packing:1"],
    ["thickness", "--set", "middle_thirds"],
    ["thickness", "--set", "hex_packing:1"],
    ["find-combo", "--set", "middle_thirds", "--lam", "1/3"],
    ["find-combo", "--set", "grid_ifs:seed=1", "--lam", "1/2", "--depth",
     "3"],
    ["find-triangle", "--set", "middle_thirds", "--depth", "3"],
    ["find-triangle", "--set", "hex_packing:0.99999", "--depth", "2"],
    ["search-kap", "--set", "middle_thirds", "--k", "3", "--depth", "3"],
    ["certify-gap-lemma", "--set", "middle_thirds", "--set2",
     "middle_thirds"],
    ["certify-gap-lemma", "--set", "hex_packing:1", "--set2",
     "hex_packing:0.99999"],
    ["reproduce"],
    ["plot", "--set", "middle_thirds", "--witness", "0.json"],
    ["plot", "--set", "grid_ifs:seed=1", "--depth", "1", "--witness",
     "1.json"],
]


class TestOptions:
    def test_subparsers_offer_their_options(self):
        offered = {command: {s for a in sp._actions for s in a.option_strings}
                   - {"-h", "--help"} for command, sp in subparsers().items()}
        assert offered == {
            command: {f"--{name}" for name in ("out", *options)}
            for command, (_, _, options) in cli.COMMANDS.items()}
        assert sum(map(len, offered.values())) == 47

    def test_options_are_read_or_allowlisted(self, tmp_path, monkeypatch):
        # an option is read when the handler or the writing of its result
        # reads it, not when main checks it or the manifest records it
        reads, active = set(), []
        init = cli.Run.__init__

        def recording_init(self, args):
            init(self, ArgsRecorder(args, reads, active))

        def recording(func):
            def call(*args):
                active.append(True)
                try:
                    return func(*args)
                finally:
                    active.pop()
            return call

        monkeypatch.setattr(cli.Run, "__init__", recording_init)
        monkeypatch.setattr(cli.Run, "write", recording(cli.Run.write))
        for command, (text, handler, options) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, command,
                                (text, recording(handler), options))
        monkeypatch.chdir(tmp_path)
        read = {command: set() for command in subparsers()}
        for i, argv in enumerate(OPTION_RUNS):
            reads.clear()
            assert main(argv + ["--out", f"{i}.json"]) == 0, argv
            read[argv[0]] |= reads
        unread = {(command, a.dest) for command, sp in subparsers().items()
                  for a in sp._actions
                  if a.dest != "help" and a.dest not in read[command]}
        assert sorted(unread - set(UNREAD_OPTIONS)) == []
        assert sorted(set(UNREAD_OPTIONS) - unread) == []  # none stale

    def test_every_format_option_writes_csv(self, tmp_path, monkeypatch):
        # a command that offers --format has a CSV form
        monkeypatch.chdir(tmp_path)
        assert main(OPTION_RUNS[0] + ["--out", "0.json"]) == 0
        first = {}
        for argv in OPTION_RUNS:
            first.setdefault(argv[0], argv)
        failed = [command for command, argv in first.items()
                  if "--format" in subparsers()[command]._option_string_actions
                  and main(argv + ["--format", "csv", "--out", "o.csv"]) != 0]
        assert failed == []


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

    @pytest.mark.parametrize("argv", [
        ["find-combo", "--set", "middle_cantor:1/3", "--lam", "1/3"],
        ["find-triangle", "--set", "middle_thirds"],
        ["search-kap", "--set", "middle_cantor:1/3", "--k", "3"],
    ])
    def test_csv_format_other_witness_commands(self, tmp_path, argv):
        out = tmp_path / "w.csv"
        assert main(argv + ["--depth", "3", "--format", "csv",
                            "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "point,approx,error_bound" and len(lines) == 4

    @pytest.mark.parametrize("argv", [
        ["construct", "--set", "middle_thirds"],
        ["thickness", "--set", "middle_cantor:1/3"],
        ["certify-gap-lemma", "--set", "middle_thirds", "--set2",
         "middle_thirds"],
        ["reproduce"],
        ["plot", "--set", "middle_thirds"],
    ])
    def test_csv_format_without_csv_form_one(self, tmp_path, capsys, argv):
        out = tmp_path / "t.csv"
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 1
        assert "unrecognized arguments: --format csv" \
            in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert (manifest["command"], manifest["exit_code"],
                manifest["outputs"]) == (argv[0], 1, [])

    def test_construct_exit(self, tmp_path):
        assert main(["construct", "--set", "off_center:3/10",
                     "--depth", "3"]) == 0
        assert main(["construct", "--set", "hex_packing:1"]) == 0

    def test_construct_counts_without_deriving(self, monkeypatch, capsys):
        # n branches give n**depth images, so none is derived
        calls = []
        children = cantor.WordForm.children

        def counting(form, lo, hi):
            calls.append((lo, hi))
            return children(form, lo, hi)

        monkeypatch.setattr(cantor.WordForm, "children", counting)
        desc = json.dumps({"kind": "ifs1d", "hull": ["0", "1"], "branches": [
            {"scale": "1/4", "offset": "0"}, {"scale": "1/5", "offset": "3/8"},
            {"scale": "1/4", "offset": "3/4"}]})
        assert main(["construct", "--set", desc, "--depth", "12"]) == 0
        assert "59049 cover intervals at depth 10" in capsys.readouterr().out
        assert calls == []

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
        # the README's plot, as the rational rendering drew it
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "61a6da84bbf9713a9bf546c943c6839b26759be68d57e45623231a04a7d1ba6a")


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

    def test_unknown_table_one(self, tmp_path, capsys):
        # section6 is the only table; "examples" is no alias of it
        out = tmp_path / "r.json"
        assert main(["reproduce", "--table", "examples",
                     "--out", str(out)]) == 1
        assert "unknown table 'examples'" in capsys.readouterr().err
        assert not out.exists()
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []


class TestRender:
    def test_set_bars_match_cover(self):
        svg = render_set_1d(off_center_cantor(Q(3, 10)), depth=2)
        # one bar per cover interval per depth: 1 + 2 + 4
        assert svg.count("<rect") == 7

    def test_set_bars_match_the_rational_rendering(self):
        # 200 sets of 2-4 branches from integer weights, placed by affine
        # maps of either sign, at depths 0-5, half of them with marks
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 4)
            weights = [rng.randint(1, 9) for _ in range(2 * n - 1)]
            total, offset, pairs = sum(weights), Q(0), []
            for i in range(0, 2 * n, 2):
                pairs.append((Q(weights[i], total), offset))
                offset += Q(sum(weights[i:i + 2]), total)
            s = affine_image(ifs_from_branches(0, 1, pairs),
                             Q(rng.choice((-1, 1)) * rng.randint(1, 30),
                               rng.randint(1, 13)),
                             Q(rng.randint(-50, 50), rng.randint(1, 17)))
            lo, hi = s.hull
            marks = rng.choice([None, [lo + (hi - lo) * Q(rng.randint(0, 97),
                                                          97)
                                       for _ in range(3)]])
            depth = rng.randint(0, 5)
            assert render_set_1d(s, depth, marks) == \
                ref_render_set_1d(s, depth, marks)

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

    def test_plot_ball_system_witness(self, tmp_path):
        # a, b and c of a witness over a ball system are marked, and the
        # triangle through them drawn
        w, out = tmp_path / "w.json", tmp_path / "plot.svg"
        assert main(["find-ap", "--set", "grid_ifs:seed=1", "--depth", "3",
                     "--out", str(w)]) == 0
        assert main(["plot", "--set", "grid_ifs:seed=1", "--depth", "1",
                     "--witness", str(w), "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count('r="4" fill="#c23b21"') == 3
        assert svg.count("<polygon") == 1

    @pytest.mark.parametrize("desc", ["grid_ifs:seed=1", "middle_thirds"])
    def test_plot_without_out_renders_nothing(self, monkeypatch, capsys,
                                              desc):
        # the missing --out is found before the set is built or drawn
        def forbidden(*args, **kwargs):
            raise AssertionError("rendered without --out")

        for name in ("render_ball_system", "render_set_1d"):
            monkeypatch.setattr(cli.render, name, forbidden)
        monkeypatch.setattr(cli, "build_object", forbidden)
        assert main(["plot", "--set", desc]) == 1
        assert capsys.readouterr().err == "input error: plot needs --out\n"

    def test_empty_witness_error(self, tmp_path):
        w = tmp_path / "empty.json"
        w.write_text("{}")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--set", "middle_cantor:1/3",
                     "--witness", str(w), "--out", str(out)]) == 1


def readme_commands() -> list[list[str]]:
    """The arguments of each ``thickset`` line in the README's "Command
    line" block, continuation lines joined, split as a shell splits
    them."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("thickset ")]


def test_readme_command_lines(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert main(argv) == 0, argv
        if "--out" in argv:
            path = cli.manifest_path(argv[argv.index("--out") + 1])
            manifest = json.loads(path.read_text())
            assert (manifest["command"], manifest["exit_code"]) == \
                (argv[0], 0)


# -- fuzzing ----------------------------------------------------------------

# Malformed and extreme values for each slot of a command line.  Every
# set is cheap at the depths below, no --r reaches below a builder's
# analytic density constant (where the farthest-point kernel would run),
# and nothing asks for threads or processes.

# each command's required options, then the others it takes
SEARCH = ["--depth", "--precision-bits", "--mode", "--format", "--r"]
FUZZ_COMMANDS = {
    "construct": ([], ["--depth"]),
    "thickness": ([], ["--depth", "--precision-bits"]),
    "find-ap": ([], SEARCH), "find-combo": (["--lam"], SEARCH),
    "find-triangle": ([], SEARCH + ["--triangle"]),
    "search-kap": (["--k"], ["--depth", "--format"]),
    "certify-gap-lemma": (["--set2"], ["--depth", "--precision-bits",
                                       "--r"]),
    "reproduce": ([], ["--table"]),
    "plot": ([], ["--depth", "--witness"]), "frobnicate": ([], []),
    "": ([], [])}
# well-formed sets, then malformed or extreme ones
FUZZ_SETS = ([
    "middle_thirds", "middle_cantor:1/5", "off_center:2/5", "grid_ifs",
    "grid_ifs:seed=7", "hex_packing:99999/100000",
    "hex_packing:1/2",
    '{"kind": "ifs1d", "hull": [0, 1], "branches": [{"scale": "1/3", '
    '"offset": 0}, {"scale": "1/3", "offset": "2/3"}]}'], [
    "middle_cantor:0", "middle_cantor:1", "middle_cantor:-1/3",
    "middle_cantor:1/0", "middle_cantor:abc", "middle_cantor:nan",
    "middle_cantor:1e400", "off_center:", "off_center:7", "grid_ifs:n=1",
    "grid_ifs:n=4", "grid_ifs:seed=x", "grid_ifs:foo",
    "grid_ifs:n=10,,seed=99999999999999999999", "hex_packing:2",
    "hex_packing:0", "hex_packing:", "nosuch", "nosuch:1",
    "missing/description.json", "{", "[1, 2]", '{"kind": "nope"}',
    '{"kind": "grid_ifs", "n": 10.0, "rho": "19/200", "d": "1/100"}',
    '{"kind": "grid_ifs", "n": true, "rho": "19/200", "d": "1/100"}',
    '{"kind": "ifs1d", "hull": [0], "branches": []}',
    '{"kind": "ifs1d", "hull": [0, 1], "branches": [[1, 2]]}',
    '{"kind": "middle_cantor", "epsilon": "1/3", "schema": "other/9"}',
    '{"kind": "hex_packing", "gamma": 1e-320}'])
# each option's well-formed values, then its malformed or extreme ones
FUZZ_OPTIONS = {
    "--depth": (["0", "1", "2", "3"], ["-1", "x", "1.5", "", "0x10"]),
    "--precision-bits": (["64", "128"], ["0", "-5", "1", "x"]),
    "--mode": (["standard", "appendix"], ["weird"]),
    "--format": (["json", "csv"], ["xml"]),
    "--lam": (["1/2", "1/3", "2/5"], ["0", "1", "-1/2", "1/0", "abc", "nan",
                                     "inf", "1e400", "1/1000"]),
    "--r": (["auto", "3/10"], ["x", "-1", "0", "1/2", "2", "nan"]),
    "--k": (["2", "3", "4"], ["0", "1", "-2", "x"]),
    "--triangle": (["equilateral", "0,0;1,0;1/2,7/8"],
                   ["0,0;1,0", "0,0;1,0;2,0", "0,0;1,0;x,1",
                    "0,0;1,0;1/2,nan", "[[0, 0], [1, 0], [0, 1]]",
                    '{"a": 1}', "0,0;0,0;0,0", "scalene"]),
    "--table": (["section6"], ["nope", ""]),
    "--set2": (["middle_thirds", "hex_packing:1", "grid_ifs"],
               ["{", "nosuch"]),
    "--witness": (["w.json"], ["missing.json", "bad.json",
                               "nopoints.json"]),
}


def fuzz_argv(rng: random.Random, outs: list[str]) -> list[str]:
    """One command line from the pools above: mostly the options its
    command takes, sometimes one it does not."""
    command = rng.choice(sorted(FUZZ_COMMANDS))
    argv = [command] if command else []
    if command != "reproduce" and rng.random() < 0.95:
        good, bad = FUZZ_SETS
        argv += ["--set", rng.choice(bad if rng.random() < 0.3 else good)]
    required, takes = FUZZ_COMMANDS[command]
    options = [o for o in required if rng.random() < 0.9]
    options += rng.sample(takes, rng.randint(0, min(3, len(takes))))
    if rng.random() < 0.1:
        options.append(rng.choice(sorted(FUZZ_OPTIONS)))
    for option in options:
        good, bad = FUZZ_OPTIONS[option]
        argv += [option, rng.choice(bad if rng.random() < 0.15 else good)]
    if rng.random() < 0.8:
        argv += ["--out", rng.choice(outs)]
    return argv


def test_cli_fuzz(tmp_path, capsys, monkeypatch):
    # every exit is a documented code, with no traceback, and every run
    # given --out leaves its manifest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "nopoints.json").write_text('{"points": []}')
    (tmp_path / "dir").mkdir()
    outs = ["w.json", "w.csv", "w.svg", "dir", "dir/", ".", "dir/x.json",
            str(tmp_path / "abs.json")]
    rng = random.Random(2027)
    cases = [fuzz_argv(rng, outs) for _ in range(300)]
    # a witness whose rationals pass Python's 4300-digit str limit
    cases.append(["find-ap", "--set", "middle_thirds", "--depth", "9100",
                  "--out", "deep.json"])
    for argv in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if "--out" in argv:
            manifest = cli.manifest_path(argv[argv.index("--out") + 1])
            assert manifest.exists(), argv
            manifest.unlink()  # the next run's manifest is its own


@pytest.mark.parametrize("desc, witness", [
    ("hex_packing:1", ["find-ap", "--set", "middle_thirds"]),
    ("middle_thirds", ["find-ap", "--set", "hex_packing:0.99999"]),
    ("middle_thirds", '{"points": 5}'),
    ("middle_thirds", '{"points": [3]}'),
    ("middle_thirds", "[1, 2]"),
    ("middle_thirds", '"x"'),
    ("middle_thirds", '{"a": [], "b": [], "c": []}'),
    ("hex_packing:1", '{"a": [], "b": [], "c": []}'),
], ids=["line-on-plane", "plane-on-line", "points-int", "points-of-int",
        "list", "string", "empty-abc-on-line", "empty-abc-on-plane"])
def test_plot_hostile_witness(tmp_path, capsys, desc, witness):
    # a witness file that does not fit the set it is drawn on: a witness
    # made by a command line, or written out as it stands
    w, out = tmp_path / "w.json", tmp_path / "plot.svg"
    if isinstance(witness, list):
        assert main(witness + ["--out", str(w)]) == 0
    else:
        w.write_text(witness)
    capsys.readouterr()
    assert main(["plot", "--set", desc, "--witness", str(w),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "Traceback" not in err
    manifest = json.loads(cli.manifest_path(str(out)).read_text())
    assert manifest["exit_code"] == 1 and not out.exists()
