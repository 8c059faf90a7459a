import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from glcrystals import cli, gt, tableaux
from glcrystals.cli import run
from glcrystals.core import Report


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


M_JSON = {"n": 3, "m": 5, "rows": [[1, 1, 1, 0, 0], [0, 0, 1, 1, 0], [1, 1, 1, 0, 1]]}
X_JSON = {"rank": 4, "rows": [[5, 3, 3, 1], [4, 3, 1], [4, 2], [3]]}


def test_graph_golden(capsys):
    assert run(["graph", "--model", "tableau", "--rank", "3",
                "--shape", "2,1,0", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("wt=") == 8
    assert out.count("->") == 8


def test_graph_deterministic(capsys):
    args = ["graph", "--model", "matrix", "--n", "2", "--m", "2", "--N", "2",
            "--structure", "row"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_act_matrix_golden(tmp_path, capsys):
    path = write(tmp_path, "M.json", M_JSON)
    assert run(["act", "--model", "matrix", "--word", "s[1,2]",
                "--mode", "inner", "--structure", "column",
                "--in", path, "--format", "text"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["10100", "01110", "11101"]


def test_act_outer_matches_inner(tmp_path, capsys):
    path = write(tmp_path, "M.json", M_JSON)
    assert run(["act", "--model", "matrix", "--word", "s[1,2]",
                "--mode", "outer", "--structure", "row",
                "--in", path, "--format", "text"]) == 0
    outer = capsys.readouterr().out
    assert run(["act", "--model", "matrix", "--word", "s[1,2]",
                "--mode", "inner", "--structure", "column",
                "--in", path, "--format", "text"]) == 0
    assert capsys.readouterr().out == outer


def test_act_gt(tmp_path, capsys):
    path = write(tmp_path, "x.json", X_JSON)
    assert run(["act", "--model", "gt", "--word", "s[1,3]",
                "--in", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [[5, 3, 3, 1], [4, 3, 1], [3, 2], [2]]


@pytest.mark.parametrize("word", ["", "s[1,3]", "s[1,2] s[2,4] s[1,4]"])
def test_act_gt_matches_the_tableau_route(tmp_path, capsys, word):
    rows = gt.gt_to_tableau(gt.from_json(X_JSON))
    t_path = write(tmp_path, "t.json", json.loads(tableaux.to_json(rows, 4)))
    assert run(["act", "--model", "tableau", "--word", word,
                "--in", t_path]) == 0
    acted, _ = tableaux.from_json(capsys.readouterr().out)
    assert run(["act", "--model", "gt", "--word", word,
                "--in", write(tmp_path, "x.json", X_JSON)]) == 0
    assert capsys.readouterr().out == gt.to_json(gt.tableau_to_gt(acted, 4)) + "\n"


def test_gt_moves_match_inner(tmp_path, capsys):
    path = write(tmp_path, "x.json", X_JSON)
    assert run(["gt", "--in", path, "--moves", "t1 t2 t1"]) == 0
    via_moves = json.loads(capsys.readouterr().out)
    assert run(["gt", "--in", path, "--moves", "q2"]) == 0
    assert json.loads(capsys.readouterr().out) == via_moves
    assert via_moves["rows"][-2:] == [[3, 2], [2]]


def test_gt_beta(tmp_path, capsys):
    path = write(tmp_path, "x.json", X_JSON)
    assert run(["gt", "--in", path, "--beta"]) == 0
    assert json.loads(capsys.readouterr().out) == [3, 3, 2, 4]


def test_skew_howe_json(tmp_path, capsys):
    path = write(tmp_path, "M.json", M_JSON)
    assert run(["skew-howe", "--in", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda"] == "5,3,1"
    assert payload["T_P"]["rows"] == [[1, 1, 1, 2, 3], [2, 3, 3], [3]]
    assert payload["T_Q"]["rows"] == [[1, 1, 3], [2, 2], [3, 3], [4], [5]]


SIX_BY_FIVE = {"rows": [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0],
                        [0, 0, 1, 1, 1], [1, 0, 0, 1, 0], [0, 1, 1, 0, 1]]}


def test_skew_howe_and_matrix_actions_output_is_pinned(tmp_path, capsys):
    # the whole stdout of each command, P and Q included, in one hash (every
    # exit code is 0); a changed reading or block step changes it
    records = []
    for k, data in enumerate((M_JSON, {"rows": [[0, 0], [0, 0]]},
                              SIX_BY_FIVE)):
        path = write(tmp_path, f"M{k}.json", data)
        n, m = len(data["rows"]), len(data["rows"][0])
        argvs = [["skew-howe", "--in", path, "--format", fmt]
                 for fmt in ("json", "text")]
        for mode in ("inner", "outer"):
            for structure, r in (("row", m if mode == "inner" else n),
                                 ("column", n if mode == "inner" else m)):
                argvs.append(["act", "--model", "matrix", "--mode", mode,
                              "--structure", structure, "--in", path,
                              "--word", f"s[1,{r}] s[1,2] s[{r - 1},{r}]",
                              "--format", "text" if k else "json"])
        for argv in argvs:
            assert run(argv) == 0, argv
            label = " ".join(a for a in argv if a != path)
            records.append(f"{k} {label}\n{capsys.readouterr().out}")
    assert len(records) == 18
    assert hashlib.sha256("".join(records).encode()).hexdigest() == (
        "e69a2fe50c29e369dbd577f37f3e318b6ff27d417aa010af499bf41ad72d5233")


def _raise_disagreement(pair):
    raise ValueError("the two reconstructions disagree")


@pytest.mark.parametrize("inverse, reason", [
    (_raise_disagreement, "the two reconstructions disagree"),
    (lambda pair: pair.p_matrix, "the inverse gives 111001001011101"),
], ids=["inverse-raises", "inverse-wrong"])
def test_skew_howe_failed_round_trip_is_a_failure_with_witness(
        tmp_path, capsys, monkeypatch, inverse, reason):
    monkeypatch.setattr(cli, "duality_inv", inverse)
    path = write(tmp_path, "M.json", M_JSON)
    assert run(["skew-howe", "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"round trip failed at 111000011011101: {reason}\n"


def test_skew_howe_malformed_input_is_a_usage_error(tmp_path, capsys,
                                                    monkeypatch):
    # the inverse is never reached: bad input stays exit 2
    monkeypatch.setattr(cli, "duality_inv", _raise_disagreement)
    path = tmp_path / "M.json"
    path.write_text("{not json")
    assert run(["skew-howe", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    ragged = write(tmp_path, "R.json", {"rows": [[1, 0], [1]]})
    assert run(["skew-howe", "--in", ragged]) == 2
    assert "round trip" not in capsys.readouterr().err


ACT_MATRIX = ["act", "--model", "matrix", "--word", "s[1,2]"]
ACT_TENSOR = ["act", "--model", "tensor", "--word", "s[1,2]"]
ACT_TABLEAU = ["act", "--model", "tableau", "--word", "s[1,2]"]


@pytest.mark.parametrize("argv, payload", [
    (ACT_MATRIX, [1, 2]),
    (ACT_MATRIX, {"rows": 5}),
    (["skew-howe"], [1, 2]),
    (["skew-howe"], {"rows": 5}),
    (["gt"], {"rows": 7}),
    (ACT_TENSOR, {"model": "tensor", "factors": 5}),
    (ACT_TENSOR, {"model": "tensor", "factors": [5]}),
    (ACT_MATRIX, {"rows": [[1, None], [0, 1]]}),
    (ACT_MATRIX, {"rows": [[1.9, 0.2], [0, 1]]}),
    (ACT_MATRIX, {"rows": [[True, False], [False, True]]}),
    (["skew-howe"], {"rows": ["01", "10"]}),
    (ACT_TABLEAU, {"rank": 3, "rows": [[1.0, 2], [3]]}),
    (["gt"], {"rows": [[5.5, 3, 1], [4, 2], [3]]}),
    (ACT_TENSOR, {"model": "fundamental", "rank": 3, "bits": [1.0, 0, 0]}),
    (ACT_TABLEAU, {"rank": None, "rows": [[1]]}),
    (ACT_TABLEAU, {"rank": 2.9, "rows": [[1, 2]]}),
    (["gt"], {"rank": True, "rows": [[2]]}),
    (["gt"], {"rank": "3", "rows": [[2, 1, 0], [2, 1], [2]]}),
    (ACT_TENSOR, {"model": "tensor", "factors": [
        {"model": "tableau", "rank": None, "rows": [[1]]}]}),
    (ACT_TENSOR, {"model": "fundamental", "rank": 3.0, "bits": [1, 0, 0]}),
    (ACT_MATRIX, {"n": 2.0, "rows": [[1, 0], [0, 1]]}),
], ids=["matrix-list", "matrix-rows-int", "skew-howe-list",
        "skew-howe-rows-int", "gt-rows-int", "tensor-factors-int",
        "tensor-factor-int", "matrix-null", "matrix-float", "matrix-bool",
        "skew-howe-string-rows", "tableau-float", "gt-float",
        "fundamental-float", "tableau-rank-null", "tableau-rank-float",
        "gt-rank-bool", "gt-rank-string", "tensor-tableau-rank-null",
        "fundamental-rank-float", "matrix-n-float"])
def test_malformed_input_is_bad_input(tmp_path, capsys, argv, payload):
    # entries must be JSON integers and containers the right kind; anything
    # else is bad input, never a crash (exit 1) or a silent truncation
    assert run(argv + ["--in", write(tmp_path, "in.json", payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, payload, missing", [
    (["skew-howe"], {"model": "tensor", "factors": 5}, "rows"),
    (ACT_MATRIX, {"n": 2, "m": 2}, "rows"),
    (ACT_TENSOR, {"n": 2, "m": 2, "rows": [[1, 0], [0, 1]]}, "model"),
    (ACT_TENSOR, {"model": "tensor"}, "factors"),
    (ACT_TENSOR, {"model": "fundamental", "bits": [1, 0, 0]}, "rank"),
    (ACT_TENSOR, {"model": "fundamental", "rank": 3}, "bits"),
    (ACT_TABLEAU, {"rows": [[1]]}, "rank"),
    (ACT_TABLEAU, {"rank": 2}, "rows"),
    (["gt"], {"rank": 3}, "rows"),
], ids=["skew-howe-rows", "matrix-rows", "tensor-model", "tensor-factors",
        "fundamental-rank", "fundamental-bits", "tableau-rank", "tableau-rows",
        "gt-rows"])
def test_missing_input_field_is_named(tmp_path, capsys, argv, payload,
                                      missing):
    assert run(argv + ["--in", write(tmp_path, "in.json", payload)]) == 2
    assert capsys.readouterr().err == f"error: input has no {missing!r} field\n"


def test_outer_action_on_a_non_tensor_element_is_a_usage_error(tmp_path,
                                                              capsys):
    path = write(tmp_path, "v.json",
                 {"model": "fundamental", "rank": 3, "bits": [1, 0, 0]})
    assert run(ACT_TENSOR + ["--mode", "outer", "--in", path]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert run(ACT_TENSOR + ["--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["bits"] == [0, 1, 0]


def test_act_tensor_text_prints_the_canonical_form(tmp_path, capsys):
    path = write(tmp_path, "t.json", {"model": "tensor", "factors": [
        {"model": "fundamental", "rank": 3, "bits": bits}
        for bits in ([1, 1, 0], [1, 0, 0])]})
    for mode, text in (("inner", "[110|010]"), ("outer", "[100|110]")):
        assert run(ACT_TENSOR + ["--mode", mode, "--in", path]) == 0
        as_json = json.loads(capsys.readouterr().out)
        assert run(ACT_TENSOR + ["--mode", mode, "--in", path,
                                 "--format", "text"]) == 0
        assert capsys.readouterr().out == text + "\n"
        assert [f["bits"] for f in as_json["factors"]] == [
            [int(c) for c in bits] for bits in text[1:-1].split("|")]


def test_verify_agree_and_goldens(capsys):
    assert run(["verify", "agree", "--n", "3", "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "10/10 passed" in out
    assert run(["verify", "goldens"]) == 0


def test_verify_budget_zero_runs_goldens_only(capsys):
    assert run(["verify", "all", "--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS golden") == 7
    assert "SKIP" in out


def test_verify_jobs_output_is_deterministic(capsys):
    assert run(["verify", "all", "--budget", "20"]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "all", "--budget", "20"]) == 0
    assert capsys.readouterr().out == first
    # instances run one after another; there is no --jobs option
    assert run(["verify", "all", "--budget", "20", "--jobs", "4"]) == 2
    capsys.readouterr()


def test_verify_all_budget_50_output_is_pinned(capsys):
    # every line of a small sweep: a changed `checked` count, witness or
    # instance list changes the hash
    assert run(["verify", "all", "--budget", "50"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "1206/1206 passed"
    assert "checked=0)" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3269bb4a54d2c6eb130dd264ef19fb36c70f446df419de1101ba19c8d0fc472e")


def test_verify_all_row_counts_every_check_it_ran(capsys):
    # the axioms row checks the row crystal (3 matrices x 2 nodes), then
    # the column crystal, which has no node and checks nothing
    assert run(["verify", "all", "--budget", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS axioms n=1 m=3 N=1 (checked=6)" in lines


def test_verify_target_lists_only_instances_that_check_something(capsys):
    assert run(["verify", "commute", "--n", "2", "--m", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS commute n=2 m=2 N=1 (checked=12)",
        "PASS commute n=2 m=2 N=2 (checked=8)",
        "PASS commute n=2 m=2 N=3 (checked=12)",
        "3/3 passed"]
    assert run(["verify", "commute", "--n", "2", "--m", "2", "--N", "0"]) == 2
    assert capsys.readouterr().err == (
        "usage error: verify commute has nothing to check at n=2 m=2 N=0\n")


def test_verify_failure_exit_code(capsys, monkeypatch):
    import glcrystals.suites as suites

    def failing():
        return Report("golden", {}, 1, "fail", "synthetic witness")

    monkeypatch.setattr(suites, "GOLDENS", [("synthetic", failing)])
    assert run(["verify", "goldens"]) == 1
    assert "synthetic witness" in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert run(["nosuchcommand"]) == 2
    assert run(["act", "--model", "matrix", "--word", "oops",
                "--in", write(tmp_path, "M.json", M_JSON)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["gt", "--in", str(bad)]) == 2
    assert run(["verify", "agree"]) == 2  # missing --n/--m
    # selectors that would enumerate nothing
    assert run(["verify", "agree", "--n", "0", "--m", "3"]) == 2
    assert run(["verify", "agree", "--n", "2", "--m", "2", "--N", "9"]) == 2
    assert run(["verify", "counting", "--n", "2", "--m", "0"]) == 2
    assert run(["verify", "counting", "--n", "2", "--m", "2", "--N", "-1"]) == 2
    assert run(["verify", "all", "--budget", "-1"]) == 2
    # instances with nothing to check are no rows, so these select none
    assert run(["verify", "agree", "--n", "1", "--m", "3"]) == 2
    assert run(["verify", "corollary", "--n", "3", "--m", "1"]) == 2
    assert run(["verify", "commute", "--n", "2", "--m", "2", "--N", "4"]) == 2
    assert run(["verify", "dual", "--n", "1", "--m", "1", "--N", "0"]) == 2
    # rank 1 has no nodes, so these would check nothing
    assert run(["verify", "bk", "--rank", "1", "--shape", "2"]) == 2
    for target in ("braid", "cactus", "xi", "axioms"):
        assert run(["verify", target, "--model", "tableau", "--rank", "1",
                    "--shape", "2"]) == 2
    assert run(["verify", "xi", "--model", "gt", "--rank", "1",
                "--shape", "2"]) == 2
    assert run(["verify", "cactus", "--model", "tensor", "--rank", "1",
                "--shapes", "1;1"]) == 2
    assert run(["verify", "braid", "--model", "matrix", "--n", "1",
                "--m", "3", "--N", "1", "--structure", "column"]) == 2
    # a shape with more rows than the rank is bad input, not a failure
    assert run(["verify", "bk", "--rank", "2", "--shape", "1,1,1"]) == 2
    capsys.readouterr()


def test_broken_model_is_a_failure_not_an_error(capsys, monkeypatch):
    import glcrystals.cli as cli
    from glcrystals.tableaux import TableauCrystal

    class DeadRaising(TableauCrystal):
        """Every e_i vanishes, so each component has many highest
        elements and the component walk raises."""

        def e(self, i, b):
            return None

    monkeypatch.setattr(cli, "tableau_crystal", DeadRaising)
    assert run(["verify", "xi", "--model", "tableau", "--rank", "3",
                "--shape", "2,1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL xi tableau (checked=0)  witness: component of" in out
    assert "highest" in out
    assert "0/1 passed" in out


@pytest.mark.parametrize("target",
                         ["agree", "corollary", "commute", "dual", "counting"])
def test_matrix_target_over_budget_is_an_error(capsys, target):
    # the registry cost is the only budget: the verifiers themselves take
    # (n, m, N) and enumerate whatever they are given
    argv = ["verify", target, "--n", "3", "--m", "3", "--budget", "50"]
    assert run(argv) == 2
    assert "--force" in capsys.readouterr().err
    assert run(argv + ["--force"]) == 0
    # commute lists N = 1..8: at N = 0 and N = 9 no operator moves
    runs = 8 if target == "commute" else 10
    assert capsys.readouterr().out.endswith(f"{runs}/{runs} passed\n")


def test_explicit_instance_over_budget_is_an_error(capsys):
    # the model targets and bk follow the matrix targets' rule; bk costs its
    # pattern count, as its rows in `verify all` do
    xi = ["verify", "xi", "--model", "tableau", "--rank", "3", "--shape", "2,1",
          "--budget", "3"]
    bk = ["verify", "bk", "--rank", "4", "--shape", "3,2,1", "--budget", "1"]
    for argv in (xi, bk):
        assert run(argv) == 2
        assert "--force" in capsys.readouterr().err
        assert run(argv + ["--force"]) == 0
        out = capsys.readouterr().out
    assert "PASS bk rank=4 shape=3,2,1 (checked=384)" in out


@pytest.mark.parametrize("argv, label", [
    (["verify", "bk"], "bk rank=8 shape=7,6,5,4,3,2,1"),
    (["verify", "xi", "--model", "tableau"], "xi tableau"),
    (["verify", "xi", "--model", "gt"], "xi gt"),
], ids=["bk", "xi-tableau", "xi-gt"])
def test_over_budget_selection_is_refused_before_it_is_enumerated(capsys,
                                                                  argv, label):
    # 2^28 patterns: the cost is read off Weyl's formula, not counted
    start = time.perf_counter()
    assert run(argv + ["--rank", "8", "--shape", "7,6,5,4,3,2,1"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"usage error: {label} enumerates 268435456 > budget 1000000; "
        f"raise --budget or pass --force\n")


def test_tensor_and_matrix_selections_cost_their_size(capsys):
    for argv, label, size in (
            (["--model", "tensor", "--rank", "3", "--shapes", "2,1;1"],
             "xi tensor", 24),
            (["--model", "matrix", "--n", "3", "--m", "3", "--N", "4"],
             "xi matrix", 126)):
        assert run(["verify", "xi", *argv, "--budget", str(size - 1)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: {label} enumerates {size} > budget {size - 1}; "
            f"raise --budget or pass --force\n")
        assert run(["verify", "xi", *argv, "--budget", str(size)]) == 0
        assert capsys.readouterr().out.endswith("1/1 passed\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "xi", "--model", "matrix", "--n", "2", "--m", "2"],
     "matrix model needs --n, --m and --N"),
    (["graph", "--model", "matrix", "--m", "2", "--N", "1"],
     "matrix model needs --n, --m and --N"),
    (ACT_TABLEAU + ["--mode", "outer", "--in", "t.json"],
     "tableaux carry only the inner action"),
    (["act", "--model", "gt", "--word", "s[1,2]", "--mode", "outer",
      "--in", "x.json"], "patterns carry only the inner action"),
    (["gt", "--in", "x.json", "--moves", "t1 x2"],
     "bad move token 'x2'; use t<j> or q<i>"),
    (["gt", "--in", "x.json", "--moves", "qq"],
     "bad move token 'qq'; use t<j> or q<i>"),
], ids=["verify-matrix-no-N", "graph-matrix-no-n", "act-tableau-outer",
        "act-gt-outer", "gt-bad-kind", "gt-bad-index"])
def test_usage_errors_name_what_is_wrong(tmp_path, monkeypatch, capsys, argv,
                                         message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "x.json", X_JSON)
    write(tmp_path, "t.json", {"rank": 3, "rows": [[1, 1, 2], [2, 3]]})
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")


def test_rank_zero_patterns_print_what_rank_zero_tableaux_print(tmp_path,
                                                                capsys):
    for command in ("graph", "character"):
        outputs = []
        for model in ("tableau", "gt"):
            assert run([command, "--model", model, "--rank", "0",
                        "--shape", ""]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    assert run(["verify", "xi", "--model", "gt", "--rank", "0"]) == 2
    assert "needs rank at least 2, got 0" in capsys.readouterr().err
    path = write(tmp_path, "e.json", {"rows": []})
    for argv in (["gt", "--to-tableau", "--in", path, "--format", "text"],
                 ["gt", "--in", path, "--format", "text"],
                 ["act", "--model", "gt", "--word", "", "--in", path,
                  "--format", "text"]):
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == "(empty)\n", argv


def test_negative_rank_is_a_usage_error_naming_the_rank(capsys):
    for argv in (["graph", "--model", "gt", "--rank", "-1", "--shape", ""],
                 ["verify", "xi", "--model", "gt", "--rank", "-1"],
                 ["graph", "--model", "tableau", "--rank", "-1",
                  "--shape", ""],
                 ["character", "--model", "tableau", "--rank", "-1",
                  "--shape", ""],
                 ["tensor", "--rank", "-1", "--shapes", "1;1"]):
        assert run(argv) == 2, argv
        assert "rank must be non-negative, got -1" in \
            capsys.readouterr().err, argv


def test_character_output(capsys):
    assert run(["character", "--model", "tableau", "--rank", "2",
                "--shape", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["character"] == {"[2,0]": 1, "[1,1]": 1, "[0,2]": 1}


def test_tensor_components(capsys):
    assert run(["tensor", "--rank", "2", "--shapes", "1;1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 4
    assert sorted(c["size"] for c in payload["components"]) == [1, 3]


def test_character_tensor_and_tableau_factor_actions_output_is_pinned(
        tmp_path, capsys):
    # the text forms of `character` and `tensor`, and both cactus actions
    # on a tensor of tableaux, which read and print the tableau JSON form
    path = write(tmp_path, "t.json", {"model": "tensor", "factors": [
        {"model": "tableau", "rank": 3, "rows": rows}
        for rows in ([[1, 2], [2]], [[1]])]})
    records = []
    for argv in (["character", "--model", "tableau", "--rank", "3",
                  "--shape", "2,1", "--format", "text"],
                 ["tensor", "--rank", "2", "--shapes", "1;1",
                  "--format", "text"],
                 ["act", "--model", "tensor", "--mode", "inner",
                  "--word", "s[1,3]", "--in", path],
                 ["act", "--model", "tensor", "--mode", "outer",
                  "--word", "s[1,2]", "--in", path, "--format", "text"]):
        code = run(argv)
        label = " ".join(a for a in argv if a != path)
        records.append(f"{label}\n{code}\n{capsys.readouterr().out}")
    assert records[-1].endswith("\n0\n[2|1,1/2]\n")
    assert hashlib.sha256("".join(records).encode()).hexdigest() == (
        "04601e495006e39af96670047a7734380f8231a2f295616528da89b44a69c73d")


def test_out_file(tmp_path):
    target = tmp_path / "graph.dot"
    assert run(["graph", "--model", "tableau", "--rank", "2", "--shape", "1",
                "--out", str(target)]) == 0
    assert target.read_text().count("->") == 1


def test_a_failed_library_cross_check_is_a_verify_failure():
    # node 2 of the tableau operators lowers nothing, so the oracle's
    # closure check raises AssertionError on B(1) of rank 3
    src = Path(__file__).resolve().parent.parent / "src"
    script = ("import sys\n"
              "from glcrystals import cli, tableaux\n"
              "real = tableaux.apply_f\n"
              "tableaux.apply_f = lambda rows, i: "
              "None if i == 2 else real(rows, i)\n"
              "sys.exit(cli.run(['verify', 'all', '--budget', '1']))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert ("FAIL oracle rank=3 shape=1 (checked=0)  witness: operator "
            "closure has 2 tableaux, backtracking 3, for shape (1,) rank 3"
            in lines)
    passed, total = map(int, lines[-1].removesuffix(" passed").split("/"))
    assert passed < total


def test_module_entry_point_exits_with_the_verify_status():
    # main() and `python -m glcrystals.cli`, which run() alone does not reach
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "glcrystals.cli", "verify",
                           "goldens"],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS golden ") for line in lines) == 7
    assert lines[-1] == "7/7 passed"


def test_rss_gate_fails_over_its_limit_and_passes_under_it():
    # the CI memory gate: exit 1 when the child's peak RSS exceeds the
    # limit, even though the verify run itself passed; exit 0 under it
    root = Path(__file__).resolve().parent.parent
    gate = [sys.executable, str(root / ".github" / "rss_gate.py")]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    over = subprocess.run([*gate, "1", "goldens"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert over.returncode == 1, over.stderr
    summary = over.stdout.splitlines()[-1]
    assert summary.startswith("verify goldens: exit 0, peak RSS ")
    assert summary.endswith(" MB")
    assert "PASS " not in over.stdout and "7/7 passed" in over.stdout
    under = subprocess.run([*gate, "1000", "goldens"], env=env,
                           capture_output=True, text=True, timeout=120)
    assert under.returncode == 0, under.stdout + under.stderr


@pytest.mark.parametrize("given", [[], ["--rank", "3"], ["--shape", "2,1"]],
                         ids=["neither", "rank-only", "shape-only"])
def test_verify_bk_needs_rank_and_shape(capsys, given):
    # bk has no default rank or shape: it used to pass on rank 3, shape ()
    assert run(["verify", "bk", *given]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: verify bk needs --rank and --shape\n"


# ---------------------------------------------------------------------------
# the flags each command reads

# two values of every selector, --budget, --force and gt flag; a flag a
# command does not read is added with its first value.  None marks a switch.
VALUES = {"--model": ("matrix", "tableau"), "--rank": ("3", "2"),
          "--shape": ("2,1", "1"), "--shapes": ("1;1", "2;1"),
          "--n": ("2", "3"), "--m": ("2", "3"), "--N": ("2", "1"),
          "--structure": ("row", "column"), "--budget": ("1", "100"),
          "--force": None, "--moves": ("t1", "q2"), "--to-tableau": None,
          "--beta": None, "--format": ("json", "text")}
GT_FLAGS = ("--moves", "--to-tableau", "--beta", "--format")
# argparse reads an unambiguous prefix as the longer flag
ABBREVIATED = {"gt": "--m", "tensor": "--shape"}
MODELS = {"tableau": {"--model": "tableau", "--rank": "3", "--shape": "2,1"},
          "gt": {"--model": "gt", "--rank": "3", "--shape": "2,1"},
          "matrix": {"--model": "matrix", "--n": "2", "--m": "3", "--N": "3",
                     "--structure": "row"},
          "tensor": {"--model": "tensor", "--rank": "3", "--shapes": "1;1"}}
INPUTS = {"M.json": M_JSON, "x.json": X_JSON,
          "t.json": {"rank": 3, "rows": [[1, 1, 2], [2, 3]]},
          "v.json": {"model": "tensor", "factors": [
              {"model": "fundamental", "rank": 3, "bits": [1, 1, 0]},
              {"model": "fundamental", "rank": 3, "bits": [1, 0, 0]}]}}
RUNS = {"--budget": "100", "--force": False}


def _read_cases():
    """{case: (argv prefix, every table flag the case reads, valued)}; a
    switch is True when given and False when left out."""
    cases = {f"{command} {model}": ([command], flags)
             for command in ("graph", "character")
             for model, flags in MODELS.items()}
    for model, path, word in (("tableau", "t.json", "s[1,3]"),
                              ("gt", "x.json", "s[1,3]"),
                              ("matrix", "M.json", "s[1,2]"),
                              ("tensor", "v.json", "s[1,2]")):
        flags = {"--model": model}
        if model == "matrix":
            flags["--structure"] = "row"
        cases[f"act {model}"] = (["act", "--word", word, "--in", path], flags)
    gt = ["gt", "--in", "x.json"]
    cases["gt"] = (gt, {"--moves": "t1", "--format": "json",
                        "--to-tableau": False, "--beta": False})
    cases["gt --beta"] = (gt, {"--moves": "t1", "--beta": True})
    cases["gt --to-tableau"] = (gt, {"--moves": "t1", "--to-tableau": True,
                                     "--format": "json"})
    cases["tensor"] = (["tensor"], {"--rank": "3", "--shapes": "1;1"})
    cases["skew-howe"] = (["skew-howe", "--in", "M.json"], {})
    cases["verify goldens"] = (["verify", "goldens"], {})
    cases["verify all"] = (["verify", "all"], {"--budget": "1", "--force": False})
    for target in ("agree", "corollary", "commute", "dual", "counting"):
        cases[f"verify {target}"] = (["verify", target], {
            "--n": "2", "--m": "3", "--N": "3", **RUNS})
    cases["verify bk"] = (["verify", "bk"],
                          {"--rank": "3", "--shape": "2,1", **RUNS})
    for target in ("cactus", "braid", "xi", "axioms"):
        for model, flags in MODELS.items():
            cases[f"verify {target} {model}"] = (["verify", target],
                                                 {**flags, **RUNS})
    return cases


READ_CASES = _read_cases()


def _argv(prefix, flags):
    argv = list(prefix)
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, value]
    return argv


def _other(flag, value):
    if VALUES[flag] is None:
        return not value
    return next(v for v in VALUES[flag] if v != value)


@pytest.mark.parametrize("case", READ_CASES)
def test_each_command_reads_every_flag_it_accepts(tmp_path, monkeypatch,
                                                  capsys, case):
    # walk the parser from one valid invocation per command, verify target
    # and model: a flag outside the read table is exit 2 naming the flag, and
    # changing a flag inside it changes the exit code or stdout
    monkeypatch.chdir(tmp_path)
    for name, payload in INPUTS.items():
        write(tmp_path, name, payload)
    # `verify all` on two rows, one of them over a budget of 1
    monkeypatch.setattr(cli, "suite_rows", lambda: [
        (label, cost, lambda: Report("stub", {}, 1, "pass"))
        for label, cost in (("cheap", 1), ("dear", 5))])
    prefix, flags = READ_CASES[case]

    def outcome(flags):
        code = run(_argv(prefix, flags))
        return code, capsys.readouterr()

    code, base = outcome(flags)
    assert code == 0, base.err
    command = prefix[0]
    unread = [flag for flag in VALUES if flag not in flags
              and (command == "gt" or flag not in GT_FLAGS)
              and ABBREVIATED.get(command) != flag]
    for flag in unread:
        value = True if VALUES[flag] is None else VALUES[flag][0]
        code, captured = outcome({**flags, flag: value})
        assert code == 2 and captured.out == "", flag
        assert re.search(re.escape(flag) + r"\b", captured.err), captured.err
    for flag, value in flags.items():
        # --force matters only where some instance is over budget
        before = {**flags, "--budget": "1"} if flag == "--force" else flags
        changed = outcome({**before, flag: _other(flag, value)})
        kept = outcome(before)
        assert (changed[0], changed[1].out) != (kept[0], kept[1].out), flag


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # every `glcrystals ...` line of the README's Command line block exits 0,
    # on the input files its "Input files" section shows
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True)[1:]
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("glcrystals ")]
    assert {argv[0] for argv in argvs} == {
        "graph", "character", "tensor", "act", "gt", "skew-howe", "verify"}
    inputs = section.split("### Input files", 1)[1]
    for name, kind in (("M.json", "Matrix"), ("x.json", "Pattern")):
        payload = re.search(rf"- {kind}: `([^`]*)`", inputs).group(1)
        (tmp_path / name).write_text(payload)
    monkeypatch.chdir(tmp_path)
    # `verify all` is timed and pinned elsewhere; here its lines only parse
    monkeypatch.setattr(cli, "suite_rows", lambda: [])
    for argv in argvs:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
