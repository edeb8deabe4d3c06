import ast
import copy
import json
import random
import tracemalloc

import pytest

from kpoly import cli, mobius, monomial, polymatroid, schubert, stalactite
from kpoly.cli import main
from kpoly.lattice import CapExceeded, Check, IntPolynomial, parse_vector, point_set, point_set_to_json
from kpoly.subspaces import config_to_json, random_config
from running_example import HILBERT_3, KPOLY_3, MSUPP_3


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_grothendieck_verify(capsys):
    assert main(["grothendieck", "1,5,3,2,4", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "routes agree: True" in out
    assert "zero-one: True" in out


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _exit_and_output(run, capsys):
    try:
        rc = run()
    except SystemExit as exc:
        rc = exc.code
    return rc, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["verify", "-h"], ["bogus"], ["census", "3", "4"],
    ["verify", "theorem-c", "PATH", "--jsn"], ["verify", "nokind", "PATH"],
    ["grothendieck", "2,1", "--ver"],  # an abbreviation of --verify
    ["census", "3", "--json"], ["census", "--", "3"], ["verify", "theorem-c", "PATH", "--out"],
])
def test_main_parses_as_the_whole_parser(argv, tmp_path, monkeypatch, capsys):
    # main parses a command's arguments with that command's own parser; the
    # exit code, stdout, stderr and parsed arguments are the whole parser's
    path = write_json(tmp_path, "config.json", {"q": 2, "subspaces": [[[[1, 1], [0, 1]]], [[[1, 1], [1, 1]]]]})
    argv = [path if a == "PATH" else a for a in argv]
    parser = cli.build_parser()

    def whole():
        args = parser.parse_args(argv)
        return cli._emit(args.func(args), args)

    assert _exit_and_output(lambda: main(argv), capsys) == _exit_and_output(whole, capsys)
    parsed = []
    monkeypatch.setattr(cli, "_emit", lambda result, args: parsed.append(args) or 0)
    _exit_and_output(lambda: main(argv), capsys)
    if parsed:
        assert parsed == [parser.parse_args(argv)]


def test_json_writer_matches_the_stdlib_encoder(tmp_path):
    msupp = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    supp = write_json(tmp_path, "supp.json", [list(q) for q in HILBERT_3])
    not_g = write_json(tmp_path, "not_g.json", [[1, 2], [2, 0]])  # a truncation is no g-polymatroid
    payloads = []
    for argv in (
        ["explore", "--max-p", "3"],
        ["mobius", msupp, "--check", "--kpoly"],
        ["hilbert", msupp, "--eval", "0,0,0"],
        ["verify", "gpolymatroid", supp, "--method", "all"],
        ["verify", "cave", not_g],
    ):
        args = cli.build_parser().parse_args(argv)
        result = args.func(args)
        payloads.append({"status": result.status, **result.payload})
    assert "cause" in payloads[-1]["witness"]
    payloads += [
        [], {}, [[]], [{}], {"a": [], "b": {}}, True, False, None, 0, -7, 10**30, 1.5, "",
        "caf\u00e9 \u2603 \U0001d11e \"quoted\" \\ \n", (1, 2), [(1, 2), (), (3,)], ((1, (2, 3)), "x"),
        [True, 1, 2], [1, None], {"z": 1, "a": [1, 2], "m": {"y": [True, False], "x": None}},
        [{"points": [[0, 1], [2, 3]], "n": 1}, {"points": [], "n": 0}],
        {"nested": [[{"exp": [0, 1], "coeff": -1}]], "\u00fc": "\u00fc"}, {1: [1, 2], 2: {"a": 1}},
    ]
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True), payload


def test_route_mismatch_carries_a_witness(monkeypatch, capsys):
    real = schubert.grothendieck_via_mobius

    def perturbed(w):
        f = real(w)
        return f + IntPolynomial(f.num_vars, [((0,) * f.num_vars, 1)])

    monkeypatch.setattr(schubert, "grothendieck_via_mobius", perturbed)
    assert main(["grothendieck", "1,5,3,2,4", "--verify", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["routes_agree"] is False
    assert payload["witness"] == {
        "condition": "route-mismatch",
        "exp": [0, 0, 0, 0, 0],
        "coeffs": {"divided-diff": 0, "stalactites": 0, "mobius": 1},
    }


def test_oracle_mismatch_carries_a_witness(tmp_path, monkeypatch, capsys):
    real = monomial.hilbert_poly_ie
    n = (2, 2, 3)  # coefficient -2 in the running example

    def perturbed(J):
        H = real(J)
        return IntPolynomial(H.num_vars, {**H.terms, n: H.coeff(n) + 7})

    monkeypatch.setattr(monomial, "hilbert_poly_ie", perturbed)
    path = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    assert main(["hilbert", path, "--oracle", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agrees"] is False
    assert payload["witness"] == {
        "condition": "oracle-mismatch", "n": [2, 2, 3], "stalactites": -2, "inclusion_exclusion": 5
    }


def test_hilbert_oracle_never_runs_the_subset_route(tmp_path, monkeypatch, capsys):
    # the literal subset sum is the tests' oracle; kpoly hilbert --oracle runs
    # the lattice route on every ideal, from 1 prime to the 14 of S_5's largest
    from kpoly.schubert import msupp_of_matrix_schubert, zero_one_permutations

    def refuse(*args):
        raise AssertionError("subset route called")

    monkeypatch.setattr(monomial, "_ie_coefficients_subsets", refuse)
    path = str(tmp_path / "msupp.json")
    for w in zero_one_permutations(5):
        msupp, m = msupp_of_matrix_schubert(w)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(point_set_to_json(msupp), fh)
        argv = ["hilbert", path, "--oracle", "--ambient", ",".join(map(str, m)), "--json"]
        assert main(argv) == 0, w
        assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True, w


def test_grothendieck_json_payload(capsys):
    assert main(["grothendieck", "2,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["text"] == "+1*z1"


def test_schubert_alias(capsys):
    assert main(["schubert", "1"]) == 0
    assert "+1" in capsys.readouterr().out


def test_explicit_route_on_non_zero_one_is_usage_error(capsys):
    # the lex-smallest non-zero-one permutation in S_5
    from kpoly.schubert import is_zero_one
    import itertools

    bad = next(
        w for w in itertools.permutations((1, 2, 3, 4, 5)) if not is_zero_one(w)
    )
    arg = ",".join(map(str, bad))
    assert main(["grothendieck", arg, "--via", "stalactites"]) == 2


def test_grothendieck_refuses_p_above_its_cap_before_any_work(monkeypatch, capsys):
    # p = 46 used to recurse past Python's stack limit; every route and the
    # zero-one test reach grothendieck, so each inherits its cap
    identity = ",".join(map(str, range(1, 47)))
    for argv in (["grothendieck", identity], ["schubert", identity], ["grothendieck", identity, "--verify"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "resource cap: Grothendieck polynomial for p = 46 exceeds the cap 10\n"
    monkeypatch.setattr(schubert, "_isobaric_codes", lambda *args: pytest.fail("divided difference before the cap"))
    for route in (schubert.grothendieck, schubert.is_zero_one, schubert.msupp_of_matrix_schubert):
        with pytest.raises(CapExceeded, match="p = 11 exceeds the cap 10"):
            route(range(1, 12))
    monkeypatch.undo()
    monkeypatch.setattr(schubert, "GROTHENDIECK_CAP", 3)
    assert main(["grothendieck", "1,2,3"]) == 0
    assert main(["grothendieck", "1,2,3,4"]) == 2
    assert capsys.readouterr().err == "resource cap: Grothendieck polynomial for p = 4 exceeds the cap 3\n"


def test_census(capsys):
    assert main(["census", "4"]) == 0
    assert "24" in capsys.readouterr().out
    assert main(["census", "10"]) == 2
    assert capsys.readouterr().err == "resource cap: census for p = 10 exceeds the cap 9\n"


def test_census_json_is_deterministic(capsys):
    assert main(["census", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["census", "5", "--json"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first) == {"status": "ok", "p": 5, "count": 115}


@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "missing-directory"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["report", "json"])
def test_an_unwritable_out_prints_only_the_error(target, mode, tmp_path, capsys):
    # the payload is written before anything is printed, inside main's error
    # boundary, so a failed write leaves stdout empty and exits 2
    out = tmp_path / target
    assert main(["census", "3", *mode, "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: ") and str(out) in stderr


JSON_READERS = [["verify", kind] for kind in cli.VERIFY_KINDS] + [["hilbert"], ["mobius"], ["linear-polymatroid"]]


@pytest.mark.parametrize("command", JSON_READERS, ids=" ".join)
def test_too_deep_json_exits_2_naming_the_file(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path} nests its JSON too deeply to read\n")


def test_verify_gpolymatroid_ok_and_violation(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", point_set_to_json(point_set(list(HILBERT_3))))
    assert main(["verify", "gpolymatroid", good, "--method", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"] == {"axioms": True, "homogenization": True, "paramodular": True}
    diagonals = write_json(tmp_path, "diagonals.json", [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert main(["verify", "gpolymatroid", diagonals, "--method", "paramodular", "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["condition"] in ("submodular", "cross")
    assert witness["X"] and witness["Y"]
    bad = write_json(tmp_path, "bad.json", [[0, 0], [1, 1]])
    assert main(["verify", "gpolymatroid", bad]) == 1
    payload_path = str(tmp_path / "out.json")
    assert main(["verify", "gpolymatroid", bad, "--out", payload_path]) == 1
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["status"] == "violation"
    assert payload["witness"]["condition"] == "expansion"
    # --json --out prints the file's bytes, which end without a newline
    capsys.readouterr()
    assert main(["verify", "gpolymatroid", bad, "--json", "--out", payload_path]) == 1
    assert capsys.readouterr().out == (tmp_path / "out.json").read_text() + "\n"
    assert main(["verify", "gpolymatroid", bad, "--method", "paramodular", "--out", payload_path]) == 1
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["witness"] == {"condition": "integer-points", "extra_points": [[0, 1], [1, 0]]}
    # the one point of [0]^0 passes every method
    origin = write_json(tmp_path, "p0.json", [[]])
    capsys.readouterr()
    assert main(["verify", "gpolymatroid", origin, "--method", "all", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["methods"] == dict.fromkeys(polymatroid.G_POLY_METHODS, True)


_HUGE = 10**30
_EXCHANGE = {"condition": "exchange", "i": 2, "u": [0, _HUGE, 2], "v": [_HUGE, 0, 1]}


@pytest.mark.parametrize("points, expected", [
    ([[_HUGE, 0, 1], [0, _HUGE, 2]], {
        "axioms": (1, _EXCHANGE),
        "homogenization": (1, {"condition": "homogenized-exchange", "i": 2,
                               "u": [0, _HUGE, 2, 0], "v": [_HUGE, 0, 1, 1]}),
        "all": (1, _EXCHANGE),
    }),
    ([[3, 1, 4]], dict.fromkeys(("axioms", "homogenization", "all"), (0, None))),
    ([[]], dict.fromkeys(("axioms", "homogenization", "all"), (0, None))),
])
def test_pair_checks_keep_their_results_on_a_huge_coordinate_one_point_and_p_zero(
        points, expected, tmp_path, capsys):
    # the bitmask tables of axioms and homogenization are keyed by the values
    # present, so a 10^30 coordinate sizes none of them (traced peak under
    # 1 MB); exit codes and witnesses are those of the literal pair loops
    path = write_json(tmp_path, "g.json", points)
    for method, (rc, witness) in expected.items():
        tracemalloc.start()
        try:
            got = main(["verify", "gpolymatroid", path, "--method", method, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (got, err) == (rc, ""), (method, out, err)
        assert json.loads(out).get("witness") == witness, method
        assert peak < 1 << 20, (method, peak)


def test_sparse_g_polymatroid_in_a_huge_box_gets_a_witness(tmp_path, capsys):
    # Q(c, b) of the two points is the box [0, 300]^3 of 27 270 901 cells; the
    # paramodular walk stops after |G| + 1 points instead of refusing the box
    path = write_json(tmp_path, "sparse.json", [[0, 0, 0], [300, 300, 300]])
    assert main(["verify", "gpolymatroid", path, "--method", "all", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["methods"]["paramodular"] is False
    assert main(["verify", "gpolymatroid", path, "--method", "paramodular", "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"condition": "integer-points", "extra_points": [[0, 0, 1], [0, 0, 2]]}


def test_verify_cave(tmp_path):
    cave = write_json(tmp_path, "cave.json", [list(q) for q in HILBERT_3])
    assert main(["verify", "cave", cave, "--orders", "all"]) == 0
    not_cave = write_json(tmp_path, "nc.json", [[0, 0], [2, 0]])
    assert main(["verify", "cave", not_cave, "--orders", "natural"]) == 1


def test_verify_shelling(tmp_path):
    data = {"msupp": [list(q) for q in MSUPP_3], "m": [4, 4, 4]}
    path = write_json(tmp_path, "shell.json", data)
    assert main(["verify", "shelling", path]) == 0


def test_verify_matroid_mu(tmp_path):
    data = {"p": 3, "bases": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}
    path = write_json(tmp_path, "matroid.json", data)
    assert main(["verify", "matroid-mu", path]) == 0


def test_verify_theorem_a(tmp_path, capsys):
    path = write_json(tmp_path, "supp.json", [list(q) for q in KPOLY_3])
    assert main(["verify", "theorem-a", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    bounds = {tuple(row["J"]): (row["c"], row["b"]) for row in payload["inequalities"]["bounds"]}
    assert bounds[(1, 2, 3)] == (4, 6)
    assert bounds[(3,)] == (0, 1)
    # equals its integer points, but its support bounds are not paramodular
    diagonals = write_json(tmp_path, "diagonals.json", [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert main(["verify", "theorem-a", diagonals, "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"]["condition"] in ("submodular", "cross")
    # the one point of [0]^0: no nonempty subset, so no inequality
    origin = write_json(tmp_path, "p0.json", [[]])
    assert main(["verify", "theorem-a", origin, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inequalities"] == {"p": 0, "bounds": []}


def test_verify_theorem_a_builds_the_support_tables_once(tmp_path, monkeypatch, capsys):
    real, built = polymatroid._support_tables, []

    def counted(A):
        built.append(A.points)
        return real(A)

    monkeypatch.setattr(polymatroid, "_support_tables", counted)
    for points, status in [
        ([[1, 0], [0, 1], [1, 1], [0, 0]], 0),
        ([list(q) for q in KPOLY_3], 0),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], 1),
        ([[2, 0], [0, 2], [1, 1], [0, 0]], 1),
    ]:
        path = write_json(tmp_path, "supp.json", points)
        built.clear()
        assert main(["verify", "theorem-a", path, "--json"]) == status, points
        assert len(built) == 1, points
        # the report and its witness are the library's own answers
        payload = json.loads(capsys.readouterr().out)
        supp = point_set(points)
        assert payload["inequalities"] == polymatroid.system_to_json(polymatroid.inequality_system(supp))
        chk = polymatroid.is_g_polymatroid(supp, "paramodular")
        assert payload.get("witness") == (None if chk else chk.witness), points


def test_verify_theorem_c(tmp_path):
    import random

    config = random_config(3, 3, random.Random(99))
    path = write_json(tmp_path, "config.json", config_to_json(config))
    assert main(["verify", "theorem-c", path]) == 0


def test_hilbert_command(tmp_path, capsys):
    path = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    assert main(["hilbert", path, "--oracle", "--eval", "0,0,0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agrees"] is True
    assert payload["eval"]["value"] == 1
    got = {tuple(t["exp"]): t["coeff"] for t in payload["hilbert"]}
    assert got == HILBERT_3


def _plus_one_at_origin(f):
    return f + IntPolynomial(f.num_vars, [((0,) * f.num_vars, 1)])


def _perturb(monkeypatch, module, name, change):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(real(*args)))


def _route_mismatch(monkeypatch, tmp_path):
    _perturb(monkeypatch, schubert, "grothendieck_via_mobius", _plus_one_at_origin)
    return ["grothendieck", "1,5,3,2,4", "--verify"]


def _oracle_mismatch(monkeypatch, tmp_path):
    _perturb(monkeypatch, monomial, "hilbert_poly_ie", _plus_one_at_origin)
    return ["hilbert", write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3]), "--oracle"]


def _hilbert_of_a_non_polymatroid(monkeypatch, tmp_path):
    return ["hilbert", write_json(tmp_path, "bad.json", [[2, 0], [0, 2]])]


def _mobius_of_a_non_polymatroid(monkeypatch, tmp_path):
    return ["mobius", write_json(tmp_path, "bad.json", [[2, 0], [0, 2]]), "--check"]


def _verify_gpolymatroid(monkeypatch, tmp_path):
    return ["verify", "gpolymatroid", write_json(tmp_path, "bad.json", [[0, 0], [1, 1]])]


def _verify_gpolymatroid_methods_disagree(monkeypatch, tmp_path):
    real = polymatroid.is_g_polymatroid
    forced = Check(False, {"condition": "forced"})
    monkeypatch.setattr(polymatroid, "is_g_polymatroid",
                        lambda G, method="axioms": forced if method == "paramodular" else real(G, method))
    return ["verify", "gpolymatroid", write_json(tmp_path, "axes.json", [[1, 0], [0, 1]]), "--method", "all"]


def _verify_theorem_a(monkeypatch, tmp_path):
    # the inequality lines come before the witness line
    return ["verify", "theorem-a", write_json(tmp_path, "diagonals.json", [[1, 1, 0, 0], [0, 0, 1, 1]])]


def _mobius_check(monkeypatch, tmp_path):
    _perturb(monkeypatch, stalactite, "hsupp_from_msupp", _plus_one_at_origin)
    return ["mobius", write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3]), "--check"]


def _linear_polymatroid_mu_supp(monkeypatch, tmp_path):
    forced = Check(False, {"condition": "forced"})
    monkeypatch.setattr(polymatroid, "is_g_polymatroid", lambda G, method="axioms": forced)
    return ["linear-polymatroid", "--random", "2,2", "--seed", "1", "--mu-supp"]


@pytest.mark.parametrize("case", [
    _route_mismatch,
    _oracle_mismatch,
    _hilbert_of_a_non_polymatroid,
    _mobius_of_a_non_polymatroid,
    _verify_gpolymatroid,
    _verify_gpolymatroid_methods_disagree,
    _verify_theorem_a,
    _mobius_check,
    _linear_polymatroid_mu_supp,
], ids=lambda case: case.__name__.lstrip("_"))
def test_every_violation_exits_1_and_ends_with_its_witness(case, monkeypatch, tmp_path, capsys):
    argv = case(monkeypatch, tmp_path)
    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "violation" and payload["witness"]
    assert main(argv) == 1
    last = capsys.readouterr().out.rstrip("\n").split("\n")[-1]
    assert last.startswith("  witness: ")
    assert ast.literal_eval(last.removeprefix("  witness: ")) == payload["witness"]


def test_disagreeing_g_polymatroid_methods_name_every_verdict(monkeypatch, tmp_path, capsys):
    argv = _verify_gpolymatroid_methods_disagree(monkeypatch, tmp_path)
    assert main(argv + ["--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    verdicts = {"axioms": True, "homogenization": True, "paramodular": False}
    assert payload["verdict"] is False and payload["methods"] == verdicts
    assert payload["witness"] == {"condition": "method-mismatch", "verdicts": verdicts}


def test_hilbert_precondition_violation(tmp_path):
    path = write_json(tmp_path, "bad.json", [[2, 0], [0, 2]])
    assert main(["hilbert", path]) == 1


def test_mobius_command(tmp_path, capsys):
    path = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    assert main(["mobius", path, "--check", "--kpoly", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deg_equals_neg_mu"] is True
    got = {tuple(t["exp"]): t["coeff"] for t in payload["kpoly"]}
    assert got == KPOLY_3


def test_mobius_and_hilbert_on_the_point_of_no_coordinates(tmp_path, capsys):
    # p = 0: the downset of [[]] is one cell, on a grid of no axes
    path = write_json(tmp_path, "p0.json", [[]])
    assert main(["mobius", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mu"], payload["mu_support"]) == ([{"coeff": -1, "exp": []}], [[]])
    assert main(["hilbert", path, "--oracle", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["hilbert"], payload["oracle_agrees"]) == ([{"coeff": 1, "exp": []}], True)


def test_linear_polymatroid_random_requires_seed(capsys):
    assert main(["linear-polymatroid", "--random", "3,3"]) == 2
    assert main(["linear-polymatroid"]) == 2
    assert capsys.readouterr().err.endswith("error: pass a config file or --random P,Q --seed S\n")
    assert main(["linear-polymatroid", "--random", "3,3", "--seed", "4", "--mu-supp"]) == 0


def test_linear_polymatroid_random_needs_two_sizes(capsys):
    for sizes in ("2", "2,2,2"):
        assert main(["linear-polymatroid", "--random", sizes, "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"error: --random takes two sizes P,Q, got {sizes!r}\n"


@pytest.mark.parametrize("argv, text", [
    (["grothendieck", "1,x"], "1,x"),
    (["hilbert", "MSUPP", "--ambient", "1,x"], "1,x"),
    (["hilbert", "MSUPP", "--eval=1,x"], "1,x"),
    (["mobius", "MSUPP", "--kpoly", "--ambient", "1;1"], "1;1"),
    (["linear-polymatroid", "--random", "a,b", "--seed", "1"], "a,b"),
])
def test_a_vector_that_is_not_integers_is_named(argv, text, tmp_path, capsys):
    path = write_json(tmp_path, "msupp.json", [[1, 0], [0, 1]])
    assert main([path if a == "MSUPP" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: expected integers separated by commas or spaces, got {text!r}\n"


def test_explore(monkeypatch, capsys):
    # 9 loopless polymatroids on 2 elements and 81 on 3 with singleton ranks <= 2
    assert main(["explore", "--max-p", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tested"] == payload["g_polymatroid"] == 9 + 81
    assert payload["failures"] == []
    monkeypatch.setattr(mobius, "SURVEY_CAP", 10)
    assert main(["explore", "--max-p", "3"]) == 2
    assert "resource cap: survey visits more than 10 rank functions" in capsys.readouterr().err


def test_sparse_polymatroid_in_a_huge_box_hits_the_grid_cap(tmp_path, capsys):
    # U_{1,20}: a 21-cell downset inside a 2^20-cell bounding box, refused by
    # GRID_CAP before the grid is allocated
    bases = [[int(i == j) for j in range(20)] for i in range(20)]
    msupp = write_json(tmp_path, "u120.json", bases)
    matroid = write_json(tmp_path, "u120_matroid.json", {"p": 20, "bases": bases})
    for argv in (["mobius", msupp], ["verify", "matroid-mu", matroid]):
        assert main(argv) == 2
        assert "resource cap: box grid has 1048576 cells" in capsys.readouterr().err


def test_classifier_refuses_2_to_the_p_support_tables_above_the_grid_cap(tmp_path, capsys):
    # two points on a ray in 24 and 28 coordinates: the support tables would
    # hold 2^24 and 2^28 entries, so every command that builds them exits 2
    # before allocating; the exchange-based methods still answer
    for p in (24, 28):
        path = write_json(tmp_path, f"ray{p}.json", [[k] + [0] * (p - 1) for k in (1, 2)])
        for argv in (
            ["verify", "gpolymatroid", path, "--method", "paramodular"],
            ["verify", "gpolymatroid", path, "--method", "all"],
            ["verify", "theorem-a", path],
            ["verify", "cave", path, "--orders", "natural"],
        ):
            assert main(argv) == 2, argv
            err = f"resource cap: support tables have {1 << p} subsets (cap 1000000)\n"
            assert capsys.readouterr().err == err, argv
        assert main(["verify", "gpolymatroid", path, "--method", "homogenization"]) == 0
    capsys.readouterr()


def test_malformed_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["verify", "gpolymatroid", str(path)]) == 2
    assert main(["hilbert", str(tmp_path / "missing.json")]) == 2
    flat = write_json(tmp_path, "flat.json", [1, 2])
    assert main(["verify", "gpolymatroid", flat]) == 2
    int_bases = write_json(tmp_path, "matroid.json", {"p": 2, "bases": 5})
    assert main(["verify", "matroid-mu", int_bases]) == 2
    bool_p = write_json(tmp_path, "bool_p.json", {"p": True, "bases": [[1]]})
    assert main(["verify", "matroid-mu", bool_p]) == 2
    no_bases = write_json(tmp_path, "no_bases.json", {"p": 2})
    assert main(["verify", "matroid-mu", no_bases]) == 2
    zero_den = write_json(tmp_path, "config.json", {"q": 2, "subspaces": [[[[1, 0], [1, 1]]]]})
    assert main(["verify", "theorem-c", zero_den]) == 2
    assert main(["explore", "--max-coord", "0"]) == 2
    assert main(["explore", "--max-p", "1"]) == 2
    assert main(["verify", "shelling", flat]) == 2
    int_m = write_json(tmp_path, "shell_int_m.json", {"msupp": [[1, 0]], "m": 5})
    assert main(["verify", "shelling", int_m]) == 2
    short_m = write_json(tmp_path, "shell_short_m.json", {"msupp": [[1, 0]], "m": [4]})
    assert main(["verify", "shelling", short_m]) == 2
    # one far point spans a one-cell box, so the closed Mobius route answers;
    # U_{1,20} translated by (5, ..., 5) still spans 2^20 cells and is refused
    huge = write_json(tmp_path, "huge.json", [[1000000, 1000000, 1000000]])
    capsys.readouterr()
    assert main(["mobius", huge, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == [{"exp": [1000000] * 3, "coeff": -1}]
    assert main(["mobius", huge, "--check"]) == 0
    far_unit = write_json(tmp_path, "far_unit.json", [[5 + (i == j) for j in range(20)] for i in range(20)])
    capsys.readouterr()
    assert main(["mobius", far_unit]) == 2
    assert capsys.readouterr().err == "resource cap: box grid has 1048576 cells (cap 1000000)\n"
    # the truncation grid has one cell per tuple of axis values, so the far
    # point is a one-cell cave; the line (k, 400 - k) takes 401 values on
    # each axis, and its 160 801-cell grid is refused before any mask
    capsys.readouterr()
    assert main(["verify", "cave", huge, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    line = write_json(tmp_path, "line.json", [[k, 400 - k] for k in range(401)])
    assert main(["verify", "cave", line]) == 2
    assert capsys.readouterr().err == "resource cap: truncation grid has 160801 cells (cap 100000)\n"
    # fails the stalactite-union condition, which a sample of no orders would never check
    diagonal = write_json(tmp_path, "diagonal.json", [[1, 0], [0, 1]])
    assert main(["verify", "cave", diagonal, "--orders", "natural"]) == 1
    for orders in ("sample:0:1", "sample:-3:1", "sample:721:1", "sample:100000000000:1"):
        assert main(["verify", "cave", diagonal, "--orders", orders]) == 2
    assert main(["explore", "--max-p", "7", "--max-coord", "1"]) == 2
    # --ambient of the wrong length or below a point, whether or not the
    # command goes on to read it
    two = write_json(tmp_path, "two.json", [[1, 0], [0, 1]])
    for command in (["hilbert", two], ["hilbert", two, "--oracle"], ["mobius", two], ["mobius", two, "--kpoly"]):
        capsys.readouterr()
        for ambient, err in (
            ("1", "error: expected a point of length 2, got (1,)\n"),
            ("1,1,1", "error: expected a point of length 2, got (1, 1, 1)\n"),
            ("0,0", "error: point (0, 1) exceeds ambient (0, 0)\n"),
            ("1,0", "error: point (0, 1) exceeds ambient (1, 0)\n"),
        ):
            assert main(command + ["--ambient", ambient]) == 2, (command, ambient)
            assert capsys.readouterr().err == err, (command, ambient)
        assert main(command + ["--ambient", "1,1"]) == 0, command
    # every draw of a config with p = 0 or entry bound 0 is all zero
    assert main(["linear-polymatroid", "--random", "0,0", "--seed", "1"]) == 2
    assert main(["linear-polymatroid", "--random", "2,2", "--seed", "1", "--entry-bound", "0"]) == 2


def test_cave_at_twenty_coordinates_checks_c_only_within_the_grid_cap(tmp_path, capsys):
    # 2^20 subsets exceed GRID_CAP, so is_cave takes no verdict on C and the
    # loop decides as it does on a set that fails it: a lone point or a
    # failure at the origin never reaches a support table, while (1, ..., 1)
    # is named at e_20 and refused by its g-polymatroid check
    p = 20

    def unit(i, k=1):
        return [k * (j == i) for j in range(p)]

    def run(points):
        capsys.readouterr()
        rc = main(["verify", "cave", write_json(tmp_path, "cave.json", points), "--orders", "natural", "--json"])
        out, err = capsys.readouterr()
        return rc, json.loads(out) if out else None, err

    assert run([[0] * p]) == (0, {"kind": "cave", "status": "ok", "verdict": True}, "")
    assert run([[1] * p]) == (2, None, "resource cap: support tables have 1048576 subsets (cap 1000000)\n")
    for points, missing in (([[0] * p, unit(0)], [0] * p), ([unit(0, 2), unit(1)], unit(1))):
        rc, payload, err = run(points)
        assert (rc, err) == (1, "")
        assert payload["witness"] == {"condition": "stalactite-union", "truncation": [0] * p,
                                      "order": list(range(1, p + 1)), "missing": [missing], "extra": []}


def test_bad_orders_value_is_named(tmp_path, capsys):
    diagonal = write_json(tmp_path, "diagonal.json", [[1, 0], [0, 1]])
    for orders in ("sample:1", "sample:1:2:3", "sample:x:1", "sample:1:", "Sample:1:2", "every"):
        assert main(["verify", "cave", diagonal, "--orders", orders]) == 2, orders
        err = f"error: bad --orders value {orders!r}; use natural, all or sample:K:SEED\n"
        assert capsys.readouterr().err == err, orders
    assert main(["verify", "cave", diagonal, "--orders", "sample:2:5"]) == 1
    # all 7! orders of 7 coordinates are refused with the option that samples
    seven = write_json(tmp_path, "seven.json", [[0] * 7])
    assert main(["verify", "cave", seven, "--orders", "all"]) == 2
    assert "--orders sample:K:SEED" in capsys.readouterr().err
    assert main(["verify", "cave", seven, "--orders", "sample:3:1"]) == 0


def test_malformed_subspace_configs_name_the_fault(tmp_path, capsys):
    good = [[[[1, 1], [0, 1]]], [[[1, 1], [1, 1]]]]
    cases = [
        ({"q": 2.7, "subspaces": good}, "$.q must be a positive int, got 2.7"),
        ({"q": True, "subspaces": good}, "$.q must be a positive int, got True"),
        ({"q": 2, "subspaces": [[[[True, 1], [0, 1]]]]},
         "$.subspaces[0][0][0][0] must be an int, got True"),
        ({"q": 2, "subspaces": [[[[1, 1], [0, True]]]]},
         "$.subspaces[0][0][1][1] must be a nonzero int, got True"),
        ({"q": 2, "subspaces": [[[[1, 1], [0.5, 1]]]]},
         "$.subspaces[0][0][1][0] must be an int, got 0.5"),
        ({"q": 2, "subspaces": [[[[1, 1], [0, 1, 1]]]]},
         "$.subspaces[0][0][1] must be a [numerator, denominator] pair, got [0, 1, 1]"),
        ({"subspaces": good}, "$ is missing the key 'q'"),
        ({"q": 2}, "$ is missing the key 'subspaces'"),
        ([2, good], "$ must be an object"),
    ]
    for data, message in cases:
        path = write_json(tmp_path, "config.json", data)
        for argv in (["verify", "theorem-c", path], ["linear-polymatroid", path]):
            assert main(argv) == 2, (argv, data)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (data, err)


_POINT_SET_COMMANDS = [
    ["verify", "gpolymatroid"], ["verify", "cave"], ["verify", "theorem-a"], ["hilbert"], ["mobius"],
]
_CONFIG_COMMANDS = [["verify", "theorem-c"], ["linear-polymatroid"]]
_GOOD_SUBSPACES = [[[[1, 1], [0, 1]]], [[[1, 1], [1, 1]]]]

# (commands, malformed input, the error line naming the bad element's JSON path)
_JSON_PATH_CASES = [
    (_POINT_SET_COMMANDS, 5, "$ must be an array of points, got 5"),
    (_POINT_SET_COMMANDS, [], "$ must be a nonempty array of points, got []"),
    (_POINT_SET_COMMANDS, [[0, [1]], [1, 0]], "$[0][1] must be a nonnegative int, got [1]"),
    (_POINT_SET_COMMANDS, [[0, 1], [1]], "$[1] must be a point of length 2, got [1]"),
    (_POINT_SET_COMMANDS, [[0, 1], 7], "$[1] must be a point of length 2, got 7"),
    (_POINT_SET_COMMANDS, [[0, True], [1, 0]], "$[0][1] must be a nonnegative int, got True"),
    (_POINT_SET_COMMANDS, [[0, -1]], "$[0][1] must be a nonnegative int, got -1"),
    ([["verify", "matroid-mu"]], [1], '$ must be an object {"p": int, "bases": [[...], ...]}, got [1]'),
    ([["verify", "matroid-mu"]], {"p": 2}, "$ is missing the key 'bases'"),
    ([["verify", "matroid-mu"]], {"bases": [[1]]}, "$ is missing the key 'p'"),
    ([["verify", "matroid-mu"]], {"p": 2, "bases": 5}, "$.bases must be an array of points, got 5"),
    ([["verify", "matroid-mu"]], {"p": 2, "bases": [[1, 0], [0]]},
     "$.bases[1] must be a point of length 2, got [0]"),
    ([["verify", "matroid-mu"]], {"p": 2, "bases": [[1, "0"]]},
     "$.bases[0][1] must be a nonnegative int, got '0'"),
    ([["verify", "matroid-mu"]], {"p": True, "bases": [[1]]}, "$.p must be a nonnegative int, got True"),
    ([["verify", "shelling"]], [1, 2],
     '$ must be an object {"msupp": [[...], ...], "m": [...]}, got [1, 2]'),
    ([["verify", "shelling"]], {"msupp": [[1, 0]]}, "$ is missing the key 'm'"),
    ([["verify", "shelling"]], {"msupp": 3, "m": [4, 4]}, "$.msupp must be an array of points, got 3"),
    ([["verify", "shelling"]], {"msupp": [[1, 0], [0, 1, 0]], "m": [4, 4]},
     "$.msupp[1] must be a point of length 2, got [0, 1, 0]"),
    ([["verify", "shelling"]], {"msupp": [[1, 0]], "m": [4]}, "$.m must be a point of length 2, got [4]"),
    ([["verify", "shelling"]], {"msupp": [[1, 0]], "m": [4, False]},
     "$.m[1] must be a nonnegative int, got False"),
    (_CONFIG_COMMANDS, "x", """$ must be an object {"q": int, "subspaces": [...]}, got 'x'"""),
    (_CONFIG_COMMANDS, {"q": 2}, "$ is missing the key 'subspaces'"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": 5}, "$.subspaces must be an array of subspaces, got 5"),
    (_CONFIG_COMMANDS, {"q": 0, "subspaces": _GOOD_SUBSPACES}, "$.q must be a positive int, got 0"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": [None]},
     "$.subspaces[0] must be an array of generators, got None"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": [[[[1, 1]]]]},
     "$.subspaces[0][0] must be a generator of 2 entries, got [[1, 1]]"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": [[[[1, 1], "1/2"]]]},
     "$.subspaces[0][0][1] must be a [numerator, denominator] pair, got '1/2'"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": [[[[1, 1], [1, 0]]]]},
     "$.subspaces[0][0][1][1] must be a nonzero int, got 0"),
    (_CONFIG_COMMANDS, {"q": 2, "subspaces": [[[[False, 1], [1, 1]]]]},
     "$.subspaces[0][0][0][0] must be an int, got False"),
]


def test_malformed_json_errors_name_the_json_path(tmp_path, capsys):
    for commands, data, message in _JSON_PATH_CASES:
        path = write_json(tmp_path, "input.json", data)
        for prefix in commands:
            assert main([*prefix, path]) == 2, (prefix, data)
            assert capsys.readouterr().err == f"error: {message}\n", (prefix, data)


def test_base_polymatroid_check_runs_once_per_set(tmp_path, monkeypatch, capsys):
    real, evaluated = polymatroid._exchange_check, []

    def counted(P):
        evaluated.append((P.ambient_p, P.points))
        return real(P)

    monkeypatch.setattr(polymatroid, "_exchange_check", counted)
    msupp = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    config = write_json(tmp_path, "config.json", config_to_json(random_config(4, 3, random.Random(99))))
    uniform = write_json(tmp_path, "u23.json", {"p": 3, "bases": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]})
    coloop = write_json(tmp_path, "coloop.json", {"p": 3, "bases": [[1, 1, 0], [1, 0, 1]]})
    # argv and the number of distinct sets the command checks; a linear
    # polymatroid carries the verdict base_polymatroid stored on it
    for argv, sets in [
        (["verify", "theorem-c", config], 0),
        (["linear-polymatroid", config], 0),
        (["hilbert", msupp, "--oracle"], 1),
        (["verify", "matroid-mu", uniform], 1),
        (["verify", "matroid-mu", coloop], 1),  # no contraction is built
        (["mobius", msupp, "--check", "--kpoly"], 1),
    ]:
        evaluated.clear()
        assert main(argv) == 0, argv
        assert len(evaluated) == len(set(evaluated)) == sets, (argv, evaluated)
    capsys.readouterr()


def test_linear_polymatroid_refuses_2_to_the_p_above_the_grid_cap(capsys):
    assert main(["linear-polymatroid", "--random", "20,2", "--seed", "1"]) == 2
    assert "resource cap: rank table has 1048576 subsets" in capsys.readouterr().err


def test_linear_polymatroid_refuses_a_base_polymatroid_above_its_candidate_cap(capsys):
    # rank 10 on [12]: up to C(21, 11) candidate points by stars and bars
    assert main(["linear-polymatroid", "--random", "12,10", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "resource cap: base polymatroid has up to 352716 candidate points (cap 100000)\n"


def test_linear_polymatroid_refuses_a_large_rank_before_the_rank_table(capsys):
    # rank 72 on [19]: refused before the 2^19-entry rank table is built
    assert main(["linear-polymatroid", "--random", "19,72", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "resource cap: base polymatroid has up to 3789648142708598775 candidate points (cap 100000)\n")


def test_random_config_is_capped_before_any_draw(capsys):
    # up to p * q^2 entries: 3.2e9 for 2,40000 and 1e6 for 1000000,1
    for argv, err in (
        ("2,40000", "resource cap: random config draws up to 3200000000 entries (cap 100000)"),
        ("1000000,1", "resource cap: random config draws up to 1000000 entries (cap 100000)"),
        ("25,1", "resource cap: rank table has 33554432 subsets (cap 1000000)"),
    ):
        assert main(["linear-polymatroid", "--random", argv, "--seed", "1"]) == 2
        assert capsys.readouterr().err == err + "\n"
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(CapExceeded):
            random_config(*parse_vector(argv), rng)
        assert rng.getstate() == state


# command prefix and a valid JSON input for every command that reads JSON
_FUZZ_INPUTS = [
    (["verify", "gpolymatroid"], [list(q) for q in HILBERT_3], ["--method", "all"]),
    (["verify", "cave"], [list(q) for q in HILBERT_3], ["--orders", "natural"]),
    (["verify", "shelling"], {"msupp": [list(q) for q in MSUPP_3], "m": [4, 4, 4]}, []),
    (["verify", "matroid-mu"], {"p": 3, "bases": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}, []),
    (["verify", "theorem-a"], [list(q) for q in KPOLY_3], []),
    (["verify", "theorem-c"], {"q": 2, "subspaces": [[[[1, 1], [0, 1]]], [[[1, 1], [1, 1]]]]}, []),
    (["hilbert"], [list(q) for q in MSUPP_3], ["--oracle", "--eval", "1,1,1"]),
    (["mobius"], [list(q) for q in MSUPP_3], ["--check", "--kpoly"]),
    (["linear-polymatroid"], {"q": 2, "subspaces": [[[[1, 1], [0, 1]]], [[[1, 1], [1, 1]]]]},
     ["--mu-supp"]),
]

_FUZZ_VALUES = [0, 2, -1, 1.5, True, "7", 10**30, None, {}, [], "x"]


def _nodes(data, path=()):
    yield path, data
    if isinstance(data, list):
        for i, x in enumerate(data):
            yield from _nodes(x, path + (i,))
    elif isinstance(data, dict):
        for k, x in data.items():
            yield from _nodes(x, path + (k,))


def _mutate(data, rng):
    """One random edit somewhere in data: drop, duplicate or shorten a list,
    remove a key, or replace a node by another value, often of the wrong
    kind.  Returns the edited copy and whether the edit removed a key or
    changed a node's JSON kind, which the reader must reject by its path."""
    data = copy.deepcopy(data)
    edit = rng.choice(["drop", "duplicate", "shorten", "remove-key", "replace"])
    kind = {"remove-key": dict, "replace": object}.get(edit, list)
    nodes = [
        (path, node) for path, node in _nodes(data)
        if isinstance(node, kind) and (node or edit == "replace")
    ]
    if not nodes:
        return data, False
    path, node = rng.choice(nodes)
    if edit == "drop":
        del node[rng.randrange(len(node))]
    elif edit == "duplicate":
        node.append(copy.deepcopy(rng.choice(node)))
    elif edit == "shorten":
        del node[rng.randrange(len(node)):]
    elif edit == "remove-key":
        del node[rng.choice(list(node))]
        return data, True
    else:
        value = rng.choice(_FUZZ_VALUES)
        if not path:
            return value, type(value) is not type(node)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return data, type(value) is not type(node)
    return data, False


def test_exit_code_contract_under_fuzzed_json(tmp_path, capsys):
    # exit 0, 1 with a witness, or 2 with a message; never a traceback
    rng = random.Random(20241018)
    path = str(tmp_path / "fuzz.json")
    codes, named = set(), 0
    for _ in range(150):
        for prefix, valid, flags in _FUZZ_INPUTS:
            data = valid
            for _ in range(rng.randint(1, 2)):
                data, kind_changed = _mutate(data, rng)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            argv = [*prefix, path, *flags, "--json"]
            try:
                rc = main(argv)
            except BaseException as exc:  # SystemExit and tracebacks alike
                raise AssertionError(f"{argv} on {data!r} raised {exc!r}") from exc
            out, err = capsys.readouterr()
            assert rc in (0, 1, 2), (argv, data, rc)
            if rc == 2:
                assert err.startswith(("error:", "resource cap:")), (argv, data, err)
                # the last edit removed a key or changed a node's kind
                if kind_changed:
                    assert err.startswith("error: $"), (argv, data, err)
                    named += 1
            if rc == 1:
                assert "witness" in json.loads(out), (argv, data, out)
            codes.add(rc)
    assert codes == {0, 1, 2}
    assert named > 200
