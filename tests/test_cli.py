import copy
import json
import random

from kpoly import cli, monomial, polymatroid, schubert
from kpoly.cli import main
from kpoly.lattice import IntPolynomial, point_set, point_set_to_json
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


def test_route_mismatch_carries_a_witness(monkeypatch, capsys):
    real = schubert.grothendieck_via_mobius

    def perturbed(w):
        f = real(w)
        return f + IntPolynomial.monomial(f.num_vars, (0,) * f.num_vars)

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


def test_census(capsys):
    assert main(["census", "4"]) == 0
    assert "24" in capsys.readouterr().out
    assert main(["census", "9"]) == 2


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
    assert main(["verify", "gpolymatroid", bad, "--method", "paramodular", "--out", payload_path]) == 1
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["witness"] == {"condition": "integer-points", "extra_points": [[0, 1], [1, 0]]}


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


def test_linear_polymatroid_random_requires_seed(capsys):
    assert main(["linear-polymatroid", "--random", "3,3"]) == 2
    assert main(["linear-polymatroid", "--random", "3,3", "--seed", "4", "--mu-supp"]) == 0


def test_explore(capsys):
    assert main(["explore", "--seed", "1", "--count", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tested"] == 10


def test_sparse_polymatroid_in_a_huge_box_hits_the_grid_cap(tmp_path, capsys):
    # U_{1,20}: a 21-cell downset inside a 2^20-cell bounding box, refused by
    # GRID_CAP before the grid is allocated
    bases = [[int(i == j) for j in range(20)] for i in range(20)]
    msupp = write_json(tmp_path, "u120.json", bases)
    matroid = write_json(tmp_path, "u120_matroid.json", {"p": 20, "bases": bases})
    for argv in (["mobius", msupp], ["verify", "matroid-mu", matroid]):
        assert main(argv) == 2
        assert "resource cap: box grid has 1048576 cells" in capsys.readouterr().err


def test_malformed_input_is_usage_error(tmp_path):
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
    assert main(["explore", "--count", "-5", "--seed", "1"]) == 2
    assert main(["explore", "--count", "0", "--seed", "1"]) == 2
    assert main(["explore", "--count", "3", "--max-coord", "0", "--seed", "1"]) == 2
    assert main(["explore", "--count", "3", "--max-p", "1", "--seed", "1"]) == 2
    assert main(["verify", "shelling", flat]) == 2
    int_m = write_json(tmp_path, "shell_int_m.json", {"msupp": [[1, 0]], "m": 5})
    assert main(["verify", "shelling", int_m]) == 2
    short_m = write_json(tmp_path, "shell_short_m.json", {"msupp": [[1, 0]], "m": [4]})
    assert main(["verify", "shelling", short_m]) == 2
    huge = write_json(tmp_path, "huge.json", [[1000000, 1000000, 1000000]])
    assert main(["mobius", huge]) == 2
    assert main(["verify", "cave", huge]) == 2
    # every draw of a config with p = 0 or entry bound 0 is all zero
    assert main(["linear-polymatroid", "--random", "0,0", "--seed", "1"]) == 2
    assert main(["linear-polymatroid", "--random", "2,2", "--seed", "1", "--entry-bound", "0"]) == 2


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
    real, evaluated = polymatroid._base_polymatroid_check, []

    def counted(P):
        evaluated.append((P.ambient_p, P.points))
        return real(P)

    monkeypatch.setattr(polymatroid, "_base_polymatroid_check", counted)
    msupp = write_json(tmp_path, "msupp.json", [list(q) for q in MSUPP_3])
    config = write_json(tmp_path, "config.json", config_to_json(random_config(4, 3, random.Random(99))))
    uniform = write_json(tmp_path, "u23.json", {"p": 3, "bases": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]})
    coloop = write_json(tmp_path, "coloop.json", {"p": 3, "bases": [[1, 1, 0], [1, 0, 1]]})
    # argv and the number of distinct sets the command checks
    for argv, sets in [
        (["verify", "theorem-c", config], 1),
        (["hilbert", msupp, "--oracle"], 1),
        (["verify", "matroid-mu", uniform], 1),
        (["verify", "matroid-mu", coloop], 2),  # the matroid and its contraction
        (["mobius", msupp, "--check", "--kpoly"], 1),
    ]:
        evaluated.clear()
        assert main(argv) == 0, argv
        assert len(evaluated) == len(set(evaluated)) == sets, (argv, evaluated)
    capsys.readouterr()


def test_linear_polymatroid_refuses_2_to_the_p_above_the_grid_cap(capsys):
    assert main(["linear-polymatroid", "--random", "20,2", "--seed", "1"]) == 2
    assert "resource cap: rank table has 1048576 subsets" in capsys.readouterr().err


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
    kind."""
    data = copy.deepcopy(data)
    edit = rng.choice(["drop", "duplicate", "shorten", "remove-key", "replace"])
    kind = {"remove-key": dict, "replace": object}.get(edit, list)
    nodes = [
        (path, node) for path, node in _nodes(data)
        if isinstance(node, kind) and (node or edit == "replace")
    ]
    if not nodes:
        return data
    path, node = rng.choice(nodes)
    if edit == "drop":
        del node[rng.randrange(len(node))]
    elif edit == "duplicate":
        node.append(copy.deepcopy(rng.choice(node)))
    elif edit == "shorten":
        del node[rng.randrange(len(node)):]
    elif edit == "remove-key":
        del node[rng.choice(list(node))]
    elif not path:
        return rng.choice(_FUZZ_VALUES)
    else:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(_FUZZ_VALUES)
    return data


def test_exit_code_contract_under_fuzzed_json(tmp_path, capsys):
    # exit 0, 1 with a witness, or 2 with a message; never a traceback
    rng = random.Random(20241018)
    path = str(tmp_path / "fuzz.json")
    codes = set()
    for _ in range(150):
        for prefix, valid, flags in _FUZZ_INPUTS:
            data = valid
            for _ in range(rng.randint(1, 2)):
                data = _mutate(data, rng)
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
            if rc == 1:
                assert "witness" in json.loads(out), (argv, data, out)
            codes.add(rc)
    assert codes == {0, 1, 2}
