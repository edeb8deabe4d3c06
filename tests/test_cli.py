import json

from kpoly.cli import main
from kpoly.lattice import point_set, point_set_to_json
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
    assert main(["verify", "gpolymatroid", good, "--method", "all"]) == 0
    bad = write_json(tmp_path, "bad.json", [[0, 0], [1, 1]])
    assert main(["verify", "gpolymatroid", bad]) == 1
    payload_path = str(tmp_path / "out.json")
    assert main(["verify", "gpolymatroid", bad, "--out", payload_path]) == 1
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["status"] == "violation"
    assert payload["witness"]["condition"] == "expansion"


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


def test_malformed_input_is_usage_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["verify", "gpolymatroid", str(path)]) == 2
    assert main(["hilbert", str(tmp_path / "missing.json")]) == 2
    flat = write_json(tmp_path, "flat.json", [1, 2])
    assert main(["verify", "gpolymatroid", flat]) == 2
    int_bases = write_json(tmp_path, "matroid.json", {"p": 2, "bases": 5})
    assert main(["verify", "matroid-mu", int_bases]) == 2
    zero_den = write_json(tmp_path, "config.json", {"q": 2, "subspaces": [[[[1, 0], [1, 1]]]]})
    assert main(["verify", "theorem-c", zero_den]) == 2
    assert main(["explore", "--count", "-5", "--seed", "1"]) == 2
    assert main(["explore", "--count", "0", "--seed", "1"]) == 2
