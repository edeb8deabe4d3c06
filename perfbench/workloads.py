"""Workload inputs and output checks for the kpoly benchmark.

``build(name, seed, outdir)`` generates one workload's inputs with the
library, writes every JSON input under ``outdir`` and returns the op list:
each op is a ``kpoly`` argv plus what its output must show.  ``check(op, rc,
stdout, stderr)`` decides whether one op's output is right.  Every op list is
shuffled by the seed; where a random draw would change the amount of work
per pass (theorem_c), the drawn set is fixed and the seed only orders it.

Why each workload:

census          one ``census 7`` op; the Schubert level walk does all the
                work, so it bypasses Mobius, inclusion-exclusion and the
                axiom checks.
three_route_s5  all 115 zero-one permutations in S_5 through
                ``grothendieck --verify`` and ``hilbert --oracle``; the
                Mobius closed form dominates.
theorem_c       200 linear polymatroids (the criterion-08 stream) through
                ``verify theorem-c``; the g-polymatroid axiom check on a few
                large sets dominates.
cli_mix         about 600 small commands where the CLI front door itself
                (argument parsing, JSON input) dominates, plus inputs that
                must be refused with exit 2.
"""

from __future__ import annotations

import json
import os
import random

from kpoly import mobius, schubert, stalactite, subspaces
from kpoly.lattice import point_set_to_json


CENSUS_P = 7
CENSUS_COUNT = 3343  # zero-one Schubert polynomials in S_7
ZERO_ONE_S5 = 115
THEOREM_C_STREAM = 20240817  # the seed of acceptance criterion 08
THEOREM_C_CONFIGS = 200
CLI_MIX_LINEAR = 40
CLI_MIX_MALFORMED = 10  # of each malformed kind

# CLI inputs that raise inside kpoly.cli.main instead of exiting 2.  They are
# run after the timed ops of cli_mix and reported, never counted as ops.
KNOWN_DEFECTS = {
    "gpolymatroid-flat-list": (["verify", "gpolymatroid"], [1, 2]),
    "matroid-bases-int": (["verify", "matroid-mu"], {"p": 2, "bases": 5}),
    "theorem-c-zero-denominator": (
        ["verify", "theorem-c"],
        {"q": 2, "subspaces": [[[[1, 0], [1, 1]]]]},
    ),
}


class _Writer:
    """Numbered input files under outdir.  A file already holding the same
    bytes is left alone, so a repeated set-up times generation and encoding
    rather than rewriting identical files, which is slow and erratic on a
    shared disk."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.n = 0

    def json(self, data) -> str:
        return self.text(json.dumps(data))

    def text(self, body: str) -> str:
        self.n += 1
        path = os.path.join(self.outdir, f"in{self.n:04d}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() == body:
                    return path
        except FileNotFoundError:
            pass
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        return path


def _op(argv, exit_code=0, **expect) -> dict:
    return {"argv": [str(a) for a in argv], "exit": exit_code, "expect": expect}


def _csv(values) -> str:
    return ",".join(map(str, values))


def _zero_one_s5() -> list:
    perms = schubert.zero_one_permutations(5)
    if len(perms) != ZERO_ONE_S5:
        raise RuntimeError(f"expected {ZERO_ONE_S5} zero-one permutations in S_5, got {len(perms)}")
    return perms


def _census(rng, out):
    return [_op(["census", CENSUS_P, "--json"], count=CENSUS_COUNT)]


def _three_route_s5(rng, out):
    ops = []
    for w in _zero_one_s5():
        msupp, m = schubert.msupp_of_matrix_schubert(w)
        ops.append(_op(["grothendieck", _csv(w), "--verify", "--json"],
                       routes_agree=True, routes=["divided-diff", "mobius", "stalactites"]))
        path = out.json(point_set_to_json(msupp))
        ops.append(_op(["hilbert", path, "--oracle", "--ambient", _csv(m), "--json"],
                       oracle_agrees=True))
    return ops


def _theorem_c(rng, out):
    stream = random.Random(THEOREM_C_STREAM)
    ops = []
    for _ in range(THEOREM_C_CONFIGS):
        p, q = stream.randint(2, 5), stream.randint(2, 5)
        config = subspaces.random_config(p, q, stream)
        path = out.json(subspaces.config_to_json(config))
        ops.append(_op(["verify", "theorem-c", path, "--json"], verdict=True))
    return ops


def _cli_mix(rng, out):
    ops = []
    for w in _zero_one_s5():
        supp = point_set_to_json(schubert.grothendieck(w).support())
        path = out.json(supp)
        ops.append(_op(["verify", "gpolymatroid", path, "--method", "all", "--json"],
                       verdict=True, methods=True))
        ops.append(_op(["verify", "theorem-a", path, "--json"], verdict=True))
        msupp, m = schubert.msupp_of_matrix_schubert(w)
        path = out.json({"msupp": point_set_to_json(msupp), "m": list(m)})
        ops.append(_op(["verify", "shelling", path, "--json"], verdict=True))
        small, _, _ = stalactite.collapse_fixed_components(msupp, m)
        path = out.json(point_set_to_json(stalactite.hsupp_from_msupp(small).support()))
        ops.append(_op(["verify", "cave", path, "--orders", "all", "--json"], verdict=True))
    for p in range(1, 5):
        for M in mobius.matroids_on_ground(p):
            path = out.json(mobius.matroid_to_json(M))
            ops.append(_op(["verify", "matroid-mu", path, "--json"], verdict=True))
    for _ in range(CLI_MIX_LINEAR):
        pq = _csv((rng.randint(2, 3), rng.randint(2, 3)))
        ops.append(_op(["linear-polymatroid", "--random", pq, "--seed", rng.randrange(10**6),
                        "--mu-supp", "--json"], mu_support_g_polymatroid=True))
    for k in range(CLI_MIX_MALFORMED):
        missing = os.path.join(out.outdir, f"missing{k}.json")
        ops.append(_op(["verify", "gpolymatroid", missing, "--json"], 2))
        broken = out.text('[[0, 1], [1, 0]' + "]" * (k % 2) + ",")
        ops.append(_op(["verify", "cave", broken, "--json"], 2))
        w = list(range(1, 5 + k % 3))
        w[-1] = w[0]
        ops.append(_op(["grothendieck", _csv(w), "--json"], 2))
    return ops


_BUILDERS = {
    "census": _census,
    "three_route_s5": _three_route_s5,
    "theorem_c": _theorem_c,
    "cli_mix": _cli_mix,
}


def build(name: str, seed: int, outdir: str) -> dict:
    """Write the inputs of one workload under outdir and return its spec."""
    rng = random.Random(seed)
    out = _Writer(outdir)
    ops = _BUILDERS[name](rng, out)
    rng.shuffle(ops)
    probes = []
    if name == "cli_mix":
        for label, (argv, data) in KNOWN_DEFECTS.items():
            probes.append({"label": label, "argv": argv + [out.json(data), "--json"]})
    return {"workload": name, "seed": seed, "ops": ops, "probes": probes}


def check(op: dict, rc, stdout: str, stderr: str) -> bool:
    """True when the op exited as expected and its payload shows every
    expected value.  Exit 2 must come with an error message on stderr."""
    if rc != op["exit"]:
        return False
    if rc == 2:
        return stderr.startswith(("error:", "usage:", "resource cap:"))
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    for key, want in op["expect"].items():
        got = payload.get(key)
        if key == "methods":
            if not (isinstance(got, dict) and got and all(v is True for v in got.values())):
                return False
        elif got != want:
            return False
    return True
