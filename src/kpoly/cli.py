"""Command-line front door.

Every command prints a human-readable report; ``--json`` switches stdout to
the JSON payload and ``--out PATH`` writes the JSON alongside the report.
Exit codes: 0 ok; 1 mathematical violation (failed axiom, route or oracle
mismatch), always with a machine-readable witness; 2 usage or resource error.
The parser is built once per process.  Each command decides nothing the
library already decides: it loads its input, calls the library routes and
reports their verdicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass

from .lattice import (
    CapExceeded,
    parse_vector,
    point_set_from_json,
    point_set_to_json,
    poly_text,
    poly_to_json,
)
from . import mobius as mobius_mod
from . import monomial, polymatroid, schubert, stalactite, subspaces

OK, VIOLATION, ERROR = "ok", "violation", "error"
_EXIT = {OK: 0, VIOLATION: 1, ERROR: 2}


@dataclass
class CommandResult:
    status: str
    payload: dict
    human: str


def _emit(result: CommandResult, args) -> int:
    payload = {"status": result.status, **result.payload}
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.human)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return _EXIT[result.status]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_orders(text: str):
    if text in ("natural", "all"):
        return text
    if text.startswith("sample:"):
        _, k, seed = text.split(":")
        return ("sample", int(k), int(seed))
    raise ValueError(f"bad --orders value {text!r}; use natural, all or sample:K:SEED")


# ---------------------------------------------------------------------------

# route name -> name of the schubert function that computes it; looked up at
# call time, so a wrapped or patched module attribute is the one that runs
ROUTES = {
    "divided-diff": "grothendieck",
    "stalactites": "grothendieck_via_stalactites",
    "mobius": "grothendieck_via_mobius",
}


def _first_difference(named: dict):
    """The first exponent, in sorted order, where the named term maps
    disagree, and each one's coefficient there."""
    for e in sorted(set().union(*(f.terms for f in named.values()))):
        coeffs = {name: f.terms.get(e, 0) for name, f in named.items()}
        if len(set(coeffs.values())) > 1:
            return list(e), coeffs


def cmd_grothendieck(args) -> CommandResult:
    w = schubert.parse_perm(args.permutation)
    zero_one = schubert.is_zero_one(w)
    if args.verify:
        wanted = list(ROUTES) if zero_one else ["divided-diff"]
    else:
        wanted = [args.via or "divided-diff"]
    routes = {route: getattr(schubert, ROUTES[route])(w) for route in wanted}
    result = routes[wanted[0]]
    agree = all(f == result for f in routes.values())
    shown = schubert.lowest_degree_part(result) if args.schubert else result
    name = "Schubert" if args.schubert else "Grothendieck"
    lines = [f"{name} polynomial of {list(w)}:", f"  {poly_text(shown)}"]
    lines.append(f"  zero-one: {zero_one}")
    if args.verify:
        lines.append(f"  routes computed: {sorted(routes)}")
        lines.append(f"  routes agree: {agree}")
    payload = {
        "permutation": list(w),
        "zero_one": zero_one,
        "polynomial": poly_to_json(shown),
        "text": poly_text(shown),
        "routes": sorted(routes),
        "routes_agree": agree,
    }
    if agree:
        return CommandResult(OK, payload, "\n".join(lines))
    exp, coeffs = _first_difference(routes)
    payload["witness"] = {"condition": "route-mismatch", "exp": exp, "coeffs": coeffs}
    lines.append(f"  witness: {payload['witness']}")
    return CommandResult(VIOLATION, payload, "\n".join(lines))


def cmd_census(args) -> CommandResult:
    t0 = time.perf_counter()
    count = schubert.count_zero_one(args.p, jobs=args.jobs)
    elapsed = time.perf_counter() - t0
    human = f"zero-one Schubert polynomials in S_{args.p}: {count}   ({elapsed:.2f}s)"
    return CommandResult(
        OK, {"p": args.p, "count": count, "seconds": round(elapsed, 3)}, human
    )


def _check_result(kind: str, chk, extra: dict | None = None) -> CommandResult:
    payload = {"kind": kind, "verdict": bool(chk)}
    if extra:
        payload.update(extra)
    if chk:
        return CommandResult(OK, payload, f"{kind}: ok")
    payload["witness"] = chk.witness
    return CommandResult(
        VIOLATION, payload, f"{kind}: violation\n  witness: {chk.witness}"
    )


def _verify_gpolymatroid(args, data) -> CommandResult:
    G = point_set_from_json(data)
    if args.method != "all":
        return _check_result(args.kind, polymatroid.is_g_polymatroid(G, args.method))
    checks = {m: polymatroid.is_g_polymatroid(G, m) for m in polymatroid.G_POLY_METHODS}
    verdicts = {m: bool(c) for m, c in checks.items()}
    return _check_result(args.kind, checks["axioms"], {"methods": verdicts})


def _verify_theorem_a(args, data) -> CommandResult:
    """Theorem A: the support is a g-polymatroid, which by Frank's theorem is
    the paramodular classifier's verdict; the report lists the support-bound
    inequalities."""
    supp = point_set_from_json(data)
    sys_ = polymatroid.inequality_system(supp)
    res = _check_result(
        args.kind,
        polymatroid.is_g_polymatroid(supp, "paramodular"),
        {"inequalities": polymatroid.system_to_json(sys_)},
    )
    res.human += "".join(
        f"\n  {sys_.lower[J]} <= n_{{{','.join(map(str, sorted(J)))}}} <= {sys_.upper[J]}"
        for J in sys_.subsets()
    )
    return res


def _verify_theorem_c(args, data) -> CommandResult:
    P = subspaces.linear_polymatroid(subspaces.config_from_json(data))
    supp = mobius_mod.mu_support(P)
    extra = {"polymatroid": point_set_to_json(P), "mu_support": point_set_to_json(supp)}
    return _check_result(args.kind, polymatroid.is_g_polymatroid(supp, "paramodular"), extra)


# verify kind -> handler(args, parsed JSON input)
VERIFY_KINDS = {
    "gpolymatroid": _verify_gpolymatroid,
    "cave": lambda args, data: _check_result(
        args.kind, polymatroid.is_cave(point_set_from_json(data), _parse_orders(args.orders))
    ),
    "shelling": lambda args, data: _check_result(
        args.kind, stalactite.verify_shelling(stalactite.facets_from_json(data))
    ),
    "matroid-mu": lambda args, data: _check_result(
        args.kind, mobius_mod.verify_matroid_mu_theorem(mobius_mod.matroid_from_json(data))
    ),
    "theorem-a": _verify_theorem_a,
    "theorem-c": _verify_theorem_c,
}


def cmd_verify(args) -> CommandResult:
    return VERIFY_KINDS[args.kind](args, _load_json(args.input))


def _base_polymatroid_input(args, subject: str):
    """(msupp, m): the point set at args.msupp and its ambient bound, --ambient
    or else the componentwise max; or the violation result when the set fails
    the base-polymatroid check."""
    msupp = point_set_from_json(_load_json(args.msupp))
    chk = polymatroid.is_base_polymatroid(msupp)
    if not chk:
        return CommandResult(
            VIOLATION,
            {"verdict": False, "witness": chk.witness},
            f"{subject} fails the polymatroid check\n  witness: {chk.witness}",
        )
    if args.ambient:
        return msupp, parse_vector(args.ambient)
    return msupp, tuple(max(q[i] for q in msupp) for i in range(msupp.ambient_p))


def cmd_hilbert(args) -> CommandResult:
    loaded = _base_polymatroid_input(args, "multidegree support")
    if isinstance(loaded, CommandResult):
        return loaded
    msupp, m = loaded
    H = stalactite.hsupp_from_msupp(msupp)
    lines = ["Hilbert polynomial (binomial-product basis):", f"  {stalactite.hilbert_text(H)}"]
    payload = {"hilbert": poly_to_json(H), "text": stalactite.hilbert_text(H)}
    if args.oracle:
        Hie = monomial.hilbert_poly_ie(monomial.msupp_to_ideal(msupp, m))
        agree = Hie == H
        lines.append(f"  inclusion-exclusion oracle agrees: {agree}")
        payload["oracle_agrees"] = agree
        if not agree:
            n, coeffs = _first_difference({"stalactites": H, "inclusion_exclusion": Hie})
            payload["witness"] = {"condition": "oracle-mismatch", "n": n, **coeffs}
            lines.append(f"  witness: {payload['witness']}")
            return CommandResult(VIOLATION, payload, "\n".join(lines))
    if args.eval is not None:
        t = parse_vector(args.eval)
        value = stalactite.hilbert_eval(H, t)
        lines.append(f"  value at t = {list(t)}: {value}")
        payload["eval"] = {"t": list(t), "value": value}
    return CommandResult(OK, payload, "\n".join(lines))


def cmd_mobius(args) -> CommandResult:
    loaded = _base_polymatroid_input(args, "input")
    if isinstance(loaded, CommandResult):
        return loaded
    msupp, m = loaded
    MU = mobius_mod.mobius_to_top(msupp)
    supp = MU.support()
    lines = [
        "mu(u, 1hat) over the downset (nonzero values):",
        f"  {poly_to_json(MU)}",
        f"mu-support size: {len(supp)}",
    ]
    payload = {
        "mu": poly_to_json(MU),
        "mu_support": point_set_to_json(supp),
    }
    if args.check:
        deg = mobius_mod.verify_deg_equals_neg_mobius(msupp)
        lines.append(f"deg = -mu identity: {bool(deg)}")
        payload["deg_equals_neg_mu"] = bool(deg)
        if not deg:
            payload["witness"] = deg.witness
            return CommandResult(VIOLATION, payload, "\n".join(lines))
    if args.kpoly:
        K = mobius_mod.kpoly_from_mobius(msupp, m)
        lines.append(f"twisted K-polynomial: {poly_text(K)}")
        payload["kpoly"] = poly_to_json(K)
        payload["ambient"] = list(m)
    return CommandResult(OK, payload, "\n".join(lines))


def cmd_linear_polymatroid(args) -> CommandResult:
    import random

    if args.random:
        if args.seed is None:
            raise ValueError("--random requires an explicit --seed")
        p, q = parse_vector(args.random)
        rng = random.Random(args.seed)
        config = subspaces.random_config(p, q, rng, entry_bound=args.entry_bound)
    else:
        if not args.config:
            raise ValueError("pass a config file or --random P,Q --seed S")
        config = subspaces.config_from_json(_load_json(args.config))
    P = subspaces.linear_polymatroid(config)
    lines = [f"linear polymatroid on [{config.p}] with {len(P)} lattice points:"]
    lines.append(f"  {point_set_to_json(P)}")
    payload = {
        "config": subspaces.config_to_json(config),
        "polymatroid": point_set_to_json(P),
    }
    if args.mu_supp:
        supp = mobius_mod.mu_support(P)
        chk = polymatroid.is_g_polymatroid(supp, "paramodular")
        lines.append(f"mu-support ({len(supp)} points) is a g-polymatroid: {bool(chk)}")
        payload["mu_support"] = point_set_to_json(supp)
        payload["mu_support_g_polymatroid"] = bool(chk)
        if not chk:
            payload["witness"] = chk.witness
            return CommandResult(VIOLATION, payload, "\n".join(lines))
    return CommandResult(OK, payload, "\n".join(lines))


def cmd_explore(args) -> CommandResult:
    if args.count < 1:
        raise ValueError(f"--count must be positive, got {args.count}")
    if args.max_p < 2:
        raise ValueError(f"--max-p must be at least 2, got {args.max_p}")
    if args.max_coord < 1:
        raise ValueError(f"--max-coord must be positive, got {args.max_coord}")
    report = mobius_mod.mu_support_survey(
        args.count, args.max_p, args.max_coord, args.seed
    )
    lines = [
        f"mu-support survey: {report['tested']} base polymatroids tested "
        f"(p <= {args.max_p}, coords <= {args.max_coord}, seed {args.seed})",
        f"  g-polymatroid mu-supports: {report['g_polymatroid']}",
        f"  exceptions found: {len(report['failures'])}",
    ]
    if report["failures"]:
        lines.append("  counterexample candidates (report only, nothing is asserted):")
        for P in report["failures"]:
            lines.append(f"    {P}")
    return CommandResult(OK, report, "\n".join(lines))


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpoly",
        description="Exact combinatorics of multidegree supports: Grothendieck "
        "polynomials, Hilbert supports, polymatroid and cave verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="print the JSON payload instead of text")
        p.add_argument("--out", help="also write the JSON payload to this path")

    for name, help_ in (
        ("grothendieck", "Grothendieck/Schubert polynomial of a permutation"),
        ("schubert", "alias for grothendieck --schubert"),
    ):
        g = sub.add_parser(name, help=help_)
        g.add_argument("permutation", help='one-line notation, e.g. "1,5,3,2,4" or "[1,5,3,2,4]"')
        if name == "grothendieck":
            g.add_argument("--schubert", action="store_true", help="print the lowest-degree part")
        g.add_argument("--via", choices=list(ROUTES))
        g.add_argument("--verify", action="store_true", help="run all applicable routes and compare")
        common(g)
        g.set_defaults(func=cmd_grothendieck, schubert=name == "schubert")

    c = sub.add_parser("census", help="count zero-one Schubert polynomials in S_p")
    c.add_argument("p", type=int)
    c.add_argument("--jobs", type=int, default=1)
    common(c)
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify", help="run a structural verdict on a JSON input")
    v.add_argument("kind", choices=list(VERIFY_KINDS))
    v.add_argument("input", help="path to the JSON input")
    v.add_argument("--method", default="axioms", choices=[*polymatroid.G_POLY_METHODS, "all"])
    v.add_argument("--orders", default="all", help="natural, all or sample:K:SEED")
    common(v)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("hilbert", help="Hilbert polynomial from a multidegree support")
    h.add_argument("msupp", help="path to a point-set JSON file")
    h.add_argument("--ambient", help="ambient bound m as CSV (default: componentwise max)")
    h.add_argument("--eval", help="evaluate at an integer vector t (CSV)")
    h.add_argument("--oracle", action="store_true", help="cross-check against inclusion-exclusion")
    common(h)
    h.set_defaults(func=cmd_hilbert)

    mb = sub.add_parser("mobius", help="Mobius function of the downset poset of a polymatroid")
    mb.add_argument("msupp", help="path to a point-set JSON file")
    mb.add_argument("--check", action="store_true", help="verify deg = -mu against stalactites")
    mb.add_argument("--kpoly", action="store_true", help="emit the twisted K-polynomial")
    mb.add_argument("--ambient", help="ambient bound m for --kpoly (CSV)")
    common(mb)
    mb.set_defaults(func=cmd_mobius)

    lp = sub.add_parser("linear-polymatroid", help="lattice points of a rational subspace configuration")
    lp.add_argument("config", nargs="?", help="path to a subspace-config JSON file")
    lp.add_argument("--random", help="generate a random config, P,Q")
    lp.add_argument("--seed", type=int, help="seed for --random (mandatory)")
    lp.add_argument("--entry-bound", type=int, default=3)
    lp.add_argument("--mu-supp", action="store_true", help="also compute and verify the mu-support")
    common(lp)
    lp.set_defaults(func=cmd_linear_polymatroid)

    ex = sub.add_parser("explore", help="mu-support conjecture survey (reports, never asserts)")
    ex.add_argument("--count", type=int, default=100)
    ex.add_argument("--max-p", type=int, default=4)
    ex.add_argument("--max-coord", type=int, default=3)
    ex.add_argument("--seed", type=int, required=True)
    common(ex)
    ex.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    return _emit(result, args)


if __name__ == "__main__":
    sys.exit(main())
