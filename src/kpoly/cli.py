"""Command-line front door.

Every command prints a human-readable report; ``--json`` switches stdout to
the JSON payload and ``--out PATH`` writes the JSON alongside the report.
Exit codes: 0 ok, 1 mathematical violation (failed axiom, route mismatch,
with a machine-readable witness), 2 usage or resource error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .lattice import (
    CapExceeded,
    point_set_from_json,
    point_set_to_json,
    poly_text,
    poly_to_json,
    signed_support_to_json,
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


def _parse_vector(text: str) -> tuple[int, ...]:
    body = text.strip().strip("[]")
    return tuple(int(tok) for tok in body.replace(",", " ").split())


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

def cmd_grothendieck(args) -> CommandResult:
    w = schubert.parse_perm(args.permutation)
    routes = {}
    if args.via in (None, "divided-diff") or args.verify:
        routes["divided-diff"] = schubert.grothendieck(w)
    zero_one = schubert.is_zero_one(w)
    wanted = [args.via] if args.via and not args.verify else []
    if args.verify:
        wanted = ["stalactites", "mobius"] if zero_one else []
    for route in wanted:
        if route == "divided-diff":
            routes[route] = schubert.grothendieck(w)
        elif route == "stalactites":
            routes[route] = schubert.grothendieck_via_stalactites(w)
        elif route == "mobius":
            routes[route] = schubert.grothendieck_via_mobius(w)
        else:
            raise ValueError(f"unknown route {route!r}")
    polys = list(routes.values())
    agree = all(f == polys[0] for f in polys)
    result = polys[0]
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
    status = OK if agree else VIOLATION
    return CommandResult(status, payload, "\n".join(lines))


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


def cmd_verify(args) -> CommandResult:
    data = _load_json(args.input)
    kind = args.kind
    if kind == "gpolymatroid":
        G = point_set_from_json(data)
        if args.method == "all":
            checks = {
                m: polymatroid.is_g_polymatroid(G, m)
                for m in polymatroid.G_POLY_METHODS
            }
            verdicts = {m: bool(c) for m, c in checks.items()}
            chk = checks["axioms"]
            return _check_result(kind, chk, {"methods": verdicts})
        return _check_result(kind, polymatroid.is_g_polymatroid(G, args.method))
    if kind == "cave":
        C = point_set_from_json(data)
        return _check_result(kind, polymatroid.is_cave(C, _parse_orders(args.orders)))
    if kind == "shelling":
        msupp = point_set_from_json(data["msupp"])
        facets = stalactite.facets_from_msupp(msupp, tuple(data["m"]))
        return _check_result(kind, stalactite.verify_shelling(facets))
    if kind == "matroid-mu":
        M = mobius_mod.matroid_from_json(data)
        return _check_result(kind, mobius_mod.verify_matroid_mu_theorem(M))
    if kind == "theorem-a":
        supp = point_set_from_json(data)
        sys_ = polymatroid.inequality_system(supp)
        pts = polymatroid.integer_points(sys_)
        ok = pts == supp
        extra = {"inequalities": polymatroid.system_to_json(sys_)}
        if ok:
            rows = [
                f"  {sys_.lower[J]} <= n_{{{','.join(map(str, sorted(J)))}}} <= {sys_.upper[J]}"
                for J in sys_.subsets()
            ]
            res = _check_result(kind, polymatroid.is_g_polymatroid(supp, "axioms"), extra)
            res.human += "\n" + "\n".join(rows)
            return res
        from .lattice import Check

        gained = [list(q) for q in pts if q not in supp]
        return _check_result(
            kind, Check(False, {"condition": "integer-points", "extra_points": gained}), extra
        )
    if kind == "theorem-c":
        config = subspaces.config_from_json(data)
        P = subspaces.linear_polymatroid(config)
        supp = mobius_mod.mu_support(P)
        chk = polymatroid.is_g_polymatroid(supp, "axioms")
        extra = {
            "polymatroid": point_set_to_json(P),
            "mu_support": point_set_to_json(supp),
        }
        return _check_result(kind, chk, extra)
    raise ValueError(f"unknown verify kind {kind!r}")


def cmd_hilbert(args) -> CommandResult:
    msupp = point_set_from_json(_load_json(args.msupp))
    chk = polymatroid.is_base_polymatroid(msupp)
    if not chk:
        return CommandResult(
            VIOLATION,
            {"verdict": False, "witness": chk.witness},
            f"multidegree support fails the polymatroid check\n  witness: {chk.witness}",
        )
    H = stalactite.hsupp_from_msupp(msupp)
    lines = ["Hilbert polynomial (binomial-product basis):", f"  {stalactite.hilbert_text(H)}"]
    payload = {"hilbert": signed_support_to_json(H), "text": stalactite.hilbert_text(H)}
    if args.ambient:
        m = _parse_vector(args.ambient)
    else:
        m = tuple(max(q[i] for q in msupp) for i in range(msupp.ambient_p))
    if args.oracle:
        J = monomial.msupp_to_ideal(msupp, m)
        Hie = monomial.hilbert_poly_ie(J)
        agree = Hie == H
        lines.append(f"  inclusion-exclusion oracle agrees: {agree}")
        payload["oracle_agrees"] = agree
        if not agree:
            return CommandResult(VIOLATION, payload, "\n".join(lines))
    if args.eval is not None:
        t = _parse_vector(args.eval)
        value = stalactite.hilbert_eval(H, t)
        lines.append(f"  value at t = {list(t)}: {value}")
        payload["eval"] = {"t": list(t), "value": value}
    return CommandResult(OK, payload, "\n".join(lines))


def cmd_mobius(args) -> CommandResult:
    msupp = point_set_from_json(_load_json(args.msupp))
    chk = polymatroid.is_base_polymatroid(msupp)
    if not chk:
        return CommandResult(
            VIOLATION,
            {"verdict": False, "witness": chk.witness},
            f"input fails the polymatroid check\n  witness: {chk.witness}",
        )
    MU = mobius_mod.mobius_to_top(msupp)
    supp = MU.support()
    lines = [
        "mu(u, 1hat) over the downset (nonzero values):",
        f"  {signed_support_to_json(MU)}",
        f"mu-support size: {len(supp)}",
    ]
    payload = {
        "mu": signed_support_to_json(MU),
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
        if args.ambient:
            m = _parse_vector(args.ambient)
        else:
            m = tuple(max(q[i] for q in msupp) for i in range(msupp.ambient_p))
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
        p, q = _parse_vector(args.random)
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
        chk = polymatroid.is_g_polymatroid(supp, "axioms")
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

    g = sub.add_parser("grothendieck", help="Grothendieck/Schubert polynomial of a permutation")
    g.add_argument("permutation", help='one-line notation, e.g. "1,5,3,2,4" or "[1,5,3,2,4]"')
    g.add_argument("--schubert", action="store_true", help="print the lowest-degree part")
    g.add_argument("--via", choices=["divided-diff", "stalactites", "mobius"])
    g.add_argument("--verify", action="store_true", help="run all applicable routes and compare")
    common(g)
    g.set_defaults(func=cmd_grothendieck)

    s = sub.add_parser("schubert", help="alias for grothendieck --schubert")
    s.add_argument("permutation")
    s.add_argument("--via", choices=["divided-diff", "stalactites", "mobius"])
    s.add_argument("--verify", action="store_true")
    common(s)
    s.set_defaults(func=cmd_grothendieck, schubert=True)

    c = sub.add_parser("census", help="count zero-one Schubert polynomials in S_p")
    c.add_argument("p", type=int)
    c.add_argument("--jobs", type=int, default=1)
    common(c)
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify", help="run a structural verdict on a JSON input")
    v.add_argument(
        "kind",
        choices=["gpolymatroid", "cave", "shelling", "matroid-mu", "theorem-a", "theorem-c"],
    )
    v.add_argument("input", help="path to the JSON input")
    v.add_argument("--method", default="axioms",
                   choices=["axioms", "homogenization", "inequality_points", "all"])
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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    return _emit(result, args)


if __name__ == "__main__":
    sys.exit(main())
