"""Command-line front end: JSON in/out for module construction,
generator actions, axiom verification, classification, localization and
minimal-orbit enumeration.

Exit codes: 0 success, 2 validation/parse failure, 1 internal error.
"""

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import action, classify, localization, minimal_orbit
from .core import format_rational, parse_rational
from .errors import GtrelError
from .tableau import family_tableau, lem_key_tableau, shift_from_json


def _weight(text):
    return tuple(parse_rational(p.strip()) for p in text.split(","))


def _fmt_weight(w):
    return [format_rational(Fraction(x)) for x in w]


def _load_module(path):
    with open(path) as fh:
        return action.module_from_json(json.load(fh))


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _case_json(case):
    out = {"case": case.tag}
    if case.tag == "CaseB":
        out["i"], out["j"] = case.i, case.j
    return out


def cmd_admissible(args):
    res = minimal_orbit.admissible_level(args.n, parse_rational(args.k))
    if res is None:
        _emit({"admissible": False})
    else:
        _emit({"admissible": True, "p": res[0], "q": res[1]})
    return 0


def cmd_build(args):
    needed = {
        "hw": {"--lambda": args.weight},
        "family": {"--u": args.u},
        "lem-key": {"--lambda": args.weight, "--i": args.i},
    }[args.type]
    missing = [opt for opt, value in needed.items() if value is None]
    if missing:
        raise GtrelError("--type %s needs %s" % (args.type, ", ".join(missing)))
    norm = args.normalization
    if args.type == "hw":
        M = minimal_orbit.hw_module_of(_weight(args.weight), normalization=norm)
    elif args.type == "family":
        if norm != "hw":
            raise GtrelError(
                "--type family takes its top row from --u and --v, unnormalized"
            )
        v = _weight(args.v) if args.v else ()
        T, C = family_tableau(_weight(args.u), v, m=args.m)
        M = action.module(T, C, normalization=norm)
    else:
        T, C = lem_key_tableau(_weight(args.weight), args.i, normalization=norm)
        M = action.module(T, C, normalization=norm)
    _emit(action.module_to_json(M), args.output)
    return 0


def cmd_act(args):
    M = _load_module(args.module)
    g = action.parse_generator(args.gen)
    if (args.vector is None) == (args.shift is None):
        raise GtrelError("give exactly one of --shift and --vector")
    if args.vector:
        with open(args.vector) as fh:
            v = action.vector_from_json(json.load(fh))
    else:
        z = shift_from_json(json.loads(args.shift))
        v = action.basis_vector(z)
    out = action.act(M, g, v)
    _emit(action.vector_to_json(out), args.output)
    return 0


def cmd_verify(args):
    M = _load_module(args.module)
    report = action.verify_axioms(
        M, box=args.box, samples=args.samples, seed=args.seed, full=args.full
    )
    _emit(report)
    return 0


def cmd_mults(args):
    M = _load_module(args.module)
    if args.weight:
        count, complete = action.weight_multiplicity(M, _weight(args.weight), args.box)
        _emit({"count": count, "complete": complete})
    else:
        counts = action.weight_multiplicity_sweep(M, args.box)
        _emit(
            [
                {"weight": _fmt_weight(w), "count": c}
                for w, c in sorted(counts.items())
            ]
        )
    return 0


def cmd_classify_hw(args):
    lam = _weight(args.weight)
    if len(lam) != args.n:
        raise GtrelError("weight length does not match n")
    case = classify.hw_relation_case(lam)
    out = _case_json(case)
    out["bounded_case"] = _bounded_json(classify.bounded_case(lam))
    out["verma_simple"] = classify.verma_simple_relation(lam)
    _emit(out)
    return 0


def _bounded_json(case):
    if case is None:
        return None
    if isinstance(case, tuple):
        return {"clause": case[0], "i": case[1]}
    return {"clause": case}


def cmd_resolve_sl2(args):
    params = classify.Sl2InducedParams(
        gamma=parse_rational(args.gamma), mu=_weight(args.mu)
    )
    branches = classify.resolve_sl2_induced(params)
    _emit(
        [
            {
                "lambda": _fmt_weight(lam),
                "x": format_rational(x),
                **_case_json(case),
            }
            for lam, x, case in branches
        ]
    )
    return 0


def cmd_localize(args):
    M = _load_module(args.module)
    targets = tuple(int(t) for t in args.targets.split(","))
    x = parse_rational(args.x) if args.x else None
    spec = localization.LocalizationSpec(targets, x)
    try:
        out = localization.localize_family(M, spec)
    except localization.WrongShape:
        if spec.targets != (2,):
            raise
        out = (
            localization.twist_e21(M, x)
            if x is not None
            else localization.localize_e21(M)
        )
    _emit(action.module_to_json(out), args.output)
    return 0


def cmd_twist(args):
    M = _load_module(args.module)
    out = localization.twist_e21(M, parse_rational(args.x))
    _emit(action.module_to_json(out), args.output)
    return 0


def cmd_minimal_orbit(args):
    lvl = minimal_orbit.Level(args.n, args.p, args.q)
    reps = list(minimal_orbit.minimal_orbit_reps(lvl))
    if args.induce:
        if not 0 <= args.rep < len(reps):
            raise GtrelError("--rep %d: %d representatives" % (args.rep, len(reps)))
        rep, _ = reps[args.rep]
        chain = minimal_orbit.hw_orbit_list(lvl, rep)
        if not 0 <= args.branch < len(chain):
            raise GtrelError("--branch %d: %d branches" % (args.branch, len(chain)))
        if args.x is None:
            raise GtrelError("--induce needs --x")
        branch = chain[args.branch][0]
        ind = minimal_orbit.build_sl2_induced_minimal(
            lvl, rep, branch, parse_rational(args.x)
        )
        _emit(
            {
                "branch": _fmt_weight(ind.branch),
                "x": format_rational(ind.x),
                "gamma": format_rational(ind.gamma),
                "mu": _fmt_weight(ind.mu),
                "module": action.module_to_json(ind.module),
            },
            args.output,
        )
    elif args.list_hw:
        out = []
        for rep, w in reps:
            chain = minimal_orbit.hw_orbit_list(lvl, rep)
            out.append(
                {
                    "lambda_bar": list(rep.lambda_bar),
                    "a": rep.a,
                    "weights": [
                        {"weight": _fmt_weight(lam), **_case_json(case)}
                        for lam, case in chain
                    ],
                }
            )
        _emit(out)
    else:
        _emit(
            [
                {
                    "lambda_bar": list(rep.lambda_bar),
                    "a": rep.a,
                    "weight": _fmt_weight(w),
                }
                for rep, w in reps
            ]
        )
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gtrel",
        description="Exact Gelfand-Tsetlin relation modules over sl(n+1)",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("admissible", help="test a level and report (p, q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", required=True)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("build", help="construct a module from a seed recipe")
    p.add_argument("--type", choices=["hw", "family", "lem-key"], required=True)
    p.add_argument("--lambda", dest="weight", help="weight coordinates a/b,c/d,...")
    p.add_argument("--u", help="first-column values for the family seed")
    p.add_argument("--v", help="interior-column values for the family seed")
    p.add_argument("--m", type=int, help="family degeneration row")
    p.add_argument("--i", type=int, help="twisting index for lem-key")
    p.add_argument(
        "--normalization",
        default="hw",
        choices=["hw", "sl2"],
        help="top-row sum of the hw and lem-key seeds; a family module takes "
        "its top row from --u and --v and is written with the label hw, which "
        "names no normalization there and which nothing computes with",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("act", help="apply a generator to a vector")
    p.add_argument("--module", required=True)
    p.add_argument("--gen", required=True, help='"E,i,j" or "H,k"')
    p.add_argument("--vector", help="vector JSON file")
    p.add_argument("--shift", help="inline shift JSON, e.g. [[0],[1,0]]")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("verify", help="run the axiom suite on a module")
    p.add_argument("--module", required=True)
    p.add_argument("--box", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--full", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mults", help="weight multiplicities in a box")
    p.add_argument("--module", required=True)
    p.add_argument("--weight", help="target weight; omit for a full sweep")
    p.add_argument("--box", type=int, default=3)
    p.set_defaults(fn=cmd_mults)

    p = sub.add_parser("classify-hw", help="highest-weight case of a weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="weight", required=True)
    p.set_defaults(fn=cmd_classify_hw)

    p = sub.add_parser("resolve-sl2", help="branches realizing (gamma, mu)")
    p.add_argument("--gamma", required=True)
    p.add_argument("--mu", required=True)
    p.set_defaults(fn=cmd_resolve_sl2)

    p = sub.add_parser("localize", help="remove lowering-operator torsion")
    p.add_argument("--module", required=True)
    p.add_argument("--targets", required=True, help="comma-separated rows, e.g. 2,4")
    p.add_argument("--x", help="optional twist")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("twist", help="twisted localization at the top entry")
    p.add_argument("--module", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("minimal-orbit", help="minimal-orbit representatives")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--list-hw", action="store_true")
    p.add_argument("--induce", action="store_true")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--x")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_minimal_orbit)

    return ap


@functools.cache
def _parser():
    """The parser main uses, built once per process: parsing does not
    change it."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    # argparse up to CPython 3.11 reads "--opt=--" as an empty list,
    # whatever the option's type; no gtrel option takes a list
    empty = sorted(dest for dest, value in vars(args).items() if value == [])
    if empty:
        parser.error("argument %s: expected one argument, got '--'" % empty[0])
    try:
        return args.fn(args)
    except (GtrelError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    except Exception as exc:  # pragma: no cover - invariant breach
        print(json.dumps({"error": "internal", "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
