"""Command line front end.

Three subcommands:

  expand    print F or G for one basis index, expanded in p/h/m/s
  verify    run one identity suite (pieri, du, cauchy, bf, heisenberg,
            converse) and report pass/fail
  tableaux  enumerate the U-chains behind one monomial coefficient

Reps are named fermionic, macdonald, llt1:<n>, tensor:<rep>^<n>, or
bundle:<path>.  Exit status: 0 all checks passed, 1 a verified failure or
a computation error (e.g. a pole under --spec), 2 bad usage or an
unreadable bundle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .heisenberg import (
    BundleFormatError,
    BundleRangeError,
    BundleRep,
    StateVec,
    apply_U,
    compute_F,
    compute_G,
    load_bundle,
    specialize_rep,
)
from .identities import (
    diagnose_converse,
    verify_bf,
    verify_cauchy,
    verify_du,
    verify_heisenberg,
    verify_pieri,
)
from .partitions import Partition, parse_partition
from .reps import fermionic_rep, llt_q1_rep, macdonald_rep, tensor
from .scalars import ONE, SpecializationPoleError, parse_scalar, scalar_sum
from .symfunc import convert

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _parse_rep(text):
    text = text.strip()
    if text == "fermionic":
        return fermionic_rep()
    if text == "macdonald":
        return macdonald_rep()
    if text.startswith("llt1:"):
        try:
            n = int(text[5:])
            return llt_q1_rep(n)
        except ValueError as e:
            raise UsageError(f"bad llt1 rep {text!r}: {e}") from None
    if text.startswith("tensor:"):
        body = text[len("tensor:"):]
        base_text, sep, count = body.rpartition("^")
        if not sep:
            raise UsageError("tensor rep must look like tensor:<rep>^<n>")
        try:
            n = int(count)
        except ValueError:
            raise UsageError(f"bad tensor power {count!r}") from None
        if n < 1:
            raise UsageError("tensor power must be at least 1")
        base = _parse_rep(base_text)
        return tensor(*(base,) * n) if n > 1 else base
    if text.startswith("bundle:"):
        path = text[len("bundle:"):]
        try:
            return load_bundle(path)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read bundle {path!r}: {e}") from None
    raise UsageError(f"unknown rep {text!r}")


def _parse_bindings(pairs):
    out = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"--spec expects NAME=VALUE, got {item!r}")
        try:
            out[name.strip()] = parse_scalar(value)
        except ValueError as e:
            raise UsageError(f"bad --spec value {value!r}: {e}") from None
    return out


def _parse_index(rep, text):
    if isinstance(rep, BundleRep):
        try:
            return rep.index_of_label(text.strip())
        except KeyError as e:
            raise UsageError(str(e)) from None
    try:
        if hasattr(rep, "factors"):
            parts = text.split(";")
            if len(parts) != len(rep.factors):
                raise ValueError(
                    f"expected {len(rep.factors)} components joined by ';'")
            return tuple(parse_partition(p) for p in parts)
        return parse_partition(text)
    except ValueError as e:
        raise UsageError(f"bad shape {text!r}: {e}") from None


def _label(rep, index):
    if isinstance(rep, BundleRep):
        return rep.label_of(index)
    return _fmt_index(index)


def _fmt_index(index):
    if isinstance(index, Partition):
        return str(index)
    if isinstance(index, tuple):
        return "(" + ";".join(_fmt_index(x) for x in index) + ")"
    return str(index)


def _degree_cap(args):
    if args.degree_cap is not None:
        return args.degree_cap
    env = os.environ.get("FOCKBRIDGE_DEGREE_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"FOCKBRIDGE_DEGREE_CAP must be an integer, got {env!r}"
            ) from None
    return 8


def _emit(args, payload, text):
    if args.out == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_expand(args):
    cap = _degree_cap(args)
    rep = _parse_rep(args.rep)
    bindings = _parse_bindings(args.spec)
    shape = _parse_index(rep, args.shape)
    if args.base is not None:
        base = _parse_index(rep, args.base)
    elif rep.highest is not None:
        base = rep.highest
    else:
        raise UsageError("rep has no distinguished vector; pass --base")
    if rep.degree_of(shape) > cap:
        raise UsageError(
            f"shape degree {rep.degree_of(shape)} exceeds cap {cap}")
    fn = compute_F if args.fn == "F" else compute_G
    f = convert(fn(rep, shape, base), args.basis)
    if bindings:
        f = f.map_coefficients(lambda c: c.specialize(bindings))
    terms = [(str(lam), str(c)) for lam, c in f.sorted_terms()]
    payload = {
        "rep": args.rep,
        "fn": args.fn,
        "shape": _label(rep, shape),
        "base": _label(rep, base),
        "basis": args.basis,
        "terms": [{"index": i, "coeff": c} for i, c in terms],
    }
    text = "\n".join(f"{args.basis}{i} {c}" for i, c in terms) or "0"
    _emit(args, payload, text)
    return 0


_SUITES = ("pieri", "du", "cauchy", "bf", "heisenberg", "converse")
_NOTHING_CHECKED = "these bounds leave the suite nothing to check"


def _cmd_verify(args):
    cap = _degree_cap(args)
    rep = _parse_rep(args.rep)
    bindings = _parse_bindings(args.spec)
    kmax = args.kmax if args.kmax is not None else 2
    dmax = args.dmax if args.dmax is not None else (3 if args.suite == "bf" else 4)
    if dmax > cap:
        raise UsageError(f"--dmax {dmax} exceeds degree cap {cap}")
    # the suites climb by the operator orders (heisenberg to degree
    # dmax + 2*kmax - 1), so an order is bounded like a degree
    for flag, n in (("--kmax", args.kmax), ("--abmax", args.abmax),
                    ("--lmax", args.lmax)):
        if n is not None and n > cap:
            raise UsageError(f"{flag} {n} exceeds degree cap {cap}")
    if args.suite == "cauchy":
        # a symmetric function of degree <= cap is determined by cap variables
        for flag, n in (("--xvars", args.xvars), ("--yvars", args.yvars)):
            if not 1 <= n <= cap:
                raise UsageError(
                    f"{flag} {n} must be between 1 and the degree cap {cap}")

    if args.suite == "converse":
        if not isinstance(rep, BundleRep):
            raise UsageError("converse needs --rep bundle:<path>")
        if bindings:
            raise UsageError("--spec is not supported for converse")
        rpt = diagnose_converse(
            rep,
            d_max=args.dmax if args.dmax is not None else cap,
            k_max=args.kmax)
        if not (rpt.commutation.checked or rpt.du.checked
                or rpt.pieri.checked):
            raise UsageError(_NOTHING_CHECKED)
        _emit(args, rpt.to_json_dict(), str(rpt))
        return 0 if rpt.passed else 1

    t = _parse_index(rep, args.t) if args.t is not None else None
    r = _parse_index(rep, args.r) if args.r is not None else None
    if bindings:
        rep = specialize_rep(rep, bindings)
    if args.suite == "pieri":
        rpt = verify_pieri(rep, kmax, dmax)
    elif args.suite == "du":
        abmax = args.abmax if args.abmax is not None else 2
        rpt = verify_du(rep, abmax, dmax)
    elif args.suite == "cauchy":
        rpt = verify_cauchy(rep, args.xvars, args.yvars, dmax, t=t, r=r)
    elif args.suite == "bf":
        lmax = args.lmax if args.lmax is not None else 2
        ls = [l for l in range(-lmax, lmax + 1) if l]
        rpt = verify_bf(rep, dmax, ls)
    else:
        rpt = verify_heisenberg(rep, kmax, dmax)
    if not rpt.checked:
        raise UsageError(_NOTHING_CHECKED)

    lines = [str(rpt)]
    for inst, lhs, rhs in rpt.failures:
        lines.append(f"  {inst}")
        lines.append(f"    lhs: {lhs}")
        lines.append(f"    rhs: {rhs}")
    _emit(args, rpt.to_json_dict(), "\n".join(lines))
    return 0 if rpt.passed else 1


def _cmd_tableaux(args):
    cap = _degree_cap(args)
    rep = _parse_rep(args.rep)
    bindings = _parse_bindings(args.spec)
    shape = _parse_index(rep, args.shape)
    if args.base is not None:
        base = _parse_index(rep, args.base)
    elif rep.highest is not None:
        base = rep.highest
    else:
        raise UsageError("rep has no distinguished vector; pass --base")
    if rep.degree_of(shape) > cap:
        raise UsageError(
            f"shape degree {rep.degree_of(shape)} exceeds cap {cap}")
    try:
        weight = tuple(int(x) for x in args.weight.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"bad --weight {args.weight!r}") from None
    if any(w < 1 for w in weight):
        raise UsageError("--weight parts must be positive")

    paths = [((base,), ONE)]
    for k in weight:
        grown = []
        for path, c in paths:
            step = apply_U(rep, k, StateVec.basis(path[-1]))
            for nxt, cs in step.terms.items():
                grown.append((path + (nxt,), c * cs))
        paths = grown
    chains = sorted(
        (([_label(rep, i) for i in path], c)
         for path, c in paths if path[-1] == shape),
        key=lambda pc: pc[0])

    total = scalar_sum([c for _, c in chains])
    if bindings:
        total = total.specialize(bindings)
        chains = [(p, c.specialize(bindings)) for p, c in chains]

    payload = {
        "rep": args.rep,
        "shape": _label(rep, shape),
        "base": _label(rep, base),
        "weight": list(weight),
        "total": str(total),
        "chains": [{"path": p, "coeff": str(c)} for p, c in chains],
    }
    lines = [f"total: {total}"]
    for p, c in chains:
        step = " -> ".join(p)
        lines.append(f"  {step}" if c.is_one else f"  {step}  ({c})")
    _emit(args, payload, "\n".join(lines))
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rep", required=True,
                        help="fermionic | macdonald | llt1:<n> | "
                             "tensor:<rep>^<n> | bundle:<path>")
    common.add_argument("--spec", action="append", metavar="NAME=VALUE",
                        help="specialize a parameter variable, repeatable")
    common.add_argument("--out", choices=("text", "json"), default="text")
    common.add_argument("--degree-cap", type=int, default=None,
                        help="refuse degrees above this "
                             "(default: $FOCKBRIDGE_DEGREE_CAP or 8)")

    parser = argparse.ArgumentParser(
        prog="fockbridge",
        description="Exact symmetric-function families from graded "
                    "raising/lowering operator data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("expand", parents=[common],
                           help="print one F or G expansion")
    p_exp.add_argument("--shape", required=True)
    p_exp.add_argument("--base", default=None)
    p_exp.add_argument("--fn", choices=("F", "G"), default="F")
    p_exp.add_argument("--basis", choices=("p", "h", "m", "s"), default="p")
    p_exp.set_defaults(fn_impl=_cmd_expand)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run an identity verifier suite")
    p_ver.add_argument("suite", choices=_SUITES)
    p_ver.add_argument("--kmax", type=int, default=None)
    p_ver.add_argument("--dmax", type=int, default=None)
    p_ver.add_argument("--abmax", type=int, default=None)
    p_ver.add_argument("--xvars", type=int, default=2)
    p_ver.add_argument("--yvars", type=int, default=2)
    p_ver.add_argument("--lmax", type=int, default=None)
    p_ver.add_argument("--t", default=None, help="upper anchor for cauchy")
    p_ver.add_argument("--r", default=None, help="lower anchor for cauchy")
    p_ver.set_defaults(fn_impl=_cmd_verify)

    p_tab = sub.add_parser("tableaux", parents=[common],
                           help="list U-chains for one monomial coefficient")
    p_tab.add_argument("--shape", required=True)
    p_tab.add_argument("--base", default=None)
    p_tab.add_argument("--weight", default="",
                       help="comma separated composition, e.g. 1,1,1")
    p_tab.set_defaults(fn_impl=_cmd_tableaux)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn_impl(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BundleFormatError, BundleRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SpecializationPoleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main(sys.argv[1:]))
