"""Command line front end.

Three subcommands:

  expand    print F or G for one basis index, expanded in p/h/m/s
  verify    run one identity suite (pieri, du, cauchy, bf, heisenberg,
            converse) and report pass/fail
  tableaux  enumerate the U-chains behind one monomial coefficient

Reps are named fermionic, macdonald, llt1:<n>, tensor:<rep>^<n>, or
bundle:<path>.  Exit status: 0 all checks passed, 1 a verified failure, a
computation error (e.g. a pole under --spec) or a closed stdout, 2 bad
usage or an unreadable bundle.
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
    _fg,
    _op_single,
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
from .partitions import parse_partition
from .reps import fermionic_rep, llt_q1_rep, macdonald_rep, tensor
from .scalars import ONE, SpecializationPoleError, parse_scalar, scalar_sum
from .symfunc import convert

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _parse_rep(text, cap):
    # a tensor power's basis in degree d is n-tuples of partitions, so the
    # number of factors, nested powers multiplied out, is bounded like a
    # degree; the powers are read from the outside in, with no recursion,
    # and make one tensor of that many factors
    text, factors = text.strip(), 1
    while text.startswith("tensor:"):
        text, sep, count = text[len("tensor:"):].rpartition("^")
        if not sep:
            raise UsageError("tensor rep must look like tensor:<rep>^<n>")
        try:
            n = int(count)
        except ValueError:
            raise UsageError(f"bad tensor power {count!r}") from None
        if n < 1:
            raise UsageError("tensor power must be at least 1")
        factors *= n
        if factors > cap:
            raise UsageError(f"a tensor power of {factors} factors "
                             f"exceeds the degree cap {cap}")
        text = text.strip()
    rep = _parse_base(text, cap)
    return tensor(*(rep,) * factors) if factors > 1 else rep


def _parse_base(text, cap):
    if text == "fermionic":
        return fermionic_rep()
    if text == "macdonald":
        return macdonald_rep()
    if text.startswith("llt1:"):
        # a step at level n moves n cells: over the cap, none is nonzero
        try:
            n = int(text[5:])
            if n > cap:
                raise UsageError(
                    f"llt1 level {n} exceeds the degree cap {cap}")
            return llt_q1_rep(n)
        except ValueError as e:
            raise UsageError(f"bad llt1 rep {text!r}: {e}") from None
    if text.startswith("bundle:"):
        path = text[len("bundle:"):]
        try:
            return load_bundle(path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read bundle {path!r}: {e}") from None
    raise UsageError(f"unknown rep {text!r}")


def _parse_bindings(pairs):
    out = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise UsageError(f"--spec expects NAME=VALUE, got {item!r}")
        name = name.strip()
        if name not in ("q", "t"):
            raise UsageError(f"unknown --spec variable {name!r}: "
                             f"expected q or t")
        try:
            out[name] = parse_scalar(value)
        except ValueError as e:
            raise UsageError(f"bad --spec value {value!r}: {e}") from None
    return out


def _parse_index(rep, text):
    # a tensor's index is written as the shapes of its factors, in order,
    # joined by ';'
    if not hasattr(rep, "factors"):
        return _parse_leaf(rep, text)
    parts = text.split(";")
    if len(parts) != len(rep.factors):
        raise UsageError(f"bad shape {text!r}: expected {len(rep.factors)} "
                         f"components joined by ';'")
    return tuple(map(_parse_leaf, rep.factors, parts))


def _parse_leaf(rep, text):
    if isinstance(rep, BundleRep):
        try:
            return rep.index_of_label(text.strip())
        except KeyError as e:
            raise UsageError(e.args[0]) from None
    try:
        return parse_partition(text)
    except ValueError as e:
        raise UsageError(f"bad shape {text!r}: {e}") from None


def _label(rep, index):
    # a tensor's index is labelled factor by factor, as its shape is written
    if hasattr(rep, "factors"):
        return "(" + ";".join(map(_leaf_label, rep.factors, index)) + ")"
    return _leaf_label(rep, index)


def _leaf_label(rep, index):
    return rep.label_of(index) if isinstance(rep, BundleRep) else str(index)


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


def _check_degree(rep, what, index, cap):
    if index is not None and rep.degree_of(index) > cap:
        raise UsageError(
            f"{what} degree {rep.degree_of(index)} exceeds cap {cap}")


def _shape_and_base(args):
    # (rep, bindings, shape, base) of expand and tableaux, both within the
    # degree cap
    cap = _degree_cap(args)
    rep = _parse_rep(args.rep, cap)
    bindings = _parse_bindings(args.spec)
    shape = _parse_index(rep, args.shape)
    if args.base is not None:
        base = _parse_index(rep, args.base)
    elif rep.highest is not None:
        base = rep.highest
    else:
        raise UsageError("rep has no distinguished vector; pass --base")
    _check_degree(rep, "shape", shape, cap)
    _check_degree(rep, "base", base, cap)
    return rep, bindings, shape, base


def _cmd_expand(args):
    rep, bindings, shape, base = _shape_and_base(args)
    f = convert(_fg(rep, args.fn, shape, base), args.basis)
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
    rep = _parse_rep(args.rep, cap)
    bindings = _parse_bindings(args.spec)
    kmax = args.kmax if args.kmax is not None else 2
    dmax = args.dmax if args.dmax is not None else (3 if args.suite == "bf" else 4)
    if dmax > cap:
        raise UsageError(f"--dmax {dmax} exceeds degree cap {cap}")
    # the suites climb by the operator orders, so an order is bounded like
    # a degree, and each suite by the degree it reaches
    for flag, n in (("--kmax", args.kmax), ("--abmax", args.abmax),
                    ("--lmax", args.lmax)):
        if n is not None and n > cap:
            raise UsageError(f"{flag} {n} exceeds degree cap {cap}")
    abmax = args.abmax if args.abmax is not None else 2
    lmax = args.lmax if args.lmax is not None else 2
    # U_k, U_a, phi of B_-l v and [B_-k, B_-l], k != l, climb by order
    # times step; cauchy, checked in Sym (x) Sym, reaches (deg t + deg r +
    # step * dmax) / 2 and is bounded by --dmax and its anchors
    step = rep.degree_step
    flag, n, reach = {
        "heisenberg": ("--kmax", kmax, dmax + (2 * kmax - 1) * step),
        "pieri": ("--kmax", kmax, dmax + kmax * step),
        "du": ("--abmax", abmax, dmax + abmax * step),
        "bf": ("--lmax", lmax, dmax + lmax * step),
    }.get(args.suite, (None, 0, 0))
    if reach > cap:
        raise UsageError(f"{args.suite} with {flag} {n} --dmax {dmax} "
                         f"reaches degree {reach}, over the degree cap {cap}")
    if args.suite == "cauchy":
        # the counts only label the instance; they keep their 1..cap range
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
    if args.suite == "cauchy":
        for flag, anchor in (("--t", t), ("--r", r)):
            _check_degree(rep, flag, anchor, cap)
    if bindings:
        rep = specialize_rep(rep, bindings)
    if args.suite == "pieri":
        rpt = verify_pieri(rep, kmax, dmax)
    elif args.suite == "du":
        rpt = verify_du(rep, abmax, dmax)
    elif args.suite == "cauchy":
        rpt = verify_cauchy(rep, args.xvars, args.yvars, dmax, t=t, r=r)
    elif args.suite == "bf":
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
    rep, bindings, shape, base = _shape_and_base(args)
    try:
        weight = tuple(int(x) for x in args.weight.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"bad --weight {args.weight!r}") from None
    if any(w < 1 for w in weight):
        raise UsageError("--weight parts must be positive")
    # every path climbs from base by each weight part: bound where it ends
    reach = rep.degree_of(base) + rep.degree_step * sum(weight)
    cap = _degree_cap(args)
    if reach > cap:
        raise UsageError(f"--weight {args.weight} from base degree "
                         f"{rep.degree_of(base)} reaches degree {reach}, "
                         f"over the degree cap {cap}")

    # the indices each step reaches from base, then, backwards, those of
    # them from which shape can still be reached: paths grow only there
    reach = [{base}]
    for k in weight:
        reach.append({nxt for i in reach[-1]
                      for nxt in _op_single(rep, "U", k, i)})
    keep = [{shape} & reach[-1]]
    for k, level in zip(reversed(weight), reversed(reach[:-1])):
        keep.append({i for i in level
                     if not keep[-1].isdisjoint(_op_single(rep, "U", k, i))})
    keep.reverse()
    paths = [((base,), ONE)] if base in keep[0] else []
    for k, level in zip(weight, keep[1:]):
        # a unit step keeps the path's coefficient as it is
        paths = [(path + (nxt,), c if cs.is_one else c * cs)
                 for path, c in paths
                 for nxt, cs in _op_single(rep, "U", k, path[-1]).items()
                 if nxt in level]
    # paths run through the kept indices only: each index is labelled once
    labels = {i: _label(rep, i) for i in {shape, base}.union(*keep)}
    chains = sorted((([labels[i] for i in path], c) for path, c in paths),
                    key=lambda pc: pc[0])

    total = scalar_sum([c for _, c in chains])
    if bindings:
        total = total.specialize(bindings)
        chains = [(p, c.specialize(bindings)) for p, c in chains]

    payload = {
        "rep": args.rep,
        "shape": labels[shape],
        "base": labels[base],
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
    # first: the bundle errors are ValueErrors.  SpecializationPoleError is
    # a ZeroDivisionError, so it is named on its own
    except (UsageError, BundleFormatError, BundleRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SpecializationPoleError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def run():
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): exit 1 with no
        # traceback, stdout pointed at devnull so that the flush at exit
        # does not fail again (as the Python signal docs advise)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
