"""Executable verifiers for the operator identities.

Each verifier sweeps a bounded grid of instances, checks each exactly, and
returns a VerifyReport; failures are data, not exceptions.  Every suite
gives the terms of lhs - rhs as entries (key, x, y, sign) and passes when
each key's sum of sign * x * y is zero (VerifyReport.record_zero).  That
sum is one integer: the numerator over L, the lcm of the dens, at
q = 2^zbits, t = 2^tbits, with widths past that numerator's height and
q-degree, where the substitution is injective; so it is 0 exactly when the
sum is, with no evaluation point deciding.  The terms are added by a
balanced tree whose nodes sit over partial lcms, so no term is multiplied
by its whole cofactor L / den.  A numerator known as a product of
registered factors (every Macdonald U, D and a_k entry is a ratio of
binomials 1 - q^a t^b) cancels against its term's den by exponents, and
what is left enters as powers of the factors' packed values, so L, the
widths and the packed integers shrink.  Only a failure builds the two
sides.  The
keys are basis indices, p (or m) indices, or, for Cauchy, pairs
(lam, mu) of p (x) p: that identity is checked in Sym (x) Sym, not in
finitely many variables.  Pieri, bf and the converse read F and G in the
basis the rep builds them in (heisenberg._fg), Cauchy in p.  Pieri's and
bf's products by h_k<a> or a_l p_l and their perps of h_k or p_l are entries
there too, read off cached integer rows (symfunc._times_entries and
_perp_entries): a passing check reduces no product, perp or basis change.
diagnose_converse runs the commutation / exchange / Pieri trio on a matrix
bundle and reports which conditions hold, after checking that the derived
G family is linearly independent degree by degree.
"""

from __future__ import annotations

import functools
import itertools

from .heisenberg import (
    BundleRep,
    StateVec,
    _block,
    _entries,
    _fg,
    _fg_degree,
    _in_p,
    _op_single,
    _phi_entries,
    _rows,
    apply_B,
    bosonic_apply_B,
    load_bundle,
    phi_map,
)
from .partitions import Partition, partitions_of
from .scalars import _vanishes, accumulate, product
from .symfunc import (
    SymFunc,
    _perp_entries,
    _times_entries,
    _reduce,
    _union,
    convert,
    kappa_eval,
    multiply,
    perp_apply,
    sym_h,
    theta_apply,
)

__all__ = [
    "VerifyReport",
    "ConverseReport",
    "h_multiplier",
    "h_kernel",
    "verify_heisenberg",
    "verify_pieri",
    "verify_du",
    "verify_cauchy",
    "verify_bf",
    "diagnose_converse",
]


def h_multiplier(k, params):
    """Image of h_k under p_j -> a_j p_j: the Pieri multiplier."""
    return theta_apply(sym_h(k), params)


def h_kernel(k, params):
    """Image of h_k under p_j -> a_j: the Cauchy kernel coefficient."""
    return kappa_eval(sym_h(k), params)


class VerifyReport:
    """The instances one suite checked, and the failures among them as
    (instance, lhs, rhs) strings."""

    def __init__(self, identity, checked=None, failures=None):
        self.identity = identity
        self.checked = [] if checked is None else checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self):
        return not self.failures

    def record_zero(self, instance, entries, sides):
        """Check lhs - rhs = 0 from its terms sign * x * y, as entries (key,
        x, y, sign), y None for a lone x.  Each key's sum is one integer,
        its numerator over the lcm of the dens packed at widths covering
        that numerator's height and degrees, where packing is injective: 0
        exactly when the sum is.  The packed terms are summed by a balanced
        tree over partial lcms of their dens.  A factor of x's or y's
        numerator known by construction cancels against the term's den
        first, and the rest enter as factor powers, not as packed term
        dicts.  sides() builds both sides."""
        self.checked.append((self.identity, instance))
        if not _vanishes(entries):
            self.failures.append((instance, *map(str, sides())))

    def to_json_dict(self):
        return {
            "identity": self.identity,
            "passed": self.passed,
            "checked": len(self.checked),
            "failures": [
                {"instance": i, "lhs": l, "rhs": r}
                for i, l, r in self.failures
            ],
        }

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return (f"{self.identity}: {tag} "
                f"({len(self.checked)} checked, {len(self.failures)} failed)")


def _indices_up_to(rep, d_max):
    for d in range(d_max + 1):
        for s in rep.basis_of_degree(d):
            yield d, s


def _lone(terms):
    # the entries of -terms
    return ((i, c, None, -1) for i, c in terms.items())


def _commutator(rep, op, a, b, s):
    # the entries of [op_a, op_b] v_s: op_a op_b v_s and -op_b op_a v_s
    return itertools.chain(
        _entries(rep, op, a, _op_single(rep, op, b, s)),
        _entries(rep, op, b, _op_single(rep, op, a, s), -1))


def _split(entries):
    # lhs and rhs from the entries of lhs - rhs: the sums of x * y over the
    # entries of sign 1 and of sign -1
    entries = list(entries)
    return tuple(StateVec(accumulate(
        (key, x if y is None else product(x, y))
        for key, x, y, sign in entries if sign == side)) for side in (1, -1))


def verify_heisenberg(rep, kl_max, d_max):
    """Commutators: [B_k, B_{-l}] = k a_k delta, same-sign pairs vanish."""
    rpt = VerifyReport("heisenberg")

    def sides(a, b, s, want):
        ab, ba = _split(_commutator(rep, "B", a, b, s))
        return ab - ba, want

    for k in range(1, kl_max + 1):
        for l in range(1, kl_max + 1):
            for d, s in _indices_up_to(rep, d_max):
                want = {s: rep.params.value(k) * k} if k == l else {}
                rpt.record_zero(
                    f"[B_{k}, B_-{l}] at {s}",
                    itertools.chain(_commutator(rep, "B", k, -l, s),
                                    _lone(want)),
                    lambda: sides(k, -l, s, StateVec(want)))
    for k in range(1, kl_max + 1):
        for l in range(k + 1, kl_max + 1):
            for d, s in _indices_up_to(rep, d_max):
                for a, b in ((-k, -l), (k, l)):
                    rpt.record_zero(
                        f"[B_{a}, B_{b}] at {s}",
                        _commutator(rep, "B", a, b, s),
                        lambda: sides(a, b, s, StateVec.zero()))
    return rpt


def verify_pieri(rep, k_max, d_max, window=None):
    """The four exchange identities between multiplication by h_k (or its
    adjoint) and the one-step operators U_k / D_k:

        h_k<a> G_s   = sum_t <U_k v_s, v_t> G_t
        h_k<a> F_s   = sum_t <D_k v_t, v_s> F_t
        h_k-perp G_s = sum_t <D_k v_s, v_t> G_t
        h_k-perp F_s = sum_t <U_k v_t, v_s> F_t

    h_k<a> = sum_nu a_nu / z_nu p_nu.  Each side is a list of entries in
    the build basis: the lhs reads p_nu m_mu (or p_nu p_mu = p_{nu + mu})
    and h_k-perp off integer rows (symfunc._pm_row, _perp_row).  A failure
    prints both sides in p, the lhs built by multiply or perp_apply.

    window, when given, is a hard degree ceiling (a bundle's stored range):
    order-k instances then stop at source degree window - m*k so the
    raising leg never leaves it.
    """
    rpt = VerifyReport("pieri")
    b = rep.highest
    m = rep.degree_step

    def column(col, fn, get=_fg):
        # the entries of sum c * X_t over the entries t: c, X = F or G (fn)
        return ((lam, x, c, 1) for t, c in col.items()
                for lam, x in get(rep, fn, t, b).terms.items())

    def check(instance, fn, col, lhs, side):
        # the column sum minus lhs, both as entries in the build basis; a
        # failure prints both sides in p, the lhs as side() builds it
        rpt.record_zero(instance, itertools.chain(lhs, column(col, fn)),
                        lambda: (side(), SymFunc("p", accumulate(
                            (lam, x * c)
                            for lam, x, c, _ in column(col, fn, _in_p)))))

    for k in range(1, k_max + 1):
        deep = d_max if window is None else min(d_max, window - m * k)
        if deep < 0:
            continue
        hk = h_multiplier(k, rep.params)
        for d in range(deep + 1):
            down_cols = _block(rep, "D", k, d)
            if not down_cols:       # no source, so no neighbour is read
                continue
            # raise-F and lower-F read <D_k t, s> and <U_k t, s> over the
            # basis t one step away: the transposes of the neighbour blocks
            ups = _rows(_block(rep, "D", k, d + m * k))
            downs = _rows(_block(rep, "U", k, d - m * k))
            up_cols = _block(rep, "U", k, d)
            for s, down in down_cols.items():
                for fn, col in (("G", up_cols[s]), ("F", ups.get(s, {}))):
                    check(f"k={k} s={s} raise-{fn}", fn, col,
                          _times_entries(hk, _fg(rep, fn, s, b)),
                          lambda: multiply(hk, _in_p(rep, fn, s, b)))
                for fn, col in (("G", down), ("F", downs.get(s, {}))):
                    check(f"k={k} s={s} lower-{fn}", fn, col,
                          _perp_entries("h", k, _fg(rep, fn, s, b)),
                          lambda: perp_apply(sym_h(k), _in_p(rep, fn, s, b)))
    return rpt


def verify_du(rep, ab_max, d_max, window=None):
    """D_b U_a = sum_j h_j<a> U_{a-j} D_{b-j}, j up to min(a, b).

    window caps each instance like in verify_pieri; only the U_a leg can
    climb, so the source depth for order a is window - m*a.
    """
    rpt = VerifyReport("du")
    m = rep.degree_step
    # each h_j<a> once per call, and only when a term needs it: a bundle's
    # missing a_k must not be read before its missing U_k is
    kernel = functools.cache(functools.partial(h_kernel, params=rep.params))

    def lhs_minus_rhs(a, b, s):
        # D_b U_a v_s, then -h_j<a> U_{a-j} D_{b-j} v_s for each j
        yield from _entries(rep, "D", b, _op_single(rep, "U", a, s))
        for j in range(min(a, b) + 1):
            yield from _entries(rep, "U", a - j, {
                i: c * kernel(j)
                for i, c in _op_single(rep, "D", b - j, s).items()}, -1)

    for a in range(1, ab_max + 1):
        deep = d_max if window is None else min(d_max, window - m * a)
        if deep < 0:
            continue
        for b in range(1, ab_max + 1):
            for d, s in _indices_up_to(rep, deep):
                rpt.record_zero(f"a={a} b={b} s={s}", lhs_minus_rhs(a, b, s),
                                lambda: _split(lhs_minus_rhs(a, b, s)))
    return rpt


def verify_cauchy(rep, x_count, y_count, d_max, t=None, r=None):
    """Skew Cauchy identity in Sym (x) Sym, to total degree d_max:

        sum_s F_{s/t}[x] G_{s/r}[y] = K sum_u F_{r/u}[x] G_{t/u}[y],
        K = sum_nu a_nu / z_nu p_nu[x] p_nu[y],  a_nu = prod_i a_{nu_i}

    (Macdonald I section 4, p_k -> a_k p_k on one side).  Both sides are
    expanded in p (x) p, where K's p_nu joins the p-index on each side, and
    lhs - rhs is zero-tested per (lam, mu) with |lam| + |mu| <= d_max, as
    one instance.  An identity in Sym (x) Sym implies its image in any
    number of variables, so x_count and y_count only label the instance.
    Bounds under which neither side has a term record nothing.  A failure
    prints each side as a sum of p[lam]|p[mu]*(c), x's index first."""
    t = rep.highest if t is None else t
    r = rep.highest if r is None else r
    m = rep.degree_step
    deg_t, deg_r = rep.degree_of(t), rep.degree_of(r)

    def tensor(f, g):
        # the terms (lam, mu, x, y) of F_f (x) G_g in p (x) p, f and g
        # (upper, lower) index pairs
        f = _in_p(rep, "F", *f).terms
        g = _in_p(rep, "G", *g).terms if f else {}
        return [(lam, mu, x, y) for lam, x in f.items() for mu, y in g.items()]

    entries = []
    for big in range(max(deg_t, deg_r) + m * d_max + 1):
        df, dg = _fg_degree(rep, big, deg_t), _fg_degree(rep, big, deg_r)
        if df is None or dg is None or df + dg > d_max:
            continue
        for s in rep.basis_of_degree(big):
            entries += (((lam, mu), x, y, 1)
                        for lam, mu, x, y in tensor((s, t), (s, r)))
    for small in range(min(deg_t, deg_r) + 1):
        jf, jg = _fg_degree(rep, deg_r, small), _fg_degree(rep, deg_t, small)
        if jf is None or jg is None or jf + jg > d_max:
            continue
        # K's coefficients a_nu / z_nu of p_nu (x) p_nu, as h_n<a> in p
        kernel = [(nu, w) for n in range((d_max - jf - jg) // 2 + 1)
                  for nu, w in h_multiplier(n, rep.params).terms.items()]
        for u in rep.basis_of_degree(small):
            entries += (((_union(lam, nu), _union(mu, nu)), x * w, y, -1)
                        for lam, mu, x, y in tensor((r, u), (t, u))
                        for nu, w in kernel)

    def sides():
        return (" + ".join(f"p{lam}|p{mu}*({c})" for (lam, mu), c in
                           sorted(v.terms.items(), reverse=True)) or "0"
                for v in _split(entries))

    rpt = VerifyReport("cauchy")
    if entries:
        rpt.record_zero(f"x={x_count} y={y_count} dmax={d_max} t={t} r={r}",
                        entries, sides)
    return rpt


def verify_bf(rep, d_max, l_set):
    """phi intertwines the module action with the polynomial model:
    phi(B_l v_s) = B_l phi(v_s), B_{-l} multiplying by a_l p_l and B_l
    acting as p_l-perp.  Both sides are entries in the build basis, the
    rhs read off the integer rows of symfunc; a failure prints them in p,
    the rhs built by bosonic_apply_B."""
    rpt = VerifyReport("bf")

    def sides(l, s):
        v = StateVec.basis(s)
        return (phi_map(rep, apply_B(rep, l, v)),
                bosonic_apply_B(phi_map(rep, v), l, rep.params))

    for l in sorted(l_set):
        if l == 0:
            raise ValueError("B_0 is not a generator")
        for d, s in _indices_up_to(rep, d_max):
            # phi(v_s) is G_{s/highest}; _phi_entries refuses a rep without
            # a highest index
            lhs = _phi_entries(rep, _op_single(rep, "B", l, s))
            g = _fg(rep, "G", s, rep.highest)
            rhs = _perp_entries("p", l, g) if l > 0 else _times_entries(
                SymFunc("p", {Partition((-l,)): rep.params.value(-l)}), g)
            rpt.record_zero(f"l={l} s={s}", itertools.chain(lhs, rhs),
                            lambda: sides(l, s))
    return rpt


# ---------------------------------------------------------------------------
# converse diagnostic

class ConverseReport:
    """The converse diagnostic: the independence precondition by degree and
    the reports of the three conditions."""

    def __init__(self, precondition_ok, independence_by_degree, commutation,
                 du, pieri, d_max=0, k_max=0):
        self.precondition_ok = precondition_ok
        self.independence_by_degree = independence_by_degree
        self.commutation = commutation
        self.du = du
        self.pieri = pieri
        self.d_max = d_max
        self.k_max = k_max

    @property
    def equivalence_observed(self):
        flags = {self.commutation.passed, self.du.passed, self.pieri.passed}
        return len(flags) == 1

    @property
    def passed(self):
        return self.precondition_ok and self.commutation.passed \
            and self.du.passed and self.pieri.passed

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "d_max": self.d_max,
            "k_max": self.k_max,
            "precondition_ok": self.precondition_ok,
            "independence_by_degree": {
                str(d): ok for d, ok in sorted(self.independence_by_degree.items())
            },
            "equivalence_observed": self.equivalence_observed,
            "conditions": {
                "commutation": self.commutation.to_json_dict(),
                "du": self.du.to_json_dict(),
                "pieri": self.pieri.to_json_dict(),
            },
        }

    def __str__(self):
        lines = [f"precondition (independent G family): "
                 f"{'ok' if self.precondition_ok else 'FAILED'}"]
        for rpt in (self.commutation, self.du, self.pieri):
            lines.append(str(rpt))
        lines.append(f"equivalence observed: {self.equivalence_observed}")
        return "\n".join(lines)


def _commutation_report(rep, k_max, d_max):
    m = rep.degree_step
    rpt = VerifyReport("commutation")

    def check(op, a, b, s):
        rpt.record_zero(f"[{op}_{a}, {op}_{b}] at {s}",
                        _commutator(rep, op, a, b, s),
                        lambda: _split(_commutator(rep, op, a, b, s)))

    for a in range(1, k_max + 1):
        for b in range(a + 1, k_max + 1):
            for d in range(d_max + 1):
                if d + m * (a + b) <= d_max:
                    for s in rep.basis_of_degree(d):
                        check("U", a, b, s)
                for s in rep.basis_of_degree(d):
                    check("D", a, b, s)
    return rpt


def diagnose_converse(bundle, params=None, d_max=None, k_max=None):
    """Check the three equivalent conditions on a candidate operator family.

    bundle may be a dict, a path, or a BundleRep.  params overrides the
    bundle's stored parameters (useful for probing a wrong-parameter
    hypothesis).  Bounds are clipped to what the bundle can support: degree
    cap d_max and operator order k_max.
    """
    rep = bundle if isinstance(bundle, BundleRep) else load_bundle(bundle)
    if params is not None:
        table = {k: params.value(k) for k in range(1, rep.kmax + 1)}
        rep = BundleRep(rep.degree_step, rep.kmax, rep.dmax, rep.labels,
                        table, rep.columns)
    m = rep.degree_step
    cap = min(rep.dmax, m * rep.kmax)
    d_eff = cap if d_max is None else min(d_max, cap)
    k_eff = rep.kmax if k_max is None else min(k_max, rep.kmax)

    independence = {}
    for d in range(d_eff + 1):
        basis = rep.basis_of_degree(d)
        if not basis:
            independence[d] = True
            continue
        q, rem = divmod(d, m)
        if rem:
            independence[d] = False
            continue
        support = partitions_of(q)
        gs = [convert(_fg(rep, "G", s, rep.highest), "m") for s in basis]
        rows = [[g.coefficient(mu) for mu in support] for g in gs]
        independence[d] = _reduce(rows, len(support)) == len(basis)
    precondition_ok = all(independence.values())

    commutation = _commutation_report(rep, k_eff, d_eff)
    du = verify_du(rep, k_eff, d_eff, window=d_eff)
    pieri = verify_pieri(rep, k_eff, d_eff, window=d_eff)
    return ConverseReport(precondition_ok, independence,
                          commutation, du, pieri, d_eff, k_eff)
