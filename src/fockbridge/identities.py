"""Executable verifiers for the operator identities.

Each verifier sweeps a bounded grid of instances, compares both sides
exactly, and returns a VerifyReport; failures are data, not exceptions.
diagnose_converse runs the commutation / exchange / Pieri trio on a matrix
bundle and reports which conditions hold, after checking that the derived
G family is linearly independent degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .heisenberg import (
    BundleRep,
    StateVec,
    apply_B,
    apply_D,
    apply_U,
    bosonic_apply_B,
    compute_F,
    compute_G,
    load_bundle,
    phi_map,
)
from .partitions import partitions_of
from .scalars import ONE, accumulate
from .symfunc import (
    SymFunc,
    VarPoly,
    convert,
    evaluate_vars,
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


@dataclass
class VerifyReport:
    identity: str
    checked: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def record(self, instance, lhs, rhs, equal=None):
        self.checked.append((self.identity, instance))
        if equal is None:
            equal = lhs == rhs
        if not equal:
            self.failures.append((instance, str(lhs), str(rhs)))

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


def verify_heisenberg(rep, kl_max, d_max):
    """Commutators: [B_k, B_{-l}] = k a_k delta, same-sign pairs vanish."""
    rpt = VerifyReport("heisenberg")
    for k in range(1, kl_max + 1):
        for l in range(1, kl_max + 1):
            for d, s in _indices_up_to(rep, d_max):
                v = StateVec.basis(s)
                got = apply_B(rep, k, apply_B(rep, -l, v)) \
                    - apply_B(rep, -l, apply_B(rep, k, v))
                want = v.scaled(rep.params.value(k) * k) if k == l \
                    else StateVec.zero()
                rpt.record(f"[B_{k}, B_-{l}] at {s}", got, want)
    for k in range(1, kl_max + 1):
        for l in range(k + 1, kl_max + 1):
            for d, s in _indices_up_to(rep, d_max):
                v = StateVec.basis(s)
                up = apply_B(rep, -k, apply_B(rep, -l, v)) \
                    - apply_B(rep, -l, apply_B(rep, -k, v))
                rpt.record(f"[B_-{k}, B_-{l}] at {s}", up, StateVec.zero())
                dn = apply_B(rep, k, apply_B(rep, l, v)) \
                    - apply_B(rep, l, apply_B(rep, k, v))
                rpt.record(f"[B_{k}, B_{l}] at {s}", dn, StateVec.zero())
    return rpt


def verify_pieri(rep, k_max, d_max, window=None):
    """The four exchange identities between multiplication by h_k (or its
    adjoint) and the one-step operators U_k / D_k.

    window, when given, is a hard degree ceiling (a bundle's stored range):
    order-k instances then stop at source degree window - m*k so the
    raising leg never leaves it.
    """
    rpt = VerifyReport("pieri")
    b = rep.highest
    m = rep.degree_step
    fs, gs = {}, {}

    def f_of(s):
        if s not in fs:
            fs[s] = compute_F(rep, s, b)
        return fs[s]

    def g_of(s):
        if s not in gs:
            gs[s] = compute_G(rep, s, b)
        return gs[s]

    def combine(pairs, fn):
        # sum of c * fn(t) over (t, c), each coefficient reduced once
        return SymFunc("p", accumulate(
            (lam, x * c) for t, c in pairs if not c.is_zero
            for lam, x in fn(t).terms.items()))

    for k in range(1, k_max + 1):
        deep = d_max if window is None else min(d_max, window - m * k)
        if deep < 0:
            continue
        hk = h_multiplier(k, rep.params)
        for d, s in _indices_up_to(rep, deep):
            up = rep.basis_of_degree(d + m * k)
            down = rep.basis_of_degree(d - m * k) if d - m * k >= 0 else ()

            v = StateVec.basis(s)
            rhs = combine(apply_U(rep, k, v).terms.items(), g_of)
            rpt.record(f"k={k} s={s} raise-G", multiply(hk, g_of(s)), rhs)

            rhs = combine(((t, apply_D(rep, k, StateVec.basis(t))
                            .coefficient(s)) for t in up), f_of)
            rpt.record(f"k={k} s={s} raise-F", multiply(hk, f_of(s)), rhs)

            rhs = combine(apply_D(rep, k, v).terms.items(), g_of)
            rpt.record(f"k={k} s={s} lower-G",
                       perp_apply(sym_h(k), g_of(s)), rhs)

            rhs = combine(((t, apply_U(rep, k, StateVec.basis(t))
                            .coefficient(s)) for t in down), f_of)
            rpt.record(f"k={k} s={s} lower-F",
                       perp_apply(sym_h(k), f_of(s)), rhs)
    return rpt


def verify_du(rep, ab_max, d_max, window=None):
    """D_b U_a = sum_j h_j<a> U_{a-j} D_{b-j}, j up to min(a, b).

    window caps each instance like in verify_pieri; only the U_a leg can
    climb, so the source depth for order a is window - m*a.
    """
    rpt = VerifyReport("du")
    m = rep.degree_step
    for a in range(1, ab_max + 1):
        deep = d_max if window is None else min(d_max, window - m * a)
        if deep < 0:
            continue
        for b in range(1, ab_max + 1):
            for d, s in _indices_up_to(rep, deep):
                v = StateVec.basis(s)
                lhs = apply_D(rep, b, apply_U(rep, a, v))
                rhs = StateVec(accumulate(
                    (i, c * h_kernel(j, rep.params))
                    for j in range(min(a, b) + 1)
                    for i, c in apply_U(rep, a - j,
                                        apply_D(rep, b - j, v)).terms.items()))
                rpt.record(f"a={a} b={b} s={s}", lhs, rhs)
    return rpt


def _fg_index_degree(rep, upper, lower):
    diff = rep.degree_of(upper) - rep.degree_of(lower)
    d, r = divmod(diff, rep.degree_step)
    return d if not r and d >= 0 else None


def verify_cauchy(rep, x_count, y_count, d_max, t=None, r=None):
    """Skew kernel identity, truncated to total degree d_max in
    x_1..x_{x_count}, y_1..y_{y_count}."""
    if t is None:
        t = rep.highest
    if r is None:
        r = rep.highest
    m = rep.degree_step
    names = tuple(f"x{i + 1}" for i in range(x_count)) \
        + tuple(f"y{j + 1}" for j in range(y_count))

    def in_x(f):
        return evaluate_vars(f, x_count).embed(names, 0)

    def in_y(f):
        return evaluate_vars(f, y_count).embed(names, x_count)

    deg_t = rep.degree_of(t)
    deg_r = rep.degree_of(r)

    lhs = VarPoly.zero(names)
    for big in range(max(deg_t, deg_r) + m * d_max + 1):
        df = _fg_index_degree_from(big, deg_t, m)
        dg = _fg_index_degree_from(big, deg_r, m)
        if df is None or dg is None or df + dg > d_max:
            continue
        for s in rep.basis_of_degree(big):
            fx = in_x(compute_F(rep, s, t))
            if fx.is_zero:
                continue
            gy = in_y(compute_G(rep, s, r))
            if gy.is_zero:
                continue
            lhs = lhs + fx.mul(gy, trunc=d_max)

    kernel = VarPoly.one(names)
    coeffs = [h_kernel(i, rep.params) for i in range(d_max // 2 + 1)]
    for j in range(x_count):
        for l in range(y_count):
            factor_terms = {}
            for i, c in enumerate(coeffs):
                e = [0] * len(names)
                e[j] = i
                e[x_count + l] = i
                factor_terms[tuple(e)] = c
            kernel = kernel.mul(VarPoly(names, factor_terms), trunc=d_max)

    small_sum = VarPoly.zero(names)
    for small in range(min(deg_t, deg_r) + 1):
        for s in rep.basis_of_degree(small):
            jf = _fg_index_degree(rep, r, s)
            jg = _fg_index_degree(rep, t, s)
            if jf is None or jg is None or jf + jg > d_max:
                continue
            fx = in_x(compute_F(rep, r, s))
            if fx.is_zero:
                continue
            gy = in_y(compute_G(rep, t, s))
            if gy.is_zero:
                continue
            small_sum = small_sum + fx.mul(gy, trunc=d_max)
    rhs = kernel.mul(small_sum, trunc=d_max)

    rpt = VerifyReport("cauchy")
    if d_max >= 0:
        # below degree 0 the truncation leaves 0 = 0, which checks nothing
        rpt.record(
            f"x={x_count} y={y_count} dmax={d_max} t={t} r={r}", lhs, rhs)
    return rpt


def _fg_index_degree_from(big, low, m):
    d, rem = divmod(big - low, m)
    return d if not rem and d >= 0 else None


def verify_bf(rep, d_max, l_set):
    """phi intertwines the module action with the polynomial model."""
    rpt = VerifyReport("bf")
    for l in sorted(l_set):
        if l == 0:
            raise ValueError("B_0 is not a generator")
        for d, s in _indices_up_to(rep, d_max):
            v = StateVec.basis(s)
            lhs = phi_map(rep, apply_B(rep, l, v))
            rhs = bosonic_apply_B(phi_map(rep, v), l, rep.params)
            rpt.record(f"l={l} s={s}", lhs, rhs)
    return rpt


# ---------------------------------------------------------------------------
# converse diagnostic

@dataclass
class ConverseReport:
    precondition_ok: bool
    independence_by_degree: dict
    commutation: VerifyReport
    du: VerifyReport
    pieri: VerifyReport
    d_max: int = 0
    k_max: int = 0

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


def _rank(rows):
    """Row rank by exact Gaussian elimination; rows are lists of Scalars."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat))
                      if not mat[i][col].is_zero), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = ONE / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _commutation_report(rep, k_max, d_max):
    m = rep.degree_step
    rpt = VerifyReport("commutation")
    for a in range(1, k_max + 1):
        for b in range(a + 1, k_max + 1):
            for d in range(d_max + 1):
                if d + m * (a + b) <= d_max:
                    for s in rep.basis_of_degree(d):
                        v = StateVec.basis(s)
                        ab = apply_U(rep, a, apply_U(rep, b, v))
                        ba = apply_U(rep, b, apply_U(rep, a, v))
                        rpt.record(f"[U_{a}, U_{b}] at {s}", ab, ba)
                for s in rep.basis_of_degree(d):
                    v = StateVec.basis(s)
                    ab = apply_D(rep, a, apply_D(rep, b, v))
                    ba = apply_D(rep, b, apply_D(rep, a, v))
                    rpt.record(f"[D_{a}, D_{b}] at {s}", ab, ba)
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
                        table, rep._U, rep._D)
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
        rows = []
        for s in basis:
            g = convert(compute_G(rep, s, rep.highest), "m")
            rows.append([g.coefficient(mu) for mu in support])
        independence[d] = _rank(rows) == len(basis)
    precondition_ok = all(independence.values())

    commutation = _commutation_report(rep, k_eff, d_eff)
    du = verify_du(rep, k_eff, d_eff, window=d_eff)
    pieri = verify_pieri(rep, k_eff, d_eff, window=d_eff)
    return ConverseReport(precondition_ok, independence,
                          commutation, du, pieri, d_eff, k_eff)
