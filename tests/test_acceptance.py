"""Acceptance gate: the ten contract-level checks at their full bounds.

Each test records a single pass/fail line (printed after the run by the
conftest hook) and then asserts.  Bounds here are the shipped guarantees;
the per-module suites cover the same machinery at smaller sizes with more
granular diagnostics.
"""

import functools
import time

import pytest
from conftest import record_acceptance

from fockbridge import (
    EMPTY,
    HeisenbergParams,
    Partition,
    StateVec,
    compute_F,
    compute_G,
    convert,
    core_quotient,
    diagnose_converse,
    direct_sum,
    fermionic_rep,
    h_kernel,
    llt_q1_rep,
    macdonald_p_oracle,
    macdonald_rep,
    multiply,
    partitions_of,
    phi_map,
    rep_to_bundle,
    schur_tableaux,
    sym_s,
    tensor,
    verify_cauchy,
    verify_du,
    verify_heisenberg,
    verify_pieri,
)
from fockbridge.partitions import dominates
from fockbridge.scalars import ONE, Q, Scalar

P = Partition

# the ten criteria take most of the suite's time; -m "not acceptance" skips
# them for a quick run
pytestmark = pytest.mark.acceptance


def criterion(num, desc):
    """Record one verdict line per criterion, even when the body raises."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            err = None
            try:
                fn()
            except BaseException as e:
                err = e
            status = "PASS" if err is None else "FAIL"
            record_acceptance(f"criterion {num:2d} {status}  {desc}")
            if err is not None:
                raise err
        return wrapper
    return deco


@criterion(1, "phi(v_lam) = s_lam in the m basis for all |lam| <= 6, under 10s")
def test_criterion_01():
    rep = fermionic_rep()
    start = time.perf_counter()
    for d in range(7):
        for lam in partitions_of(d):
            got = convert(phi_map(rep, StateVec.basis(lam)), "m")
            assert got.terms == schur_tableaux(lam).terms, lam
    assert time.perf_counter() - start < 10.0


@criterion(2, "Heisenberg relations, k,l <= 4: fermionic deg <= 6, Macdonald deg <= 5")
def test_criterion_02():
    rpt = verify_heisenberg(fermionic_rep(), 4, 6)
    assert rpt.passed and not rpt.failures, str(rpt)
    rpt = verify_heisenberg(macdonald_rep(), 4, 5)
    assert rpt.passed and not rpt.failures, str(rpt)


@criterion(3, "four Pieri identities: fermionic k <= 3 deg <= 5, Macdonald k <= 2 deg <= 4")
def test_criterion_03():
    assert verify_pieri(fermionic_rep(), 3, 5).passed
    assert verify_pieri(macdonald_rep(), 2, 4).passed


@criterion(4, "D_b U_a exchange law, a,b <= 3, deg <= 5, both reps")
def test_criterion_04():
    assert verify_du(fermionic_rep(), 3, 5).passed
    assert verify_du(macdonald_rep(), 3, 5).passed


@criterion(5, "Cauchy kernel identity: fermionic 3+3 vars deg 4, Macdonald 2+2 deg 3, plus skew")
def test_criterion_05():
    one = P((1,))
    assert verify_cauchy(fermionic_rep(), 3, 3, 4).passed
    assert verify_cauchy(fermionic_rep(), 3, 3, 4, t=one, r=EMPTY).passed
    assert verify_cauchy(macdonald_rep(), 2, 2, 3).passed
    assert verify_cauchy(macdonald_rep(), 2, 2, 3, t=one, r=EMPTY).passed


@criterion(6, "Macdonald G_lam: Gram-Schmidt oracle |lam| <= 4; q->t Schur; q->0 unitriangular")
def test_criterion_06():
    from fockbridge.scalars import T, ZERO

    rep = macdonald_rep()
    at_t = {"q": T}
    at_0 = {"q": ZERO}
    for d in range(5):
        oracle = macdonald_p_oracle(d)
        for lam in partitions_of(d):
            g = compute_G(rep, lam, EMPTY)
            assert g == oracle[lam], lam

            assert g.map_coefficients(lambda c: c.specialize(at_t)) \
                == sym_s(lam), lam

            hl = convert(g.map_coefficients(lambda c: c.specialize(at_0)), "m")
            assert hl.coefficient(lam) == ONE, lam
            for mu, c in hl.terms.items():
                assert dominates(lam, mu), (lam, mu)


@criterion(7, "tensor F factorizes, direct-sum F vanishes across summands, deg <= 4")
def test_criterion_07():
    f = fermionic_rep()
    trep = tensor(f, f)
    drep = direct_sum(f, f)
    pairs = [(lam, mu)
             for dl in range(5) for lam in partitions_of(dl)
             for dm in range(5 - dl) for mu in partitions_of(dm)]

    for lam, mu in pairs:
        got = compute_F(trep, (lam, mu), (EMPTY, EMPTY))
        want = multiply(compute_F(f, lam, EMPTY), compute_F(f, mu, EMPTY))
        assert got == want, (lam, mu)
    # a skew pair: factors restrict componentwise
    got = compute_F(trep, (P((2, 1)), P((2,))), (P((1,)), EMPTY))
    want = multiply(compute_F(f, P((2, 1)), P((1,))),
                    compute_F(f, P((2,)), EMPTY))
    assert got == want

    for lam, mu in pairs:
        assert compute_F(drep, (0, lam), (1, mu)).is_zero, (lam, mu)
        assert compute_F(drep, (1, lam), (0, mu)).is_zero, (lam, mu)
        assert compute_F(drep, (0, lam), (0, mu)) == compute_F(f, lam, mu)
        assert compute_F(drep, (1, lam), (1, mu)) == compute_F(f, lam, mu)


@criterion(8, "LLT q=1, n=2: F_lam = s_q0 * s_q1 for |lam| <= 8; size identity n in {2,3}, |lam| <= 10")
def test_criterion_08():
    rep = llt_q1_rep(2)
    seen = 0
    for d in range(9):
        for lam in partitions_of(d):
            core, quot = core_quotient(lam, 2)
            if core.size:
                continue
            seen += 1
            got = compute_F(rep, lam, EMPTY)
            assert got == multiply(sym_s(quot[0]), sym_s(quot[1])), lam
    assert seen > 1  # the empty-core block is not vacuous

    for n in (2, 3):
        for d in range(11):
            for lam in partitions_of(d):
                core, quot = core_quotient(lam, n)
                assert lam.size == core.size + n * sum(q.size for q in quot)


@criterion(9, "ribbon parameters: h_k<a> is a polynomial in q with nonnegative coefficients")
def test_criterion_09():
    for n in (2, 3):
        params = HeisenbergParams(
            lambda k, n=n: (ONE - Q ** (2 * n * k)) / (ONE - Q ** (2 * k)))
        for k in range(1, 5):
            v = h_kernel(k, params)
            assert v.den.is_one, (n, k)
            for (dq, dt), c in v.num.terms.items():
                assert dt == 0, (n, k)
                assert c > 0, (n, k, dq, c)
    params2 = HeisenbergParams(
        lambda k: (ONE - Q ** (4 * k)) / (ONE - Q ** (2 * k)))
    assert h_kernel(2, params2) == ONE + Q ** 2 + Q ** 4


@criterion(10, "converse diagnostic: genuine bundle passes; three corruptions detected")
def test_criterion_10():
    def bundle():
        return rep_to_bundle(fermionic_rep(), 4, 4)

    rpt = diagnose_converse(bundle())
    assert rpt.precondition_ok
    assert rpt.commutation.passed and rpt.du.passed and rpt.pieri.passed
    assert rpt.passed

    # one raising-matrix entry nudged: every condition notices
    b = bundle()
    b["U"]["2"]["1"][2][0] = "1"
    rpt = diagnose_converse(b, k_max=2)
    assert not rpt.commutation.passed
    assert not rpt.du.passed
    assert not rpt.pieri.passed
    assert not rpt.passed

    # wrong a_k: commutation is parameter-blind, the other two are not
    b = bundle()
    b["params"] = {k: "2" for k in b["params"]}
    rpt = diagnose_converse(b, k_max=2)
    assert rpt.commutation.passed
    assert not rpt.du.passed
    assert not rpt.pieri.passed
    assert not rpt.passed

    # flipped lowering entry: caught by the commutation condition
    b = bundle()
    b["D"]["1"]["2"][0][1] = "-1"
    rpt = diagnose_converse(b)
    assert not rpt.commutation.passed
    assert not rpt.passed
