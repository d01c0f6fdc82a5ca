"""Exact arithmetic over Q(q, t).

Coefficients everywhere in this package are Scalar values: ratios of integer
polynomials in the two formal variables q and t, kept in a canonical reduced
form.  No floating point enters at any stage.
"""

from __future__ import annotations

import functools
import math
import operator

__all__ = [
    "IntPoly",
    "Scalar",
    "SpecializationPoleError",
    "parse_scalar",
    "ZERO",
    "ONE",
    "Q",
    "T",
]


class SpecializationPoleError(ZeroDivisionError):
    """A substitution made some denominator vanish."""


# ---------------------------------------------------------------------------
# dense helpers for Z[q]: a polynomial is a list of int coefficients,
# index = degree in q, no trailing zeros

def _zq_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _zq_content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def _zq_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _zq_trim(out)


def _zq_prem(a, b):
    # pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b; the full power of
    # lc(b) is applied even when the degree drops early, so the subresultant
    # divisions downstream stay exact
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - len(b) + 1
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        rl = r[-1]
        r = [lb * c for c in r]
        e -= 1
        for i, c in enumerate(b):
            r[dr - db + i] -= rl * c
        _zq_trim(r)
    if r and e > 0:
        m = lb ** e
        r = [m * c for c in r]
    return r


def _zq_pow(a, n):
    out = [1]
    while n:
        if n & 1:
            out = _zq_mul(out, a)
        a = _zq_mul(a, a)
        n >>= 1
    return out


def _zq_gcd(a, b):
    # subresultant PRS, so intermediate coefficients stay small without
    # per-step content strips
    if not a:
        g = list(b)
    elif not b:
        g = list(a)
    elif a == b:
        g = list(a)
    else:
        ca, cb = _zq_content(a), _zq_content(b)
        cg = math.gcd(ca, cb)
        pa = [x // ca for x in a]
        pb = [x // cb for x in b]
        if len(pa) < len(pb):
            pa, pb = pb, pa
        gl = h = 1
        while len(pb) > 1:
            delta = len(pa) - len(pb)
            r = _zq_prem(pa, pb)
            pa, pb = pb, r
            if not pb:
                break
            divisor = gl * h ** delta
            if divisor != 1:
                pb = _zq_divexact(pb, [divisor])
            gl = pa[-1]
            if delta == 1:
                h = gl
            elif delta > 1:
                h = gl ** delta // h ** (delta - 1)
        if pb:
            # a nonzero constant appeared in the PRS: the primitive parts
            # are coprime
            g = [cg]
        else:
            cr = _zq_content(pa)
            if cr > 1:
                pa = [x // cr for x in pa]
            g = [x * cg for x in pa]
    if g and g[-1] < 0:
        g = [-x for x in g]
    return g


def _zq_divexact(a, b):
    # exact quotient in Z[q]; raises if b does not divide a
    if not a:
        return []
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(a) < len(b):
        raise ValueError("inexact polynomial division")
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    lb = b[-1]
    while r and len(r) >= len(b):
        d = len(r) - len(b)
        cq, rem = divmod(r[-1], lb)
        if rem:
            raise ValueError("inexact polynomial division")
        q[d] = cq
        for i, c in enumerate(b):
            r[d + i] -= cq * c
        _zq_trim(r)
    if r:
        raise ValueError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# helpers for (Z[q])[t]: a list over t-degree whose entries are Z[q] lists

def _tq_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _tq_content(f):
    g = []
    for c in f:
        if c:
            g = _zq_gcd(g, c)
    return g


def _tq_div_zq(f, c):
    return [_zq_divexact(x, c) if x else [] for x in f]


def _tq_prem(f, g):
    # same full-power convention as _zq_prem, with Z[q] coefficients
    dg = len(g) - 1
    lg = g[-1]
    r = [list(x) for x in f]
    e = len(f) - len(g) + 1
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        rl = r[-1]
        r = [_zq_mul(x, lg) for x in r]
        e -= 1
        for i, gc in enumerate(g):
            idx = dr - dg + i
            prod = _zq_mul(rl, gc)
            if prod:
                cur = list(r[idx])
                n = max(len(cur), len(prod))
                cur += [0] * (n - len(cur))
                for j, y in enumerate(prod):
                    cur[j] -= y
                r[idx] = _zq_trim(cur)
        _tq_trim(r)
    if r and e > 0:
        m = _zq_pow(lg, e)
        r = [_zq_mul(x, m) for x in r]
    return r


def _heu_pack(f, zbits, tbits):
    # evaluate at q = 2^zbits, t = 2^tbits by nested Horner
    val = 0
    for row in reversed(f):
        rv = 0
        for c in reversed(row):
            rv = (rv << zbits) + c
        val = (val << tbits) + rv
    return val


def _heu_unpack(n, zbits, tbits):
    # balanced digit expansion inverts _heu_pack exactly
    base_z, half_z = 1 << zbits, 1 << (zbits - 1)
    base_t, half_t = 1 << tbits, 1 << (tbits - 1)
    mask_z, mask_t = base_z - 1, base_t - 1
    rows = []
    while n:
        d = n & mask_t
        if d >= half_t:
            d -= base_t
        n = (n - d) >> tbits
        row = []
        while d:
            c = d & mask_z
            if c >= half_z:
                c -= base_z
            d = (d - c) >> zbits
            row.append(c)
        rows.append(row)
    while rows and not rows[-1]:
        rows.pop()
    return rows


def _heu_scan(f):
    # integer content, height, and term count in one pass
    ci = 0
    h = 0
    n = 0
    for row in f:
        for c in row:
            if c:
                n += 1
                a = -c if c < 0 else c
                if a > h:
                    h = a
                if ci != 1:
                    ci = math.gcd(ci, c)
    return ci, h, n


def _tq_quo(f, g):
    # exact quotient f / g in (Z[q])[t], or None when g does not divide f:
    # the quotient of the packed integer values, whose digits are accepted
    # only after the product reproduces f exactly, so a wrong guess never
    # escapes
    if not f:
        return []
    if len(f) < len(g):
        return None
    dqf = max(len(r) for r in f) - 1
    dqg = max(len(r) for r in g) - 1
    dq_q = dqf - dqg
    dt_q = len(f) - len(g)
    if dq_q < 0:
        return None
    cf, hf, nf = _heu_scan(f)
    cg, hg, ng = _heu_scan(g)
    norm_f = hf.bit_length() + (nf.bit_length() + 1) // 2
    zbits = max(hf.bit_length(), hg.bit_length(), dq_q + dt_q + norm_f) + 4
    tbits = zbits * (dqf + 1) + 2
    a = _heu_pack(f, zbits, tbits)
    b = _heu_pack(g, zbits, tbits)
    qv, rem = divmod(a, b)
    if rem:
        return None
    q = _heu_unpack(qv, zbits, tbits)
    if len(q) != dt_q + 1 or max(len(r) for r in q) - 1 != dq_q:
        return None
    cq, hq, nq = _heu_scan(q)
    vzbits = max(hq.bit_length() + hg.bit_length() + min(nq, ng).bit_length() + 2,
                 hf.bit_length() + 1)
    vtbits = vzbits * (dqf + 1) + 2
    if _heu_pack(q, vzbits, vtbits) * _heu_pack(g, vzbits, vtbits) != \
            _heu_pack(f, vzbits, vtbits):
        return None
    return q


def _tq_gcd_heu(f, g):
    """Gcd and cofactors by a single huge evaluation point, certified exactly.

    Pack both polynomials into integers at q = 2^zbits, t = 2^tbits, gcd the
    integers, and read the balanced base digits back as a candidate divisor.
    The base is chosen past twice the height any factor can have (heights of
    factors are bounded by 2^(deg_q + deg_t) times the height, up to a small
    root-count term), so a nonzero value below base/4 certifies that the
    corresponding polynomial divisor is constant.  The candidate is accepted
    only when it divides both inputs and the integer gcd of the cofactor
    values clears the same constancy threshold; failing that the bases grow
    and we retry, and the caller falls back to a remainder sequence.
    Returns (gcd, f / gcd, g / gcd): the two exact quotients that certified
    the candidate are the cofactors.
    """
    ci, hf, nf = _heu_scan(f)
    cj, hg, ng = _heu_scan(g)
    if ci > 1:
        f = [[c // ci for c in row] for row in f]
        hf //= ci
    if cj > 1:
        g = [[c // cj for c in row] for row in g]
        hg //= cj
    c0 = math.gcd(ci, cj)
    dqf = max(len(r) for r in f) - 1
    dqg = max(len(r) for r in g) - 1
    # Mignotte style: a divisor's height is at most 2^(its q-degree plus its
    # t-degree) times the 2-norm of what it divides
    norm_f = hf.bit_length() + (nf.bit_length() + 1) // 2
    norm_g = hg.bit_length() + (ng.bit_length() + 1) // 2
    divisor_bits = min(dqf, dqg) + min(len(f), len(g)) - 1 + min(norm_f, norm_g)
    zbits = max(hf.bit_length(), hg.bit_length(), divisor_bits) + 4
    dq_cap = max(dqf, dqg) + 1
    for _ in range(3):
        tbits = zbits * dq_cap + 2
        a = _heu_pack(f, zbits, tbits)
        b = _heu_pack(g, zbits, tbits)
        gam = math.gcd(a, b)
        lim = 1 << (zbits - 2)
        if gam < lim:
            return [[c0]], _tq_scale(f, ci // c0), _tq_scale(g, cj // c0)
        cand = _heu_unpack(gam, zbits, tbits)
        cc = _heu_scan(cand)[0]
        if cc > 1:
            cand = [[c // cc for c in row] for row in cand]
        qf = _tq_quo(f, cand)
        qg = _tq_quo(g, cand) if qf is not None else None
        if qg is not None:
            cv = gam // cc
            if math.gcd(a // cv, b // cv) < lim:
                return (_tq_scale(cand, c0), _tq_scale(qf, ci // c0),
                        _tq_scale(qg, cj // c0))
        zbits += (zbits >> 1) + 8
    return None


def _tq_scale(f, n):
    return f if n == 1 else [[c * n for c in row] for row in f]


def _tq_gcd_prs(f, g):
    # subresultant remainder sequence fallback
    cf, cg = _tq_content(f), _tq_content(g)
    cc = _zq_gcd(cf, cg)
    pf = _tq_div_zq(f, cf)
    pg = _tq_div_zq(g, cg)
    if len(pf) < len(pg):
        pf, pg = pg, pf
    gl = [1]
    h = [1]
    while len(pg) > 1:
        delta = len(pf) - len(pg)
        r = _tq_prem(pf, pg)
        pf, pg = pg, r
        if not pg:
            cr = _tq_content(pf)
            if cr != [1]:
                pf = _tq_div_zq(pf, cr)
            return [_zq_mul(x, cc) for x in pf]
        divisor = _zq_mul(gl, _zq_pow(h, delta))
        if divisor != [1]:
            pg = _tq_div_zq(pg, divisor)
        gl = pf[-1]
        if delta == 1:
            h = gl
        elif delta > 1:
            h = _zq_divexact(_zq_pow(gl, delta), _zq_pow(h, delta - 1))
    # a nonzero t-constant appeared: coprime in t, only the content survives
    return [cc]


# ---------------------------------------------------------------------------

_GCD_MEMO = {}
_GCD_MEMO_LIMIT = 200000
# total degree above which neither the generic gcd nor _factor runs: both
# would handle integers of millions of bits
_DEGREE_LIMIT = 1024


class IntPoly:
    """Integer polynomial in q and t, stored as {(deg_q, deg_t): coeff}."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms:
            self.terms = {k: c for k, c in terms.items() if c}
        else:
            self.terms = {}
        self._hash = None

    @classmethod
    def const(cls, n):
        p = cls.__new__(cls)
        p.terms = {(0, 0): n} if n else {}
        p._hash = None
        return p

    @classmethod
    def monomial(cls, dq, dt, c=1):
        p = cls.__new__(cls)
        p.terms = {(dq, dt): c} if c else {}
        p._hash = None
        return p

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_one(self):
        return self.terms == {(0, 0): 1}

    @property
    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def as_int(self):
        if not self.terms:
            return 0
        if self.is_constant:
            return self.terms[(0, 0)]
        raise ValueError("not a constant polynomial")

    def __eq__(self, other):
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self.terms.items())))
            self._hash = h
        return h

    def __add__(self, other):
        return _poly_sum((self, other))

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        p = IntPoly.__new__(IntPoly)
        p.terms = out
        p._hash = None
        return p

    def __neg__(self):
        p = IntPoly.__new__(IntPoly)
        p.terms = {k: -c for k, c in self.terms.items()}
        p._hash = None
        return p

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if not a or not b:
            return _POLY_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (da, ta), ca = next(iter(a.items()))
            if ca == 1 and not (da or ta):          # a factor 1: no copy
                return self if b is self.terms else other
            p = IntPoly.__new__(IntPoly)
            p.terms = {(da + db, ta + tb): ca * cb for (db, tb), cb in b.items()}
            p._hash = None
            return p
        # packing pays for its conversions only when both factors are
        # large; a small one times a large one is cheaper term by term
        if len(a) > 10 and len(a) * len(b) > 256:
            return IntPoly._mul_packed(self, other)
        out = {}
        for (da, ta), ca in a.items():
            for (db, tb), cb in b.items():
                k = (da + db, ta + tb)
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        p = IntPoly.__new__(IntPoly)
        p.terms = out
        p._hash = None
        return p

    @staticmethod
    def _mul_packed(x, y):
        # multiply through one big integer product; every coefficient of the
        # result is a sum of at most min(#terms) products, which fixes the
        # digit width
        fa, fb = x._to_tq(), y._to_tq()
        ha = max(abs(c) for r in fa for c in r)
        hb = max(abs(c) for r in fb for c in r)
        nmin = min(len(x.terms), len(y.terms))
        zbits = ha.bit_length() + hb.bit_length() + nmin.bit_length() + 2
        dq = max(len(r) for r in fa) + max(len(r) for r in fb) - 2
        tbits = zbits * (dq + 1) + 1
        n = _heu_pack(fa, zbits, tbits) * _heu_pack(fb, zbits, tbits)
        return IntPoly._from_tq(_heu_unpack(n, zbits, tbits))

    def mul_int(self, n):
        if n == 0 or not self.terms:
            return _POLY_ZERO
        if n == 1:
            return self
        p = IntPoly.__new__(IntPoly)
        p.terms = {k: n * c for k, c in self.terms.items()}
        p._hash = None
        return p

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of IntPoly")
        result = _POLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def content(self):
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        return g

    def min_degrees(self):
        mq = min(k[0] for k in self.terms)
        mt = min(k[1] for k in self.terms)
        return mq, mt

    def lex_leading(self):
        k = max(self.terms)
        return k, self.terms[k]

    def shifted(self, dq, dt):
        if not (dq or dt):
            return self
        p = IntPoly.__new__(IntPoly)
        p.terms = {(a + dq, b + dt): c for (a, b), c in self.terms.items()}
        p._hash = None
        return p

    def _to_tq(self):
        dt_max = max(k[1] for k in self.terms)
        f = [[] for _ in range(dt_max + 1)]
        for (dq, dt), c in self.terms.items():
            row = f[dt]
            if len(row) <= dq:
                row += [0] * (dq + 1 - len(row))
                f[dt] = row
            f[dt][dq] = c
        return [_zq_trim(x) for x in f]

    @staticmethod
    def _from_tq(f):
        terms = {}
        for dt, row in enumerate(f):
            for dq, c in enumerate(row):
                if c:
                    terms[(dq, dt)] = c
        p = IntPoly.__new__(IntPoly)
        p.terms = terms
        p._hash = None
        return p

    def gcd(self, other):
        return self.cofactors(other)[0]

    def cofactors(self, other):
        """(g, self / g, other / g) for g = gcd(self, other).

        g has a positive lex-leading coefficient; gcd(0, 0) is 0, with zero
        cofactors.
        """
        if not self.terms or not other.terms or self.terms == other.terms:
            p = self if self.terms else other
            g = p._pos_leading()
            u = _POLY_ONE if g is p else IntPoly.const(-1)
            return (g, u if self.terms else _POLY_ZERO,
                    u if other.terms else _POLY_ZERO)
        if self.is_one or other.is_one:
            return _POLY_ONE, self, other
        if self.is_constant and other.is_constant:
            x, y = self.terms[(0, 0)], other.terms[(0, 0)]
            c = math.gcd(x, y)
            if c == 1:
                return _POLY_ONE, self, other
            return IntPoly.const(c), IntPoly.const(x // c), IntPoly.const(y // c)
        key = (self, other)
        g = _GCD_MEMO.get(key)
        ca = cb = None
        if g is None:
            aq, at = self.min_degrees()
            bq, bt = other.min_degrees()
            mq, mt = min(aq, bq), min(at, bt)
            a, b = self.shifted(-aq, -at), other.shifted(-bq, -bt)
            if not (a.is_constant or b.is_constant):
                if max(i + j for p in (a, b) for i, j in p.terms) > \
                        _DEGREE_LIMIT:
                    raise ValueError(f"gcd of polynomials over total degree "
                                     f"{_DEGREE_LIMIT} is not supported")
                f, h = a._to_tq(), b._to_tq()
                res = _tq_gcd_heu(f, h) if len(f) > 1 and len(h) > 1 else None
                gt = _tq_gcd_prs(f, h) if res is None else res[0]
                if len(gt) > 1 or len(gt[0]) > 1:
                    g = IntPoly._from_tq(gt)
                    if res is None:
                        ca, cb = a.divexact(g), b.divexact(g)
                    else:
                        ca, cb = (IntPoly._from_tq(res[1]),
                                  IntPoly._from_tq(res[2]))
                    if g.lex_leading()[1] < 0:
                        g, ca, cb = -g, -ca, -cb
                    g = g.shifted(mq, mt)
                    ca = ca.shifted(aq - mq, at - mt)
                    cb = cb.shifted(bq - mq, bt - mt)
            if g is None:
                g = IntPoly.monomial(mq, mt, math.gcd(a.content(), b.content()))
            if len(_GCD_MEMO) < _GCD_MEMO_LIMIT:
                _GCD_MEMO[key] = g
        if ca is None:
            # a memo hit or a monomial gcd: divide by it
            if g.is_one:
                return g, self, other
            ca, cb = self.divexact(g), other.divexact(g)
        return g, ca, cb

    def _pos_leading(self):
        if self.terms and self.lex_leading()[1] < 0:
            return -self
        return self

    def divexact(self, other):
        """Exact quotient; raises ValueError when not divisible."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return _POLY_ZERO
        if other.is_one:
            return self
        if len(other.terms) == 1:
            (gq, gt), gc = other.lex_leading()
            out = {}
            for (aq, at), ac in self.terms.items():
                dq, dt = aq - gq, at - gt
                if dq < 0 or dt < 0:
                    raise ValueError("inexact polynomial division")
                cq, r = divmod(ac, gc)
                if r:
                    raise ValueError("inexact polynomial division")
                out[(dq, dt)] = cq
            p = IntPoly.__new__(IntPoly)
            p.terms = out
            p._hash = None
            return p
        q = _tq_quo(self._to_tq(), other._to_tq())
        if q is None:
            raise ValueError("inexact polynomial division")
        return IntPoly._from_tq(q)

    def __str__(self):
        return _poly_str(self)

    def __repr__(self):
        return f"IntPoly({_poly_str(self)})"


_POLY_ZERO = IntPoly.const(0)
_POLY_ONE = IntPoly.const(1)


def _poly_str(p):
    if not p.terms:
        return "0"
    pieces = []
    for (dq, dt) in sorted(p.terms, reverse=True):
        c = p.terms[(dq, dt)]
        mono = []
        if dq:
            mono.append("q" if dq == 1 else f"q^{dq}")
        if dt:
            mono.append("t" if dt == 1 else f"t^{dt}")
        a = abs(c)
        if not mono:
            body = str(a)
        elif a == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(a)] + mono)
        pieces.append((c < 0, body))
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


# ---------------------------------------------------------------------------
# factored denominators.  The Macdonald operators divide only by q, t and
# binomials 1 - q^a t^b, so their denominators are an integer times a product
# of irreducibles q, t and Phi_d(q^a t^b) with gcd(a, b) = 1 (Macdonald, ch.
# VI §6).  A Scalar whose den factors so carries fac = (c, ((fid, e), ...)),
# den = c * prod _FACTORS[fid]^e; its add and mul need only exponent minima
# and trial division, and the generic gcd runs when an operand's fac is None.

def _probe(p, _pows=([1], [1])):
    # p at q = 1000003, t = 1000033, where no factor vanishes (|q^a t^b| >
    # 1): f | p in Z[q, t] implies _probe(f) | _probe(p) in Z.  The power
    # tables stop at 256: to degree D they would hold about 10 D^2 bits.
    xs, ys = _pows
    for i, j in p.terms:
        if i > 256 or j > 256:
            return sum(c * 1000003 ** i * 1000033 ** j
                       for (i, j), c in p.terms.items())
        while i >= len(xs):
            xs.append(xs[-1] * 1000003)
        while j >= len(ys):
            ys.append(ys[-1] * 1000033)
    return sum(c * xs[i] * ys[j] for (i, j), c in p.terms.items())


_FACTORS = [IntPoly.monomial(1, 0), IntPoly.monomial(0, 1)]  # fid 0 q, 1 t
_FACTOR_IDS = {f: i for i, f in enumerate(_FACTORS)}
_FACTOR_VALS = [_probe(f) for f in _FACTORS]
_FACTOR_DEGS = [1, 1]                       # total degrees
_EXPANSIONS = {}                  # fac -> den
_UNIT = (1, ())


@functools.cache
def _cyclotomic(d):
    # Phi_d as a dense coefficient list
    f = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            f = _zq_divexact(f, _cyclotomic(e))
    return f


def _fac(c, *parts):
    # (c, exponent list) from (sign, exponent list) parts
    exps = {}
    for sign, fl in parts:
        for f, e in fl:
            exps[f] = exps.get(f, 0) + sign * e
    return (c, tuple(sorted((f, e) for f, e in exps.items() if e)))


def _divide(n, v, fid, most):
    # divide n, with v = _probe(n), by factor fid as often as it goes, up to
    # most times: (quotient, its probe, count).  How often f's value divides
    # v bounds the count, so that power is tried first, in one division.
    f, fv, k, w = _FACTORS[fid], _FACTOR_VALS[fid], 0, v
    while k < most and w % fv == 0:
        w, k = w // fv, k + 1
    while k:
        try:
            return n.divexact(f if k == 1 else f ** k), v // fv ** k, k
        except ValueError:
            k -= 1
    return n, v, 0


def _register(d, a, b):
    # fid of Phi_d(q^a t^b), registering it on first sight
    f = IntPoly({(a * i, b * i): x for i, x in enumerate(_cyclotomic(d))})
    fid = _FACTOR_IDS.setdefault(f, len(_FACTORS))
    if fid == len(_FACTORS):
        _FACTORS.append(f)
        _FACTOR_VALS.append(_probe(f))
        _FACTOR_DEGS.append((len(_cyclotomic(d)) - 1) * (a + b))
    return fid


def _split_binomial(r, exps):
    # r = x^g - 1 or x^g + 1 with x = q^a t^b: count its Phi_d(x) in exps
    if len(r.terms) != 2 or r.terms.get((0, 0)) not in (1, -1):
        return False
    (gq, gt), lead = r.lex_leading()
    g = math.gcd(gq, gt)
    if lead != 1 or g > 64:     # a larger g takes the generic path
        return False
    for d in range(1, 2 * g + 1):
        if (2 * g) % d == 0 and (g % d != 0) == (r.terms[(0, 0)] == 1):
            fid = _register(d, gq // g, gt // g)
            exps[fid] = exps.get(fid, 0) + 1
    return True


def _register_edges(r):
    # a factor Phi_d(x), x = q^a t^b, of r adds a segment of length phi(d)
    # in direction (a, b) to r's Newton polygon, so every edge direction
    # with a, b >= 0 is a candidate x and the edge's length bounds phi(d).
    # Like _split_binomial, this stops at x^g -+ 1 for g <= 64: an edge
    # longer than 64 registers nothing, and d runs over the divisors of
    # such binomials.  Registers each such Phi_d(x).
    pts = sorted(r.terms)

    def chain(seq):      # one half of the convex hull, monotone chain
        h = []
        for x, y in seq:
            while len(h) > 1 and (h[-1][0] - h[-2][0]) * (y - h[-2][1]) <= \
                    (h[-1][1] - h[-2][1]) * (x - h[-2][0]):
                h.pop()
            h.append((x, y))
        return h[:-1]
    hull = chain(pts) + chain(reversed(pts))
    for (i0, j0), (i1, j1) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(i1 - i0, j1 - j0)
        a, b = (i1 - i0) // g, (j1 - j0) // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        if b >= 0 and g <= 64:
            for d in range(1, 129):
                if (d <= 64 or d % 2 == 0) and len(_cyclotomic(d)) - 1 <= g:
                    _register(d, a, b)


def _factor(p):
    """fac of p (positive lex-leading coefficient), or None when what the
    registered factors, and those its Newton polygon's edges allow, leave
    of p is neither 1 nor a binomial x^g -+ 1."""
    c = p.content()
    if p.is_constant:
        return (c, ())
    mq, mt = p.min_degrees()
    exps = {0: mq, 1: mt}
    r = IntPoly({(i - mq, j - mt): x // c for (i, j), x in p.terms.items()})
    ks = r.terms
    sums, diffs = [i + j for i, j in ks], [i - j for i, j in ks]
    most, dq, dt = max(sums), max(i for i, _ in ks), max(j for _, j in ks)
    # a product of binomials has a Newton polygon that is a sum of segments,
    # so centrally symmetric; that of 1 + q + t, a triangle, is not.  Over
    # _DEGREE_LIMIT probing costs too much.  Both take the generic path.
    if most > _DEGREE_LIMIT or most + min(sums) != dq + dt or \
            max(diffs) + min(diffs) != dq - dt:
        return None
    if not _split_binomial(r, exps):
        v, start = _probe(r), 2
        while True:
            end = len(_FACTORS)
            for fid in range(start, end):
                r, v, exps[fid] = _divide(r, v, fid, most)
            if r.is_constant or _split_binomial(r, exps):
                break
            # a leftover that is no binomial: its factors may not be
            # registered yet; try those its Newton polygon allows
            _register_edges(r)
            if len(_FACTORS) == end:
                return None
            start = end
    return _fac(c, (1, exps.items()))


def _expand(fac, parts=()):
    # den of fac: from the memo, else as the product of the dens of the two
    # facs in parts, which the caller knows, else from the factors
    p = _EXPANSIONS.get(fac)
    if p is None:
        p = _expand(parts[0]) * _expand(parts[1]) if parts else math.prod(
            (_FACTORS[f] ** e for f, e in fac[1]), start=IntPoly.const(fac[0]))
        if len(_EXPANSIONS) < _GCD_MEMO_LIMIT:
            _EXPANSIONS[fac] = p
    return p


def _cancel(n, c, fl):
    """Divide nonzero n and c * prod f^e by their gcd: (n', c', fl')."""
    g = math.gcd(c, n.content()) if c != 1 else 1
    if g != 1:
        c, n = c // g, IntPoly({k: x // g for k, x in n.terms.items()})
    if not fl or n.is_constant:
        return n, c, fl
    out, v = [], _probe(n)
    for fid, e in fl:
        n, v, k = _divide(n, v, fid, e)
        if k < e:
            out.append((fid, e - k))
    return n, c, tuple(out)


def _poly_sum(ps):
    # the sum of a nonempty list of IntPolys, in one dict
    acc = dict(ps[0].terms)
    for p in ps[1:]:
        for k, c in p.terms.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
    p = IntPoly.__new__(IntPoly)
    p.terms = acc
    p._hash = None
    return p


def _fac_sum(xs):
    # sum a_i / d_i over L = lcm d_i: the integer lcm and each factor's top
    # exponent.  A factor whose top exponent one addend alone reaches cannot
    # divide the numerator: it divides every other term's L / d_i but
    # neither a_i nor L / d_i of that addend.  So only factors whose top two
    # or more addends share are trial-divided (Henrici, for two addends).
    # Addends over one den are added first; their sum counts once per
    # addend, since it need not be coprime to the den.  Returns None, for
    # pairwise +, when more than two dens have an lcm of at least 1.5 times
    # the degree of the widest: such sums cancel heavily, pairwise
    # reduction keeps the partial sums small, and on the Macdonald
    # operators it was the faster of the two from that width on.
    nums, count = {}, {}
    for x in xs:
        p = nums.get(x.fac)
        nums[x.fac] = x.num if p is None else p + x.num
        count[x.fac] = count.get(x.fac, 0) + 1
    lc, top, seen, widest, wide = 1, {}, {}, 0, _UNIT
    for fac, p in nums.items():
        if not p.terms:
            continue
        c, fl = fac
        lc = lc // math.gcd(lc, c) * c
        width = sum(_FACTOR_DEGS[f] * e for f, e in fl)
        if width > widest:
            widest, wide = width, fac
        for f, e in fl:
            m = top.get(f, 0)
            if e > m:
                top[f], seen[f] = e, count[fac]
            elif e == m:
                seen[f] += count[fac]
    tops = sorted(top.items())
    if len(nums) > 2 and \
            2 * sum(_FACTOR_DEGS[f] * m for f, m in tops) >= 3 * widest > 0:
        return None
    parts = []
    for (c, fl), p in nums.items():
        if p.terms:
            own = dict(fl)
            cof = (lc // c, tuple((f, m - own.get(f, 0)) for f, m in tops
                                  if m != own.get(f, 0)))
            parts.append(p * _expand(cof))
    num = _poly_sum(parts) if parts else _POLY_ZERO
    if num.is_zero:
        return ZERO
    num, c, rest = _cancel(num, lc, tuple((f, m) for f, m in tops
                                          if seen[f] > 1))
    fac = _fac(c, (1, ((f, m) for f, m in tops if seen[f] == 1)), (1, rest))
    # the den as the widest addend's den times the rest, when it divides
    part = _fac(c // wide[0], (1, fac[1]), (-1, wide[1]))
    if c % wide[0] or any(e < 0 for _, e in part[1]):
        return Scalar._raw(num, _expand(fac), fac)
    return Scalar._raw(num, _expand(fac, (wide, part)), fac)


def scalar_sum(xs):
    """The sum of the Scalars xs, reduced once: integers add as integers,
    factored values through one common denominator (_fac_sum); a value
    with a denominator outside the alphabet, or dens whose lcm is much
    wider than each of them, by pairwise +."""
    xs = [x for x in xs if x.num.terms]
    if len(xs) < 2:
        return xs[0] if xs else ZERO
    if all(x.den.is_one for x in xs):
        return Scalar._raw(_poly_sum([x.num for x in xs]), _POLY_ONE, _UNIT)
    total = None if any(x.fac is None for x in xs) else _fac_sum(xs)
    return functools.reduce(operator.add, xs) if total is None else total


def accumulate(pairs):
    """{key: the sum of its values} over (key, Scalar) pairs, zero sums
    dropped; each key's values are summed once, by scalar_sum."""
    groups = {}
    for k, x in pairs:
        g = groups.get(k)
        if g is None:
            groups[k] = [x]
        else:
            g.append(x)
    out = {}
    for k, g in groups.items():
        x = g[0] if len(g) == 1 else scalar_sum(g)
        if x.num.terms:
            out[k] = x
    return out


class Scalar:
    """Element of Q(q, t) in canonical form.

    Invariants: gcd(num, den) = 1, den is never zero, zero is 0/1, and the
    lexicographic leading coefficient of den (by (deg_q, deg_t)) is positive.
    """

    __slots__ = ("num", "den", "fac")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("scalar with zero denominator")
        self.num, self.den, self.fac = _reduce(num, den)

    @classmethod
    def _raw(cls, num, den, fac):
        # trusted constructor: (num, den) already canonical, fac its den's
        s = cls.__new__(cls)
        s.num = num
        s.den = den
        s.fac = fac
        return s

    @classmethod
    def from_int(cls, n):
        return cls._raw(IntPoly.const(n), _POLY_ONE, _UNIT)

    @classmethod
    def fraction(cls, a, b):
        return cls(IntPoly.const(a), IntPoly.const(b))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_one(self):
        return self.num.is_one and self.den.is_one

    @property
    def is_integer(self):
        return self.den.is_one and self.num.is_constant

    def as_int(self):
        if not self.den.is_one:
            raise ValueError("not an integer scalar")
        return self.num.as_int()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def __add__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_one and d.is_one:
            return Scalar._raw(a + c, _POLY_ONE, _UNIT)
        if self.fac is not None and other.fac is not None:
            return _fac_sum((self, other))
        g0, b1, d1 = b.cofactors(d)
        num = a * d1 + c * b1
        if g0.is_one:
            return _signfix(num, b1 * d1)
        _, num, g0 = num.cofactors(g0)
        return _signfix(num, g0 * b1 * d1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw(-self.num, self.den, self.fac)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero or c.is_zero:
            return ZERO
        if b.is_one and d.is_one:
            return Scalar._raw(a * c, _POLY_ONE, _UNIT)
        if self.fac is not None and other.fac is not None:
            a, cd, fd = _cancel(a, *other.fac)
            c, cb, fb = _cancel(c, *self.fac)
            fac = _fac(cb * cd, (1, fb), (1, fd))
            return Scalar._raw(a * c, _expand(fac, ((cb, fb), (cd, fd))), fac)
        _, a, d = a.cofactors(d)
        _, c, b = c.cofactors(b)
        return _signfix(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        num, den = _signfix_pair(other.den, other.num)
        fac = self.fac and _factor(den)     # None: generic path anyway
        return self.__mul__(Scalar._raw(num, den, fac))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        return other.__truediv__(self)

    def __pow__(self, n):
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        return ONE / self

    def specialize(self, bindings):
        """Substitute Scalars for q and/or t.

        bindings maps variable names ("q", "t") to Scalar values.  Raises
        SpecializationPoleError when the denominator vanishes.
        """
        for name in bindings:
            if name not in ("q", "t"):
                raise ValueError(f"unknown variable in specialization: {name}")
        if not bindings:
            return self
        num = _poly_specialize(self.num, bindings)
        den = _poly_specialize(self.den, bindings)
        if den.is_zero:
            desc = ", ".join(f"{k}={v}" for k, v in sorted(bindings.items()))
            raise SpecializationPoleError(
                f"denominator vanishes under specialization {desc}")
        return num / den

    def __str__(self):
        if self.den.is_one:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"Scalar({self})"


def _reduce(num, den):
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE, _UNIT
    num, den = _signfix_pair(*num.cofactors(den)[1:])
    return num, den, _factor(den)


def _signfix_pair(num, den):
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE
    if den.lex_leading()[1] < 0:
        return -num, -den
    return num, den


def _signfix(num, den):
    num, den = _signfix_pair(num, den)
    return Scalar._raw(num, den, _factor(den))


def _poly_specialize(p, bindings):
    """Evaluate an IntPoly with q and/or t bound to Scalars; returns a Scalar."""
    qpow, tpow = [ONE], [ONE]
    for dq, dt in p.terms:
        while len(qpow) <= dq:
            qpow.append(qpow[-1] * bindings.get("q", Q))
        while len(tpow) <= dt:
            tpow.append(tpow[-1] * bindings.get("t", T))
    return scalar_sum([qpow[dq] * tpow[dt] * c
                       for (dq, dt), c in p.terms.items()])


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
Q = Scalar._raw(IntPoly.monomial(1, 0), _POLY_ONE, _UNIT)
T = Scalar._raw(IntPoly.monomial(0, 1), _POLY_ONE, _UNIT)


# ---------------------------------------------------------------------------
# parsing: integers, q, t, ^, *, /, +, -, parentheses

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "qt":
            tokens.append(("var", ch))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in scalar expression")
    return tokens


# what a ^ may build: (q-degree + 1)(t-degree + 1)(coefficient bits + 1)
_POWER_LIMIT = 1 << 20


def _power_size(p, n):
    # over-estimates p^n: n times p's degrees, coefficients <= (sum |c|)^n
    dq = dt = csum = 0
    for (i, j), c in p.terms.items():     # one pass: this runs on every ^
        dq, dt, csum = i if i > dq else dq, j if j > dt else dt, csum + abs(c)
    return (n * dq + 1) * (n * dt + 1) * (n * (csum - 1).bit_length() + 1)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_expr(self):
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self):
        kind = self.peek()
        if kind in ("+", "-"):
            op = self.take()[0]
            value = self.parse_factor()
            return value if op == "+" else -value
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "int":
                raise ValueError("exponent must be an integer")
            n = self.take()[1]
            if max(_power_size(base.num, n), _power_size(base.den, n)) > \
                    _POWER_LIMIT:
                raise ValueError(f"power ^{n} is too large to build")
            return base ** n
        return base

    def parse_atom(self):
        if self.peek() is None:
            raise ValueError("unexpected end of scalar expression")
        kind, val = self.take()
        if kind == "int":
            return Scalar.from_int(val)
        if kind == "var":
            return Q if val == "q" else T
        if kind == "(":
            value = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("missing closing parenthesis")
            self.take()
            return value
        raise ValueError(f"unexpected token {val!r} in scalar expression")


def parse_scalar(text):
    """Parse the textual scalar grammar into a canonical Scalar."""
    parser = _Parser(_tokenize(text))
    try:
        value = parser.parse_expr()
    except ZeroDivisionError:
        raise ValueError("division by zero in scalar expression") from None
    if parser.pos != len(parser.tokens):
        raise ValueError("trailing input in scalar expression")
    return value
