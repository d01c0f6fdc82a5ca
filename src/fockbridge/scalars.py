"""Exact arithmetic over Q(q, t).

Coefficients everywhere in this package are Scalar values: ratios of integer
polynomials in the two formal variables q and t, kept in a canonical reduced
form.  No floating point enters at any stage.
"""

from __future__ import annotations

import math

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


def _zq_div_int(a, n):
    out = []
    for x in a:
        v, rem = divmod(x, n)
        if rem:
            raise ValueError("inexact polynomial division")
        out.append(v)
    return out


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
                pb = _zq_div_int(pb, divisor)
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


def _int_content(f):
    ci = 0
    for row in f:
        for c in row:
            ci = math.gcd(ci, c)
            if ci == 1:
                return 1
    return ci


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
        cc = _int_content(cand)
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
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        p = IntPoly.__new__(IntPoly)
        p.terms = out
        p._hash = None
        return p

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
            p = IntPoly.__new__(IntPoly)
            p.terms = {(da + db, ta + tb): ca * cb for (db, tb), cb in b.items()}
            p._hash = None
            return p
        if len(a) * len(b) > 256:
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


class Scalar:
    """Element of Q(q, t) in canonical form.

    Invariants: gcd(num, den) = 1, den is never zero, zero is 0/1, and the
    lexicographic leading coefficient of den (by (deg_q, deg_t)) is positive.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("scalar with zero denominator")
        self.num, self.den = _reduce(num, den)

    @classmethod
    def _raw(cls, num, den):
        # trusted constructor: (num, den) already canonical
        s = cls.__new__(cls)
        s.num = num
        s.den = den
        return s

    @classmethod
    def from_int(cls, n):
        return cls._raw(IntPoly.const(n), _POLY_ONE)

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
            return _signfix(a + c, _POLY_ONE)
        g0, b1, d1 = b.cofactors(d)
        num = a * d1 + c * b1
        if g0.is_one:
            return _signfix(num, b1 * d1)
        _, num, g0 = num.cofactors(g0)
        return _signfix(num, g0 * b1 * d1)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw(-self.num, self.den)

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
            return Scalar._raw(a * c, _POLY_ONE)
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
        return self.__mul__(Scalar._raw(*_signfix_pair(other.den, other.num)))

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
        return _POLY_ZERO, _POLY_ONE
    _, num, den = num.cofactors(den)
    return _signfix_pair(num, den)


def _signfix_pair(num, den):
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE
    if den.lex_leading()[1] < 0:
        return -num, -den
    return num, den


def _signfix(num, den):
    return Scalar._raw(*_signfix_pair(num, den))


def _poly_specialize(p, bindings):
    """Evaluate an IntPoly with q and/or t bound to Scalars; returns a Scalar."""
    qv = bindings.get("q")
    tv = bindings.get("t")
    qpow = {0: ONE}
    tpow = {0: ONE}

    def power(cache, base, n):
        v = cache.get(n)
        if v is None:
            v = power(cache, base, n - 1) * base
            cache[n] = v
        return v

    total = ZERO
    for (dq, dt), c in p.terms.items():
        term = Scalar.from_int(c)
        if qv is not None:
            term = term * power(qpow, qv, dq)
        elif dq:
            term = term * Scalar._raw(IntPoly.monomial(dq, 0), _POLY_ONE)
        if tv is not None:
            term = term * power(tpow, tv, dt)
        elif dt:
            term = term * Scalar._raw(IntPoly.monomial(0, dt), _POLY_ONE)
        total = total + term
    return total


ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)
Q = Scalar._raw(IntPoly.monomial(1, 0), _POLY_ONE)
T = Scalar._raw(IntPoly.monomial(0, 1), _POLY_ONE)


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
            return base ** self.take()[1]
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
