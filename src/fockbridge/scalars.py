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
# Kronecker packing of term dicts: {(i, j): c} is the integer
# sum c * 2^(i*zbits + j*tbits), its value at q = 2^zbits, t = 2^tbits
# (Kronecker substitution; Harvey, JSC 2009).  Packing is a ring
# homomorphism, and with tbits >= zbits * (q-degree + 1) it is injective on
# polynomials whose coefficients lie below 2^(zbits-1) in absolute value:
# the balanced base-2^tbits digits of the value are its t-rows, and their
# balanced base-2^zbits digits the coefficients.

_T_DEG = operator.itemgetter(1)


def _scan(terms):
    # q-degree, t-degree, height and term count of a nonzero term dict
    return (max(terms)[0], max(map(_T_DEG, terms)),
            max(map(abs, terms.values())), len(terms))


def _pack(terms, zbits, tbits):
    rows = {}
    for (i, j), c in terms.items():
        r = rows.get(j)
        rows[j] = c << i * zbits if r is None else r + (c << i * zbits)
    return sum(r << j * tbits for j, r in rows.items())


def _unpack(n, zbits, tbits):
    # the balanced digits of n as (terms, q-degree, t-degree): _pack of the
    # terms is n again, for every integer n
    base_z, half_z, mask_z = 1 << zbits, 1 << (zbits - 1), (1 << zbits) - 1
    base_t, half_t, mask_t = 1 << tbits, 1 << (tbits - 1), (1 << tbits) - 1
    terms = {}
    dq = j = 0
    while n:
        d = n & mask_t
        n >>= tbits
        if d >= half_t:
            d -= base_t
            n += 1
        i = 0
        while d:
            c = d & mask_z
            d >>= zbits
            if c >= half_z:
                c -= base_z
                d += 1
            if c:
                terms[(i, j)] = c
            i += 1
        if i > dq:
            dq = i
        j += 1
    return terms, dq - 1, j - 1


def _quo(f, g, sf, sg):
    """Exact quotient of term dicts f / g, or None when g does not divide f;
    sf and sg are their _scan.  The quotient of the packed values is read
    back as digits of the expected shape and certified below."""
    dqf, dtf, hf, nf = sf
    dqg, dtg, hg, ng = sg
    dq, dt = dqf - dqg, dtf - dtg
    if dq < 0 or dt < 0:
        return None
    norm_f = hf.bit_length() + (nf.bit_length() + 1) // 2
    zbits = max(hf.bit_length(), hg.bit_length(), dq + dt + norm_f) + 4
    tbits = zbits * (dqf + 1) + 2
    qv, rem = divmod(_pack(f, zbits, tbits), _pack(g, zbits, tbits))
    if rem:
        return None
    # a coefficient of q * g is a sum of at most #g products
    got = _quotient(qv, zbits, tbits, dq, dt,
                    hg.bit_length() + ng.bit_length())
    if got is None:
        return None
    q, vzbits = got
    if vzbits > zbits:          # not proven: check the product at vzbits
        vzbits = max(vzbits, hf.bit_length() + 1)
        vtbits = vzbits * (dqf + 1) + 2
        if _pack(q, vzbits, vtbits) * _pack(g, vzbits, vtbits) != \
                _pack(f, vzbits, vtbits):
            return None
    return q


def _quotient(qv, zbits, tbits, dq, dt, gbits):
    # certificate of qv = _pack(f) / _pack(g) at (zbits, tbits), f's
    # coefficients below 2^(zbits-1), tbits > zbits * (f's q-degree + 1),
    # 2^gbits times q's height a bound on q * g's coefficients: None if qv's
    # digits q exceed f / g's degrees (dq, dt), else (q, vzbits).  q * g and
    # f pack to one value and have q-degree at most f's, so at vzbits <=
    # zbits packing is injective on both: q * g == f.
    q, dqq, dtq = _unpack(qv, zbits, tbits)
    if dqq > dq or dtq > dt:
        return None
    return q, max(map(abs, q.values())).bit_length() + gbits + 1


def _digits(n, b):
    # the balanced base-b digits of n, lowest first, for odd b > 1
    h, out = b >> 1, []
    while n:
        n, r = divmod(n + h, b)
        out.append(r - h)
    return out


def _pack_at(terms, x, y):
    # terms at q = x, t = y: each t-row from a table of powers of x, then
    # the rows by Horner in y
    xs, rows = [1], {}
    for (i, j), c in terms.items():
        while len(xs) <= i:
            xs.append(xs[-1] * x)
        rows[j] = rows.get(j, 0) + c * xs[i]
    v = 0
    for j in range(max(rows), -1, -1):
        v = v * y + rows.get(j, 0)
    return v


def _unpack_at(n, x, y):
    # _unpack's terms at odd bases: the balanced base-y digits of n, each
    # read as balanced base-x digits
    return {(i, j): c for j, r in enumerate(_digits(n, y))
            for i, c in enumerate(_digits(r, x)) if c}


def _tq_gcd_heu(f, g):
    """Gcd and cofactors of term dicts by a single huge evaluation point,
    certified exactly.

    Pack both polynomials into integers at q = 2^zbits, t = 2^tbits, gcd the
    integers, and read the balanced base digits back as a candidate divisor.
    The base is chosen past twice the height any factor can have (heights of
    factors are bounded by 2^(deg_q + deg_t) times the height, up to a small
    root-count term), so a nonzero value below base/4 certifies that the
    corresponding polynomial divisor is constant.  The candidate is accepted
    only when it divides both inputs and the integer gcd of the cofactor
    values clears the same constancy threshold; failing that the bases grow
    and we retry, and the caller falls back to a remainder sequence.  The
    retries take odd bases, q = 2^zbits + 1 and t a power of 3: at powers
    of two, inputs with no constant term, such as q^2 - t and q - t, have
    values that share 2^zbits at every width (GCDHEU, Char, Geddes &
    Gonnet, evaluates away from such points).
    Returns IntPolys (gcd, f / gcd, g / gcd): the two exact quotients that
    certified the candidate are the cofactors.
    """
    ci, cj = math.gcd(*f.values()), math.gcd(*g.values())
    if ci > 1:
        f = {k: c // ci for k, c in f.items()}
    if cj > 1:
        g = {k: c // cj for k, c in g.items()}
    c0 = math.gcd(ci, cj)
    sf, sg = _scan(f), _scan(g)
    (dqf, dtf, hf, nf), (dqg, dtg, hg, ng) = sf, sg
    # Mignotte style: a divisor's height is at most 2^(its q-degree plus its
    # t-degree) times the 2-norm of what it divides
    norm_f = hf.bit_length() + (nf.bit_length() + 1) // 2
    norm_g = hg.bit_length() + (ng.bit_length() + 1) // 2
    divisor_bits = min(dqf, dqg) + min(dtf, dtg) + min(norm_f, norm_g)
    zbits = max(hf.bit_length(), hg.bit_length(), divisor_bits) + 4
    dq_cap = max(dqf, dqg) + 1
    for k in range(3):
        if k:
            # (2^zbits + 1)^dq_cap < 2^((zbits + 1) dq_cap) and 3^2 > 2^3:
            # the t-base still exceeds four times any t-row of a divisor
            x = (1 << zbits) + 1
            y = 3 ** (((zbits + 1) * dq_cap + 2) * 2 // 3 + 1)
            a, b = _pack_at(f, x, y), _pack_at(g, x, y)
        else:
            tbits = zbits * dq_cap + 2
            a, b = _pack(f, zbits, tbits), _pack(g, zbits, tbits)
        gam = math.gcd(a, b)
        lim = 1 << (zbits - 2)
        if gam < lim:
            return (IntPoly.const(c0), _poly(f).mul_int(ci // c0),
                    _poly(g).mul_int(cj // c0))
        cand = _unpack_at(gam, x, y) if k else _unpack(gam, zbits, tbits)[0]
        cc = math.gcd(*cand.values())
        if cc > 1:
            cand = {k: c // cc for k, c in cand.items()}
        sc = _scan(cand)
        qf = _quo(f, cand, sf, sc)
        qg = _quo(g, cand, sg, sc) if qf is not None else None
        if qg is not None:
            cv = gam // cc
            if math.gcd(a // cv, b // cv) < lim:
                return (_poly(cand).mul_int(c0), _poly(qf).mul_int(ci // c0),
                        _poly(qg).mul_int(cj // c0))
        zbits += (zbits >> 1) + 8
    return None


def _prs_gcd(f, g, v=1):
    """A gcd of nonzero IntPolys f and g, up to sign, by a primitive
    remainder sequence in t over Z[q] (Brown, JACM 1971): the fallback for
    the pairs _tq_gcd_heu refuses, such as t + 4 and (q^2 - 1)(t + 5).
    With v = 0 the same sequence runs in q over Z on t-free f and g, for
    the contents in Z[q] of the sequence in t (_q_gcd)."""
    def content(*ps):
        # gcd of the coefficients of ps in the main variable
        if not v:
            return IntPoly.const(math.gcd(*(p.content() for p in ps)))
        rows = []
        for p in ps:
            by_t = {}
            for (i, j), c in p.terms.items():
                by_t.setdefault(j, {})[(i, 0)] = c
            rows += map(_poly, by_t.values())
        return functools.reduce(_q_gcd, rows)

    def lead(p):
        # (degree in the main variable, the coefficient of that power)
        d = max(k[v] for k in p.terms)
        return d, _poly({(k[0] * v, 0): c for k, c in p.terms.items()
                         if k[v] == d})

    cf, cg = content(f), content(g)
    c = content(cf, cg)
    f, g = f.divexact(cf), g.divexact(cg)
    if lead(f)[0] < lead(g)[0]:
        f, g = g, f
    dg, lg = lead(g)
    while dg:
        r = f               # pseudo-remainder of f by g, then its primitive part
        while r.terms:
            dr, lr = lead(r)
            if dr < dg:
                break
            r = r * lg - (g * lr).shifted((dr - dg) * (1 - v), (dr - dg) * v)
        if not r.terms:
            return g * c
        f, g = g, r.divexact(content(r))
        dg, lg = lead(g)
    # a constant in the main variable appeared: the primitive parts are coprime
    return c


def _q_gcd(f, g):
    # a gcd of t-free IntPolys: by GCDHEU, else by the sequence in q; the
    # remainders in t have coefficients of high q-degree, whose gcds the
    # heuristic takes in one integer gcd
    got = _tq_gcd_heu(f.terms, g.terms)
    return got[0] if got else _prs_gcd(f, g, 0)


# ---------------------------------------------------------------------------

# the one size cap of the memo and intern tables, here and in partitions
_TABLE_LIMIT = 200000
_GCD_MEMO = {}
# IntPoly products go through _pack when the smaller factor has more than
# _PACK_TERMS terms, the term pairs number more than _PACK_PRODUCTS and the
# packed product takes at most _PACK_PAIR_BITS bits a pair (wide coefficients
# and sparse t-rows cost more packed than term by term); on the products of
# the Macdonald sweep that rule came closest to the faster method
_PACK_TERMS, _PACK_PRODUCTS, _PACK_PAIR_BITS = 4, 160, 16
# total degree above which neither the generic gcd nor _factor runs: both
# would handle integers of millions of bits
_DEGREE_LIMIT = 1024


class IntPoly:
    """Integer polynomial in q and t, stored as {(deg_q, deg_t): coeff}."""

    # _val: None, or the value at the probe point (_value); it hashes
    __slots__ = ("terms", "_val")

    def __init__(self, terms=None):
        if terms:
            self.terms = {k: c for k, c in terms.items() if c}
        else:
            self.terms = {}
        self._val = None

    @classmethod
    def const(cls, n):
        p = cls.__new__(cls)
        p.terms, p._val = {(0, 0): n} if n else {}, None
        return p

    @classmethod
    def monomial(cls, dq, dt, c=1):
        p = cls.__new__(cls)
        p.terms, p._val = {(dq, dt): c} if c else {}, None
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
        # by the probe value while it comes from the power tables; past them
        # each term would cost a big power, so by the terms.  Decided by
        # degree, not by whether _val is cached, so equal polys hash alike
        if all(i <= _TABLE_DEGREE and j <= _TABLE_DEGREE
               for i, j in self.terms):
            return hash(_value(self))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return _poly_sum((self, other))

    def __sub__(self, other):
        return _poly_sum((self, -other))

    def __neg__(self):
        return _poly({k: -c for k, c in self.terms.items()})

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
            return _poly({(da + db, ta + tb): ca * cb
                          for (db, tb), cb in b.items()})
        # packing pays only for two large factors of narrow coefficients
        if len(a) > _PACK_TERMS and len(a) * len(b) > _PACK_PRODUCTS:
            n = IntPoly._mul_packed(self, other,
                                    _PACK_PAIR_BITS * len(a) * len(b))
            if n is not None:
                return n
        out = {}
        for (da, ta), ca in a.items():
            for (db, tb), cb in b.items():
                k = (da + db, ta + tb)
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return _poly(out)

    @staticmethod
    def _mul_packed(x, y, limit=None):
        # multiply through one big integer product; every coefficient of the
        # result is a sum of at most min(#terms) products, which fixes the
        # digit width.  None if the product would take more than limit bits
        dqa, dta, ha, na = _scan(x.terms)
        dqb, dtb, hb, nb = _scan(y.terms)
        zbits = ha.bit_length() + hb.bit_length() + min(na, nb).bit_length() + 2
        tbits = zbits * (dqa + dqb + 1) + 1
        if limit is not None and tbits * (dta + dtb + 1) > limit:
            return None
        n = _pack(x.terms, zbits, tbits) * _pack(y.terms, zbits, tbits)
        return _poly(_unpack(n, zbits, tbits)[0])

    def mul_int(self, n):
        if n == 0 or not self.terms:
            return _POLY_ZERO
        if n == 1:
            return self
        return _poly({k: n * c for k, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of IntPoly")
        return _power(self, n, _POLY_ONE)

    def content(self):
        return math.gcd(*self.terms.values())

    def min_degrees(self):
        return min(self.terms)[0], min(map(_T_DEG, self.terms))

    def lex_leading(self):
        k = max(self.terms)
        return k, self.terms[k]

    def shifted(self, dq, dt):
        if not (dq or dt):
            return self
        return _poly({(a + dq, b + dt): c for (a, b), c in self.terms.items()})

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
        aq, at = self.min_degrees()
        bq, bt = other.min_degrees()
        mq, mt = min(aq, bq), min(at, bt)
        a, b = self.shifted(-aq, -at), other.shifted(-bq, -bt)
        g = ca = cb = None
        if not (a.is_constant or b.is_constant):
            if max(i + j for p in (a, b) for i, j in p.terms) > _DEGREE_LIMIT:
                raise ValueError(f"gcd of polynomials over total degree "
                                 f"{_DEGREE_LIMIT} is not supported")
            # keyed by the shifted pair: its degree is bounded, and so is
            # the cost of the probe values that hash it.  None: coprime
            key = (a, b)
            g = _GCD_MEMO.get(key, False)
            if g is False:
                g, ca, cb = _tq_gcd_heu(a.terms, b.terms) or \
                    (_prs_gcd(a, b), None, None)
                if g.is_constant:
                    g = ca = None
                else:
                    if ca is None:
                        ca, cb = a.divexact(g), b.divexact(g)
                    if g.lex_leading()[1] < 0:
                        g, ca, cb = -g, -ca, -cb
                if len(_GCD_MEMO) < _TABLE_LIMIT:
                    _GCD_MEMO[key] = g
        if g is None:       # the gcd of the contents, times a monomial
            g = IntPoly.const(math.gcd(a.content(), b.content()))
        g = g.shifted(mq, mt)
        if ca is not None:
            return (g, ca.shifted(aq - mq, at - mt),
                    cb.shifted(bq - mq, bt - mt))
        # a memo hit or a monomial gcd: divide by it
        if g.is_one:
            return g, self, other
        return g, self.divexact(g), other.divexact(g)

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
        q = _quo(self.terms, other.terms, _scan(self.terms),
                 _scan(other.terms))
        if q is None:
            raise ValueError("inexact polynomial division")
        return _poly(q)

    def __str__(self):
        return _poly_str(self)

    def __repr__(self):
        return f"IntPoly({_poly_str(self)})"


def _power(x, n, one):
    # x^n by repeated squaring, with no square past the top bit
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _poly(terms):
    # trusted constructor: terms has no zero coefficient
    p = IntPoly.__new__(IntPoly)
    p.terms, p._val = terms, None
    return p


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
# VI §6).  A Scalar whose den factors so stores fac = (c, ((fid, e), ...)),
# not its den: den = c * prod _FACTORS[fid]^e is multiplied out when first
# read (_expand).  Its add, mul and == need only exponents, the integer c
# and trial division; the generic gcd runs when an operand's fac is None.
# Their numerators are such products too (_nf): those multiply, divide and
# enter the zero test by exponents alone, with no trial division.

# the power tables of _probe stop at this degree: to degree D they would hold
# about 10 D^2 bits
_TABLE_DEGREE = 256


def _probe(p, _pows=([1], [1])):
    # p at q = 1000003, t = 1000033, where no factor vanishes (|q^a t^b| >
    # 1): f | p in Z[q, t] implies _probe(f) | _probe(p) in Z
    xs, ys = _pows
    for i, j in p.terms:
        if i > _TABLE_DEGREE or j > _TABLE_DEGREE:
            return sum(c * 1000003 ** i * 1000033 ** j
                       for (i, j), c in p.terms.items())
        while i >= len(xs):
            xs.append(xs[-1] * 1000003)
        while j >= len(ys):
            ys.append(ys[-1] * 1000033)
    return sum(c * xs[i] * ys[j] for (i, j), c in p.terms.items())


# An IntPoly keeps its probe value once computed.  f | n implies _probe(f) |
# _probe(n), so a factor whose value does not divide n's is not tried.  An
# exact quotient by prod f^k has value v // prod _FACTOR_VALS[f]^k, and a
# content division by g v // g.

def _value(p):
    v = p._val
    if v is None:
        v = p._val = _probe(p)
    return v


_FACTORS = [IntPoly.monomial(1, 0), IntPoly.monomial(0, 1)]  # fid 0 q, 1 t
_FACTOR_IDS = {}                            # (d, a, b) -> fid
_FACTOR_VALS = [_probe(f) for f in _FACTORS]
_FACTOR_FORMS = [([0, 1], 1, 0), ([0, 1], 0, 1)]  # (P, a, b): P(q^a t^b)
_FACTOR_SIZES = [(1, 0, 1), (0, 1, 1)]      # (q-degree, t-degree, 1-norm)
_UNIT = (1, ())
# dividends pack up to _PACK_BITS bits, else go to the probe point: packing
# is dense (q^300 t^300 + 2 takes millions of bits), and past this size the
# probe was the faster on the Macdonald Heisenberg sweep.  Over it the zero
# test goes to scalar_sum: no larger cap was faster on both Macdonald Cauchy
# anchor pairs at the degree cap ([4,4]/[4,4] gains, [3,3,2]/[3,2,2,1] not)
_PACK_BITS = 1 << 15


@functools.cache
def _cyclotomic(d):
    # Phi_d as a dense coefficient list: q^d - 1 over each Phi_e, e | d, e < d
    f = IntPoly({(d, 0): 1, (0, 0): -1})
    for e in range(1, d):
        if d % e == 0:
            f = f.divexact(_poly({(i, 0): c for i, c in
                                  enumerate(_cyclotomic(e)) if c}))
    return [f.terms.get((i, 0), 0) for i in range(max(f.terms)[0] + 1)]


def _fac(c, *parts):
    # (c, exponent list) from (sign, exponent list) parts
    exps = {}
    for sign, fl in parts:
        for f, e in fl:
            exps[f] = exps.get(f, 0) + sign * e
    return (c, tuple(sorted((f, e) for f, e in exps.items() if e)))


def _trial(n, cands):
    # divide n by each factor (fid, most) of cands up to most times:
    # (quotient, counts).  The counts n's probe value allows go in one
    # division by their product, else each alone, from its count down
    ks, w = [], _value(n)
    for fid, most in cands:
        fv, k = _FACTOR_VALS[fid], 0
        while k < most and w % fv == 0:
            w, k = w // fv, k + 1
        ks.append(k)
    try:
        fl = tuple((f, k) for (f, _), k in zip(cands, ks) if k)
        n = n.divexact(_expand((1, fl)))
        n._val = w
        return n, ks
    except ValueError:
        if len(cands) == 1:
            return _trial(n, [(cands[0][0], ks[0] - 1)])
        for i, c in enumerate(cands):
            n, (ks[i],) = _trial(n, [c])
        return n, ks


def _at(fid, zbits, tbits):
    # factor fid = P(q^a t^b) at q = 2^zbits, t = 2^tbits, P by Horner
    cs, a, b = _FACTOR_FORMS[fid]
    s, v = a * zbits + b * tbits, 0
    for c in reversed(cs):
        v = (v << s) + c
    return v


def _size_of(exps):
    # q-degree and t-degree of prod f^e over exps, a dict, and the 1-norm
    # products of its factors with e > 0 and of those with e < 0
    dq, dt, n, u = 0, 0, 1, 1
    for f, e in exps.items():
        fq, ft, fn = _FACTOR_SIZES[f]
        dq, dt = dq + e * fq, dt + e * ft
        if e > 0:
            n *= fn ** e
        else:
            u *= fn ** -e
    return dq, dt, n, u


def _bounds(leaves):
    # q-degree, t-degree and height bounds of the numerator of the sum of
    # the leaves (ts, s, c, exps), each s * prod(ts) / (c * prod f^e over
    # exps) with ts term dicts, over their lcm L: the integer lcm, each
    # factor at its top exponent.  A negative e puts f^-e in the leaf's
    # numerator.  A leaf's cofactor L / den has L's degrees and 1-norm
    # product less its den's; its numerator factors add their degrees
    # and multiply the height by their 1-norms
    lc, top = 1, {}
    for _, _, c, exps in leaves:
        lc = lc // math.gcd(lc, c) * c
        top.update((f, e) for f, e in exps.items() if e > top.get(f, 0))
    lq, lt, ln, _ = _size_of(top)
    dq = dt = h = 0
    for ts, s, c, exps in leaves:
        pq, pt, pn, un = _size_of(exps)
        pq, pt, most = lq - pq, lt - pt, 1
        ph = abs(s) * (lc // c) * (ln // pn) * un
        for t in ts:
            # a coefficient of prod(ts) sums at most as many products as
            # the term counts of all dicts but the longest multiply to
            sq, st, sh, n = _scan(t)
            if n > most:
                n, most = most, n
            pq, pt, ph = pq + sq, pt + st, ph * sh * n
        dq, dt, h = max(dq, pq), max(dt, pt), h + ph
    return dq, dt, h


def _tree(leaves, embed, power, const):
    # the numerator over L of the sum of the leaves (_bounds) in one ring,
    # which embed(t) maps a term dict t into, with power(f, k) factor f to
    # the k and const(n) the integer n (a leaf's V: s times its term dicts
    # and its numerator factors): a balanced tree over the leaves
    # sorted by den, where a node over dens D_a, D_b holds D, their lcm, and
    # V_a * (D / D_a) + V_b * (D / D_b), so the root holds L and the
    # numerator, and no leaf's cofactor L / D_i is built whole
    nodes = [(c, {f: e for f, e in exps.items() if e > 0},
              math.prod([power(f, -e) for f, e in exps.items() if e < 0]
                        + list(map(embed, ts)), start=const(s)))
             for ts, s, c, exps in leaves]
    nodes.sort(key=lambda node: (sorted(node[1].items()), node[0]))
    while len(nodes) > 1:
        nodes = [_join(a, b, power, const)
                 for a, b in zip(nodes[::2], nodes[1::2])] \
            + nodes[len(nodes) & ~1:]
    return nodes[0][2] if nodes else const(0)


def _join(a, b, power, const):
    # the node over the dens of nodes a and b (_tree): the factor powers
    # one den lacks are multiplied together before they meet its value
    (ca, ea, va), (cb, eb, vb) = a, b
    c, e, ua, ub = ca // math.gcd(ca, cb) * cb, dict(ea), [], []
    for f, k in eb.items():
        j = ea.get(f, 0)
        if k > j:
            e[f] = k
            ua.append(power(f, k - j))
        elif j > k:
            ub.append(power(f, j - k))
    ub.extend(power(f, j) for f, j in ea.items() if f not in eb)
    return (c, e, va * math.prod(ua, start=const(c // ca)) +
            vb * math.prod(ub, start=const(c // cb)))


def _packed(leaves, zbits, tbits):
    # the numerator at q = 2^zbits, t = 2^tbits (_tree)
    at = {f: _at(f, zbits, tbits)
          for f in set().union(*(exps for *_, exps in leaves))}
    return _tree(leaves, lambda t: _pack(t, zbits, tbits),
                 lambda f, k: at[f] ** k, int)


def _numerator(leaves):
    # the numerator as an IntPoly (_tree), each factor power built once
    return _tree(leaves, _poly, functools.cache(
        lambda f, k: _FACTORS[f] ** k), IntPoly.const)


def _strip(leaves, fl):
    """The numerator of the sum of the leaves (_bounds) over their lcm,
    divided by each factor (fid, e) of fl up to e times, as one Kronecker
    value at a width covering its divisors: (quotient, what is left of
    fl).  None past _PACK_BITS bits, or when not certified: q*t - 4 packs
    to a multiple of the value of q - 1 at every width."""
    dq, dt, h = _bounds(leaves)
    # as in _quo: a divisor's height is at most 2^(dq + dt) times the 2-norm
    zbits = dq + dt + h.bit_length() + 4 + \
        (((dq + 1) * (dt + 1)).bit_length() + 1) // 2
    tbits = zbits * (dq + 1) + 2
    if (dt + 1) * tbits > _PACK_BITS:
        return None
    v = _packed(leaves, zbits, tbits)
    if not v:
        return _POLY_ZERO, fl
    # q and t go by minimum degrees (at q = 2^zbits the value of t is a
    # multiple of q's); a factor of more degree than is left cannot divide
    ks, l1 = {}, 1
    for fid, e in fl:
        ga, gb, fn = _FACTOR_SIZES[fid]
        if fid < 2 or ga > dq or gb > dt:
            continue
        fv, k = _at(fid, zbits, tbits), 0
        while k < e and ga <= dq and gb <= dt:
            w, r = divmod(v, fv)
            if r:
                break
            v, k, dq, dt = w, k + 1, dq - ga, dt - gb
        ks[fid], l1 = k, l1 * fn ** k
    # l1 bounds the sum of |coefficients| of the product divided out
    got = _quotient(v, zbits, tbits, dq, dt, l1.bit_length())
    if got is None or got[1] > zbits:
        return None
    n = _shift_out(_poly(got[0]), fl, ks)
    return n, tuple((f, e - ks.get(f, 0)) for f, e in fl if e > ks.get(f, 0))


def _shift_out(n, fl, ks):
    # n without the powers of q and t of fl it has, counted in ks; its
    # cached value follows
    if fl[0][0] < 2:
        mins = n.min_degrees()
        ks.update((f, min(e, mins[f])) for f, e in fl[:2] if f < 2)
        kq, kt = ks.get(0, 0), ks.get(1, 0)
        v, n = n._val, n.shifted(-kq, -kt)
        if v is not None:
            n._val = v // (_FACTOR_VALS[0] ** kq * _FACTOR_VALS[1] ** kt)
    return n


def _register(d, a, b):
    # fid of Phi_d(q^a t^b), gcd(a, b) = 1, registering it on first sight
    fid = _FACTOR_IDS.setdefault((d, a, b), len(_FACTORS))
    if fid == len(_FACTORS):
        f = IntPoly({(a * i, b * i): x for i, x in enumerate(_cyclotomic(d))})
        _FACTORS.append(f)
        _FACTOR_VALS.append(_probe(f))
        _FACTOR_FORMS.append((_cyclotomic(d), a, b))
        _FACTOR_SIZES.append((*max(f.terms), sum(map(abs, f.terms.values()))))
    return fid


def _count_binomial(gq, gt, exps, plus=False, e=1):
    # add e to the exponent in exps of each Phi_d(x) dividing x^g - 1, or
    # x^g + 1 when plus, where q^gq t^gt = x^g and g = gcd(gq, gt)
    g = math.gcd(gq, gt)
    for d in range(1, 2 * g + 1):
        if (2 * g) % d == 0 and (g % d != 0) == plus:
            fid = _register(d, gq // g, gt // g)
            exps[fid] = exps.get(fid, 0) + e


def _split_binomial(r, exps):
    # r = x^g - 1 or x^g + 1 with x = q^a t^b: count its Phi_d(x) in exps
    if len(r.terms) != 2 or r.terms.get((0, 0)) not in (1, -1):
        return False
    (gq, gt), lead = r.lex_leading()
    if lead != 1 or math.gcd(gq, gt) > 64:  # a larger g takes the generic path
        return False
    _count_binomial(gq, gt, exps, r.terms[(0, 0)] == 1)
    return True


def _binomial_ratio(ups, downs):
    # prod (1 - q^a t^b) over (a, b) in ups over that over downs, canonical:
    # 1 - x^g is -prod_{d | g} Phi_d(x), so exponents add and nothing divides
    exps = {}
    for pairs, e in ((ups, 1), (downs, -1)):
        for a, b in pairs:
            if not (a or b):    # gcd(0, 0) = 0 would count no factor
                raise ValueError("the binomial 1 - q^0 t^0 is zero")
            _count_binomial(a, b, exps, e=e)
    nf = _fac(-1 if (len(ups) + len(downs)) % 2 else 1,
              (1, ((f, e) for f, e in exps.items() if e > 0)))
    fac = _fac(1, (-1, ((f, e) for f, e in exps.items() if e < 0)))
    return Scalar._raw(_expand(nf), fac, None, nf)


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


# den part -> len(_FACTORS) when _factor refused it: until a factor
# registers, _factor would refuse it again
_REFUSED = {}


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
        if _REFUSED.get(r) == len(_FACTORS):   # no factor registered since
            return None
        key, start = r, 2
        while True:
            end = len(_FACTORS)
            r, ks = _trial(r, [(fid, most) for fid in range(start, end)])
            exps.update(zip(range(start, end), ks))
            if r.is_constant or _split_binomial(r, exps):
                break
            # a leftover that is no binomial: its factors may not be
            # registered yet; try those its Newton polygon allows
            _register_edges(r)
            if len(_FACTORS) == end:
                if len(_REFUSED) < _TABLE_LIMIT:
                    _REFUSED[key] = end
                return None
            start = end
    return _fac(c, (1, exps.items()))


def _expand(fac):
    # c * prod _FACTORS[fid]^e, the polynomial of fac = (c, ((fid, e), ...))
    if fac == _UNIT:
        return _POLY_ONE
    return math.prod((_FACTORS[f] ** e for f, e in fac[1]),
                     start=IntPoly.const(fac[0]))


def _cancel(n, c, fl):
    """Divide nonzero n and c * prod f^e by their gcd: (n', c', fl').  q and
    t go by n's minimum degrees.  The other factors whose degrees fit n's
    and whose value divides n's go to _trial; degrees go first, as past
    _probe's tables a value costs a power per term."""
    if fl and not n.is_constant:
        ks = {}
        n = _shift_out(n, fl, ks)
        dq, dt = max(n.terms)[0], max(map(_T_DEG, n.terms))
        cands = [(f, e) for f, e in fl if f > 1 and _FACTOR_SIZES[f][0] <= dq
                 and _FACTOR_SIZES[f][1] <= dt
                 and _value(n) % _FACTOR_VALS[f] == 0]
        if cands:
            n, counts = _trial(n, cands)
            ks.update((f, k) for (f, _), k in zip(cands, counts))
        fl = tuple((f, e - ks.get(f, 0)) for f, e in fl if e > ks.get(f, 0))
    # the factors are primitive: dividing by them leaves n's content
    g = math.gcd(c, n.content()) if c != 1 else 1
    if g != 1:
        v = n._val
        c, n = c // g, _poly({k: x // g for k, x in n.terms.items()})
        if v is not None:
            n._val = v // g
    return n, c, fl


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
    return _poly(acc)


def _fac_sum(xs):
    # sum a_i / d_i over L = lcm d_i: the integer lcm and each factor's top
    # exponent.  A factor whose top exponent one addend alone reaches cannot
    # divide the numerator: it divides every other term's L / d_i but
    # neither a_i nor L / d_i of that addend.  So only factors whose top two
    # or more addends share are trial-divided (Henrici, for two addends).
    # Addends over one den are added first; their sum counts once per
    # addend, since it need not be coprime to the den.
    nums, count = {}, {}
    for x in xs:
        p = nums.get(x.fac)
        nums[x.fac] = x.num if p is None else p + x.num
        count[x.fac] = count.get(x.fac, 0) + 1
    lc, top, seen = 1, {}, {}
    for fac, p in nums.items():
        if not p.terms:
            continue
        c, fl = fac
        lc = lc // math.gcd(lc, c) * c
        for f, e in fl:
            m = top.get(f, 0)
            if e > m:
                top[f], seen[f] = e, count[fac]
            elif e == m:
                seen[f] += count[fac]
    tops = sorted(top.items())
    cands = tuple((f, m) for f, m in tops if seen[f] > 1)
    # with candidates the numerator is built packed and trial-divided there
    # (_strip); without, nothing is divided, so it is built as an IntPoly,
    # and so is one that _strip refused, which goes to the probe point
    leaves = [((p.terms,), 1, c, dict(fl))
              for (c, fl), p in nums.items() if p.terms]
    got = cands and _strip(leaves, cands)
    if got:         # only the integer content is left to cancel
        num, cands = got[0], ()
    else:
        num = _numerator(leaves)
    if num.is_zero:
        return ZERO
    num, c, rest = _cancel(num, lc, cands)
    fac = _fac(c, (1, ((f, m) for f, m in tops if seen[f] == 1)),
               (1, got[1] if got else rest))
    return Scalar._raw(num, fac)


def _rat(p, m, fl=()):
    # p / (m * prod f^e over fl), p prime to each (primitive) f: the two can
    # share only an integer, which one gcd with p's coefficients cancels
    g = math.gcd(m, *p.terms.values())
    if g != 1:
        p, m = _poly({k: c // g for k, c in p.terms.items()}), m // g
    return Scalar._raw(p, (m, fl))


def _scaled(p, n, g):
    # p * n / g, g an int dividing p's content.  Its own function: in
    # product, this comprehension would hold n and m in cells on every call
    return _poly({k: c // g * n for k, c in p.terms.items()})


def _frac(n, m):
    # the one Scalar n/m, for ints n and m > 0
    g = math.gcd(n, m)
    n, m = n // g, m // g
    s = _RATIONALS.get((n, m))
    return Scalar._raw(IntPoly.const(n), (m, ())) if s is None else s


def _rat_sum(xs):
    # rationals: their _q summed as ints n/m over the running lcm m of the
    # dens; polynomials over integer dens: over the lcm of those; else None
    n, m = 0, 1
    for x in xs:
        r = x._q
        if r is None:
            break
        c = r[1]
        if m % c:
            g = c // math.gcd(m, c)
            n, m = n * g, m * g
        n += r[0] * (m // c)
    else:
        return _frac(n, m)
    if any(x.fac is None or x.fac[1] for x in xs):
        return None
    m = math.lcm(*(x.fac[0] for x in xs))
    p = _poly_sum([x.num.mul_int(m // x.fac[0]) for x in xs])
    return _rat(p, m) if p.terms else ZERO


def scalar_sum(xs):
    """The sum of the Scalars xs, reduced once: by _rat_sum over integer
    dens, by _fac_sum over factored ones, else by pairwise +."""
    x = _rat_sum(xs)
    if x is not None:
        return x
    xs = [x for x in xs if x.num.terms]
    if len(xs) < 2:
        return xs[0] if xs else ZERO
    if any(x.fac is None for x in xs):
        return functools.reduce(operator.add, xs)
    return _fac_sum(xs)


def accumulate(pairs):
    """{key: the sum of its values} over (key, Scalar) pairs, zero sums
    dropped; each key's values are summed once, by scalar_sum."""
    groups = {}
    for k, x in pairs:
        groups.setdefault(k, []).append(x)
    out = {}
    for k, g in groups.items():
        x = g[0] if len(g) == 1 else scalar_sum(g)
        if x.num.terms:
            out[k] = x
    return out


def _vanishes(entries):
    """Whether each key's sum of sign * x * y over the entries (key, x, y,
    sign) is zero; y is None for a lone x, sign is 1 or -1.  No Scalar is
    built: the terms of rationals (their _q) add up as one fraction per key,
    the other terms with it as one integer (_zero_sum)."""
    fracs, rest = {}, {}
    for k, x, y, s in entries:
        p, r = x._q, (1, 1) if y is None else y._q
        if p is None or r is None:
            rest.setdefault(k, []).append(((x,) if y is None else (x, y), s))
            continue
        c = p[1] * r[1]
        n, m = fracs.get(k, (0, 1))
        if m % c:               # over the running lcm m, as in _rat_sum
            g = c // math.gcd(m, c)
            n, m = n * g, m * g
        fracs[k] = (n + s * p[0] * r[0] * (m // c), m)
    return all(_zero_sum(g, fracs.pop(k, (0, 1))) for k, g in rest.items()) \
        and not any(n for n, _ in fracs.values())


def _zero_sum(terms, frac):
    # Whether n / m, frac = (n, m), plus sign * prod(vs) over terms is 0.
    # Each term is one leaf (_leaf).  The numerator over L, their lcm, has
    # q-degree at most dq and coefficients below h (_bounds), so its value
    # at zbits = h.bit_length() + 2, tbits = zbits * (dq + 1) + 2, where
    # packing is injective, is 0 exactly when it is; _packed sums it by a
    # tree over partial lcms.  A generic den, or past _PACK_BITS: scalar_sum.
    n, m = frac
    leaves = [((), n, m, {})] if n else []
    for vs, s in terms:
        if any(v.fac is None for v in vs):
            break
        if all(v.num.terms for v in vs):
            leaves.append(_leaf(vs, s))
    else:
        dq, dt, h = _bounds(leaves)
        zbits = h.bit_length() + 2
        tbits = zbits * (dq + 1) + 2
        if tbits * (dt + 1) <= _PACK_BITS:
            return not _packed(leaves, zbits, tbits)
    return not scalar_sum([Scalar.fraction(*frac)] +
                          [math.prod(vs) * s for vs, s in terms])


def _leaf(vs, s):
    # the term s * prod(vs), nonzero values over factored dens, as a leaf
    # (ts, s, c, exps) of _bounds: the dens' integers multiplied and their
    # exponents added; a numerator known as factors (_nf) adds its integer
    # to s and its exponents negated, which cancel against the den's, and a
    # rational its integer; only the other numerators are term dicts in ts
    c, exps, ts = 1, {}, []
    for v in vs:
        c *= v.fac[0]
        for f, e in v.fac[1]:
            exps[f] = exps.get(f, 0) + e
        nf = v._nf
        if nf is not None:
            s *= nf[0]
            for f, e in nf[1]:
                exps[f] = exps.get(f, 0) - e
        elif v._q is not None:
            s *= v._q[0]
        else:
            ts.append(v.num.terms)
    g = math.gcd(s, c)
    return tuple(ts), s // g, c // g, {f: e for f, e in exps.items() if e}


# (n, m) -> the one Scalar n/m, m > 0 and gcd(n, m) = 1 (hash-consing:
# Filliatre & Conchon, ML Workshop 2006).  It keeps its key as _q, so its
# products, quotients, negation, sums and zero tests run on two ints and a
# lookup (_frac).  Sharing is safe: a Scalar and its IntPolys are never
# changed, and the fields set on first read (_den, _val) are fixed by the
# value.  Past _TABLE_LIMIT entries a new rational is built, not stored
_RATIONALS = {}


class Scalar:
    """Element of Q(q, t) in canonical form.

    Invariants: gcd(num, den) = 1, den is never zero, zero is 0/1, and the
    lexicographic leading coefficient of den (by (deg_q, deg_t)) is positive.
    A value whose den factors over the registered factors stores num and
    fac, and multiplies den out when it is first read; otherwise fac is
    None and den is stored.  A rational n/m is one object (_RATIONALS),
    whichever route builds it, with _q = (n, m); other values have _q None.
    A value over a factored den whose num is known by construction as
    n * prod f^e over registered factors (a binomial ratio, and products,
    quotients and negations of such values and rationals) carries _nf =
    (n, ((fid, e), ...)), the sign in n; _expand(_nf) is num, and no fid
    is in both _nf and fac.  Every other value, rationals and sums among
    them, has _nf None.
    """

    __slots__ = ("num", "fac", "_den", "_q", "_nf")

    def __new__(cls, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("scalar with zero denominator")
        return _signfix(*num.cofactors(den)[1:])

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which interns
        return Scalar, (self.num, self.den)

    @classmethod
    def _raw(cls, num, fac, den=None, nf=None):
        # trusted constructor: num over fac's den, or over den when fac is
        # None, already canonical; nf is num's _nf or None.  A constant
        # over an integer is looked up, and carries no _nf
        t, key = num.terms, None
        if fac is not None and not fac[1] and len(t) < 2 and \
                (not t or (0, 0) in t):
            key, nf = (t.get((0, 0), 0), fac[0]), None
            s = _RATIONALS.get(key)
            if s is not None:
                return s
        s = object.__new__(cls)
        s.num, s.fac, s._den, s._q, s._nf = num, fac, den, key, nf
        if key is not None and len(_RATIONALS) < _TABLE_LIMIT:
            _RATIONALS[key] = s
        return s

    @classmethod
    def from_int(cls, n):
        return _frac(n, 1)

    @classmethod
    def fraction(cls, a, b):
        return cls(IntPoly.const(a), IntPoly.const(b))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def den(self):
        d = self._den
        if d is None:
            d = self._den = _expand(self.fac)
        return d

    @property
    def is_one(self):
        return self.fac == _UNIT and self.num.is_one

    def as_int(self):
        if self.fac != _UNIT:
            raise ValueError("not an integer scalar")
        return self.num.as_int()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        # the registered factors are distinct irreducibles, so a fac is
        # canonical; a value whose den was not factored compares by den
        if self.fac is not None and other.fac is not None:
            return self.fac == other.fac and self.num == other.num
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # not by fac: whether a den factors depends on which factors are
        # registered when it is built, so one value may have either
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def __add__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        x, y = self.fac, other.fac
        if x is not None and y is not None:
            return (_fac_sum if x[1] or y[1] else _rat_sum)((self, other))
        g0, b1, d1 = self.den.cofactors(other.den)
        num = self.num * d1 + other.num * b1
        if g0.is_one:
            return _signfix(num, b1 * d1)
        _, num, g0 = num.cofactors(g0)
        return _signfix(num, g0 * b1 * d1)

    __radd__ = __add__

    def __neg__(self):
        r, nf = self._q, self._nf
        if r is not None:
            return _frac(-r[0], r[1])
        return Scalar._raw(-self.num, self.fac, self._den,
                           nf and (-nf[0], nf[1]))

    def __sub__(self, other):
        if not isinstance(other, (int, Scalar)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        return product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        r, nf = other._q, other._nf
        if r is not None:                       # times m/n, sign in m
            m, n = (r[1], r[0]) if r[0] > 0 else (-r[1], -r[0])
            return product(self, _frac(m, n))
        if nf is not None:          # the inverse's fac and _nf are known
            c, fl = other.fac
            k = 1 if nf[0] > 0 else -1
            return product(self, Scalar._raw(
                other.den.mul_int(k), (k * nf[0], nf[1]),
                other.num.mul_int(k), (k * c, fl)))
        num, den = _signfix_pair(other.den, other.num)
        fac = self.fac and _factor(den)     # None: generic path anyway
        return self.__mul__(Scalar._raw(num, fac, den))

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        return other.__truediv__(self)

    def __pow__(self, n):
        if n < 0:
            return (ONE / self) ** (-n)
        return _power(self, n, ONE)

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


def product(x, y):
    """x * y for Scalars x and y: a rational n/m (its _q) multiplies as two
    ints; two numerators known as factors (_nf) by exponents (_nf_product);
    otherwise each numerator is cancelled against the other's den, then
    they are multiplied out."""
    if y._q is None:
        x, y = y, x             # the rational, if any, second
    r = y._q
    if r is not None:
        n, m = r
        if m == 1 and (n == 1 or n == -1):  # x * (+-1) is +-x: no arithmetic
            return x if n == 1 else -x
        p = x._q
        if p is not None:
            return _frac(p[0] * n, p[1] * m)
        if not n:
            return ZERO
        if x._nf is not None:
            return _nf_scaled(x, n, m)
        if x.fac is not None:
            return _rat(x.num.mul_int(n), x.fac[0] * m, x.fac[1])
        # a/b over a generic den, gcd(a, b) = 1: only integers cancel, g
        # of a's content against m and h of n against b's
        a, b = x.num, x.den
        g, h = math.gcd(a.content(), m), math.gcd(n, b.content())
        return _signfix(_scaled(a, n // h, g), _scaled(b, m // g, h))
    if x._nf is not None and y._nf is not None:
        return _nf_product(x, y)
    a, c, fx, fy = x.num, y.num, x.fac, y.fac
    if fx is not None and fy is not None:
        if not fx[1] and not fy[1]:     # polynomials over integer dens
            return _rat(a * c, fx[0] * fy[0])
        a, cd, fd = _cancel(a, *fy)
        c, cb, fb = _cancel(c, *fx)
        return Scalar._raw(a * c, _fac(cb * cd, (1, fb), (1, fd)))
    _, a, d = a.cofactors(y.den)
    _, c, b = c.cofactors(x.den)
    return _signfix(a * c, b * d)


def _nf_scaled(x, n, m):
    # x * n/m for x with _nf and ints n != 0, m > 0 coprime: x's exponents
    # stay, and its integers n_x / c_x meet n / m in two gcds
    (nx, ul), (c, fl) = x._nf, x.fac
    g, h = math.gcd(nx, m), math.gcd(n, c)
    return Scalar._raw(_scaled(x.num, n // h, g), (c // h * (m // g), fl),
                       None, (nx // g * (n // h), ul))


def _nf_product(x, y):
    # x * y for x and y with _nf, by exponents: the signed sum of both nums'
    # and dens' exponents cancels a factor in one's num and the other's den
    # by min, and one gcd the integers.  num is x.num * y.num when no
    # factor cancelled, else built once from what is left
    (nx, ux), (cx, fx) = x._nf, x.fac
    (ny, uy), (cy, fy) = y._nf, y.fac
    n, c = nx * ny, cx * cy
    g = math.gcd(n, c)
    fl = _fac(n // g, (1, ux), (1, uy), (-1, fx), (-1, fy))
    nf = (fl[0], tuple((f, e) for f, e in fl[1] if e > 0))
    if sum(e for _, e in nf[1]) < sum(e for _, e in ux + uy):
        num = _expand(nf)
    else:
        num = x.num * y.num
        if g > 1:
            num = _scaled(num, nf[0], n)
    return Scalar._raw(num, (c // g, tuple((f, -e) for f, e in fl[1]
                                          if e < 0)), None, nf)


def _printer():
    # str of Scalars, each fac's den multiplied out and printed once per
    # printer: the values of one bundle share few dens
    dens = {}

    def text(x):
        if x.fac == _UNIT:
            return _poly_str(x.num)
        if x.fac is None:
            return str(x)
        d = dens.get(x.fac)
        if d is None:
            d = dens[x.fac] = _poly_str(x.den)
        return f"({_poly_str(x.num)})/({d})"
    return text


def _signfix_pair(num, den):
    if num.is_zero:
        return _POLY_ZERO, _POLY_ONE
    if den.lex_leading()[1] < 0:
        return -num, -den
    return num, den


def _signfix(num, den):
    num, den = _signfix_pair(num, den)
    fac = _factor(den)
    return Scalar._raw(num, fac, den if fac is None else None)


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
Q = Scalar._raw(IntPoly.monomial(1, 0), _UNIT)
T = Scalar._raw(IntPoly.monomial(0, 1), _UNIT)


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


# what a ^, or a chain of * and /, may build: (q-degree + 1)(t-degree + 1)
# (coefficient bits + 1)
_POWER_LIMIT = 1 << 20


def _size(*factors):
    # over-estimates the product of p^n over (p, n) in factors: degrees add
    # up, coefficients are at most the product of the (sum |c|)^n
    dq = dt = bits = 0
    for p, n in factors:
        a = b = s = 0
        for (i, j), c in p.terms.items():   # one pass: this runs on every ^
            a, b, s = i if i > a else a, j if j > b else b, s + abs(c)
        dq, dt, bits = dq + n * a, dt + n * b, bits + n * (s - 1).bit_length()
    return (dq + 1) * (dt + 1) * (bits + 1)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        # parse() one level of ( or unary sign deeper; each level costs
        # about five stack frames, so 100 stay inside the recursion limit
        self.depth += 1
        if self.depth > 100:
            raise ValueError("scalar expression nests deeper than 100 levels")
        value = parse()
        self.depth -= 1
        return value

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
            # only two factors of two or more terms each build more terms
            # than they have: such a product is bounded like a ^
            num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
            for a, b in ((value.num, num), (value.den, den)):
                if len(a.terms) > 1 and len(b.terms) > 1 and \
                        _size((a, 1), (b, 1)) > _POWER_LIMIT:
                    raise ValueError("product is too large to build")
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self):
        kind = self.peek()
        if kind in ("+", "-"):
            op = self.take()[0]
            value = self.nested(self.parse_factor)
            return value if op == "+" else -value
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            if self.peek() != "int":
                raise ValueError("exponent must be an integer")
            n = self.take()[1]
            if max(_size((base.num, n)), _size((base.den, n))) > _POWER_LIMIT:
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
            value = self.nested(self.parse_expr)
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
