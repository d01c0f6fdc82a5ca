"""Known answers for the benchmark's operations.

Nothing here imports fockbridge: every expected value comes from small
combinatorics written for the benchmark (partition counts, dominance,
hook lengths, Kostka numbers, n-quotients, the Hall-Littlewood leading
coefficient) or from committed golden text, so that a check never runs the
code path it checks.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb, factorial

TRACEBACK = "Traceback (most recent call last)"


# ---------------------------------------------------------------------------
# partitions

@lru_cache(maxsize=None)
def partitions(n, cap=None):
    """Partitions of n with parts <= cap, in reverse lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def count_up_to(d, per_degree=None):
    """Number of basis indices of degree <= d (partitions by default)."""
    per_degree = per_degree or (lambda n: len(partitions(n)))
    return sum(per_degree(i) for i in range(d + 1))


@lru_cache(maxsize=None)
def multipartitions(k, n):
    """Number of n-tuples of partitions of total size k."""
    if n == 1:
        return len(partitions(k))
    return sum(len(partitions(i)) * multipartitions(k - i, n - 1)
               for i in range(k + 1))


def parse_partition(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a partition: {text!r}")
    body = text[1:-1].strip()
    parts = tuple(int(x) for x in body.split(",")) if body else ()
    if any(p < 1 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"not a partition: {text!r}")
    return parts


def fmt_partition(parts):
    return "[" + ",".join(str(p) for p in parts) + "]"


def dominated(mu, lam):
    """mu <= lam in dominance order (same size assumed by the caller)."""
    a = b = 0
    for i in range(max(len(mu), len(lam))):
        a += mu[i] if i < len(mu) else 0
        b += lam[i] if i < len(lam) else 0
        if a > b:
            return False
    return True


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0))


def syt_count(lam):
    """Standard Young tableaux of shape lam, by the hook length formula."""
    n = sum(lam)
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(n) // hooks


@lru_cache(maxsize=None)
def skew_syt_count(outer, inner):
    """Standard fillings of outer/inner: remove one outer corner at a time."""
    if sum(outer) == sum(inner):
        return 1 if outer == inner else 0
    total = 0
    for i, row in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        inner_row = inner[i] if i < len(inner) else 0
        if row > below and row > inner_row:
            smaller = outer[:i] + (row - 1,) + outer[i + 1:]
            total += skew_syt_count(tuple(p for p in smaller if p), inner)
    return total


def _horizontal_strips_above(lam, k):
    """Partitions mu containing lam with mu/lam a horizontal strip of size k."""
    rows = list(lam) + [0]
    out = []

    def rec(i, left, acc):
        if i == len(rows):
            if left == 0:
                out.append(tuple(p for p in acc if p))
            return
        room = (rows[i - 1] - rows[i]) if i else left
        for add in range(min(room, left), -1, -1):
            rec(i + 1, left - add, acc + [rows[i] + add])

    rec(0, k, [])
    return out


def kostka(lam, weight):
    """Semistandard tableaux of shape lam and content weight."""
    layer = {(): 1}
    for w in weight:
        nxt = {}
        for mu, c in layer.items():
            for nu in _horizontal_strips_above(mu, w):
                if len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam)):
                    nxt[nu] = nxt.get(nu, 0) + c
        layer = nxt
    return layer.get(tuple(lam), 0)


def core_and_quotient(lam, n):
    """n-core size and n-quotient via beta numbers on an abacus."""
    length = len(lam) + (-len(lam)) % n
    betas = [(lam[i] if i < len(lam) else 0) + length - 1 - i
             for i in range(length)]
    runners = [sorted((b // n for b in betas if b % n == r), reverse=True)
               for r in range(n)]
    quotient = []
    core_betas = []
    for r, beads in enumerate(runners):
        k = len(beads)
        quotient.append(tuple(p for p in
                              (beads[i] - (k - 1 - i) for i in range(k)) if p))
        core_betas += [n * i + r for i in range(k)]
    core_betas.sort(reverse=True)
    core = [b - (len(core_betas) - 1 - i) for i, b in enumerate(core_betas)]
    return sum(core), quotient


# ---------------------------------------------------------------------------
# printed scalars

_TERM = re.compile(r"^(\d+)?(?:\*?q(?:\^(\d+))?)?(?:\*?t(?:\^(\d+))?)?$")


def parse_intpoly(text):
    """Parse the package's printed integer polynomial in q, t (no fractions)
    into {(deg_q, deg_t): coeff}; None if the text is not of that form."""
    text = text.strip()
    if not text or "/" in text or "(" in text:
        return None
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = {}
    for piece in re.split(r" ([+-]) ", text):
        if piece in "+-":
            sign = -1 if piece == "-" else 1
            continue
        m = _TERM.match(piece)
        if not m or not piece:
            return None
        coef = int(m.group(1)) if m.group(1) else 1
        dq = (int(m.group(2)) if m.group(2) else 1) if "q" in piece else 0
        dt = (int(m.group(3)) if m.group(3) else 1) if "t" in piece else 0
        out[(dq, dt)] = out.get((dq, dt), 0) + sign * coef
    return {k: c for k, c in out.items() if c}


def _poly_mul(a, b):
    out = {}
    for (aq, at), ac in a.items():
        for (bq, bt), bc in b.items():
            k = (aq + bq, at + bt)
            out[k] = out.get(k, 0) + ac * bc
    return {k: c for k, c in out.items() if c}


def hall_littlewood_b(lam):
    """b_lam(t) = prod over part sizes i of prod_{j<=m_i} (1 - t^j): the m_lam
    coefficient of Q_lam(x; t), which is F_lam of the Macdonald module at
    q = 0."""
    out = {(0, 0): 1}
    for size in set(lam):
        for j in range(1, lam.count(size) + 1):
            out = _poly_mul(out, {(0, 0): 1, (0, j): -1})
    return out


# ---------------------------------------------------------------------------
# output checks

def parse_expansion(stdout, basis):
    """Lines '<basis>[...] <coeff>' -> list of (partition, coeff text)."""
    terms = []
    for line in stdout.splitlines():
        if not line.startswith(basis + "["):
            raise ValueError(f"unexpected line {line!r}")
        head, _, coeff = line.partition(" ")
        terms.append((parse_partition(head[len(basis):]), coeff))
    return terms


def check_unitriangular(stdout, basis, lam):
    """Macdonald G_lam: leading term <basis>[lam] 1, all others dominated."""
    terms = parse_expansion(stdout, basis)
    if not terms or terms[0] != (lam, "1"):
        return f"first term is not {basis}{fmt_partition(lam)} 1"
    for mu, _ in terms[1:]:
        if sum(mu) != sum(lam) or not dominated(mu, lam) or mu == lam:
            return f"{basis}{fmt_partition(mu)} not strictly dominated by lam"
    return None


def check_hall_littlewood(stdout, lam):
    """Macdonald F_lam at q=0 in the m basis: leading coefficient b_lam(t),
    every coefficient a polynomial in t alone, every index dominated."""
    terms = parse_expansion(stdout, "m")
    if not terms or terms[0][0] != lam:
        return f"first term is not m{fmt_partition(lam)}"
    if parse_intpoly(terms[0][1]) != hall_littlewood_b(lam):
        return "leading coefficient is not b_lam(t)"
    for mu, coeff in terms:
        poly = parse_intpoly(coeff)
        if poly is None or any(dq for dq, _ in poly):
            return f"coefficient of m{fmt_partition(mu)} is not in Z[t]"
        if sum(mu) != sum(lam) or not dominated(mu, lam):
            return f"m{fmt_partition(mu)} not dominated by lam"
    return None


def check_schur_positive(stdout, degree, syt_total):
    """An s-expansion with nonnegative integer coefficients whose weighted
    sum of SYT counts equals syt_total (the SYT count of the whole skew or
    product shape)."""
    terms = parse_expansion(stdout, "s")
    weighted = 0
    for mu, coeff in terms:
        if not coeff.isdigit() or int(coeff) < 1:
            return f"coefficient {coeff!r} of s{fmt_partition(mu)} is not a positive integer"
        if sum(mu) != degree:
            return f"s{fmt_partition(mu)} has the wrong degree"
        weighted += int(coeff) * syt_count(mu)
    if weighted != syt_total:
        return f"weighted SYT count {weighted} != {syt_total}"
    return None


def product_syt_total(shapes):
    """SYT count of a disjoint union of shapes: the multinomial coefficient
    times the product of the parts' SYT counts."""
    total, left = 1, sum(sum(s) for s in shapes)
    for s in shapes:
        total *= comb(left, sum(s)) * syt_count(s)
        left -= sum(s)
    return total


def check_tableaux(stdout, lam, weight):
    """fermionic U-chains: one unit-coefficient chain per SSYT, so the total
    and the chain count are the Kostka number."""
    lines = stdout.splitlines()
    want = kostka(lam, weight)
    if not lines or lines[0] != f"total: {want}":
        return f"total line {lines[0] if lines else ''!r} != 'total: {want}'"
    chains = lines[1:]
    if len(chains) != want:
        return f"{len(chains)} chains listed, want {want}"
    for c in chains:
        steps = c.strip().split(" -> ")
        if steps[-1] != fmt_partition(lam) or "(" in c:
            return f"bad chain {c!r}"
    return None


_VERDICT = re.compile(r"^(\w+): (pass|FAIL) \((\d+) checked, (\d+) failed\)$")


def parse_verdicts(stdout):
    """Suite verdict lines -> {suite: (passed, checked, failed)}."""
    out = {}
    for line in stdout.splitlines():
        m = _VERDICT.match(line.strip())
        if m:
            out[m.group(1)] = (m.group(2) == "pass", int(m.group(3)),
                               int(m.group(4)))
    return out


def check_verify(stdout, suite, checked):
    got = parse_verdicts(stdout).get(suite)
    if got != (True, checked, 0):
        return f"{suite} verdict {got} != pass with {checked} checked"
    return None


def check_converse(stdout, expect):
    """expect maps commutation/du/pieri to True (pass), False (FAIL) or None
    (either); at least one condition must fail when any is expected to."""
    got = parse_verdicts(stdout)
    for cond in ("commutation", "du", "pieri"):
        if cond not in got:
            return f"no {cond} verdict"
        if got[cond][1] < 1:
            return f"{cond} checked nothing"
        want = expect.get(cond)
        if want is not None and got[cond][0] != want:
            return f"{cond} verdict {got[cond][0]} != {want}"
    if False in expect.values() or None in expect.values():
        if all(v[0] for v in got.values()):
            return "corrupted bundle passed every condition"
    elif "precondition (independent G family): ok" not in stdout:
        return "precondition not ok on a genuine bundle"
    return None


def check_error(stderr, prefix="error:"):
    lines = stderr.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith(prefix):
        return f"stderr is not one '{prefix}' line: {stderr.strip()[:120]!r}"
    return None


def judge(cmd, code, stdout, stderr, golden=None):
    """Check one CLI command's result; returns (reason or None, known).

    known is True only when the failure is the command's listed known
    defect: cmd["known_defect"] = (exit code, exception name), seen as that
    exit code with a traceback ending in that exception.  Any other crash
    is an unknown failure."""
    if TRACEBACK in stderr:
        last = stderr.strip().splitlines()[-1]
        defect = cmd.get("known_defect")
        known = (defect is not None and code == defect[0]
                 and last.startswith(defect[1] + ":"))
        return f"traceback: {last[:120]}", known
    if code != cmd["exit"]:
        return f"exit code {code} != {cmd['exit']}", False
    if cmd["exit"] == 2 or cmd["kind"] == "hostile":
        return check_error(stderr), False
    if stderr.strip():
        return f"unexpected stderr {stderr.strip()[:120]!r}", False
    if golden is not None and stdout != golden:
        return "stdout differs from the golden text", False
    return CHECKS[cmd["check"][0]](stdout, *cmd["check"][1:]), False


CHECKS = {
    "unitriangular": check_unitriangular,
    "hall_littlewood": check_hall_littlewood,
    "schur_positive": check_schur_positive,
    "tableaux": check_tableaux,
    "verify": check_verify,
    "converse": check_converse,
}
