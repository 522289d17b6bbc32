"""Independent checks of the CLI's ``--json`` outputs.

None of these calls into the package under test. Integer outputs are
checked with plain ``%``, ``math`` and the benchmark's own back-substitution
and fraction determinant; polynomial outputs with sympy. Each check returns
a list of problems, empty when the output is right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- integer checks ---------------------------------------------------------


def _int_det(columns) -> int:
    """Determinant by Gaussian elimination over Fraction."""
    n = len(columns)
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                for c in range(k, n):
                    a[r][c] -= factor * a[k][c]
    return int(det)


def _in_span(columns, target) -> bool:
    """Back-substitution down a lower-triangular integer basis."""
    rest = list(target)
    for k, column in enumerate(columns):
        quotient, remainder = divmod(rest[k], column[k])
        if remainder:
            return False
        for i in range(k, len(rest)):
            rest[i] -= quotient * column[i]
    return not any(rest)


def _int_violations(data, spline) -> list:
    return [
        index
        for index, ((u, v), label) in enumerate(zip(data["pairs"], data["labels"]))
        if (spline[u] - spline[v]) % label
    ]


def zz_flowup(call, out) -> list:
    data = call.data
    n = call.size["k"]
    columns = out["columns"]
    diagonal = out["diagonal"]
    problems = []
    if len(columns) != n or any(len(column) != n for column in columns):
        return [f"expected {n} columns of length {n}"]
    for j, column in enumerate(columns):
        if any(column[i] for i in range(j)) or column[j] <= 0:
            problems.append(f"column {j} is not lower triangular with positive diagonal")
        if _int_violations(data, column):
            problems.append(f"column {j} is not a spline")
    if diagonal != [columns[j][j] for j in range(n)]:
        problems.append("diagonal does not match the columns")
    if out["determinant"] != math.prod(diagonal):
        problems.append("determinant is not the diagonal product")
    last = [label for (u, v), label in zip(data["pairs"], data["labels"]) if n - 1 in (u, v)]
    if diagonal[-1] != math.lcm(*last):
        # a spline zero off the last vertex is a multiple of its incident labels
        problems.append("last pivot is not the lcm of the last vertex's labels")
    if problems:
        return problems
    if not _in_span(columns, [1] * n):
        problems.append("(1,...,1) is not in the span")
    for k in range(n):
        target = [data["lcm"] if i == k else 0 for i in range(n)]
        if not _in_span(columns, target):
            problems.append(f"L*e_{k} is not in the span")
    return problems


def _reference_q(call, problems) -> int:
    """Diagonal product of the flow-up basis fetched at set-up, once checked."""
    reference = call.data["flowup"]
    problems += [f"set-up flowup: {p}" for p in zz_flowup(call, reference)]
    return math.prod(reference["diagonal"])


def zz_q(call, out) -> list:
    problems = []
    if out["provenance"] != "pid-diagonal":
        problems.append(f"provenance {out['provenance']}")
    if int(out["q"]) != _reference_q(call, problems):
        problems.append("q is not the flow-up diagonal product")
    return problems


def zz_check_basis(call, out) -> list:
    problems = []
    det = _int_det(call.data["columns"])
    if int(out["determinant"]) != det:
        problems.append("determinant differs from the independent determinant")
    q = _reference_q(call, problems)
    if int(out["q"]) != q:
        problems.append("q is not the flow-up diagonal product")
    elif (abs(det) == q) != (out["verdict"] == "yes"):
        problems.append("verdict disagrees with det == +-q")
    return problems


def zz_verify(call, out) -> list:
    bad = _int_violations(call.data, call.data["spline"])
    reported = [violation["edge"] for violation in out["violations"]]
    problems = []
    if reported != bad:
        problems.append(f"violated edges {reported}, independent check says {bad}")
    if (out["verdict"] == "yes") != (not bad):
        problems.append("verdict disagrees with the edge congruences")
    return problems


# -- polynomial checks (sympy) ----------------------------------------------


class _Sym:
    """sympy view of one ring descriptor: parsing, division and units."""

    def __init__(self, ring):
        import sympy
        from sympy.polys.matrices import DomainMatrix

        self.sympy = sympy
        self.DomainMatrix = DomainMatrix
        self.integer = ring["coefficients"] == "int"
        self.gens = sympy.symbols(ring["variables"])
        self.names = {str(g): g for g in self.gens}
        self.domain = sympy.QQ[self.gens]

    def poly(self, text):
        expr = self.sympy.sympify(text.replace("^", "**"), locals=self.names)
        return self.sympy.Poly(expr, *self.gens, domain="QQ")

    def divides(self, a, b) -> bool:
        """a | b in the ring; over ZZ the quotient must have integer coefficients."""
        quotient, remainder = b.div(a)
        if not remainder.is_zero:
            return False
        return not self.integer or all(c.is_integer for c in quotient.coeffs())

    def unit_ratio(self, a, b) -> bool:
        """a is a unit multiple of b: a nonzero constant, +-1 over ZZ."""
        quotient, remainder = a.div(b)
        if not remainder.is_zero or not quotient.is_ground or quotient.is_zero:
            return False
        value = quotient.as_expr()
        return not self.integer or abs(value) == 1

    def det(self, columns):
        n = len(columns)
        to_domain = self.domain.from_sympy
        rows = [[to_domain(self.poly(columns[j][i]).as_expr()) for j in range(n)]
                for i in range(n)]
        value = self.DomainMatrix(rows, (n, n), self.domain).det()
        return self.sympy.Poly(self.domain.to_sympy(value), *self.gens, domain="QQ")

    def product(self, polys):
        out = self.sympy.Poly(1, *self.gens, domain="QQ")
        for p in polys:
            out = out * p
        return out


def _coprime(labels) -> bool:
    for a, b in itertools.combinations(labels, 2):
        if not a.gcd(b).is_ground:
            return False
    return True


def poly_probe(call, out) -> list:
    sym = _Sym(call.data["ring"])
    labels = [sym.poly(t) for t in call.data["labels"]]
    problems = []
    if not _coprime(labels):
        problems.append("labels are not pairwise coprime")
    if sym.poly(out["q"]) != sym.product(labels):
        problems.append("q is not the label product")
    return problems


def poly_check_basis(call, out) -> list:
    sym = _Sym(call.data["ring"])
    labels = [sym.poly(t) for t in call.data["labels"]]
    det = sym.det(call.data["columns"])
    q = sym.product(labels)
    problems = []
    if sym.poly(out["determinant"]) != det:
        problems.append("determinant differs from sympy's")
    if sym.poly(out["q"]) != q:
        problems.append("q is not the label product")
    if sym.unit_ratio(det, q) != (out["verdict"] == "yes"):
        problems.append("verdict disagrees with det == unit * q")
    return problems


def _is_spline(sym, pairs, labels, entries) -> bool:
    return all(sym.divides(label, entries[u] - entries[v])
               for (u, v), label in zip(pairs, labels))


def _cycle_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)]


def distinct_leading_tuples(keys, n: int) -> int:
    """Distinct per-position factor multisets over all n**len(keys) assignments."""
    seen = set()
    for assignment in itertools.product(range(n), repeat=len(keys)):
        slots = [[] for _ in range(n)]
        for key, position in zip(keys, assignment):
            slots[position].append(key)
        seen.add(tuple(tuple(sorted(slot)) for slot in slots))
    return len(seen)


def qq_search(call, out) -> list:
    sym = _Sym(call.data["ring"])
    n = call.data["n"]
    labels = [sym.poly(t) for t in call.data["labels"]]
    factors = [sym.poly(t).monic() for t in call.data["factors"]]
    problems = []
    if out["verdict"] == "no":
        if out["assignments_total"] != n ** len(factors):
            problems.append("assignments_total is not n**k")
        ids = {}
        keys = [ids.setdefault(str(f.as_expr()), len(ids)) for f in factors]
        if out["systems_checked"] != distinct_leading_tuples(keys, n):
            problems.append("systems_checked is not the distinct leading-term count")
        return problems
    columns = out["columns"]
    polys = [[sym.poly(t) for t in column] for column in columns]
    for j, column in enumerate(polys):
        if any(not column[i].is_zero for i in range(j)) or column[j].is_zero:
            problems.append(f"column {j} is not in flow-up class {j}")
        if not _is_spline(sym, _cycle_pairs(n), labels, column):
            problems.append(f"column {j} is not a spline")
    det = sym.det(columns)
    if sym.poly(out["determinant"]) != det:
        problems.append("determinant differs from sympy's")
    if not sym.unit_ratio(det, sym.product(labels)):
        problems.append("determinant is not a unit multiple of the label product")
    return problems


def gcd_q(call, out) -> list:
    sym = _Sym(call.data["ring"])
    labels = [sym.poly(t) for t in call.data["labels"]]
    problems = []
    if _coprime(labels):
        problems.append("labels are pairwise coprime; the lcm path is not exercised")
    if out["provenance"] != "lcm-lower-bound":
        problems.append(f"provenance {out['provenance']}")
    # over ZZ the lcm keeps the integer content, so take it in ZZ[vars]
    domain = "ZZ" if sym.integer else "QQ"
    lcm = labels[0].set_domain(domain)
    for label in labels[1:]:
        lcm = lcm.lcm(label.set_domain(domain))
    if not sym.unit_ratio(sym.poly(out["q"]), lcm.set_domain("QQ")):
        problems.append("q is not a unit multiple of sympy's label lcm")
    return problems


def gcd_verify(call, out) -> list:
    sym = _Sym(call.data["ring"])
    labels = [sym.poly(t) for t in call.data["labels"]]
    entries = [sym.poly(t) for t in call.data["spline"]]
    bad = [
        index
        for index, ((u, v), label) in enumerate(zip(_cycle_pairs(4), labels))
        if not sym.divides(label, entries[u] - entries[v])
    ]
    reported = [violation["edge"] for violation in out["violations"]]
    problems = []
    if reported != bad:
        problems.append(f"violated edges {reported}, independent check says {bad}")
    if (out["verdict"] == "yes") != (not bad):
        problems.append("verdict disagrees with the edge congruences")
    return problems


CHECKS = {
    "zz-flowup": zz_flowup,
    "zz-q": zz_q,
    "zz-check-basis": zz_check_basis,
    "zz-verify": zz_verify,
    "poly-probe": poly_probe,
    "poly-check-basis": poly_check_basis,
    "qq-search": qq_search,
    "gcd-q": gcd_q,
    "gcd-verify": gcd_verify,
}
