"""Seeded instance generators for the four benchmark workloads.

Every generator uses only the standard library and draws everything from
``random.Random(seed)``, so one seed always yields byte-identical graph
files and the same call list. The program under test only ever sees the
graph files and the argv of each call.

A workload is a list of graph documents plus one *cycle* of calls. The
timed loop replays whole cycles, so the mix of call kinds and sizes is the
same in every run; within a cycle the calls are interleaved by size so that
no stretch of the loop is all small or all large instances.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("zz-lattice", "poly-det", "qq-search", "poly-gcd")


@dataclass
class Call:
    """One CLI invocation with its expected outcome and its check data.

    ``argv`` names the graph by file name; the harness swaps in the real
    path. ``check`` selects the independent output check in ``checks.py``
    and ``data`` carries what that check needs.
    """

    kind: str
    graph: str
    args: list
    expect_code: int
    expect_verdict: str
    check: str
    size: dict
    data: dict = field(default_factory=dict)

    def argv(self, directory: Path) -> list:
        return [self.kind, str(directory / self.graph), "--json", *self.args]


@dataclass
class Workload:
    graphs: dict  # file name -> graph document
    calls: list  # one cycle of Call


def write_graphs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, document in sorted(workload.graphs.items()):
        text = json.dumps(document, indent=1, sort_keys=True) + "\n"
        (directory / name).write_text(text, encoding="utf-8")


def interleave(groups) -> list:
    """Round-robin merge of call groups, so every prefix mixes all groups."""
    out = []
    for layer in itertools.zip_longest(*groups):
        out.extend(call for call in layer if call is not None)
    return out


def _vertices(n: int) -> list:
    return [f"v{i + 1}" for i in range(n)]


def _graph(ring: dict, n: int, pairs, labels) -> dict:
    names = _vertices(n)
    return {
        "ring": ring,
        "vertices": names,
        "edges": [
            {"u": names[u], "v": names[v], "label": label}
            for (u, v), label in zip(pairs, labels)
        ],
    }


def cycle_pairs(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def complete_pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def linear_text(coefficients, names, constant=0) -> str:
    """Text of sum(c_i * name_i) + constant in the CLI's label grammar."""
    pieces = [(c, name) for c, name in zip(coefficients, names) if c]
    if constant:
        pieces.append((constant, ""))
    if not pieces:
        return "0"
    out = ""
    for c, name in pieces:
        magnitude = abs(c)
        body = name if (magnitude == 1 and name) else (
            f"{magnitude}*{name}" if name else str(magnitude)
        )
        if not out:
            out = f"-{body}" if c < 0 else body
        else:
            out += f" - {body}" if c < 0 else f" + {body}"
    return out


def _combination(terms) -> str:
    """Text of sum(u * (t)) over (u, t) with nonzero u and t != "0"."""
    parts = [f"({u})*({t})" for u, t in terms if u and t != "0"]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# zz-lattice: integer complete graphs with 9-digit labels
# ---------------------------------------------------------------------------

# One cycle holds one instance per entry. Every instance makes two verify
# calls, 20 of the 30 calls, so the median is a verify call (graph loading,
# argument parsing, rendering). The six K10 instances make the top 20% of
# the calls, so the 90th percentile is a K10 flow-up basis; one K10 basis
# costs +-25% depending on its labels, hence six of them.
ZZ_SIZES = (6, 7, 8, 9, 10, 10, 10, 10, 10, 10)
# instance i makes the heavy call ZZ_HEAVY[i % 4]
ZZ_HEAVY = ("flowup", "q", "basis", "scaled")


def zz_lattice(seed: int, flowup) -> Workload:
    """``flowup(graph_name, document)`` returns the CLI's flowup document.

    The check-basis "yes" candidate is the program's own flow-up basis, so
    it is fetched through the CLI while the instances are generated; that
    output is checked independently along with every timed call.
    """
    rng = random.Random(f"zz-lattice/{seed}")
    graphs = {}
    cheap, heavy = [], []
    for index, k in enumerate(ZZ_SIZES):
        labels = [rng.randrange(10**8, 10**9) for _ in complete_pairs(k)]
        name = f"zz{index:02d}-K{k}.json"
        document = _graph({"kind": "int"}, k, complete_pairs(k), [str(x) for x in labels])
        graphs[name] = document
        lcm = math.lcm(*labels)
        size = {"k": k, "edges": len(labels), "label_digits": 9}
        data = {"labels": labels, "pairs": complete_pairs(k), "lcm": lcm,
                "flowup": flowup(name, document)}
        kind = ZZ_HEAVY[index % len(ZZ_HEAVY)]
        if kind in ("flowup", "q"):
            heavy.append(Call(kind, name, [], 0, "yes", f"zz-{kind}", size, data))
        else:
            columns = data["flowup"]["columns"] if kind == "basis" else [
                [lcm if i == j else 0 for i in range(k)] for j in range(k)
            ]
            args = ["--spline=" + ",".join(str(x) for x in column) for column in columns]
            code, verdict = (0, "yes") if kind == "basis" else (1, "no")
            heavy.append(Call("check-basis", name, args, code, verdict, "zz-check-basis",
                              size, {**data, "columns": columns}))
        c = rng.randrange(10**8, 10**9)
        good = [lcm * rng.randint(-9, 9) + c for _ in range(k)]
        bad = good[:-1] + [good[-1] + 1]
        for spline, code, verdict in ((good, 0, "yes"), (bad, 1, "no")):
            cheap.append(Call("verify", name, ["--spline=" + ",".join(map(str, spline))],
                              code, verdict, "zz-verify", size, {**data, "spline": spline}))
    return Workload(graphs, interleave([heavy, cheap]))


# ---------------------------------------------------------------------------
# poly-det: Bareiss determinants over QQ[x,y] and ZZ[x,y]
# ---------------------------------------------------------------------------


# (alpha, beta) label directions: both nonzero, primitive, pairwise
# non-proportional. Seeds shuffle and negate them but never change their
# sizes, so the cost of a call does not depend on the seed.
DIRECTIONS = ((1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1), (1, 3), (3, 1))


def _signed_axes(rng) -> tuple:
    """A seeded signed permutation of the unit vectors: a unimodular pair."""
    axes = [(1, 0), (0, 1)]
    rng.shuffle(axes)
    return tuple((rng.choice((-1, 1)) * a, rng.choice((-1, 1)) * b) for a, b in axes)


def concurrent_cycle(rng, n: int):
    """Pairwise coprime affine-linear labels of an n-cycle through one point.

    Every label is a*(x - p) + b*(y - q). The directions of the last two
    labels, m1 and m2, form a unimodular pair, and every other direction is
    alpha*m1 + beta*m2 with (alpha, beta) from DIRECTIONS. Returns the label
    texts and the (alpha, beta) coordinates of each label.
    """
    m1, m2 = _signed_axes(rng)
    p, q = rng.choice((-1, 1)), rng.choice((-1, 1))
    coords = list(DIRECTIONS[: n - 2])
    rng.shuffle(coords)
    coords = [(a, b) if rng.random() < 0.5 else (-a, -b) for a, b in coords]
    coords += [(1, 0), (0, 1)]
    labels = []
    for alpha, beta in coords:
        a = alpha * m1[0] + beta * m2[0]
        b = alpha * m1[1] + beta * m2[1]
        labels.append(linear_text((a, b), ("x", "y"), -(a * p + b * q)))
    return labels, coords


def cycle_basis_entries(labels, coords) -> list:
    """Columns (as entry texts) of a flow-up basis of the concurrent n-cycle.

    Column j (1 <= j <= n-2) is l_{j-1} on rows j..n-2 and beta_j * l_{n-1}
    on the last row, where l_{j-1} = alpha_j * l_{n-2} + beta_j * l_{n-1};
    the last column is l_{n-2} * l_{n-1}. The determinant is the label
    product, so the set is a basis.
    """
    n = len(labels)
    columns = [["1"] * n]
    for j in range(1, n - 1):
        beta = coords[j - 1][1]
        column = ["0"] * j + [f"({labels[j - 1]})"] * (n - 1 - j)
        column.append(f"({beta})*({labels[n - 1]})")
        columns.append(column)
    columns.append(["0"] * (n - 1) + [f"({labels[n - 2]})*({labels[n - 1]})"])
    return columns


def mixed_columns(rng, columns) -> list:
    """Columns of C @ U, U unit upper triangular with seeded +-1 entries.

    det U = 1, so the mixed set is a basis exactly when C is; every entry
    becomes a combination of all earlier columns, which makes the matrix
    dense for the determinant.
    """
    n = len(columns)
    u = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)]
         for i in range(n)]
    return [
        [_combination((u[k][j], columns[k][i]) for k in range(n)) for i in range(n)]
        for j in range(n)
    ]


def distinct_lines(rng, m: int) -> list:
    """m pairwise non-proportional affine-linear forms a*x + b*y +- 1."""
    directions = [(1, 0), (0, 1), *DIRECTIONS][:m]
    rng.shuffle(directions)
    return [
        linear_text((sign * a, sign * b), ("x", "y"), rng.choice((-1, 1)))
        for a, b in directions
        for sign in [rng.choice((-1, 1))]
    ]


# (graph shape, vertex count, coefficient kind) of each probe instance; the
# eight costliest, QQ 5-cycles and ZZ 6-cycles, cost about the same and make
# the top quarter of a cycle's calls, where the 90th percentile falls
POLY_PROBES = (
    ("cycle", 4, "rat"), ("cycle", 5, "int"), ("complete", 4, "rat"), ("complete", 4, "int"),
    *[("cycle", 5, "rat")] * 4,
    *[("cycle", 6, "int")] * 4,
)
# (vertex count, coefficient kind) of each check-basis cycle, called with a
# basis and a non-basis; the QQ 5-cycles and ZZ 6-cycles cost about the
# same and hold the median
POLY_BASES = ((5, "rat"), (6, "int"), (5, "rat"), (6, "int"), (5, "rat"), (6, "int"),
              (5, "rat"), (6, "int"), (7, "int"))
PROBE_TRIALS = 2


def poly_det(seed: int) -> Workload:
    rng = random.Random(f"poly-det/{seed}")
    graphs = {}
    probes, bases = [], []
    for index, (shape, n, coeff) in enumerate(POLY_PROBES):
        ring = {"kind": "poly", "coefficients": coeff, "variables": ["x", "y"]}
        pairs = cycle_pairs(n) if shape == "cycle" else complete_pairs(n)
        labels = distinct_lines(rng, len(pairs))
        name = f"det{index:02d}-{shape}{n}-{coeff}.json"
        graphs[name] = _graph(ring, n, pairs, labels)
        size = {"shape": shape, "n": n, "coefficients": coeff, "trials": PROBE_TRIALS}
        probes.append(
            Call("probe", name, [f"--trials={PROBE_TRIALS}"],
                 0, "yes", "poly-probe", size, {"ring": ring, "labels": labels})
        )
    for index, (n, coeff) in enumerate(POLY_BASES):
        ring = {"kind": "poly", "coefficients": coeff, "variables": ["x", "y"]}
        labels, coords = concurrent_cycle(rng, n)
        name = f"det-basis{index:02d}-cycle{n}-{coeff}.json"
        graphs[name] = _graph(ring, n, cycle_pairs(n), labels)
        base = cycle_basis_entries(labels, coords)
        scaled = [list(column) for column in base]
        scaled[-1][-1] = f"x*{scaled[-1][-1]}"
        size = {"shape": "cycle", "n": n, "coefficients": coeff}
        for columns, code, verdict in (
            (mixed_columns(rng, base), 0, "yes"),
            (mixed_columns(rng, scaled), 1, "no"),
        ):
            args = ["--spline=" + ",".join(column) for column in columns]
            bases.append(
                Call("check-basis", name, args, code, verdict, "poly-check-basis",
                     size, {"ring": ring, "labels": labels, "columns": columns})
            )
    return Workload(graphs, interleave([probes, bases]))


# ---------------------------------------------------------------------------
# qq-search: bounded flow-up search on affine images of known base cases
# ---------------------------------------------------------------------------

# (base case, degree bound, copies per cycle); "xy" and "c4" have a
# flow-up basis at these bounds, "sq" and "c4n" are NONEXISTENT. The three
# "sq" calls are the 16th-20th percentile from the top of a cycle's 21, so
# the 90th percentile falls inside them; "sq" at degree 2 already
# enumerates all 729 assignments.
SEARCH_CASES = (("xy", 2, 8), ("xy", 3, 6), ("c4", 2, 3), ("sq", 2, 3), ("c4n", 2, 1))


def _search_base(case: str, X: str, Y: str):
    """(labels, factors) of a base case with x, y replaced by X, Y."""
    if case == "xy":
        labels = [X, Y, f"{X} + {Y}"]
        return labels, list(labels)
    if case == "sq":
        return (
            [f"{X}^2", f"{Y}^2", f"({X} + {Y})^2"],
            [X, X, Y, Y, f"{X} + {Y}", f"{X} + {Y}"],
        )
    if case == "c4":
        labels = [X, Y, f"{X} + {Y}", f"{X} - {Y}"]
        return labels, list(labels)
    if case == "c4n":
        labels = [X, Y, f"{X} + {Y}", f"{X} + 1"]
        return labels, list(labels)
    raise ValueError(case)


def affine_image(rng) -> tuple:
    """Texts of X, Y: a seeded signed permutation of x, y plus shifts 1, 2.

    The shifts have different sizes, so X + Y, X - Y and X + 1 all keep a
    constant term: every instance is inhomogeneous and costs the same.
    """
    names = ["x", "y"]
    rng.shuffle(names)
    shifts = [1, 2]
    rng.shuffle(shifts)
    return tuple(
        "(" + linear_text((rng.choice((-1, 1)),), (name,), shift) + ")"
        for name, shift in zip(names, shifts)
    )


def qq_search(seed: int) -> Workload:
    rng = random.Random(f"qq-search/{seed}")
    graphs = {}
    groups = []
    ring = {"kind": "poly", "coefficients": "rat", "variables": ["x", "y"]}
    for case, degree, copies in SEARCH_CASES:
        group = []
        for copy in range(copies):
            X, Y = affine_image(rng)
            labels, factors = _search_base(case, X, Y)
            n = len(labels)
            name = f"search-{case}-d{degree}-{copy}.json"
            graphs[name] = _graph(ring, n, cycle_pairs(n), labels)
            found = case in ("xy", "c4")
            size = {"case": case, "n": n, "factors": len(factors), "degree": degree}
            group.append(
                Call("search", name, ["--factors=" + ";".join(factors), f"--degree={degree}"],
                     0 if found else 1, "yes" if found else "no", "qq-search", size,
                     {"ring": ring, "labels": labels, "factors": factors, "n": n})
            )
        groups.append(group)
    return Workload(graphs, interleave(groups))


# ---------------------------------------------------------------------------
# poly-gcd: labels that share factors, so Q falls back to the label lcm
# ---------------------------------------------------------------------------

# (variable count, factor degree, coefficient kind, verify calls too) of
# each instance. The four trivariate q calls cost about the same and are
# the top 4 of a cycle's 19 calls, where the 90th percentile falls.
GCD_CASES = (
    (2, 2, "int", True), (2, 2, "rat", True), (2, 3, "int", True),
    (2, 3, "rat", True), (2, 4, "int", True), (3, 2, "int", False),
    (3, 2, "rat", False), (3, 2, "int", False), (3, 2, "rat", False),
)
GCD_VARIABLES = ("x", "y", "z")
# label i of the 4-cycle is the product of pool factors LABEL_FACTORS[i]
LABEL_FACTORS = ((0, 1), (1, 2), (2, 3), (3, 0))


def dense_factor(rng, names, degree: int) -> str:
    """Every monomial of total degree <= degree, coefficients in +-{1,2,3}.

    Dense generic factors keep the gcd's remainder sequence on its generic
    path, so the cost of a call depends on the sizes, not on the seed.
    """
    terms = []
    for exponents in itertools.product(range(degree + 1), repeat=len(names)):
        if sum(exponents) > degree:
            continue
        monomial = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e
        )
        terms.append((rng.choice((-3, -2, -1, 1, 2, 3)), monomial))
    out = ""
    for c, monomial in terms:
        body = f"{abs(c)}*{monomial}" if monomial else str(abs(c))
        if not out:
            out = f"-{body}" if c < 0 else body
        else:
            out += f" - {body}" if c < 0 else f" + {body}"
    return out


def poly_gcd(seed: int) -> Workload:
    rng = random.Random(f"poly-gcd/{seed}")
    graphs = {}
    qs, verifies = [], []
    for index, (nvars, degree, coeff, with_verify) in enumerate(GCD_CASES):
        names = GCD_VARIABLES[:nvars]
        ring = {"kind": "poly", "coefficients": coeff, "variables": list(names)}
        pool = [dense_factor(rng, names, degree) for _ in range(4)]
        labels = ["*".join(f"({pool[k]})" for k in ks) for ks in LABEL_FACTORS]
        name = f"gcd{index:02d}-v{nvars}-d{degree}-{coeff}.json"
        graphs[name] = _graph(ring, 4, cycle_pairs(4), labels)
        size = {"variables": nvars, "factor_degree": degree, "coefficients": coeff, "n": 4}
        data = {"ring": ring, "labels": labels}
        qs.append(Call("q", name, [], 0, "yes", "gcd-q", size, data))
        if not with_verify:
            continue
        lcm = "*".join(f"({f})" for f in pool)
        shift = linear_text([rng.choice((-2, -1, 1, 2)) for _ in names], names,
                            rng.randint(1, 5))
        # one entry carries the lcm, so parsing stays a small share of the call
        good = [f"({shift})"] * 4
        good[rng.randrange(4)] = f"({rng.choice((-2, -1, 1, 2))})*{lcm} + ({shift})"
        bad = good[:-1] + [f"{good[-1]} + 1"]
        for spline, code, verdict in ((good, 0, "yes"), (bad, 1, "no")):
            verifies.append(
                Call("verify", name, ["--spline=" + ",".join(spline)], code, verdict,
                     "gcd-verify", size, {**data, "spline": spline})
            )
    return Workload(graphs, interleave([qs, verifies]))


def build(name: str, seed: int, flowup=None) -> Workload:
    if name == "zz-lattice":
        return zz_lattice(seed, flowup)
    if name == "poly-det":
        return poly_det(seed)
    if name == "qq-search":
        return qq_search(seed)
    if name == "poly-gcd":
        return poly_gcd(seed)
    raise ValueError(f"unknown workload {name!r}")
