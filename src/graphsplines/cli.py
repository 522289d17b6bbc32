"""Command-line front end.

Subcommands: verify, flowup, q, check-basis, search, obstruct, probe.
Exit status is 0 on affirmative verdicts (UNDECIDED included), 1 on negative
verdicts, and 2 on errors, a standard output closed by its reader included.
Reports are human-readable by default and machine-readable with --json; both
carry identical verdicts.

``obstruct`` decides whether a 3-cycle with pairwise coprime labels a
(v1~v2), b (v2~v3) and c (v3~v1) has no flow-up class basis, that is whether
a lies outside the ideal (b, c), and prints a found basis as the certificate
of "no". Over QQ[vars] it runs ``search`` without a degree bound, that is at
the forced degree D = max(deg a, deg b + deg c), which decides the question
when every label is homogeneous. Over ZZ[x] with b or c of leading
coefficient 1 or -1 it decides membership in ZZ[x]/(that label), a lattice,
with one Hermite normal form. Every other triangle exits 2 with the
GraphError code UNDECIDABLE.

``search`` without ``--degree`` runs at the forced degree D = max_i deg L_i;
a NONEXISTENT report then says whether it holds at every degree, which it
does when every label is homogeneous.

``probe`` decides whether q divides the determinant of every n splines by
the exact rule of ``basis.divides_all_dets_probe``: one division of Q by q,
then at most one of a triangular pool's determinant. It samples nothing;
``--trials`` and ``--seed`` are accepted and echoed, and the yes line reads
"sampled determinants", so that existing callers' reports stay stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .basis import (
    Provenance,
    SplineMatrix,
    check_basis,
    compute_q,
    divides_all_dets_probe,
)
from .errors import GraphError, ParseError, SplineAlgebraError
from .graphs import LabeledGraph, load_graph
from .lattice import hermite_normal_form, integer_flow_up_basis
from .polynomials import RAT, Polynomial, number_text, pack_exponents, packed_numerators
from .search import flow_up_search_bounded
from .splines import flow_up_witness, is_spline

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 500

# obstruct over ZZ[x] leaves a triangle UNDECIDABLE when its monic label has a
# larger degree d: the HNF of the (d+1)-square matrix of residues took 0.11 s
# at d = 80, 3.5 s at d = 160 and more than two minutes at d = 320, with
# Python 3.11 on a 2-core host.
_MAX_LATTICE_DEGREE = 100


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsplines",
        description="Exact computation with generalized splines on edge-labeled graphs.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("graph", help="path to a graph JSON document")
        sub.add_argument("--json", action="store_true", help="machine-readable report")
        sub.add_argument(
            "--vertex-order",
            help="comma-separated permutation of the vertex names to use",
        )
        return sub

    sub = subcommand("verify", "check whether a vertex labeling is a spline")
    sub.add_argument(
        "--spline", required=True, help="comma-separated entries, one per vertex"
    )

    subcommand(
        "flowup",
        "flow-up class basis over the integers, or a witness table otherwise",
    )

    subcommand("q", "the Q invariant with its provenance")

    sub = subcommand("check-basis", "determinantal basis check of candidate columns")
    sub.add_argument(
        "--spline",
        action="append",
        required=True,
        help="one candidate column (repeat the flag, once per column)",
    )

    sub = subcommand("search", "bounded search for a flow-up class basis")
    sub.add_argument(
        "--factors",
        required=True,
        help="semicolon-separated factor multiset of the label product",
    )
    sub.add_argument(
        "--degree", type=int,
        help="total degree bound for entries (default: the forced degree, the largest "
             "degree of a forced leading term; a NONEXISTENT report then says whether "
             "it holds at every degree)",
    )

    subcommand(
        "obstruct",
        "does a 3-cycle with labels a, b, c have no flow-up class basis, "
        "that is, is a outside the ideal (b, c)?",
    )

    sub = subcommand("probe", "does q divide the determinant of every n splines?")
    sub.add_argument("--q", help="divisor to probe (default: the computed Q invariant)")
    sub.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                     help="accepted and echoed; the decision samples nothing")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="accepted and echoed; the decision samples nothing")

    return parser


def _load(args) -> LabeledGraph:
    with open(args.graph, encoding="utf-8") as handle:
        graph = load_graph(handle.read())
    if args.vertex_order:
        names = [name.strip() for name in args.vertex_order.split(",")]
        graph = graph.reorder(names)
    return graph


def _parse_element(ring, text: str, where: str):
    """Parse one ring element; a parse error names ``where`` the text came from.

    The parser's offset is reported as a character of that text, so it is
    not mistaken for a column of a spline matrix.
    """
    try:
        return ring.element_from_text(text)
    except ParseError as exc:
        raise ValueError(f"{where}, character {exc.position + 1}: {exc.reason}") from None


def _parse_spline(graph: LabeledGraph, text: str, index: int, parsed: dict) -> tuple:
    """The ``index``-th (1-based) ``--spline`` argument as a tuple of entries.

    ``parsed`` maps each stripped entry text already read in this call to
    its element, so a text is parsed once however often it occurs. A text
    that fails to parse is not stored: it raises where it first occurs.
    """
    entries = []
    for k, piece in enumerate(text.split(","), start=1):
        piece = piece.strip()
        entry = parsed.get(piece)
        if entry is None:
            entry = parsed[piece] = _parse_element(
                graph.ring, piece, f"--spline {index}, entry {k}"
            )
        entries.append(entry)
    if len(entries) != graph.n:
        raise ValueError(
            f"--spline {index}: spline has {len(entries)} entries; "
            f"the graph has {graph.n} vertices"
        )
    return tuple(entries)


def _spline_text(graph: LabeledGraph, spline) -> str:
    return "(" + ", ".join(graph.ring.to_text(entry) for entry in spline) + ")"


def _cmd_verify(args):
    graph = _load(args)
    candidate = _parse_spline(graph, args.spline, 1, {})
    check = is_spline(graph, candidate)
    lines = [f"graph: {graph.describe()}"]
    if not args.json:  # only the text report shows the candidate
        lines.append(f"candidate: {_spline_text(graph, candidate)}")
    lines.append(f"SPLINE: {'yes' if check.ok else 'no'}")
    violations = []
    for violation in check.violations:
        lines.append(f"  violated {violation}")
        violations.append(
            {
                "edge": violation.edge_index,
                "u": violation.u,
                "v": violation.v,
                "label": violation.label_text,
            }
        )
    report = {
        "command": "verify",
        "verdict": "yes" if check.ok else "no",
        "violations": violations,
    }
    return (0 if check.ok else 1), report, lines


def _cmd_flowup(args):
    graph = _load(args)
    ring = graph.ring
    lines = [f"graph: {graph.describe()}"]
    if ring.kind == "int":
        basis = integer_flow_up_basis(graph)
        report = {"command": "flowup", "verdict": "yes", **basis.to_document()}
        if args.json:  # the JSON report holds the numbers, not the text
            return 0, report, lines
        lines.append("flow-up class basis (columns):")
        for k, column in enumerate(basis.columns):
            lines.append(f"  B{k + 1} = {_spline_text(graph, column)}")
        # the tuple's repr, one-entry "(d,)" included, without str() on each int
        diagonal = ", ".join(map(number_text, basis.diagonal))
        lines.append(f"diagonal: ({diagonal}{',' if len(basis.diagonal) == 1 else ''})")
        lines.append(f"determinant: {number_text(basis.determinant)}")
        return 0, report, lines
    # both reports print the same entry texts, so each is printed once
    witnesses = [[ring.to_text(ring.one)] * graph.n]
    witnesses += [
        [ring.to_text(entry) for entry in flow_up_witness(graph, index)]
        for index in range(1, graph.n)
    ]
    lines.append("flow-up witness table (one representative per nonzero class):")
    lines.append(f"  class 0: ({', '.join(witnesses[0])}) (constant spline)")
    for index in range(1, graph.n):
        lines.append(f"  class {index}: ({', '.join(witnesses[index])})")
    report = {"command": "flowup", "verdict": "yes", "witnesses": witnesses}
    return 0, report, lines


def _cmd_q(args):
    graph = _load(args)
    invariant = compute_q(graph)
    q_text = graph.ring.to_text(invariant.value)
    lines = [f"graph: {graph.describe()}"]
    lines.append(f"Q = {q_text} (provenance: {invariant.provenance.value})")
    if invariant.provenance is Provenance.LCM_LOWER_BOUND:
        lines.append(
            "note: this Q only divides every n-subset determinant; "
            "basis checks against it are one-directional"
        )
    report = {
        "command": "q",
        "verdict": "yes",
        "q": q_text,
        "provenance": invariant.provenance.value,
    }
    return 0, report, lines


def _cmd_check_basis(args):
    graph = _load(args)
    parsed: dict = {}  # one parse per distinct entry text, for this call only
    columns = [
        _parse_spline(graph, text, index, parsed)
        for index, text in enumerate(args.spline, start=1)
    ]
    matrix = SplineMatrix(graph, columns)
    invariant = compute_q(graph)
    verdict = check_basis(matrix, invariant)
    if verdict.is_basis is True:
        word, code = "yes", 0
    elif verdict.is_basis is False:
        word, code = "no", 1
    else:
        word, code = "UNDECIDED", 0
    ring = graph.ring
    determinant, q_text = ring.to_text(verdict.determinant), ring.to_text(invariant.value)
    unit = ring.to_text(verdict.unit_factor) if verdict.is_basis else None
    lines = [f"graph: {graph.describe()}"]
    lines.append(f"determinant: {determinant}")
    lines.append(f"Q = {q_text} ({invariant.provenance.value})")
    lines.append(f"BASIS: {word}" + (f" (unit {unit})" if verdict.is_basis else ""))
    if verdict.is_basis is not True:
        lines.append(f"  reason: {verdict.reason}")
    report = {
        "command": "check-basis",
        "verdict": word,
        "determinant": determinant,
        "q": q_text,
        "provenance": invariant.provenance.value,
        "unit": unit,
        "reason": verdict.reason,
    }
    return code, report, lines


def _cmd_search(args):
    graph = _load(args)
    ring = graph.ring
    factors = [
        _parse_element(ring, piece.strip(), f"--factors, factor {k}")
        for k, piece in enumerate(args.factors.split(";"), start=1)
    ]
    outcome = flow_up_search_bounded(graph, factors, args.degree)
    lines = [f"graph: {graph.describe()}"]
    if outcome.found:
        # both reports print the same entry texts, so each is printed once
        document = outcome.basis.to_document()
        lines.append("flow-up class basis found:")
        for k, column in enumerate(document["columns"]):
            lines.append(f"  B{k + 1} = ({', '.join(column)})")
        determinant = ring.to_text(outcome.determinant)
        lines.append(f"determinant: {determinant}")
        report = {
            "command": "search",
            "verdict": "yes",
            "degree_bound": outcome.degree_bound,
            "determinant": determinant,
            **document,
        }
        return 0, report, lines
    lines.append(
        f"NONEXISTENT({outcome.degree_bound}): no flow-up class basis with entry "
        f"degrees <= {outcome.degree_bound}"
    )
    lines.append(
        f"  covered {outcome.assignments_total} factor assignments "
        f"({outcome.systems_checked} distinct leading-term systems, all infeasible)"
    )
    report = {
        "command": "search",
        "verdict": "no",
        "degree_bound": outcome.degree_bound,
        "assignments_total": outcome.assignments_total,
        "systems_checked": outcome.systems_checked,
    }
    if args.degree is None:
        report["every_degree"] = outcome.every_degree
        lines.append("  every degree: yes (every label is homogeneous, so no degree has a basis)"
                     if outcome.every_degree else
                     "  every degree: no (a label is not homogeneous, so a higher degree may)")
    return 1, report, lines


def _triangle_labels(graph: LabeledGraph):
    """Labels of a 3-cycle in role order: (v1~v2, v2~v3, v3~v1)."""
    if graph.n != 3 or len(graph.edges) != 3:
        raise ValueError("the obstruction test needs a 3-cycle graph")
    roles = {}
    for edge in graph.edges:
        key = frozenset((edge.u, edge.v))
        if key in roles:
            raise ValueError("the obstruction test needs three distinct edges")
        roles[key] = edge.label
    try:
        return (
            roles[frozenset((0, 1))],
            roles[frozenset((1, 2))],
            roles[frozenset((2, 0))],
        )
    except KeyError:
        raise ValueError("the obstruction test needs a 3-cycle graph") from None


def _residues(p: Polynomial, m: Polynomial) -> list[int]:
    """Coefficients of x^0, ..., x^(d-1) in p mod m, for p and m in ZZ[x] and
    m of degree d with leading coefficient 1 or -1."""
    d = m.total_degree()
    size = max(p.total_degree(), d) + 1
    keys = [pack_exponents((e,), size) for e in range(size)]  # x^e in the packed maps
    numerators = packed_numerators(p, size)[0]
    rest = [numerators.get(key, 0) for key in keys]
    numerators = packed_numerators(m, size)[0]
    divisor = [(e, numerators[key]) for e, key in enumerate(keys) if key in numerators]
    lead = m.leading_coefficient()  # its own inverse
    for k in range(size - 1, d - 1, -1):
        quotient = rest[k] * lead
        if quotient:
            for e, coefficient in divisor:
                rest[k - d + e] -= quotient * coefficient
    return rest[:d]


def _zz_lattice_basis(graph: LabeledGraph, labels) -> SplineMatrix | None:
    """The columns (1,1,1), (0, a, y*c), (0, 0, b*c) when a is in (b, c) over
    ZZ[x], or None when it is not.

    One of b and c, m of degree d, must have leading coefficient 1 or -1:
    then ZZ[x]/(m) is ZZ^d, and a is in (b, c) iff a mod m is in the
    ZZ-span of x^i * (the other label) mod m for i < d. Those spans are the
    columns of M, with a mod m last and the row (0, ..., 0, 1) below; the
    column HNF H = M*U has the column e_d exactly when a mod m is a member,
    and then U's column over it gives the coefficients. Labels that are not
    pairwise coprime raise ``ValueError``; any other ring or pair of labels,
    or d above _MAX_LATTICE_DEGREE, raises ``GraphError`` with code
    UNDECIDABLE.
    """
    ring = graph.ring
    invariant = compute_q(graph)
    if invariant.provenance is not Provenance.COPRIME_PRODUCT:
        raise ValueError("the obstruction test needs pairwise coprime labels")
    a, b, c = labels
    monic = [(m, other) for m, other in ((b, c), (c, b)) if m.leading_coefficient() in (1, -1)]
    if len(ring.variables) != 1 or not monic:
        raise GraphError("UNDECIDABLE", "over integer coefficients only ZZ[x] with b or c of "
                         "leading coefficient 1 or -1 is decided")
    m, other = min(monic, key=lambda pair: pair[0].total_degree())
    d = m.total_degree()
    if d > _MAX_LATTICE_DEGREE:
        raise GraphError("UNDECIDABLE", f"the monic label has degree {d}, above "
                         f"{_MAX_LATTICE_DEGREE}")
    x = ring.variable(ring.variables[0])
    spans = [_residues(other * x ** i, m) for i in range(d)] + [_residues(a, m)]
    unit_column = [0] * d + [1]
    hnf, transform = hermite_normal_form(list(zip(*spans)) + [unit_column])
    member = next((j for j in range(d + 1) if [row[j] for row in hnf] == unit_column), None)
    if member is None:
        return None
    # a = s*other + t*m; the column's third entry is y*c, divisible by c, with b | a - y*c
    s = Polynomial(ring.variables, ring.coeff_kind,
                   {(i,): -transform[i][member] for i in range(d)})
    third = a - s * b if m is c else s * c
    matrix = SplineMatrix(graph, [(ring.one,) * 3, (ring.zero, a, third),
                                  (ring.zero, ring.zero, b * c)])
    if not check_basis(matrix, invariant).is_basis:
        raise AssertionError("the sufficiency columns must pass the determinant criterion")
    return matrix


def _cmd_obstruct(args):
    graph = _load(args)
    ring = graph.ring
    if ring.kind != "poly":
        raise ValueError("the obstruction test is for polynomial rings")
    labels = _triangle_labels(graph)
    if ring.coeff_kind == RAT:
        # at the forced degree; a NONEXISTENT that holds at every degree is "yes"
        outcome = flow_up_search_bounded(graph, [label for label in labels
                                                 if not ring.is_unit(label)])
        if not (outcome.found or outcome.every_degree):
            raise GraphError("UNDECIDABLE", f"NONEXISTENT({outcome.degree_bound}) rules out "
                             "no higher degree when a label is not homogeneous")
        method, basis = "graded-search", outcome.basis
    else:
        method, basis = "zz-lattice", _zz_lattice_basis(graph, labels)
    a, b, c = (ring.to_text(label) for label in labels)
    lines = [f"graph: {graph.describe()}"]
    lines.append(f"labels in role order: a={a}, b={b}, c={c}; ideal test: {method}")
    report = {"command": "obstruct", "verdict": "yes", "ideal_test": method}
    if basis is None:
        lines.append(
            "OBSTRUCTED: yes (a is outside the ideal generated by b and c; "
            "no flow-up class basis exists)"
        )
        return 0, report, lines
    columns = basis.to_document()["columns"]
    lines.append("OBSTRUCTED: no (a is in the ideal generated by b and c)")
    lines.append("flow-up class basis:")
    lines += [f"  B{k} = ({', '.join(column)})" for k, column in enumerate(columns, start=1)]
    report.update(verdict="no", columns=columns)
    return 1, report, lines


def _cmd_probe(args):
    graph = _load(args)
    ring = graph.ring
    q_value = None if args.q is None else _parse_element(ring, args.q, "--q")
    invariant = compute_q(graph)  # the one Q of this call: the default q and the verdict's
    q_value = invariant.value if q_value is None else q_value
    result = divides_all_dets_probe(graph, q_value, args.trials, args.seed, invariant)
    q_text = ring.to_text(q_value)
    lines = [f"graph: {graph.describe()}"]
    lines.append(f"q = {q_text}, trials = {args.trials}, seed = {args.seed}")
    report = {"command": "probe", "q": q_text, "trials": args.trials, "seed": args.seed}
    if result.ok:
        lines.append(f"PROBE: ok (q divides all {args.trials} sampled determinants)")
        report["verdict"] = "yes"
        return 0, report, lines
    columns = [[ring.to_text(entry) for entry in column] for column in result.counterexample or ()]
    report.update(verdict="UNDECIDED" if result.ok is None else "no", counterexample=columns or None,
                  Q=ring.to_text(invariant.value), provenance=invariant.provenance.value)
    bound = f"Q = {report['Q']} ({report['provenance']})"
    if result.ok is None:
        lines.append(f"PROBE: UNDECIDED (q divides the pool's determinant but not {bound}, "
                     "which only divides every determinant)")
    elif columns:
        lines.append("PROBE: counterexample found (q does not divide its determinant):")
        lines += [f"  C{k} = ({', '.join(column)})" for k, column in enumerate(columns, start=1)]
    else:
        lines.append(f"PROBE: no (q does not divide {bound}, the gcd of all determinants)")
    return (0 if result.ok is None else 1), report, lines


_HANDLERS = {
    "verify": _cmd_verify,
    "flowup": _cmd_flowup,
    "q": _cmd_q,
    "check-basis": _cmd_check_basis,
    "search": _cmd_search,
    "obstruct": _cmd_obstruct,
    "probe": _cmd_probe,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs more than a small command; parse_args keeps
    # no state in it between calls.
    return build_parser()


# the options whose value can start with "-", as a negative entry or factor does
_DASH_VALUE_OPTIONS = frozenset({"--spline", "--q", "--factors", "--vertex-order"})


def _join_dash_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """``argv`` with each of _DASH_VALUE_OPTIONS and a separate value that
    starts with a single "-" joined into one ``--option=value`` argument.

    argparse reads a separate value that starts with "-" as an option, but
    reads the value of the joined form as it stands. An option may be
    abbreviated, as argparse allows, to a prefix of exactly one option of
    the subcommand of ``parser`` that ``argv`` chooses. Arguments after "--"
    are left alone.
    """
    command = next((token for token in argv if not token.startswith("-")), None)
    options = _subcommand_options(parser, command)
    joined: list[str] = []
    for token in argv:
        if (joined and _option_named(joined[-1], options) in _DASH_VALUE_OPTIONS
                and "--" not in joined and token.startswith("-") and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _subcommand_options(parser: argparse.ArgumentParser, command) -> list[str]:
    """The option strings of ``parser``'s subcommand ``command``, or none if
    it has no such subcommand."""
    # argparse keeps its subcommands and their options only in these fields
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and command in action.choices:
            return list(action.choices[command]._option_string_actions)
    return []


def _option_named(token: str, options: list[str]) -> str | None:
    """The option of ``options`` that argparse reads ``token`` as: itself, or
    the only one it is a prefix of; None if there is no such option."""
    if token in options:
        return token
    if not token.startswith("--"):
        return None
    matches = [option for option in options if option.startswith(token)]
    return matches[0] if len(matches) == 1 else None


def _json_text(report: dict) -> str:
    """The report as indented JSON.

    json.dumps writes ints with str(), which refuses more than 4300 digits;
    only then is the report written again with each such int as its decimal
    string, since Python's json.loads would refuse to read it back as a
    number anyway.
    """
    try:
        return json.dumps(report, indent=2)
    except ValueError:
        return json.dumps(_long_ints_as_text(report), indent=2)


def _long_ints_as_text(value):
    if isinstance(value, dict):
        return {key: _long_ints_as_text(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_long_ints_as_text(item) for item in value]
    if isinstance(value, int) and len(number_text(value)) > sys.get_int_max_str_digits():
        return number_text(value)
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        args = parser.parse_args(_join_dash_values(argv, parser))
    except SystemExit as exc:
        # argparse has printed usage (status 2) or help (status 0)
        return exc.code
    try:
        code, report, lines = _HANDLERS[args.command](args)
    except (SplineAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _json_text(report) if args.json else "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`). Point stdout at devnull so the
        # interpreter's own flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
