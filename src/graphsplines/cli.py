"""Command-line front end.

Subcommands: verify, flowup, q, check-basis, search, obstruct, probe.
Exit status is 0 on affirmative verdicts (UNDECIDED included), 1 on negative
verdicts, and 2 on errors, a standard output closed by its reader included.
Reports are human-readable by default and machine-readable with --json; both
carry identical verdicts.

Each subcommand is one library call plus printing. ``main`` loads the
graph, calls the subcommand's handler with it, and frames what the handler
returns: its report fields (a "verdict" of "yes", "no" or "UNDECIDED"
among them) and its text lines. ``main`` puts the "command" key first in
the report and the ``graph:`` line first in the text, and exits 1 exactly
when the verdict is "no".

``obstruct`` reports ``search.triangle_flow_up_basis``: whether a 3-cycle
with pairwise coprime labels a (v1~v2), b (v2~v3) and c (v3~v1) has no
flow-up class basis, that is whether a lies outside the ideal (b, c), with a
found basis as the certificate of "no". A triangle that the library leaves
undecided exits 2 with the GraphError code UNDECIDABLE.

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

from . import search
from .basis import (
    Provenance,
    SplineMatrix,
    check_basis,
    compute_q,
    divides_all_dets_probe,
)
from .errors import ParseError, SplineAlgebraError
from .graphs import LabeledGraph, load_graph
from .lattice import integer_flow_up_basis
from .rings import number_text
from .splines import flow_up_witness, is_spline

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 500


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
    if args.vertex_order is not None:
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


def _column_lines(name: str, columns) -> list[str]:
    """One line "  <name>k = (e1, e2, ...)" per column of entry texts, k from 1."""
    return [f"  {name}{k} = ({', '.join(column)})" for k, column in enumerate(columns, start=1)]


# Each handler takes the parsed arguments and the loaded graph, and returns
# its report fields, "verdict" included, and its text lines; main frames both.

def _cmd_verify(args, graph):
    candidate = _parse_spline(graph, args.spline, 1, {})
    check = is_spline(graph, candidate)
    lines = []
    if not args.json:  # only the text report shows the candidate
        lines.append(f"candidate: ({', '.join(map(graph.ring.to_text, candidate))})")
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
    return {"verdict": "yes" if check.ok else "no", "violations": violations}, lines


def _cmd_flowup(args, graph):
    ring = graph.ring
    if ring.kind == "int":
        basis = integer_flow_up_basis(graph)
        report = {"verdict": "yes", **basis.to_document()}
        if args.json:  # the JSON report holds the numbers, not the text
            return report, []
        lines = ["flow-up class basis (columns):"]
        lines += _column_lines("B", (map(number_text, column) for column in basis.columns))
        # the tuple's repr, one-entry "(d,)" included, without str() on each int
        diagonal = ", ".join(map(number_text, basis.diagonal))
        lines.append(f"diagonal: ({diagonal}{',' if len(basis.diagonal) == 1 else ''})")
        lines.append(f"determinant: {number_text(basis.determinant)}")
        return report, lines
    # both reports print the same entry texts, so each is printed once
    witnesses = [[ring.to_text(ring.one)] * graph.n]
    witnesses += [
        [ring.to_text(entry) for entry in flow_up_witness(graph, index)]
        for index in range(1, graph.n)
    ]
    lines = ["flow-up witness table (one representative per nonzero class):"]
    lines.append(f"  class 0: ({', '.join(witnesses[0])}) (constant spline)")
    for index in range(1, graph.n):
        lines.append(f"  class {index}: ({', '.join(witnesses[index])})")
    return {"verdict": "yes", "witnesses": witnesses}, lines


def _cmd_q(args, graph):
    invariant = compute_q(graph)
    q_text = graph.ring.to_text(invariant.value)
    lines = [f"Q = {q_text} (provenance: {invariant.provenance.value})"]
    if invariant.provenance is Provenance.LCM_LOWER_BOUND:
        lines.append(
            "note: this Q only divides every n-subset determinant; "
            "basis checks against it are one-directional"
        )
    return {"verdict": "yes", "q": q_text, "provenance": invariant.provenance.value}, lines


def _cmd_check_basis(args, graph):
    parsed: dict = {}  # one parse per distinct entry text, for this call only
    columns = [
        _parse_spline(graph, text, index, parsed)
        for index, text in enumerate(args.spline, start=1)
    ]
    matrix = SplineMatrix(graph, columns)
    invariant = compute_q(graph)
    verdict = check_basis(matrix, invariant)
    word = {True: "yes", False: "no"}.get(verdict.is_basis, "UNDECIDED")
    ring = graph.ring
    determinant, q_text = ring.to_text(verdict.determinant), ring.to_text(invariant.value)
    unit = ring.to_text(verdict.unit_factor) if verdict.is_basis else None
    lines = [f"determinant: {determinant}"]
    lines.append(f"Q = {q_text} ({invariant.provenance.value})")
    lines.append(f"BASIS: {word}" + (f" (unit {unit})" if verdict.is_basis else ""))
    if verdict.is_basis is not True:
        lines.append(f"  reason: {verdict.reason}")
    report = {
        "verdict": word,
        "determinant": determinant,
        "q": q_text,
        "provenance": invariant.provenance.value,
        "unit": unit,
        "reason": verdict.reason,
    }
    return report, lines


def _cmd_search(args, graph):
    ring = graph.ring
    factors = [
        _parse_element(ring, piece.strip(), f"--factors, factor {k}")
        for k, piece in enumerate(args.factors.split(";"), start=1)
    ]
    outcome = search.flow_up_search_bounded(graph, factors, args.degree)
    if outcome.found:
        # both reports print the same entry texts, so each is printed once
        document = outcome.basis.to_document()
        determinant = ring.to_text(outcome.determinant)
        lines = ["flow-up class basis found:", *_column_lines("B", document["columns"]),
                 f"determinant: {determinant}"]
        report = {
            "verdict": "yes",
            "degree_bound": outcome.degree_bound,
            "determinant": determinant,
            **document,
        }
        return report, lines
    lines = [
        f"NONEXISTENT({outcome.degree_bound}): no flow-up class basis with entry "
        f"degrees <= {outcome.degree_bound}",
        f"  covered {outcome.assignments_total} factor assignments "
        f"({outcome.systems_checked} distinct leading-term systems, all infeasible)",
    ]
    report = {
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
    return report, lines


def _cmd_obstruct(args, graph):
    labels, method, basis = search.triangle_flow_up_basis(graph)
    a, b, c = map(graph.ring.to_text, labels)
    lines = [f"labels in role order: a={a}, b={b}, c={c}; ideal test: {method}"]
    if basis is None:
        lines.append(
            "OBSTRUCTED: yes (a is outside the ideal generated by b and c; "
            "no flow-up class basis exists)"
        )
        return {"verdict": "yes", "ideal_test": method}, lines
    columns = basis.to_document()["columns"]
    lines.append("OBSTRUCTED: no (a is in the ideal generated by b and c)")
    lines.append("flow-up class basis:")
    lines += _column_lines("B", columns)
    return {"verdict": "no", "ideal_test": method, "columns": columns}, lines


def _cmd_probe(args, graph):
    ring = graph.ring
    q_value = None if args.q is None else _parse_element(ring, args.q, "--q")
    invariant = compute_q(graph)  # the one Q of this call: the default q and the verdict's
    q_value = invariant.value if q_value is None else q_value
    result = divides_all_dets_probe(graph, q_value, args.trials, args.seed, invariant)
    q_text = ring.to_text(q_value)
    lines = [f"q = {q_text}, trials = {args.trials}, seed = {args.seed}"]
    report = {"q": q_text, "trials": args.trials, "seed": args.seed}
    if result.ok:
        lines.append(f"PROBE: ok (q divides all {args.trials} sampled determinants)")
        report["verdict"] = "yes"
        return report, lines
    columns = [[ring.to_text(entry) for entry in column] for column in result.counterexample or ()]
    report.update(verdict="UNDECIDED" if result.ok is None else "no", counterexample=columns or None,
                  Q=ring.to_text(invariant.value), provenance=invariant.provenance.value)
    bound = f"Q = {report['Q']} ({report['provenance']})"
    if result.ok is None:
        lines.append(f"PROBE: UNDECIDED (q divides the pool's determinant but not {bound}, "
                     "which only divides every determinant)")
    elif columns:
        lines.append("PROBE: counterexample found (q does not divide its determinant):")
        lines += _column_lines("C", columns)
    else:
        lines.append(f"PROBE: no (q does not divide {bound}, the gcd of all determinants)")
    return report, lines


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
        graph = _load(args)
        fields, lines = _HANDLERS[args.command](args, graph)
    except (SplineAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        text = _json_text({"command": args.command, **fields})
    else:
        text = "\n".join([f"graph: {graph.describe()}", *lines])
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
    return 1 if fields["verdict"] == "no" else 0


if __name__ == "__main__":
    sys.exit(main())
