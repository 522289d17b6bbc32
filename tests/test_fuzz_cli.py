"""Fuzz the CLI boundary: malformed documents and arguments end in exit 0, 1 or 2.

Sizes stay small so that no generated call runs long: label texts have at
most five tokens (so no power of a sum), degree bounds, when given, stay
below 5 (without one, search runs at its forced degree) and probes run a
handful of trials.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsplines.cli import main
from conftest import GRAPHS_DIR

SUBCOMMANDS = ("verify", "flowup", "q", "check-basis", "search", "obstruct", "probe")
BASES = [
    json.loads((GRAPHS_DIR / f"{name}.json").read_text())
    for name in ("fig2", "xy", "zx-obstruction")
]
KEYS = ("ring", "vertices", "edges", "u", "v", "label", "kind", "coefficients",
        "variables", "v1", "v2", "x")
NESTED = "(" * 3000 + "x" + ")" * 3000
POWER = "(x+y+1)^200"  # 20301 terms: expanding it would take minutes
COEFFICIENT_POWER = "3^10000000"  # a 15.8-million-bit coefficient
LONG_LITERAL = "7" * 5000  # more digits than Python converts from text
SUPERSCRIPT = "x^²"  # a digit to str.isdigit, not to int()

label_texts = st.lists(
    st.sampled_from(["x", "y", "z", "0", "1", "2", "/", "(", ")", "+", "-", "*", "^",
                     " ", "@", "v1"]),
    max_size=5,
).map("".join)
# entries that parse in the bundled rings, so that calls get past parsing
entries = st.sampled_from(["0", "1", "2", "4", "5", "x", "y", "x + y", "x*y", "x + 1"])
entry_texts = entries | label_texts

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | label_texts,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=3),
    max_leaves=6,
)


def _slots(value):
    """Every (container, key) pair inside a JSON value."""
    pairs = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        pairs.append((value, key))
        if isinstance(child, (dict, list)):
            pairs.extend(_slots(child))
    return pairs


@st.composite
def documents(draw):
    """A bundled graph document with up to two fields replaced or removed."""
    document = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(document)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(json_values)
    return json.dumps(document)


def _joined(separator, min_size, max_size):
    return st.lists(entry_texts, min_size=min_size, max_size=max_size).map(separator.join)


OPTIONS = {
    # the bundled graphs have three vertices
    "--spline": _joined(",", 3, 3) | _joined(",", 1, 4),
    # factorizations of the bundled label products come first
    "--factors": st.sampled_from(["x;y;x + y", "x*y;x + y", "4;5;2", "x;x + 1;2"])
    | _joined(";", 1, 4),
    "--degree": st.integers(-1, 4).map(str),
    "--q": entry_texts,
    "--trials": st.integers(-1, 5).map(str) | label_texts,
    "--seed": st.integers(-3, 3).map(str),
    # no subcommand accepts --ideal any more; it stays as an option to reject
    "--ideal": st.sampled_from(["even-constant-term", "zero-constant-term", "odd"]),
    "--vertex-order": st.lists(st.sampled_from(["v1", "v2", "v3", "a", ""]),
                               max_size=4).map(",".join),
    "--json": st.none(),
}
ACCEPTED = {
    "verify": ("--spline",),
    "flowup": (),
    "q": (),
    "check-basis": ("--spline",),
    "search": ("--factors", "--degree"),
    "obstruct": (),
    "probe": ("--q", "--trials", "--seed"),
}
REQUIRED = {
    "verify": ("--spline",),
    "check-basis": ("--spline",) * 3,
    "search": ("--factors",),
}


@st.composite
def arguments(draw):
    """A subcommand with its required options and a few more; the graph path is ``{}``.

    One call in ten also gets an option from any subcommand, and one in ten
    loses its graph path.
    """
    command = draw(st.sampled_from(SUBCOMMANDS))
    argv = [command, "{}"]
    if command == "probe":
        argv += ["--trials", "3"]
    options = list(REQUIRED.get(command, ()))
    options += draw(st.lists(st.sampled_from(ACCEPTED[command] + ("--json", "--vertex-order")),
                             max_size=3))
    # hypothesis draws boundary values often, so a rare branch tests a middle one
    if draw(st.integers(0, 9)) == 5:
        options.append(draw(st.sampled_from(sorted(OPTIONS))))
    for option in options:
        value = draw(OPTIONS[option])
        argv += [option] if value is None else [option, value]
    if draw(st.integers(0, 9)) == 5:
        argv.remove("{}")
    return argv


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(lambda k: st.text(max_size=30) if k == 5 else documents()),
       arguments())
@example(json.dumps({**BASES[1], "edges": [{"u": "v1", "v": "v2", "label": NESTED}]}),
         ["q", "{}"])
@example(json.dumps(BASES[1]), ["verify", "{}", "--spline", f"{NESTED},0,0"])
@example(json.dumps({**BASES[1], "edges": [{"u": "v1", "v": "v2", "label": POWER}]}),
         ["q", "{}"])
@example(json.dumps(BASES[1]), ["verify", "{}", "--spline", f"{POWER},0,0"])
@example(json.dumps({**BASES[1], "edges": [{"u": "v1", "v": "v2", "label": COEFFICIENT_POWER}]}),
         ["q", "{}"])
@example(json.dumps(BASES[1]), ["verify", "{}", "--spline", f"{COEFFICIENT_POWER},0,0"])
@example(json.dumps({**BASES[0], "edges": [{"u": "v1", "v": "v2", "label": LONG_LITERAL}]}),
         ["q", "{}"])
@example(json.dumps(BASES[1]), ["verify", "{}", "--spline", f"x^{LONG_LITERAL},0,0"])
@example(json.dumps({**BASES[1], "edges": [{"u": "v1", "v": "v2", "label": SUPERSCRIPT}]}),
         ["q", "{}"])
@example(json.dumps(BASES[1]), ["verify", "{}", "--spline", f"{SUPERSCRIPT},0,0"])
@example("[" * 100000, ["flowup", "{}"])
def test_cli_exits_with_a_status(text, argv):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if arg == "{}" else arg for arg in argv])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
