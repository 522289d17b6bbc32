from __future__ import annotations

import os
from pathlib import Path

import pytest

from graphsplines import ZZ, LabeledGraph, PolynomialRing, load_graph

ROOT = Path(__file__).resolve().parent.parent
GRAPHS_DIR = ROOT / "graphs"

BUNDLED = ["fig2", "fig2-text", "xy", "squares", "zx-obstruction"]


def source_env() -> dict:
    """Environment for a child interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def bundled_graph(name: str) -> LabeledGraph:
    return load_graph((GRAPHS_DIR / f"{name}.json").read_text())


@pytest.fixture(scope="session")
def corpus() -> dict[str, LabeledGraph]:
    """The bundled graphs plus a couple of extra integer shapes."""
    graphs = {name: bundled_graph(name) for name in BUNDLED}
    graphs["path7"] = LabeledGraph.path(ZZ, [7])
    graphs["k4"] = LabeledGraph.complete(ZZ, [2, 3, 4, 5, 6, 7])
    return graphs


@pytest.fixture(scope="session")
def qxy() -> PolynomialRing:
    return PolynomialRing("rat", ["x", "y"])
