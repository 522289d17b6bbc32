"""Exact computation with generalized spline modules on edge-labeled graphs.

``polynomials`` and ``search`` are lazy submodules: importing the package
registers both in ``sys.modules`` without running them, and the first read
of one of their attributes runs the module. The integer rings reach
neither, so a call on an integer graph neither compiles nor holds them.
The names of ``__all__`` that import does not bind are read from the two
modules when first asked for (``__getattr__``); any other name runs neither.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    """The submodule ``name``, registered in ``sys.modules`` and run at the
    first read of one of its attributes (``importlib.util.LazyLoader``)."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# bound here before any submodule runs ``from . import polynomials``: that
# reads the package attribute, and so does not run the module
polynomials = _lazy_submodule("polynomials")
search = _lazy_submodule("search")

from .basis import (
    BasisVerdict,
    ProbeResult,
    Provenance,
    QInvariant,
    SplineMatrix,
    c3_flowup_obstruction,
    check_basis,
    compute_q,
    cramer_membership,
    divides_all_dets_probe,
    even_constant_term,
    exact_determinant,
    label_lcm,
    spline_determinant,
    zero_constant_term,
)
from .errors import GraphError, ParseError, RingMismatchError, SplineAlgebraError
from .graphs import Edge, LabeledGraph, is_connected, load_graph
from .lattice import (
    HnfBasis,
    hermite_normal_form,
    integer_flow_up_basis,
    kernel_basis,
    lattice_membership,
    spline_lattice_generators,
)
from .rings import QQ, ZZ, IntegerRing, PolynomialRing, RationalRing, ring_from_document
from .splines import (
    EdgeViolation,
    SplineCheck,
    flow_up_index,
    flow_up_witness,
    is_spline,
    leading_term,
    spline_combination,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # a public name that import did not bind is defined in a lazy submodule
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        return getattr(polynomials, name)
    except AttributeError:
        return getattr(search, name)


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "BasisVerdict",
    "Edge",
    "EdgeViolation",
    "GraphError",
    "HnfBasis",
    "INT",
    "IntegerRing",
    "LabeledGraph",
    "ParseError",
    "Polynomial",
    "PolynomialRing",
    "ProbeResult",
    "Provenance",
    "QInvariant",
    "QQ",
    "RAT",
    "RationalRing",
    "RingMismatchError",
    "SearchOutcome",
    "SplineAlgebraError",
    "SplineCheck",
    "SplineMatrix",
    "ZZ",
    "c3_flowup_obstruction",
    "check_basis",
    "compute_q",
    "cramer_membership",
    "divides_all_dets_probe",
    "even_constant_term",
    "exact_determinant",
    "exact_divide",
    "flow_up_index",
    "flow_up_search_bounded",
    "flow_up_witness",
    "gcd_cofactors",
    "hermite_normal_form",
    "integer_flow_up_basis",
    "is_connected",
    "is_spline",
    "kernel_basis",
    "label_lcm",
    "lattice_membership",
    "leading_term",
    "load_graph",
    "monomials_up_to",
    "parse_polynomial",
    "poly_gcd",
    "poly_lcm",
    "ring_from_document",
    "spline_combination",
    "spline_determinant",
    "spline_lattice_generators",
    "triangle_flow_up_basis",
    "zero_constant_term",
]
