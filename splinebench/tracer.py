"""Per-layer tracing by wrapping the package's public functions in place.

Each traced function is replaced by a wrapper in *every* module namespace
(and class) of the package that binds the same function object, because
``from .x import y`` copies the binding: wrapping only the defining module
would miss calls made through ``cli``, ``basis``, ``search`` and ``rings``.
The wrappers keep a stack of open spans and accumulate, per function, the
call count, self time (span minus the time of its child spans) and total
time (outermost span of that function only, so recursion is not counted
twice). Integer and rational ring operations are deliberately not wrapped:
wrapping ``int`` arithmetic would measure the wrapper.
"""

from __future__ import annotations

import sys
import time

# metric prefix -> (module, attribute); "Class.method" names a method
TRACED = {
    "cli.main": ("cli", "main"),
    "graphs.load_graph": ("graphs", "load_graph"),
    "graphs.pairwise_coprime_labels": ("graphs", "LabeledGraph.pairwise_coprime_labels"),
    "splines.is_spline": ("splines", "is_spline"),
    "splines.flow_up_witness": ("splines", "flow_up_witness"),
    "splines.spline_combination": ("splines", "spline_combination"),
    "lattice.spline_lattice_generators": ("lattice", "spline_lattice_generators"),
    "lattice.hermite_normal_form": ("lattice", "hermite_normal_form"),
    "lattice.integer_flow_up_basis": ("lattice", "integer_flow_up_basis"),
    "basis.exact_determinant": ("basis", "exact_determinant"),
    "basis.divides_all_dets_probe": ("basis", "divides_all_dets_probe"),
    "basis.label_lcm": ("basis", "label_lcm"),
    "basis.compute_q": ("basis", "compute_q"),
    "basis.check_basis": ("basis", "check_basis"),
    "search.flow_up_search_bounded": ("search", "flow_up_search_bounded"),
    "search.solve_rational_system": ("search", "solve_rational_system"),
    "polynomials.mul": ("polynomials", "Polynomial.__mul__"),
    "polynomials.exact_divide": ("polynomials", "exact_divide"),
    "polynomials.poly_gcd": ("polynomials", "poly_gcd"),
    "polynomials.parse_polynomial": ("polynomials", "parse_polynomial"),
}

PACKAGE = "graphsplines"


class Tracer:
    """Installs wrappers with ``install()`` and removes them with ``restore()``."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for key in TRACED}  # calls, self, total
        self.counters = {
            "lattice.generator_max_bits": 0,
            "polynomials.mul.terms_out": 0,
            "polynomials.exact_divide.nondivisible": 0,
            "search.solve_rational_system.infeasible": 0,
            "search.assignments_total": 0,
            "search.systems_checked": 0,
        }
        self._stack = []
        self._undo = []

    # -- result hooks: counts read from return values ----------------------

    def _on_result(self, key, result):
        counters = self.counters
        if key == "polynomials.mul":
            counters["polynomials.mul.terms_out"] += len(result.terms)
        elif key == "polynomials.exact_divide":
            if result is None:
                counters["polynomials.exact_divide.nondivisible"] += 1
        elif key == "lattice.spline_lattice_generators":
            bits = max((abs(x).bit_length() for row in result for x in row), default=0)
            counters["lattice.generator_max_bits"] = max(
                counters["lattice.generator_max_bits"], bits
            )
        elif key == "search.solve_rational_system":
            if result is None:
                counters["search.solve_rational_system.infeasible"] += 1
        elif key == "search.flow_up_search_bounded":
            counters["search.assignments_total"] += result.assignments_total
            counters["search.systems_checked"] += result.systems_checked

    def _wrap(self, key, function):
        stats = self.stats[key]
        stack = self._stack
        depth = [0]
        hooked = key in (
            "polynomials.mul",
            "polynomials.exact_divide",
            "lattice.spline_lattice_generators",
            "search.solve_rational_system",
            "search.flow_up_search_bounded",
        )
        clock = time.perf_counter
        on_result = self._on_result

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if not depth[0]:
                    stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hooked:
                on_result(key, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for key, (module_name, attribute) in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            owner_name, _, member = attribute.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = owner.__dict__[member] if owner_name else getattr(home, member)
            wrapper = self._wrap(key, original)
            if owner_name:
                # every alias in the class (``__rmul__ = __mul__``) shares the object
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, name, value))
                        setattr(owner, name, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
