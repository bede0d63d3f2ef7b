"""Per-layer spans and counts, taken by wrapping the library's public names.

`Tracer.install()` replaces each traced function in every quandlelab module
that holds it (the defining module, the package namespace and the copies
other modules import, such as `reps.perm_closure`), a few `FieldTable` and
`PresentationContext` methods, and `scipy.optimize.least_squares` as
`cyclic_reps` calls it.  Nothing is recorded unless `active` is set, which
the benchmark does while it builds the traced pass's inputs and around each
timed call, not while it checks outputs.  Spans (name, start, end,
parent) and counts stay in memory until `write`.

A layer's time is its self time: the span's duration minus the time its
child spans cover.  Call-count wrappers keep no span, since field arithmetic
runs millions of times a pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (metric, unit) in the order the benchmark prints them
METRICS = [
    ("reps.matrix_group_s", "s"), ("reps.group_elems", "count"),
    ("reps.commutant_dimension_s", "s"), ("reps.commutant_dimension_calls", "count"),
    ("reps.kron_mb", "MB"), ("reps.decompose_self_s", "s"),
    ("reps.invariance_residual_s", "s"), ("reps.invariant_complement_s", "s"),
    ("quandles.perm_closure_s", "s"), ("quandles.perm_closure_elems", "count"),
    ("quandles.check_axioms_s", "s"), ("quandles.find_isomorphism_s", "s"),
    ("quandles.find_isomorphism_calls", "count"), ("quandles.construct_s", "s"),
    ("dihedral_reps.label_parts_s", "s"), ("dihedral_reps.closed_form_s", "s"),
    ("fields.build_s", "s"), ("fields.add_calls", "count"), ("fields.neg_calls", "count"),
    ("fields.mul_calls", "count"), ("fields.pow_calls", "count"),
    ("presentation.verify_s", "s"), ("presentation.normalize_calls", "count"),
    ("presentation.context_builds", "count"),
    ("presentation.log_one_minus_pow_calls", "count"), ("presentation.classify_s", "s"),
    ("polysys.log_involution_s", "s"), ("polysys.certificate_s", "s"),
    ("polysys.int_poly_gcd_s", "s"),
    ("cyclic_reps.rigidity_s", "s"), ("cyclic_reps.lsq_s", "s"),
    ("cyclic_reps.lsq_calls", "count"), ("cyclic_reps.lsq_nfev", "count"),
    ("cyclic_reps.constant_rep_s", "s"),
    ("counterexamples.maschke_s", "s"), ("cli.main_s", "s"),
    ("init.import_s", "s"), ("trace.overhead_s", "s"),
]

# span name -> (module, function names); a span's self time goes to "<name>_s"
SPANS = {
    "reps.matrix_group": ("quandlelab.reps", ["matrix_group"]),
    "reps.commutant_dimension": ("quandlelab.reps", ["commutant_dimension"]),
    "reps.decompose_self": ("quandlelab.reps", ["decompose"]),
    "reps.invariance_residual": ("quandlelab.reps", ["invariance_residual"]),
    "reps.invariant_complement": ("quandlelab.reps", ["invariant_complement_exists"]),
    "quandles.perm_closure": ("quandlelab.quandles", ["perm_closure"]),
    "quandles.check_axioms": ("quandlelab.quandles", ["check_axioms"]),
    "quandles.find_isomorphism": ("quandlelab.quandles", ["find_isomorphism"]),
    "quandles.construct": ("quandlelab.quandles", ["alexander", "dihedral", "trivial",
                                                   "conj_quandle", "core_quandle"]),
    "dihedral_reps.label_parts": ("quandlelab.dihedral_reps", ["label_parts"]),
    "dihedral_reps.closed_form": ("quandlelab.dihedral_reps", ["dihedral_closed_form"]),
    "presentation.verify": ("quandlelab.presentation", ["verify_presentation"]),
    "presentation.classify": ("quandlelab.presentation", ["classify_cyclic"]),
    "polysys.log_involution": ("quandlelab.polysys", ["log_involution"]),
    "polysys.certificate": ("quandlelab.polysys", ["system_has_no_solution"]),
    "polysys.int_poly_gcd": ("quandlelab.polysys", ["int_poly_gcd"]),
    "cyclic_reps.rigidity": ("quandlelab.cyclic_reps", ["rigidity_check"]),
    "cyclic_reps.constant_rep": ("quandlelab.cyclic_reps", ["constant_rep_decompose"]),
    "counterexamples.maschke": ("quandlelab.counterexamples", ["maschke_counterexample"]),
    "cli.main": ("quandlelab.cli", ["main"]),
}


def _kron_bytes(mats) -> int:
    """Bytes of the stacked Sylvester matrix commutant_dimension builds:
    len(mats) blocks of k^2 x k^2 entries."""
    k = mats[0].shape[0]
    itemsize = 16 if any(m.dtype.kind == "c" for m in mats) else 8
    return len(mats) * k ** 4 * itemsize


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every quandlelab module attribute that holds `original`."""
        for modname, module in list(sys.modules.items()):
            if modname == "quandlelab" or modname.startswith("quandlelab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def _span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import scipy.optimize

        from quandlelab.fields import FieldTable
        from quandlelab.presentation import PresentationContext

        counts = self.counts

        def on_group(args, result):
            counts["reps.group_elems"] += len(result)

        def on_closure(args, result):
            counts["quandles.perm_closure_elems"] += len(result)

        def on_commutant(args, result):
            counts["reps.commutant_dimension_calls"] += 1
            counts["reps.kron_bytes"] += _kron_bytes(args[0])

        def on_iso(args, result):
            counts["quandles.find_isomorphism_calls"] += 1

        def on_lsq(args, result):
            counts["cyclic_reps.lsq_calls"] += 1
            counts["cyclic_reps.lsq_nfev"] += int(result.nfev)

        hooks = {"reps.matrix_group": on_group, "quandles.perm_closure": on_closure,
                 "reps.commutant_dimension": on_commutant,
                 "quandles.find_isomorphism": on_iso}
        for name, (module, functions) in SPANS.items():
            for fn_name in functions:
                original = getattr(sys.modules[module], fn_name)
                self._replace_everywhere(original, self._span(name, original, hooks.get(name)))
        self._set(scipy.optimize, "least_squares", self._span(
            "cyclic_reps.lsq", scipy.optimize.least_squares, on_lsq))
        self._set(FieldTable, "__init__", self._span("fields.build", FieldTable.__init__))
        for op in ("add", "neg", "mul", "pow"):
            self._set(FieldTable, op, self._count(f"fields.{op}_calls", getattr(FieldTable, op)))
        self._set(PresentationContext, "__init__", self._count(
            "presentation.context_builds", PresentationContext.__init__))
        self._set(PresentationContext, "log_one_minus_pow", self._count(
            "presentation.log_one_minus_pow_calls", PresentationContext.log_one_minus_pow))
        presentation = sys.modules["quandlelab.presentation"]
        self._replace_everywhere(presentation.normalize, self._count(
            "presentation.normalize_calls", presentation.normalize))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - covered[i]
        return out

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {f"{name}_s": t for name, t in self.self_times().items()}
        values.update(self.counts)
        values["reps.kron_mb"] = values.pop("reps.kron_bytes", 0) / 1e6
        return {name: values.get(name, 0) for name, _ in METRICS}

    def write(self, path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))

