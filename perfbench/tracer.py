"""Span tracer that wraps public ``homalg`` functions from outside the package.

Nothing under ``src/`` knows about it: ``install`` replaces module attributes
and class attributes with timing wrappers, and ``uninstall`` puts the original
objects back.  Spans (name, start, end, parent span, operation id) are kept in
memory and written out by the caller when the run ends.

Three wrapping rules keep every call counted:

* a function imported by name into another module (``campaign`` imports
  ``yau_criterion``) is patched in every ``homalg`` module that holds it;
* methods are patched on their class, which also covers ``NullspaceSolver``
  imported by name into ``homstruct`` and ``subspaces``;
* the ``lru_cache``d ``homstruct.twist_space`` is wrapped outside the cache,
  so cache hits still count as calls.

The per-row entry points (``NullspaceSolver.add_dense``/``add_sparse`` and
``kernels.row_primitive_int``, hundreds of thousands of calls per sedenion
audit) are counted and timed in aggregate instead of recording one span each.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path): functions recorded with one span per call.  More
# than layers.py reports, so that self time lands in the module spending it.
SPAN_TARGETS = (
    ("homstruct", "structure_theorem_audit"),
    ("homstruct", "twist_space"),
    ("homstruct", "hu_t"),
    ("homstruct", "ac_l_subspace"),
    ("homstruct", "ac_r_subspace"),
    ("homstruct", "ac_one_sided"),
    ("homstruct", "hu_n"),
    ("homstruct", "ac_two_sided"),
    ("homstruct", "bijection_report"),
    ("homstruct", "relation_tables_check"),
    ("homstruct", "multiplicativity_report"),
    ("homstruct", "domain_certificate"),
    ("subspaces", "nucleus"),
    ("subspaces", "centralizer"),
    ("subspaces", "center"),
    ("subspaces", "center_and_nucleus"),
    ("subspaces", "annihilator"),
    ("subspaces", "span_of"),
    ("subspaces", "find_unities"),
    ("subspaces", "idempotents"),
    ("linalg", "NullspaceSolver.solve"),
    ("linalg", "Subspace.from_rows"),
    ("linalg", "meet"),
    ("linalg", "join"),
    ("linalg", "kernel"),
    ("linalg", "solve_affine"),
    ("linalg", "eigenspace"),
    ("linalg", "intersect_affine"),
    ("kernels", "rref_fp"),
    ("kernels", "rref_int"),
    ("algebra", "HomAlgebra.is_hom_associative"),
    ("constructions", "yau_criterion"),
    ("constructions", "ac_unitalized_by_eigenspaces"),
    ("leibniz", "leibniz_check"),
    ("leibniz", "hu_n_leibniz"),
    ("leibniz", "unitality_collapse_check"),
    ("leibniz", "crossed_unitality_check"),
    ("campaign", "algebra_checks"),
    ("campaign", "run_campaign"),
    ("fileio", "parse"),
    ("reports", "audit_json"),
    ("reports", "render"),
    ("cli", "main"),
)

# Per-row entry points: counted and timed in aggregate, no span each.
AGGREGATE_TARGETS = (
    ("linalg", "NullspaceSolver.add_dense"),
    ("linalg", "NullspaceSolver.add_sparse"),
    ("kernels", "row_primitive_int"),
)

INTAKE = ("linalg.NullspaceSolver.add_dense", "linalg.NullspaceSolver.add_sparse")
SOLVE = "linalg.NullspaceSolver.solve"
DISTINCT = (
    "subspaces.nucleus",
    "subspaces.centralizer",
    "subspaces.annihilator",
    "subspaces.span_of",
    "subspaces.find_unities",
)
ROOT = "perfbench.rep"

_MARK = "__perfbench_span__"


def _homalg_modules():
    """Public homalg modules currently loaded (private kernels excluded, so a
    kernel calling another kernel inside its backend is not counted)."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None
        and (name == "homalg" or name.startswith("homalg."))
        and not name.startswith("homalg._")
    ]


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self):
        self.stack = []  # frames: [name, start, child_s, span_id, flag]
        self.spans = []  # (id, name, start, end, parent_id, op_id)
        self.stats = {}  # name -> [calls, busy_s, self_s]
        self.counters = {
            "rows_offered": 0,
            "solve_shortcuts": 0,
            "twist_cache_hits": 0,
        }
        self.kernel_rows = {"kernels.rref_fp": [0, 0], "kernels.rref_int": [0, 0]}
        self.distinct = {name: set() for name in DISTINCT}
        self.op_id = 0
        self._next_id = 0
        self._patches = []  # (owner, attribute, original object)
        self._twist = None  # the lru_cache'd twist_space, for its hit count
        self._twist_hits0 = 0

    # -- frames --------------------------------------------------------------

    def _parent_id(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return -1

    def _close(self, frame, end):
        self.stack.pop()
        dur = end - frame[1]
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur

    def begin_rep(self):
        """Open the root span that covers one timed repetition."""
        self.stack.append([ROOT, perf_counter(), 0.0, self._new_id(), False])

    def end_rep(self):
        frame = self.stack[-1]
        if frame[0] != ROOT or len(self.stack) != 1:
            raise RuntimeError(f"unbalanced trace stack at {frame[0]}")
        end = perf_counter()
        self._close(frame, end)
        self.spans.append((frame[3], ROOT, frame[1], end, -1, self.op_id))

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None, on_exit=None):
        tr = self
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = tr._parent_id()
            frame = [name, perf_counter(), 0.0, tr._new_id(), False]
            stack.append(frame)
            if observe is not None:
                observe(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tr._close(frame, end)
                spans.append((frame[3], name, frame[1], end, parent, tr.op_id))
                if on_exit is not None:
                    on_exit(frame)

        setattr(wrapper, _MARK, name)
        return wrapper

    def _aggregate(self, name, fn, intake=False):
        tr = self
        stack = self.stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            if intake and not (stack and stack[-1][0] in INTAKE):
                counters["rows_offered"] += 1
            frame = [name, perf_counter(), 0.0, None, False]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(frame, perf_counter())

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- per-target observers ------------------------------------------------

    def _observer(self, name):
        if name in self.distinct:
            keys = self.distinct[name]

            def observe(args, kwargs):
                try:
                    keys.add((args, tuple(sorted(kwargs.items()))))
                except TypeError:  # unhashable argument: key on its repr
                    keys.add(repr((args, sorted(kwargs.items()))))

            return observe
        if name in self.kernel_rows:
            acc = self.kernel_rows[name]
            marks_solve = name == "kernels.rref_int"

            def observe(args, kwargs):
                rows = args[0]
                acc[0] += len(rows)
                acc[1] += len(rows) * (len(rows[0]) if rows else 0)
                if marks_solve:
                    for frame in self.stack:
                        if frame[0] == SOLVE:
                            frame[4] = True

            return observe
        if name == "campaign.algebra_checks":

            def observe(args, kwargs):
                self.op_id += 1

            return observe
        return None

    def _on_exit(self, name):
        if name == SOLVE:

            def on_exit(frame):
                if not frame[4]:
                    self.counters["solve_shortcuts"] += 1

            return on_exit
        return None

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name, fn, aggregate):
        if aggregate:
            return self._aggregate(name, fn, intake=name in INTAKE)
        return self._span(name, fn, self._observer(name), self._on_exit(name))

    def _install_one(self, module_name, path, aggregate):
        module = sys.modules[f"homalg.{module_name}"]
        name = f"{module_name}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, aggregate)))
            else:
                self._patch(cls, attr, self._wrap(name, raw, aggregate))
            return
        fn = getattr(module, path)
        new = self._wrap(name, fn, aggregate)
        for m in _homalg_modules():
            for attr, value in list(vars(m).items()):
                if value is fn:
                    self._patch(m, attr, new)

    def install(self):
        """Wrap every target in the loaded ``homalg`` modules."""
        import homalg.cli  # noqa: F401  (imports every traced module)

        self._twist = sys.modules["homalg.homstruct"].twist_space
        self._twist_hits0 = self._twist.cache_info().hits
        for module_name, path in SPAN_TARGETS:
            self._install_one(module_name, path, aggregate=False)
        for module_name, path in AGGREGATE_TARGETS:
            self._install_one(module_name, path, aggregate=True)

    def uninstall(self):
        """Put every original object back, last patch first."""
        self.counters["twist_cache_hits"] = (
            self._twist.cache_info().hits - self._twist_hits0
        )
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list:
    """Names of tracer wrappers still reachable from homalg modules or their
    classes; empty after a clean ``uninstall``."""
    found = []

    def marked(obj):
        if isinstance(obj, (classmethod, staticmethod)):
            obj = obj.__func__
        return getattr(obj, _MARK, None)

    for m in _homalg_modules():
        for attr, value in vars(m).items():
            if marked(value):
                found.append(f"{m.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for cattr, cvalue in vars(value).items():
                    if marked(cvalue):
                        found.append(f"{m.__name__}.{attr}.{cattr}")
    return found
