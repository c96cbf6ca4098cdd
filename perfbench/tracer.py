"""Span tracer that measures the package from outside.

The tracer rebinds public names of the ``hppca`` modules to timing
wrappers: a function is replaced in every module that holds a reference
to it (``thin_svd`` lives in ``linalg`` but is also imported into
``solver`` and ``stiefel``), a method is replaced on its class, and a
class is traced through its ``__init__``. Nothing inside ``src/`` is
edited. A target whose name no longer exists is reported as absent, so a
refactor that removes or renames a public function degrades the trace
instead of breaking the benchmark.

Spans are kept in memory as flat arrays (name, start, end, parent span,
op id) and summarised or written out when the run ends. Every op the
benchmark times is a root span named ``op``; a layer's self time is its
busy time minus the time covered by its direct child spans, so the self
times inside one op add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import types
from array import array
from time import perf_counter

import numpy as np

ROOT = "op"
# Span of the benchmark's own checks when a workload has to run them
# inside an op; it is left out of the op time in the reported split.
CHECK_SPAN = "benchmark.check"

# (module, public name) pairs to trace. "Class.method" traces a method on
# its class; a bare class name traces construction.
TARGETS = (
    ("cli", "main"),
    ("experiments", "run_robustness"),
    ("diagnostics", "run_diagnostics"),
    ("diagnostics", "growth_ratio_samples"),
    ("diagnostics", "error_bound_samples"),
    ("diagnostics", "residual_norms"),
    ("diagnostics", "davis_kahan_check"),
    ("solver", "gpm_solve"),
    ("solver", "pca_init"),
    ("solver", "write_trace_csv"),
    ("solver", "fixed_point_residual"),
    ("problem", "HppcaProblem.columnwise_map"),
    ("problem", "build_problem"),
    ("problem", "build_residuals"),
    ("linalg", "thin_svd"),
    ("linalg", "sym_eig_topk"),
    ("linalg", "operator_norm"),
    ("stiefel", "StiefelPoint"),
    ("stiefel", "frame_distance"),
    ("stiefel", "project_stiefel"),
    ("model", "sample_dataset"),
    ("model", "load_dataset"),
    ("model", "sample_covariance"),
)


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self, package: str = "hppca"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # Hooks run after a traced call returns: hook(args, kwargs, result).
        self.hooks: dict[str, object] = {}

    # -- recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_index: int, fn, *args):
        """Call ``fn(*args)`` as op number ``op_index`` under a root span."""
        self._op = op_index
        idx = self._open(self._nid(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span named ``name``."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- installing ----------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == self.package
                                        or key.startswith(self.package + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        """Rebind every target that exists; record the rest as absent."""
        self.absent = []
        homes = {}
        for module, _ in targets:
            try:
                homes[module] = importlib.import_module(f"{self.package}.{module}")
            except ImportError:
                homes[module] = None
        modules = self._modules()
        for module, name in targets:
            head, _, method = name.partition(".")
            label = f"{module}.{method or head}"
            obj = getattr(homes[module], head, None)
            if obj is None or (method and not hasattr(obj, method)):
                self.absent.append(label)
                continue
            if method:
                self._set(obj, method, self.wrap(label, getattr(obj, method)))
            elif isinstance(obj, type):
                self._set(obj, "__init__", self.wrap(label, obj.__init__))
            else:
                traced = self.wrap(label, obj)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            self._set(mod, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summarising ---------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
        }

    def self_times(self) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Span arrays plus each span's duration and self time (seconds)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][has_parent], weights=duration[has_parent],
                              minlength=duration.size)
        return spans, duration, duration - covered

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name calls, busy and self seconds over spans inside ops."""
        spans, duration, self_t = self.self_times()
        inside = spans["op_id"] >= 0
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = inside & (spans["name_id"] == nid)
            out[name] = {"calls": float(np.count_nonzero(mask)),
                         "busy_s": float(duration[mask].sum()),
                         "self_s": float(self_t[mask].sum())}
        return out

    def write(self, path) -> None:
        """Write the raw spans and the name table to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
