"""Span recorder that times the t2forms layers from outside the package.

Traced passes wrap public functions and class methods by replacing the
module or class attribute.  The package modules call each other through
module globals and class attributes (``csa.second_trace_form`` calls
``t2_form``, ``quadform.witt_class`` calls ``block_decompose``,
``Level.__init__`` calls ``poly_factor_witness``), so inner calls pass
through the wrappers as well.  Nothing under ``src/`` is edited, and
per-element ``Level`` arithmetic is never wrapped: the benchmark times it
only as batches it issues itself, through :meth:`Recorder.span`.

Spans are kept in memory as ``[name, start, end, parent]`` lists.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Records nested spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span issued by the benchmark itself, around its own calls."""
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def count(self, name, n=1):
        self.counts[name] += n

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``name`` is a span name, a callable computing one from the call
        arguments, or None for a wrapper that only runs the hooks.
        ``before(*args)`` runs ahead of the call and its value is passed
        to ``after(state, result, *args)`` once the call has returned.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before is not None else None
            if name is None:
                result = original(*args, **kwargs)
            else:
                idx = self._enter(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._exit(idx)
            if after is not None:
                after(state, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self):
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def nesting_errors(self):
        """Spans that are left open or that leave their parent's interval."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans still open")
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                errors.append(f"span {idx} ({name}) has no valid end")
                continue
            if parent >= 0:
                pstart, pend = self.spans[parent][1], self.spans[parent][2]
                if parent >= idx or start < pstart or (pend is not None and end > pend):
                    errors.append(f"span {idx} ({name}) escapes parent {parent}")
        return errors

    def aggregate(self):
        """Per span name: summed self time, inclusive time and calls.

        Inclusive times of spans nested in a span of the same name are
        counted again; the benchmark reads them only for claim spans,
        which never nest.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            row["self_s"] += (end - start) - child[idx]
            row["total_s"] += end - start
            row["calls"] += 1
        return out


class NullRecorder:
    """Stand-in for untraced passes: spans and counters cost nothing."""

    @staticmethod
    def span(name):
        return contextlib.nullcontext()

    @staticmethod
    def count(name, n=1):
        pass


def install(rec):
    """Wrap the layer boundaries of t2forms into ``rec``.

    The span names are the per-layer metric names without their ``.s``
    or ``.calls`` suffix; ``perfbench/layers.json`` maps each metric to
    the end-to-end metric and workload it should move.
    """
    from t2forms import cli, csa, fields, linalg, quadform, rational, theorems

    rec.wrap(fields.Level, "extend", "fields.extend")
    rec.wrap(fields, "poly_factor_witness", "fields.poly_factor_witness")
    rec.wrap(fields, "find_irreducible", "fields.find_irreducible")

    rec.wrap(linalg.PackedEchelon, "insert", "linalg.PackedEchelon.insert")
    rec.wrap(linalg, "solve_gf2", "linalg.solve_gf2")

    for attr in ("matrix_algebra", "quaternion_algebra", "tensor_product",
                 "commutative_quotient", "cyclic_cocycle"):
        rec.wrap(csa, attr, "csa.build")
    rec.wrap(csa, "crossed_product", "csa.crossed_product")
    rec.wrap(csa, "t2_form", "csa.t2_form",
             after=lambda _, q, *a, **k: rec.count("csa.polar_entries", q.dim * q.dim))
    for attr in ("second_trace_form", "trace_zero_subspace", "b_subspace_form"):
        rec.wrap(csa, attr, f"csa.{attr}")

    rec.wrap(quadform.QuadraticForm, "restricted", "quadform.restricted")

    def decompose_name(q):
        gf2 = getattr(q.field, "is_finite", False) and q.field.order == 2
        return "quadform.block_decompose." + ("gf2" if gf2 else "ext")

    def decompose_counts(fresh, _, q):
        if fresh:
            rec.count("quadform.form_dim.sum", q.dim)

    rec.wrap(quadform, "block_decompose", decompose_name,
             before=lambda q: q._decomp is None, after=decompose_counts)
    for attr in ("witt_class", "arf", "clifford_invariant"):
        rec.wrap(quadform, attr, f"quadform.{attr}")

    rec.wrap(rational, "wp_member", "rational.wp_member")
    for attr in ("galois_obstruction", "cubic_second_root_oracle", "revoy_trace_form"):
        rec.wrap(theorems, attr, f"theorems.{attr}")

    # A lookup in the per-field tensor cache misses exactly when the
    # cache grows during the call.
    def cache_size(field, *_):
        return len(getattr(field, "_tensor_cache", ()))

    def cache_counts(before, _, field, *__):
        rec.count("theorems.tensor_cache.lookups")
        if len(field._tensor_cache) == before:
            rec.count("theorems.tensor_cache.hits")

    for attr in ("tensor_trace_form", "matrix_trace_witt"):
        rec.wrap(theorems, attr, None, before=cache_size, after=cache_counts)

    rec.wrap(cli, "parse_spec", "cli.parse_spec")
    rec.wrap(cli, "execute", "cli.execute")
