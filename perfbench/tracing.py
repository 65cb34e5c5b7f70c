"""Spans recorded around the calls into each layer of ``repro``.

The traced run installs wrappers on the public entry points of each
layer (module functions and class methods, patched from outside; the
package itself is not edited) and records one span per outermost call
into a layer: a nested call into the *same* layer runs unrecorded, so
a kernel op that recurses through ``apply_or`` is one ``bdd`` span.
Spans live in a list in memory and are written out once, at the end.

A layer's self time is the sum over its spans of the span's duration
minus the durations of its direct child spans (which always belong to
other layers).  The layer names are the metric prefixes of the
per-layer metrics: ``jedd.parse``, ``sat``, ``relations``,
``fixpoint``, ``ir``, ``bdd``, ``io``, ``service``.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Manager methods recorded as kernel ops, by op class.
BDD_OPS = {
    "apply": ("apply_and", "apply_or", "apply_diff", "apply_xor",
              "apply_not", "ite"),
    "and_exist": ("and_exist",),
    "exist": ("exist",),
    "replace": ("replace",),
    "gc": ("gc",),
    "other": ("cube", "sat_count", "all_sat", "node_count"),
}

#: Relation operators that dispatch to named methods; wrapped too so a
#: ``pt | flow`` inside the fixpoint engine counts as relational work.
_RELATION_DUNDERS = ("__or__", "__and__", "__sub__", "__eq__", "__ne__")

#: Span fields, in the order of the lists in ``Tracer.spans``.  The tag
#: is None except on a classified ``replace`` span.
LAYER, NAME, START, END, PARENT, TAG = range(6)
#: Tags of a non-identity ``replace`` span.
MONOTONE, PERMUTING = "monotone", "permuting"


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[layer, name, start, end, parent_index, tag]`` per span
        self.spans: List[list] = []
        self._open: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        classify: Optional[Callable] = None,
    ) -> Callable:
        spans = self.spans
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            tag = None
            if classify is not None:
                with self.span("trace", "classify"):
                    tag = classify(args)
            with self.span(layer, name, tag):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, layer: str, name: str, tag: Optional[str] = None):
        """Record one span around the ``with`` body."""
        spans, stack = self.spans, self._open
        idx = len(spans)
        spans.append(
            [layer, name, 0.0, 0.0, stack[-1] if stack else -1, tag]
        )
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx][START] = start
            spans[idx][END] = end

    # -- installing wrappers -------------------------------------------

    def patch_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(layer, attr, original))

    def patch_method(
        self, cls, attr: str, layer: str, classify=None
    ) -> None:
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(layer, name, raw.__func__))
        else:
            wrapped = self.wrap(layer, name, raw, classify)
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def self_times(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, float]:
        """Self seconds per layer, and per ``bdd.<op class>``, over
        spans ``lo..hi``."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT] - lo
            if parent >= 0:
                child[parent] += span[END] - span[START]
        out: Dict[str, float] = {}
        op_class = {n: c for c, names in BDD_OPS.items() for n in names}
        for span, covered in zip(spans, child):
            own = span[END] - span[START] - covered
            out[span[LAYER]] = out.get(span[LAYER], 0.0) + own
            if span[LAYER] == "bdd":
                key = "bdd." + op_class[span[NAME].rpartition(".")[2]]
                out[key] = out.get(key, 0.0) + own
        return out

    def counts(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, int]:
        """Recorded spans per layer, and per ``layer:name``."""
        out: Dict[str, int] = {}
        for span in self.spans[lo:hi]:
            for key in (span[LAYER], f"{span[LAYER]}:{span[NAME]}"):
                out[key] = out.get(key, 0) + 1
        return out

    def replace_counts(self, lo: int = 0, hi: Optional[int] = None):
        """``(non-identity, monotone)`` replaces over spans ``lo..hi``,
        from the tags :func:`classify_replace` put on them."""
        tags = [s[TAG] for s in self.spans[lo:hi] if s[TAG] is not None]
        return len(tags), tags.count(MONOTONE)

    def durations(self, layer: str) -> List[float]:
        """Inclusive durations of every span of ``layer``."""
        return [s[END] - s[START] for s in self.spans if s[LAYER] == layer]

    def write(self, path: str) -> None:
        """Dump every span as JSON (layer, name, start, end, parent,
        tag)."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["layer", "name", "start", "end", "parent",
                               "tag"],
                    "spans": self.spans,
                },
                fp,
            )

    @classmethod
    def read(cls, path: str) -> "Tracer":
        """A recorder holding the spans :meth:`write` dumped."""
        with open(path, "r", encoding="utf-8") as fp:
            data = json.load(fp)
        tracer = cls(data["run_id"])
        tracer.spans = data["spans"]
        return tracer


def classify_replace(args) -> Optional[str]:
    """Tag of one ``replace(node, permutation)`` call: None for an
    identity permutation, ``MONOTONE`` when the permutation keeps the
    level order of the operand's support (a monotone relabel), else
    ``PERMUTING``."""
    manager, node, permutation = args[0], args[1], args[2]
    if all(k == v for k, v in permutation.items()):
        return None
    level = manager.level_of_var
    support = sorted(manager.support(node), key=level)
    moved = [level(permutation.get(v, v)) for v in support]
    if all(a < b for a, b in zip(moved, moved[1:])):
        return MONOTONE
    return PERMUTING


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every measured layer."""
    import repro.jedd.assignment as assignment
    import repro.jedd.codegen as codegen
    import repro.jedd.compiler as compiler
    import repro.relations.io as rel_io
    import repro.relations.ir as ir
    import repro.relations.ir.execute as ir_execute
    from repro.bdd import BDDManager, OocBDDManager
    from repro.bdd.arena import ArenaBDDManager
    from repro.relations import FixpointEngine, Relation, Universe
    from repro.relations.backend import BDDBackend, DiagramBackend

    for attr, layer in (
        ("parse_program", "jedd.parse"),
        ("check", "jedd.typecheck"),
        ("insert_frees", "jedd.liveness"),
        ("build_constraints", "jedd.constraints"),
    ):
        tracer.patch_function(compiler, attr, layer)
    tracer.patch_method(compiler.DomainAssigner, "solve", "jedd.assign")
    tracer.patch_function(assignment, "solve", "sat")
    tracer.patch_function(codegen, "generate", "jedd.codegen")

    for cls in (Relation, Universe, DiagramBackend, BDDBackend):
        for attr, value in list(cls.__dict__.items()):
            public = not attr.startswith("_") or attr in _RELATION_DUNDERS
            if public and callable(getattr(value, "__func__", value)):
                tracer.patch_method(cls, attr, "relations")
    for attr in ("fact", "relation", "filter", "rule", "solve", "update"):
        tracer.patch_method(FixpointEngine, attr, "fixpoint")
    tracer.patch_function(ir, "evaluate", "ir")
    tracer.patch_function(ir_execute, "evaluate", "ir")
    tracer.patch_function(rel_io, "save_universe", "io")
    tracer.patch_function(rel_io, "load_universe", "io")

    for cls in (BDDManager, ArenaBDDManager, OocBDDManager):
        for names in BDD_OPS.values():
            for attr in names:
                if attr in cls.__dict__:
                    classify = classify_replace if attr == "replace" else None
                    tracer.patch_method(cls, attr, "bdd", classify)
    return tracer
