"""In-memory spans around the calls into each shardcd layer.

The benchmark records spans from its own code: `Tracer.installed()`
replaces the names the engine calls across module boundaries, the
`ColMatrix` products and constructors, and the package-level I/O and
solve entry points with timing wrappers, and puts every original back on
exit. Nothing under `src/` is edited. Each span records its name, start,
end, parent span and the id of the top-level call it belongs to (the
solve id for spans inside `solve`).
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

import shardcd as sc
from shardcd import engine
from shardcd.data import ColMatrix

# (owner, attribute, layer): the layer is the shardcd module that does the work
WRAPPED = (
    (engine, "run_round", "engine"),
    (engine, "solve_local", "local"),
    (engine, "duality_gap", "objectives"),
    (engine, "f_grad", "objectives"),
    (engine, "f_value", "objectives"),
    (ColMatrix, "mat_vec", "data"),
    (ColMatrix, "mat_tvec", "data"),
    (ColMatrix, "from_coo", "data"),
    (ColMatrix, "normalize_columns", "data"),
    (sc, "solve", "engine"),
    (sc, "gen_synthetic", "dataio"),
    (sc, "read_libsvm", "dataio"),
    (sc, "write_libsvm", "dataio"),
    (sc, "write_trace", "dataio"),
)
LAYER = {name: layer for _, name, layer in WRAPPED}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    root: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self):
        return (self.end_ns - self.start_ns) / 1e6


def _local_attrs(result):
    return {"updates": result.updates_done, "changed": len(result.delta_alpha)}


class Tracer:
    """Span recorder; single-threaded, like the engine's sequential mode."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, time.perf_counter_ns(), parent=parent,
                  root=idx if parent is None else self.spans[parent].root)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name, fn):
        on_result = _local_attrs if name == "solve_local" else None

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    sp.attrs = on_result(out)
                return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for owner, name, _ in WRAPPED:
                orig = vars(owner)[name]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrapper(name, orig.__func__))
                else:
                    new = self._wrapper(name, orig)
                setattr(owner, name, new)
                saved.append((owner, name, orig))
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    def self_ms(self):
        """Each span's duration minus the time its direct children cover."""
        out = [sp.ms for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.ms
        return out

    def write(self, path, header):
        """Write the header and then one JSON object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start_ns": sp.start_ns,
                    "end_ns": sp.end_ns, "parent": sp.parent,
                    "solve_id": sp.root, "attrs": sp.attrs}) + "\n")
