"""Layer handles and the in-memory span recorder.

Every benchmark operation reaches the package through a ``Layers`` object:
one namespace per module holding the public functions the operations call.
Untraced, those are the package's own function objects, so the timed path
carries no tracing cost.  Traced, each is wrapped to record one span
(id, parent, operation id, name, start, end) per call; the parent is the
span of the operation that made the call.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

# The public functions the workloads call, by layer.
LAYER_FUNCS = {
    "words": ("parse_word", "normalize", "multiply", "invert", "power", "cyclically_reduce"),
    "hecke": ("coset_profile", "double_coset", "same_double_coset", "qc_member", "hecke_convolve"),
    "fusion": ("decompose_self_inverse", "exchange_partners"),
    "tree": ("classify", "common_fixed_vertex", "export_ball", "vertex_distance", "vertex_neighbors"),
    "rigidity": ("recover_parameters", "crossed_product_obstruction", "sign_witness", "canonicalize"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next = 0
        self.op_id = 0
        self.op_span = -1

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def begin_op(self) -> None:
        """Start a new operation: its spans share one operation id."""
        self.op_id += 1
        self.op_span = self.new_id()

    def end_op(self, name: str, start: float, end: float) -> None:
        self.spans.append((self.op_span, None, self.op_id, name, start, end))

    def wrap(self, name: str, fn):
        spans = self.spans
        new_id = self.new_id

        def traced(*args, **kwargs):
            span = new_id()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span, self.op_span, self.op_id, name, start, perf_counter()))

        return traced


def make_layers(mods, tracer: Tracer | None = None) -> SimpleNamespace:
    """Namespaces words, hecke, ... holding the functions of LAYER_FUNCS,
    wrapped by ``tracer`` when one is given."""
    layers = SimpleNamespace()
    for layer, names in LAYER_FUNCS.items():
        ns = SimpleNamespace()
        for name in names:
            fn = getattr(getattr(mods, layer), name)
            setattr(ns, name, tracer.wrap(f"{layer}.{name}", fn) if tracer else fn)
        setattr(layers, layer, ns)
    return layers
