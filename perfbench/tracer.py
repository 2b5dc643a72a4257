"""Span tracer that wraps toricchi's public functions from outside.

install() replaces every toricchi module global bound to a traced function
with a wrapper, so calls through re-imported names (todd, oracle, report
and chow import multiply_ray_divisor, dual_basis_vector, chi_hrr, ... by
name) are seen too. remove() puts every original back.

Each wrapper keeps, per span name, the call count, the inclusive time and
the self time (inclusive time minus the time of traced child spans), and
per parent -> child edge the calls and the child's inclusive time. Spans are aggregated in memory rather than
kept one by one: a single item makes tens of thousands of calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

TRACED = {
    "fan": ("star_fan", "is_smooth", "is_complete", "enumerate_faces"),
    "intlinalg": (
        "det_int", "inv_unimodular", "inv_rational", "solve_rational",
        "solve_unimodular", "solve_integer", "reduce_mod_lattice",
        "smith_diagonal", "lattice_basis_hnf", "kernel_vector",
    ),
    "divisor": ("dual_basis_vector", "restrict_divisor", "clear_ray_coefficient"),
    "chow": ("multiply_ray_divisor", "exp_divisor", "degree", "apply_divisor_polynomial"),
    "todd": ("todd_class", "chi_hrr", "verify_induction_step", "verify_ishida"),
    "oracle": (
        "canonical_representative", "chi_recursive", "chi_graded_cohomology",
        "count_lattice_points",
    ),
    "kernel": ("box_sum",),
    "report": ("run_verification", "render_verification"),
}
# span names whose every duration is kept, for percentiles
KEEP_DURATIONS = ("todd.verify_induction_step",)


class Span:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


def _box_points(lo, hi, *_):
    n = 1
    for a, b in zip(lo, hi):
        n *= max(0, b - a + 1)
    return n


class Tracer:
    """Wrappers for every function in TRACED plus Fan construction
    (span "fan.construct"); install() and remove() switch them in and out."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.edges: Counter = Counter()
        self.edge_ns: Counter = Counter()
        self.durations = {k: [] for k in KEEP_DURATIONS}
        self.box_points = 0
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._targets = {}  # id(original) -> (original, wrapper)
        for mod, names in TRACED.items():
            module = sys.modules[f"toricchi.{mod}"]
            for name in names:
                fn = getattr(module, name)
                self._targets[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        self._fan_cls = sys.modules["toricchi.fan"].Fan
        self._post_init = self._fan_cls.__dict__["__post_init__"]
        self._traced_post_init = self._wrap("fan.construct", self._post_init)

    def _wrap(self, key, fn):
        span = self.spans.setdefault(key, Span())
        stack = self._stack
        edges = self.edges
        edge_ns = self.edge_ns
        keep = self.durations.get(key)
        is_box = key == "kernel.box_sum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span.calls += 1
                span.total_ns += dt
                span.self_ns += dt - frame[1]
                edges[(parent, key)] += 1
                edge_ns[(parent, key)] += dt
                if keep is not None:
                    keep.append(dt)
                if is_box:
                    self.box_points += _box_points(*args)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, module in list(sys.modules.items()):
            if modname != "toricchi" and not modname.startswith("toricchi."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._patched.append((self._fan_cls, "__post_init__", self._post_init))
        self._fan_cls.__post_init__ = self._traced_post_init

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.spans[key].calls

    def total_ms(self, key: str) -> float:
        return self.spans[key].total_ns / 1e6

    def self_ms(self, prefix: str) -> float:
        """Self time of one span, or of every span under a module prefix."""
        return sum(
            s.self_ns for k, s in self.spans.items() if k == prefix or k.startswith(prefix + ".")
        ) / 1e6

    def p50_ms(self, key: str) -> float:
        xs = self.durations[key]
        return statistics.median(xs) / 1e6 if xs else 0.0
