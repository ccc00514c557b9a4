"""Span tracer that wraps the public functions of the visitsim modules.

The tracer patches every module-level public function of the traced
modules, in every ``visitsim`` module namespace that holds a reference to
it, so that calls made through ``from .x import f`` are traced too.  Each
call records a span: name (``module.function``), start, end, parent and a
small ``info`` dict read from the call (model label, replication index,
iteration count, whether the fit converged).  ``uninstall`` puts every
original function back.

No program code is changed: the wrappers live only in the process that
installs them, for as long as they are installed.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "visitsim"
LAYERS = ("dgm", "domain", "jointfit", "lmm", "survfit", "iivw", "harness", "cli")

# Synthetic span that covers one replication inside ``harness.run_study``.
REP_SPAN = "harness.replication"


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _call_info(name: str, args, kwargs, result) -> dict:
    """What the per-layer metrics need from one call, by function name."""
    info = {}
    if name == "harness.fit_model":
        info["label"] = args[1] if len(args) > 1 else kwargs["label"]
    elif name == "dgm.simulate_panel":
        seed = args[1] if len(args) > 1 else kwargs["seed"]
        info["rep"] = seed.spawn_key[0] if getattr(seed, "spawn_key", ()) else None
        info["rows"] = result.n_rows
        info["gap_records"] = len(result.gap_records)
    if hasattr(result, "converged") and hasattr(result, "iterations"):
        info["converged"] = bool(result.converged)
        info["iterations"] = int(result.iterations)
    return info


class Tracer:
    """Records spans for calls into the public functions of ``LAYERS``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.info["raised"] = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if result is not None:
                    span.info.update(_call_info(name, args, kwargs, result))

        return traced

    @staticmethod
    def _public_functions() -> dict[object, str]:
        """Original function object -> traced name, for every layer module."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    found[value] = f"{layer}.{attr}"
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(name, fn) for fn, name in self._public_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != PACKAGE and not mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def add_replication_spans(spans: list[Span]) -> list[Span]:
    """Split each ``harness.run_study`` span into one span per replication.

    A replication starts where its ``dgm.simulate_panel`` call starts and
    ends where the next replication's starts (the last one ends at its last
    call).  The calls made directly by ``run_study`` in that interval are
    re-parented under it, so the replication's self time is the harness
    bookkeeping between the public calls.  Only the single-process path
    traces replications: with a worker pool the calls run in the workers.
    """
    out = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for study in [s for s in spans if s.name == "harness.run_study"]:
        kids = sorted(children.get(study.id, []), key=lambda s: s.start)
        current = None
        for kid in kids:
            if kid.name == "dgm.simulate_panel":
                if current is not None:
                    current.end = kid.start
                current = Span(len(out), study.id, REP_SPAN, kid.start, kid.end,
                               {"rep": kid.info.get("rep")})
                out.append(current)
            if current is not None:
                kid.parent = current.id
                current.end = max(current.end, kid.end)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
