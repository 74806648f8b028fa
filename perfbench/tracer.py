"""Spans and work counts recorded from outside the package.

The traced run replaces selected public functions of ``thermalqubits`` with
wrappers before the first operation.  A wrapper is installed under every
name that a package module holds for the original object, which is the
name the calling module looks up at call time (``reduction.amplitude_table``
and ``closed_form.amplitude_table`` alike).  Wrappers take ``*args,
**kwargs`` and derive work counts from what the call returns, so a later
change that adds a time axis or reshapes a return value is still traced.
A target that no longer exists is reported as absent, not an error.

Spans hold name, start, end, parent and operation id.  They stay in memory
until the run ends.  Self time is a span's duration minus the part of it
that its child spans cover; children running in parallel threads are
merged first, so covered time is never counted twice.  A child covers its
call plus the tracer's own bookkeeping around it (argument hashing, work
counts, the span record), so that bookkeeping is not charged to the
parent.  Count-only wrappers are too cheap to time one by one: their cost
per call is measured once at installation and deducted from the self time
of the span they were called in.

Self time is wall time, so in a pool thread it includes waiting for the
GIL.  Sweep parallelism is therefore computed from each job's thread CPU
time, which stops while the thread waits.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable

# Traced layer functions, module by module.  Plain names are spanned;
# names in COUNT_ONLY are only counted because they are called hundreds of
# thousands of times per operation from one loop.
TARGETS = {
    "cli": (
        "load_config",
        "timeseries_rows",
        "run_timeseries",
        "render_validation",
        "run_sweep",
    ),
    "fock_thermal": ("ThermalFieldSpec.probabilities", "make_phase_state", "photon_probability"),
    "closed_form": ("amplitude_table", "manifold_spectrum"),
    "reduction": ("reduced_density",),
    "entanglement": ("negativity", "closed_form_negativity"),
    "phase_engine": ("evolve_mixed", "partial_trace_field", "reconstruct_field_density"),
    "oracle": ("oracle_reduced_density", "jacobi_eigh"),
}

COUNT_ONLY = {"fock_thermal.photon_probability"}

# Functions whose distinct argument sets are counted, to expose recomputation.
DISTINCT = {"closed_form.amplitude_table", "fock_thermal.probabilities"}

# The solver handed to the phase engine is built by a factory; the factory
# is wrapped so the callable it returns is traced under this name.
SOLVER_FACTORY = ("closed_form", "phase_propagator")
SOLVER_NAME = "phase_engine.solver"

AMPLITUDES = "closed_form.amplitude_table"
REDUCED = "reduction.reduced_density"
SWEEP = "cli.run_sweep"


def metric_name(module: str, target: str) -> str:
    """Layer name of a target: module plus the function's own name."""
    return f"{module}.{target.rsplit('.', 1)[-1]}"


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    work: int = 0
    cpu: float = 0.0  # thread CPU seconds of the call
    outer: tuple[float, float] | None = None  # the call plus the tracer's bookkeeping


def _arg_key(value: object) -> object:
    """Hashable stand-in for one argument; arrays are keyed by their bytes."""
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        digest = hashlib.sha256(value.tobytes()).hexdigest()
        return ("array", tuple(value.shape), str(value.dtype), digest)
    if isinstance(value, (list, tuple)):
        return tuple(_arg_key(item) for item in value)
    try:
        hash(value)
    except TypeError:
        return ("repr", repr(value))
    return value


def _columns(result: object) -> int:
    """Amplitude columns in a returned table: four rows per column."""
    size = getattr(result, "size", 0)
    return int(size) // 4


class _TracedCallable:
    """Callable proxy that spans each call and forwards every other attribute."""

    def __init__(self, tracer: "Tracer", name: str, target: object) -> None:
        self._tracer = tracer
        self._name = name
        self._target = target

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, args, kwargs)

    def __getattr__(self, attr: str):
        return getattr(self._target, attr)


class Tracer:
    """In-memory span recorder for one run of one workload."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._counters: list[Counter] = []
        self._counters_lock = threading.Lock()
        self._keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.count_cost = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._counters_lock:
                self._counters.append(counter)
        return counter

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        entered = time.perf_counter()
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # a pool thread: its work belongs to what the main thread has open
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
        work = _columns(result) if name == AMPLITUDES else 0
        if name in DISTINCT:
            self._keys[name].add((_arg_key(args), _arg_key(sorted(kwargs.items()))))
        outer = (entered, time.perf_counter())
        self.spans.append(Span(span_id, name, start, end, parent, self.op, work, cpu, outer))
        return result

    def count(self, name: str) -> None:
        """One call of a count-only target, filed under the span it ran in."""
        stack = self._stack()
        self._counter()[name, stack[-1] if stack else None] += 1

    def _counted(self) -> Counter:
        total: Counter = Counter()
        with self._counters_lock:
            for counter in self._counters:
                total.update(counter)
        return total

    def counts(self) -> Counter:
        """Calls of each count-only target."""
        total: Counter = Counter()
        for (name, _), n in self._counted().items():
            total[name] += n
        return total

    def count_overhead(self) -> dict[int, float]:
        """Seconds the count-only wrappers added to each span's self time."""
        overhead: dict[int, float] = defaultdict(float)
        for (_, span_id), n in self._counted().items():
            if span_id is not None:
                overhead[span_id] += n * self.count_cost
        return overhead

    def calibrate(self, calls: int = 2000, rounds: int = 9) -> float:
        """Median extra seconds a count-only wrapper adds to one call."""

        def noop():
            return None

        wrapped = self._count_wrapper("calibration", noop)
        costs = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - start - bare) / calls)
        self._counter().clear()
        self.count_cost = max(statistics.median(costs), 0.0)
        return self.count_cost

    def distinct(self, name: str) -> int:
        return len(self._keys[name])

    # -- installation ---------------------------------------------------

    def install(self, package: str = "thermalqubits") -> None:
        """Wrap every target under each name a package module holds for it."""
        self.calibrate()
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, targets in TARGETS.items():
            module = sys.modules.get(f"{package}.{module_name}")
            for target in targets:
                name = metric_name(module_name, target)
                owner, attr = _resolve(module, target)
                if owner is None:
                    self.absent.append(name)
                    continue
                original = getattr(owner, attr)
                if name in COUNT_ONLY:
                    wrapper = self._count_wrapper(name, original)
                else:
                    wrapper = self._span_wrapper(name, original)
                if owner is module:
                    _replace_everywhere(modules, original, wrapper)
                else:
                    setattr(owner, attr, wrapper)
        module = sys.modules.get(f"{package}.{SOLVER_FACTORY[0]}")
        owner, attr = _resolve(module, SOLVER_FACTORY[1])
        if owner is None:
            self.absent.append(SOLVER_NAME)
            return
        factory = getattr(owner, attr)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return _TracedCallable(self, SOLVER_NAME, factory(*args, **kwargs))

        _replace_everywhere(modules, factory, traced_factory)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def _resolve(module, target: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    if module is None:
        return None, None
    owner = module
    *path, attr = target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def _replace_everywhere(modules: Iterable, original: object, wrapper: object) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


# -- analysis -------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span], overhead: dict[int, float] | None = None) -> dict[int, float]:
    """Each span's duration minus the time its children cover.

    A child covers its ``outer`` interval when it has one, so the tracer's
    bookkeeping around it is not charged to the parent; ``overhead`` holds
    further tracer seconds to deduct, by span id.
    """
    spans = list(spans)
    overhead = overhead or {}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span.outer or (span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        - overhead.get(span.id, 0.0)
        for span in spans
    }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer calls, self time, roll-ups and work counts of a traced run."""
    spans = tracer.spans
    own = self_times(spans, tracer.count_overhead())
    calls: Counter = Counter(span.name for span in spans)
    calls.update({name: n for name, n in tracer.counts().items() if name in COUNT_ONLY})
    self_s: dict[str, float] = defaultdict(float)
    for span in spans:
        self_s[span.name] += own[span.id]

    out: dict[str, tuple[float, str]] = {}
    for module, targets in TARGETS.items():
        names = [metric_name(module, target) for target in targets]
        if module == "phase_engine":
            names.append(SOLVER_NAME)
        rollup = 0.0
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            if name not in COUNT_ONLY:
                out[f"{name}.self_s"] = (self_s[name], "s")
                rollup += self_s[name]
        out[f"{module}.self_s"] = (rollup, "s")

    by_id = {span.id: span for span in spans}
    out[f"{AMPLITUDES}.columns"] = (
        sum(span.work for span in spans if span.name == AMPLITUDES),
        "count",
    )
    out[f"{REDUCED}.components"] = (
        sum(
            span.work
            for span in spans
            if span.name == AMPLITUDES
            and span.parent in by_id
            and by_id[span.parent].name == REDUCED
        ),
        "count",
    )
    for name in sorted(DISTINCT):
        out[f"{name}.distinct_frac"] = (
            tracer.distinct(name) / calls[name] if calls[name] else 0.0,
            "ratio",
        )

    sweeps = [span for span in spans if span.name == SWEEP]
    busy = 0.0
    wall = 0.0
    waits = []
    for sweep in sweeps:
        wall += sweep.end - sweep.start
        for span in spans:
            if span.parent == sweep.id:
                busy += span.cpu
                waits.append(span.start - sweep.start)
    out[f"{SWEEP}.parallelism"] = (busy / wall if wall else 0.0, "ratio")
    out[f"{SWEEP}.job_wait_s"] = (statistics.median(waits) if waits else 0.0, "s")
    return out
