"""Layer hooks for the traced run: self time, call counts, kernel counters.

Every hook wraps one public entry point of a ``repro`` layer from the
outside; the program itself is never edited.  A hook is installed where
its caller looks the name up:

* class methods (and properties) are patched on the class that defines
  them and on every subclass that overrides them, so ``self.submit(...)``
  or ``rule.aggregate(...)`` on any concrete class lands in the wrapper;
* module functions are patched in their home module, resolved through
  ``sys.modules`` (``repro.linalg.geometric_median`` the module is
  shadowed by ``repro.linalg.geometric_median`` the function), and in
  every loaded ``repro`` module holding a top-level ``from ... import``
  binding of the same function object — or only in the one consuming
  module a hook names.

A hook whose target no longer exists is reported as absent; its metrics
read zero and the run goes on.

Self time is inclusive time minus the time of nested hooked calls.  A
call that re-enters the layer it is already in (a subclass method
calling ``super()``) stays inside the outer span.  Work the tracer does
for itself (inbox fingerprints, kernel counters) is kept out of every
span and reported as ``bookkeeping_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

clock = time.perf_counter


class Recorder:
    """Spans and counters of one traced cell run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self.round_inboxes: List[tuple] = []
        self.bookkeeping_s = 0.0
        self.observer_errors: set = set()
        # One frame per open span: [layer, time spent in nested spans].
        self._stack: List[list] = []

    def _bookkeep(self, layer: str, fn: Callable, value) -> None:
        start = clock()
        try:
            fn(self, value)
        except Exception:  # a changed return shape must not end the run
            self.observer_errors.add(layer)
        spent = clock() - start
        self.bookkeeping_s += spent
        if self._stack:
            self._stack[-1][1] += spent

    def wrap(self, layer: str, fn: Callable, *, before=None, after=None) -> Callable:
        """``fn`` timed as a ``layer`` span; ``before``/``after`` run untimed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                self._bookkeep(layer, before, args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                self._bookkeep(layer, after, result)
            return result

        return wrapper


# -- observers (run outside every span) -------------------------------------
def _next_round(rec: Recorder, _args: tuple) -> None:
    """Every ``engine.submit`` starts a round: inboxes are distinct per round."""
    rec.round_inboxes = []


def _fingerprint_inbox(rec: Recorder, args: tuple) -> None:
    """Count the ``received`` stack of ``update(received)`` if its bytes are new this round.

    Inboxes are compared by value (shape, dtype and raw bytes), never by
    identity, so the count is what an exact per-round memo could save.
    """
    stack = np.ascontiguousarray(args[1])
    key = (stack.shape, stack.dtype.str, stack.tobytes())
    if key not in rec.round_inboxes:
        rec.round_inboxes.append(key)
        rec.counters["agreement.distinct_inboxes"] += 1


def _count_weiszfeld(rec: Recorder, result: tuple) -> None:
    """Kernel counters from ``weiszfeld_loop``'s ``(points, iterations, converged)``."""
    _points, iterations, converged = result
    iterations = np.asarray(iterations)
    converged = np.asarray(converged, dtype=bool)
    rec.counters["linalg.weiszfeld_iters"] += int(iterations.sum())
    rec.counters["linalg.weiszfeld_sets"] += int(iterations.size)
    rec.counters["linalg.weiszfeld_unconverged"] += int(converged.size - converged.sum())
    if iterations.size:
        rec.maxima["linalg.weiszfeld_iters_max"] = max(
            rec.maxima["linalg.weiszfeld_iters_max"], int(iterations.max())
        )


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``target`` is ``"function"`` or ``"Class.method"`` inside ``module``.
    ``bind_in`` names the only module whose binding of a function is
    patched; ``None`` patches the home module and every ``repro`` module
    that imported the same function object by name.
    """

    layer: str
    module: str
    target: str
    bind_in: Optional[str] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None


#: The traced layers.  ``layer`` is ``<repro package>.<span name>``.
HOOKS: Tuple[Hook, ...] = (
    Hook("data.build", "repro.learning.experiment", "build_experiment"),
    Hook("learning.gradient", "repro.learning.client", "Client.compute_gradient"),
    Hook("byzantine.corrupt", "repro.byzantine.base", "GradientAttack.corrupt"),
    Hook("engine.submit", "repro.engine.base", "RoundEngine.submit", before=_next_round),
    Hook("agreement.update", "repro.agreement.base", "AgreementAlgorithm.update",
         before=_fingerprint_inbox),
    Hook("aggregation.aggregate", "repro.aggregation.base", "AggregationRule.aggregate"),
    Hook("aggregation.sq_distances", "repro.aggregation.context",
         "AggregationContext.sq_distances"),
    Hook("linalg.subset_medians", "repro.linalg.subset_kernels", "subset_geometric_medians"),
    Hook("linalg.subset_means", "repro.linalg.subset_kernels", "subset_means"),
    Hook("linalg.subset_diameters", "repro.linalg.subset_kernels", "subset_diameters"),
    Hook("linalg.median_snap", "repro.linalg.geometric_median", "batched_geometric_median"),
    Hook("linalg.weiszfeld", "repro.linalg.backends", "KernelBackend.weiszfeld_loop",
         after=_count_weiszfeld),
    Hook("nn.sgd_step", "repro.nn.optimizers", "SGD.step"),
    Hook("nn.evaluate", "repro.nn.model", "Sequential.evaluate_accuracy"),
    Hook("linalg.disagreement", "repro.linalg.distances", "diameter",
         bind_in="repro.learning.decentralized"),
)


def _module(name: str):
    """The module object itself, even where a package attribute shadows it."""
    module = sys.modules.get(name)
    if module is None:
        try:
            module = importlib.import_module(name)
        except ImportError:
            return None
    return module


def _subclasses(cls: type) -> List[type]:
    seen, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _wrapped_attribute(rec: Recorder, hook: Hook, raw):
    """Wrap a class ``__dict__`` entry, keeping its descriptor kind."""
    kwargs = {"before": hook.before, "after": hook.after}
    if isinstance(raw, property):
        return property(rec.wrap(hook.layer, raw.fget, **kwargs), raw.fset, raw.fdel, raw.__doc__)
    if callable(raw):
        return rec.wrap(hook.layer, raw, **kwargs)
    return None


class Tracer:
    """Installs :data:`HOOKS` around a block; ``absent`` lists missing targets."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.absent: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install(self, hook: Hook) -> bool:
        module = _module(hook.module)
        if module is None:
            return False
        if "." in hook.target:
            class_name, attr = hook.target.split(".", 1)
            base = getattr(module, class_name, None)
            if not isinstance(base, type):
                return False
            owners = [cls for cls in _subclasses(base) if attr in cls.__dict__]
            for cls in owners:
                wrapped = _wrapped_attribute(self.recorder, hook, cls.__dict__[attr])
                if wrapped is not None:
                    self._patch(cls, attr, wrapped)
            return bool(owners)
        original = getattr(module, hook.target, None)
        if not callable(original):
            return False
        wrapped = self.recorder.wrap(hook.layer, original, before=hook.before, after=hook.after)
        if hook.bind_in is not None:
            consumer = _module(hook.bind_in)
            if consumer is None or consumer.__dict__.get(hook.target) is not original:
                return False
            self._patch(consumer, hook.target, wrapped)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)
        return True

    def __enter__(self) -> "Tracer":
        self.absent = [hook.layer for hook in HOOKS if not self._install(hook)]
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)
