"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the efce package at the
names their callers look up, and records one span per call in memory: the
hook, its start and end on the monotonic clock, and the span that was open
when it started.  A hook's self time is its spans' durations minus the time
their child spans cover.  A hook whose target no longer exists is reported
as absent and skipped, so the traced run survives refactors of the package.

Spans are grouped into units (one self-play run, or one scored stream).  A
unit that fails is rolled back, so a spinning or raising run does not count
towards the per-layer figures of the runs that completed.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

# (metric prefix, module whose attribute callers look up, attribute path).
# Two targets may share one prefix; their spans are reported together.
HOOKS = (
    ("game.parse_game", "efce.game", "parse_game"),
    ("deviations.fixed_point", "efce.trigger", "fixed_point"),
    ("deviations.stationary_distribution", "efce.deviations", "stationary_distribution"),
    ("strategies.sample_pure", "efce.trigger", "sample_pure"),
    ("strategies.utility_vector", "efce.dynamics", "utility_vector"),
    ("regret.cfr_next", "efce.regret", "CfrMinimizer.next_element"),
    ("regret.cfr_observe", "efce.regret", "CfrMinimizer.observe_utility"),
    ("regret.rm_next", "efce.regret", "RegretMatching.next_element"),
    ("regret.rm_observe", "efce.regret", "RegretMatching.observe_utility"),
    ("trigger.hull_next", "efce.trigger", "HullMinimizer.next_element"),
    ("trigger.hull_observe", "efce.trigger", "HullMinimizer.observe_utility"),
    ("trigger.meter_record", "efce.trigger", "PhiRegretMeter.record"),
    ("trigger.meter_regret", "efce.trigger", "PhiRegretMeter.regret"),
    ("dynamics.accumulate", "efce.dynamics", "EmpiricalFrequency.accumulate"),
    ("dynamics.efce_gap", "efce.dynamics", "efce_gap"),
    ("dynamics.subtree_best_response", "efce.dynamics", "subtree_best_response"),
    ("dynamics.run", "efce.dynamics", "run"),
    ("cli.log_text", "efce.dynamics", "RunLog.csv_text"),
    ("cli.log_text", "efce.dynamics", "RunLog.summary_text"),
)

HOOK_NAMES = tuple(dict.fromkeys(name for name, _, _ in HOOKS))

# Hooks normalised per set-up (one build of the workload's games); every
# other hook is normalised per round.
SETUP_HOOKS = ("game.parse_game",)


def _resolve(module_name, path):
    """(owner object, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


def _array_bytes(obj):
    """Bytes of the ndarrays an object holds directly or in lists (not its raw samples)."""
    try:
        fields = vars(obj)
    except TypeError:
        return 0
    total = 0
    for key, val in fields.items():
        if key == "profiles":
            continue
        items = val if isinstance(val, (list, tuple)) else (val,)
        total += sum(v.nbytes for v in items if isinstance(v, np.ndarray))
    return total


class Tracer:
    """Records spans for every installed hook until :meth:`uninstall`."""

    def __init__(self):
        self.hook_id = {name: k for k, name in enumerate(HOOK_NAMES)}
        self.hook = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._installed = []
        self.absent = []
        # Per-unit observations, merged into the totals on commit.
        self._unit_objects = {}
        self._unit_m = Counter()
        self._unit_terms = [0, 0]
        self._mark = 0
        self.m_counts = Counter()
        self.fp_terms = 0
        self.fp_calls = 0
        self.profiles_kept = 0
        self.tables_bytes = 0

    # -- installation --------------------------------------------------------

    def install(self):
        for name, module_name, path in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            owner, attr, target = found
            own = attr in vars(owner)
            observe = self._observer(name)
            self._installed.append((owner, attr, target, own))
            setattr(owner, attr, self._wrap(self.hook_id[name], target, observe))

    def uninstall(self):
        for owner, attr, target, own in reversed(self._installed):
            if own:
                setattr(owner, attr, target)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _observer(self, name):
        if name == "deviations.stationary_distribution":
            return self._see_stationary
        if name == "deviations.fixed_point":
            return self._see_fixed_point
        if name in ("dynamics.accumulate", "trigger.meter_record"):
            return self._see_state
        return None

    def _wrap(self, hook, fn, observe):
        hooks, parents, starts, ends, stack = (
            self.hook, self.parent, self.start, self.end, self._stack)
        clock = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(starts)
            hooks.append(hook)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- observations read from the arguments --------------------------------

    def _see_stationary(self, args):
        if args:
            shape = np.shape(args[0])
            if shape:
                self._unit_m[shape[0]] += 1

    def _see_fixed_point(self, args):
        terms = getattr(args[1], "terms", None) if len(args) > 1 else None
        if terms is not None:
            self._unit_terms[0] += len(terms)
            self._unit_terms[1] += 1

    def _see_state(self, args):
        if args:
            self._unit_objects[id(args[0])] = args[0]

    # -- units ---------------------------------------------------------------

    def begin(self):
        """Start a unit: spans recorded from here on belong to it."""
        self._mark = len(self.start)
        self._unit_objects.clear()
        self._unit_m.clear()
        self._unit_terms = [0, 0]

    def commit(self):
        """Keep the current unit's spans and fold its observations in."""
        self.m_counts.update(self._unit_m)
        self.fp_terms += self._unit_terms[0]
        self.fp_calls += self._unit_terms[1]
        kept = 0
        for obj in self._unit_objects.values():
            profiles = getattr(obj, "profiles", None)
            if isinstance(profiles, list):
                kept += len(profiles)
        self.profiles_kept = max(self.profiles_kept, kept)
        nbytes = sum(_array_bytes(obj) for obj in self._unit_objects.values())
        self.tables_bytes = max(self.tables_bytes, nbytes)
        self._unit_objects.clear()

    def rollback(self):
        """Drop the current unit's spans and observations."""
        for arr in (self.hook, self.parent, self.start, self.end):
            del arr[self._mark:]
        del self._stack[1:]
        self._unit_objects.clear()

    # -- results -------------------------------------------------------------

    def totals(self):
        """Per-hook (calls, self time in ns), keyed by metric prefix."""
        hook = np.array(self.hook, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64)).astype(float)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - covered
        k = len(HOOK_NAMES)
        calls = np.bincount(hook, minlength=k)
        self_sum = np.bincount(hook, weights=self_ns, minlength=k)
        return {name: (int(calls[i]), float(self_sum[i]))
                for i, name in enumerate(HOOK_NAMES)}

    def write(self, path):
        """Write the spans to an .npz file: hook names and one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            hook_names=np.array(HOOK_NAMES),
            hook=np.array(self.hook, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
        )
