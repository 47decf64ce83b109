"""Spans around the calls into each paramtc layer, recorded from outside.

:func:`traced` wraps the public functions in :data:`TRACED` for the length of
a ``with`` block.  Each function is replaced at every module attribute that
holds it, because that is where its callers look it up: ``verify`` calls
``plan`` through ``paramtc.verify.plan``, ``bounds`` calls ``height``
through ``paramtc.bounds.height``, the ring calls ``cup`` through
``paramtc.ring.cup``.  Spans stay in memory as parallel arrays (name,
parent, root, start, end) and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

import paramtc
from paramtc import bounds, bundle, cli, planner, ring, verify

MODULES = (paramtc, ring, bundle, bounds, planner, verify, cli)

# metric prefix -> (owner, attribute)
TRACED = {
    "ring.cup": (ring, "cup"),
    "ring.height": (ring, "height"),
    "ring.lh_height": (ring, "lh_height"),
    "ring.lh_multiply": (ring, "lh_multiply"),
    "ring.lh_power": (ring, "lh_power"),
    "bundle.whitney_sum": (bundle, "whitney_sum"),
    "bundle.k_fold_sum": (bundle, "k_fold_sum"),
    "bundle.ddot_of": (bundle, "ddot_of"),
    "bounds.secat_sphere_bundle": (bounds, "secat_sphere_bundle"),
    "bounds.tc_sphere_bundle": (bounds, "tc_sphere_bundle"),
    "planner.classify_pair": (planner, "classify_pair"),
    "planner.plan": (planner, "plan"),
    "planner.PlannedPath.fiber_at": (planner.PlannedPath, "fiber_at"),
    "verify.check_path": (verify, "check_path"),
    "verify.check_paths_random": (verify, "check_paths_random"),
    "verify.lh_rewrite_oracle": (verify, "lh_rewrite_oracle"),
    "cli.execute": (cli, "execute"),
}

ITEM = "item"  # the benchmark's own root span around one call


class Tracer:
    """Span store; one span per wrapped call, parent taken from a stack."""

    def __init__(self) -> None:
        self.names = [ITEM, *TRACED]
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        parent = self._stack[-1]
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.root.append(i if parent < 0 else self.root[parent])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name_id: int, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            i = self.begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)

        return traced_call

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self seconds per name: span duration minus its children's."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        self_s = np.bincount(names, weights=duration - children, minlength=size)
        return calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            root=np.frombuffer(self.root, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[None]:
    """Wrap every function in TRACED at all of its lookup sites; restore on exit."""
    restore = []
    for name_id, (owner, attr) in enumerate(TRACED.values(), start=1):
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name_id, original)
        for holder in {owner, *MODULES}:
            for key, value in list(vars(holder).items()):
                if value is original:
                    restore.append((holder, key, original))
                    setattr(holder, key, wrapped)
    try:
        yield
    finally:
        for holder, key, original in reversed(restore):
            setattr(holder, key, original)
