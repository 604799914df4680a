"""Spans around pietsp's public functions, recorded from the benchmark's side.

``Tracer.install`` replaces each traced function with a wrapper at every
name a pietsp module looks it up by (``pietsp.train.forward`` and
``pietsp.model.forward`` alike), so calls made inside the package are
traced too; ``uninstall`` puts the originals back.  The package itself is
not modified.  Spans stay in memory, one entry per span in each of four
flat lists (name, start ns, end ns, parent index), which keeps them out of
the garbage collector's way, and are aggregated when the run ends.  A
span's self time is its duration minus the union of the intervals its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Layer (pietsp module) -> the public functions traced in it.
TRACED = {
    "data": ("load_corpus", "split_users", "prepare_all"),
    "model": ("forward", "pe_forward", "ee_forward", "pi_forward", "ge_forward", "fuse_scores", "backward",
              "init_params"),
    "linalg": ("check_finite",),
    "train": ("bce_loss", "train_epoch", "evaluate"),
    "metrics": ("top_k", "recall_at_k", "ndcg_at_k"),
    "optim": ("adam_step",),
    "checkpoint": ("checkpoint_bytes", "save_checkpoint", "load_checkpoint"),
}
# Methods that are only counted: a span would move their time out of the caller's self time.
COUNTED = {"model.zeros_like": ("model", "ModelParams", "zeros_like")}


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    covered = 0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []   # index of the enclosing span, -1 for a root
        self.counts: dict[tuple[str, str, str], int] = {}  # (phase, caller, name) -> calls
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _where(self) -> tuple[str, str]:
        """(phase, innermost open span): the root span's name and the caller's."""
        if not self._stack:
            return "", ""
        return self.names[self._stack[0]], self.names[self._stack[-1]]

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        """``fn`` recording a span per call; the same steps as ``span``, inlined for speed."""
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (*self._where(), name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "pietsp" or n.startswith("pietsp.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"pietsp.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for name, (layer, cls_name, method) in COUNTED.items():
            cls = getattr(importlib.import_module(f"pietsp.{layer}"), cls_name)
            original = vars(cls)[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._counting(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> dict[tuple[str, str], SpanStats]:
        """Per (phase, span name): calls, total and self time.  A phase is a root span's name."""
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        children: dict[int, list[tuple[int, int]]] = {}
        phase: list[str] = []
        for name, start, end, parent in spans:
            phase.append(name if parent < 0 else phase[parent])
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        stats: dict[tuple[str, str], SpanStats] = {}
        for idx, (name, start, end, _) in enumerate(spans):
            s = stats.setdefault((phase[idx], name), SpanStats())
            s.calls += 1
            s.total_ns += end - start
            s.self_ns += end - start - union_ns(children.get(idx, ()), start, end)
        return stats
