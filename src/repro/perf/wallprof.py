"""Wall-clock profiler with subsystem attribution.

The sim-time :class:`~repro.obs.kernelprof.KernelProfiler` says where
*simulated* time went; :class:`WallProfiler` is its wall-clock
complement: a ``sys.setprofile`` hook that charges every interval of
real time to the nearest frame on the stack that lives under
``repro/`` — its layer (``sim``, ``db``, ``replication``, ``sql``,
``obs``, …) by source path, so the C calls, stdlib and numpy frames a
layer runs are that layer's time — and reports

* a per-layer wall-time table (buckets sum exactly to the profiled
  wall time; only time with no repro frame beneath it is ``other``);
* a collapsed-stack file (``a;b;c <microseconds>`` per line, full
  stacks, callees outside repro included) loadable by any flamegraph
  renderer (e.g. speedscope, flamegraph.pl).

The profiler is wall-clock *measurement* infrastructure, never an
input to simulation logic, so its clock reads are blessed for the
determinism gates (TNT005 stays strict everywhere else).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional

__all__ = ["WallProfiler", "render_wallprof"]

#: The bucket for time with no repro frame beneath it (the harness
#: that started the profiler); every other bucket is a repro layer.
_OTHER = "other"

_REPRO_MARKER = os.sep + os.path.join("repro", "")


def _subsystem_of(filename: str) -> str:
    """The repro layer a source path belongs to; ``other`` for code
    outside ``repro/`` (stdlib, site-packages, ``<string>``)."""
    index = filename.rfind(_REPRO_MARKER)
    if index < 0:
        return _OTHER
    head = filename[index + len(_REPRO_MARKER):].split(os.sep, 1)
    # Top-level modules: cli.py, metrics.py, __main__.py.
    return "cli" if len(head) == 1 else head[0]


class WallProfiler:
    """Wall time per repro layer + collapsed call stacks.

    Use as a context manager around the code to profile::

        profiler = WallProfiler()
        with profiler:
            run()
        print(render_wallprof(profiler))
    """

    #: Collapse keys are capped at this stack depth (deep recursion
    #: otherwise explodes the collapsed-stack table).
    MAX_STACK = 48

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        #: subsystem -> [exclusive seconds, events]
        self._buckets: dict[str, list] = {}
        #: tuple(label, ...) -> exclusive seconds
        self._stacks: dict[tuple, float] = {}
        #: live stack of (label, owner): the owner is the layer of the
        #: nearest repro frame at or beneath this one, carried down as
        #: frames are pushed
        self._stack: list[tuple[str, str]] = []
        self._label_cache: dict[str, tuple[str, str]] = {}
        self._last: Optional[float] = None
        self._active = False
        self.wall_time = 0.0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._active:
            raise RuntimeError("WallProfiler is already running")
        self._active = True
        self._stack.clear()
        self._last = self._clock()  # simlint: disable=DET001  # simtaint: blessed=wall-clock-profiler-measurement
        sys.setprofile(self._hook)

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(None)
        self._charge(self._clock())  # simlint: disable=DET001  # simtaint: blessed=wall-clock-profiler-measurement
        self._active = False
        self.wall_time = sum(entry[0]
                             for entry in self._buckets.values())

    def __enter__(self) -> "WallProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the hook ----------------------------------------------------------
    def _charge(self, now: float) -> None:
        """Charge the interval since the last event to the owner of
        the stack top."""
        elapsed = now - self._last
        self._last = now
        if elapsed <= 0.0:
            return
        subsystem = self._stack[-1][1] if self._stack else _OTHER
        entry = self._buckets.get(subsystem)
        if entry is None:
            self._buckets[subsystem] = [elapsed, 1]
        else:
            entry[0] += elapsed
            entry[1] += 1
        key = tuple(frame[0]
                    for frame in self._stack[-self.MAX_STACK:]) \
            or ("<harness>",)
        self._stacks[key] = self._stacks.get(key, 0.0) + elapsed

    def _push(self, label: str, subsystem: str = _OTHER) -> None:
        """Push a frame; one outside repro inherits its caller's owner."""
        if subsystem == _OTHER and self._stack:
            subsystem = self._stack[-1][1]
        self._stack.append((label, subsystem))

    def _label_python(self, code) -> tuple[str, str]:
        filename = code.co_filename
        cached = self._label_cache.get(filename)
        if cached is None:
            subsystem = _subsystem_of(filename)
            module = os.path.splitext(os.path.basename(filename))[0]
            cached = (f"{subsystem}.{module}", subsystem)
            self._label_cache[filename] = cached
        prefix, subsystem = cached
        return f"{prefix}:{code.co_name}", subsystem

    def _hook(self, frame, event, arg) -> None:
        now = self._clock()  # simlint: disable=DET001  # simtaint: blessed=wall-clock-profiler-measurement
        self._charge(now)
        if event == "call":
            self._push(*self._label_python(frame.f_code))
        elif event == "return":
            if self._stack:
                self._stack.pop()
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or "builtins"
            name = getattr(arg, "__qualname__", None) \
                or getattr(arg, "__name__", "<c>")
            self._push(f"{module.split('.', 1)[0]}:{name}")
        elif event in ("c_return", "c_exception"):
            if self._stack:
                self._stack.pop()
        # Exclude the hook's own bookkeeping from the next interval.
        self._last = self._clock()  # simlint: disable=DET001  # simtaint: blessed=wall-clock-profiler-measurement

    # -- results -----------------------------------------------------------
    def rows(self) -> list[dict]:
        """Per-layer wall time, largest first."""
        total = self.wall_time or 1.0
        return [
            {"subsystem": subsystem, "wall_s": entry[0],
             "events": entry[1], "share": entry[0] / total}
            for subsystem, entry in sorted(
                self._buckets.items(),
                key=lambda kv: (-kv[1][0], kv[0]))]

    def attributed_share(self) -> float:
        """Fraction of profiled wall time owned by a repro layer
        (everything except the ``other`` row)."""
        if not self.wall_time:
            return 1.0
        unnamed = self._buckets.get(_OTHER, [0.0])[0]
        return 1.0 - unnamed / self.wall_time

    def snapshot(self) -> dict:
        return {"wall_s": self.wall_time,
                "attributed_share": self.attributed_share(),
                "rows": self.rows()}

    def collapsed(self) -> str:
        """The flamegraph input: ``frame;frame;... <microseconds>``
        per line, alphabetical (byte-stable for equal timings)."""
        lines = []
        for key in sorted(self._stacks):
            micros = int(round(self._stacks[key] * 1e6))
            if micros > 0:
                lines.append(f"{';'.join(key)} {micros}")
        return "\n".join(lines)


def render_wallprof(profiler: WallProfiler) -> str:
    """The per-layer wall-time attribution table (one row per repro
    subpackage that ran, plus ``other``)."""
    rows = profiler.rows()
    lines = [
        "wall-clock profile (wall time per repro layer)",
        f"{'subsystem':<16s} {'events':>10s} {'wall-s':>10s} "
        f"{'share':>7s}",
    ]
    for row in rows:
        lines.append(f"{row['subsystem']:<16s} {row['events']:>10d} "
                     f"{row['wall_s']:>10.4f} {row['share']:>6.1%}")
    lines.append(f"{'total':<16s} {'':>10s} "
                 f"{profiler.wall_time:>10.4f} "
                 f"{profiler.attributed_share():>6.1%} attributed")
    return "\n".join(lines)
