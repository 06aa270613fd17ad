"""The wall-clock profiler behind ``repro cell|drill --wall-profile``.

:class:`~.wallprof.WallProfiler` charges wall time per repro layer and
writes a collapsed-stack flamegraph file (:mod:`.wallprof`).
"""

from .wallprof import WallProfiler, render_wallprof

__all__ = ["WallProfiler", "render_wallprof"]
