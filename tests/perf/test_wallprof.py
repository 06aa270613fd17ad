"""WallProfiler: attribution share, subsystem mapping, collapsed
stacks, sim-kernel integration; `--wall-profile` on trace and chaos."""

import os

import pytest

from repro.cli import main
from repro.perf import WallProfiler, render_wallprof
from repro.perf.wallprof import _subsystem_of
from repro.sim.kernel import Simulator


def sim_spin():
    """A little real repro work: the event loop under the profiler."""
    sim = Simulator()

    def ticker():
        for _ in range(200):
            yield sim.timeout(0.01)

    for _ in range(5):
        sim.process(ticker())
    sim.run()


def test_subsystem_mapping():
    sep = os.sep
    assert _subsystem_of(f"{sep}x{sep}repro{sep}sim{sep}kernel.py") \
        == "sim"
    assert _subsystem_of(
        f"{sep}x{sep}repro{sep}db{sep}engine.py") == "db"
    assert _subsystem_of(f"{sep}x{sep}repro{sep}cli.py") == "cli"
    assert _subsystem_of(f"{sep}lib{sep}site-packages{sep}repro{sep}"
                         f"sim{sep}kernel.py") == "sim"
    # Everything outside repro/ has no layer of its own: the profiler
    # charges it to the nearest repro caller.
    import sysconfig
    stdlib = sysconfig.get_paths()["stdlib"]
    for outside in (
            f"{sep}lib{sep}site-packages{sep}numpy{sep}core.py",
            "<string>", f"{sep}somewhere{sep}else{sep}thing.py",
            os.path.join(stdlib, "json", "__init__.py")):
        assert _subsystem_of(outside) == "other"


def test_callees_outside_repro_are_charged_to_their_repro_caller():
    """A db-layer function that spends its time in ``sorted`` and
    ``json.dumps`` owns that time: no stdlib / builtins row."""
    # indent= takes json off its C encoder, so stdlib *Python* frames
    # (json/encoder.py) sit on the stack beside the C call to sorted.
    source = ("import json\n"
              "def crunch():\n"
              "    for _ in range(100):\n"
              "        json.dumps(sorted(range(300), reverse=True),\n"
              "                   indent=1)\n")
    namespace: dict = {}
    exec(compile(source, os.path.join(os.sep, "x", "repro", "db",
                                      "fake.py"), "exec"), namespace)
    profiler = WallProfiler()
    with profiler:
        namespace["crunch"]()
    rows = {row["subsystem"]: row["wall_s"] for row in profiler.rows()}
    # ("perf" is the profiler's own __exit__, "other" this test.)
    assert set(rows) <= {"db", "perf", "other"}
    assert sum(rows.values()) == pytest.approx(profiler.wall_time)
    # The flamegraph input names every frame under its owner: the
    # stdlib and builtin frames ran only beneath crunch ...
    stacks = [line.rsplit(" ", 1)
              for line in profiler.collapsed().splitlines()]
    callees = [stack for stack, _micros in stacks
               if "builtins:sorted" in stack
               or "other.encoder:" in stack]
    assert any("builtins:sorted" in stack for stack in callees)
    assert any("other.encoder:" in stack for stack in callees)
    assert all(stack.startswith("db.fake:crunch;") for stack in callees)
    # ... and the db row is exactly the time of the stacks beneath
    # crunch (to the collapsed file's microsecond rounding), so none
    # of theirs went to "other".  Timing-independent: the owner of an
    # interval is a function of the stack, not of the clock.
    under_crunch = sum(int(micros) for stack, micros in stacks
                       if stack.startswith("db.fake:crunch"))
    assert rows["db"] * 1e6 == pytest.approx(under_crunch, abs=100)


def test_attribution_share_is_at_least_95_percent():
    """The acceptance bar: >=95% of profiled wall time lands in named
    subsystems when profiling a real repro call (a local test
    generator would charge its own frames to ``other``)."""
    from repro.experiments.figures import run_fig4_clock_sync

    profiler = WallProfiler()
    with profiler:
        run_fig4_clock_sync(duration=60.0, sample_period=1.0, seed=0)
    assert profiler.wall_time > 0.0
    assert profiler.attributed_share() >= 0.95
    shares = {row["subsystem"]: row["share"]
              for row in profiler.rows()}
    assert "sim" in shares
    assert sum(shares.values()) == pytest.approx(1.0)


def test_rows_sum_exactly_to_wall_time():
    profiler = WallProfiler()
    with profiler:
        sim_spin()
    assert sum(row["wall_s"] for row in profiler.rows()) \
        == pytest.approx(profiler.wall_time)


def test_collapsed_stack_format():
    profiler = WallProfiler()
    with profiler:
        sim_spin()
    lines = profiler.collapsed().splitlines()
    assert lines
    for line in lines:
        frames, micros = line.rsplit(" ", 1)
        assert int(micros) > 0
        assert frames
    assert lines == sorted(lines)
    assert any("sim.kernel:" in line for line in lines)


def test_start_twice_raises_and_stop_is_idempotent():
    profiler = WallProfiler()
    profiler.start()
    with pytest.raises(RuntimeError, match="already running"):
        profiler.start()
    profiler.stop()
    profiler.stop()  # no-op


def test_resumable_accumulation():
    """start/stop must accumulate, not reset."""
    profiler = WallProfiler()
    with profiler:
        sim_spin()
    first = profiler.wall_time
    with profiler:
        sim_spin()
    assert profiler.wall_time > first


def test_render_and_snapshot():
    profiler = WallProfiler()
    with profiler:
        sim_spin()
    text = render_wallprof(profiler)
    assert "wall-clock profile" in text
    assert "attributed" in text
    snapshot = profiler.snapshot()
    assert snapshot["wall_s"] == pytest.approx(profiler.wall_time)
    assert 0.0 <= snapshot["attributed_share"] <= 1.0
    assert snapshot["rows"] == profiler.rows()


def test_trace_wall_profile_writes_sidecars(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    code = main(["cell", "--users", "5", "--slaves", "1", "--seed",
                 "7", "--out", str(out_dir), "--wall-profile"])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "wallprof.txt").is_file()
    assert (out_dir / "wallprof.collapsed").is_file()
    assert "wall-clock profile" in (out_dir / "wallprof.txt") \
        .read_text()


def test_chaos_wall_profile_keeps_stdout_byte_identical(tmp_path,
                                                        capsys):
    # The property is size-independent: a 4-user drill shows it.
    drill = ["drill", "--seed", "42", "--users", "4", "--format",
             "json"]
    plain = main(drill)
    plain_out = capsys.readouterr().out
    profiled = main(drill + ["--out", str(tmp_path / "chaos"),
                             "--wall-profile"])
    profiled_out = capsys.readouterr().out
    assert plain == profiled == 0
    assert plain_out == profiled_out
    assert (tmp_path / "chaos" / "wallprof.collapsed").is_file()
