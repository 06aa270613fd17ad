"""Call-graph and may-yield summary layer: exact assertions."""

import ast
import os

from repro.analysis.race import build_project_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def _build(tmp_path, sources):
    paths = []
    for name, source in sorted(sources.items()):
        target = tmp_path / name
        target.write_text(source, encoding="utf-8")
        paths.append(str(target))
    return build_project_model(paths)


DELEGATION = """\
def leaf():
    yield 1


def chain():
    yield from leaf()


def deep():
    yield from chain()


def plain_caller():
    chain()
    return 2


def rec_a():
    yield from rec_b()


def rec_b():
    yield from rec_a()


def computed(gen):
    yield from gen


def helper():
    return 3
"""


def test_delegation_chain_summary_exact(tmp_path):
    model = _build(tmp_path, {"mod.py": DELEGATION})
    assert model.summary() == {
        "mod.leaf": True,          # plain yield
        "mod.chain": True,         # delegates to leaf
        "mod.deep": True,          # transitively
        "mod.plain_caller": False, # plain call never suspends caller
        "mod.rec_a": False,        # cycle with no plain yield
        "mod.rec_b": False,
        "mod.computed": True,      # unresolvable delegation: assume
        "mod.helper": False,
    }


def test_yieldfrom_preempts_per_site(tmp_path):
    model = _build(tmp_path, {"mod.py": DELEGATION})
    yf = {}
    for info in model.functions.values():
        for node in ast.walk(info.node):
            if isinstance(node, ast.YieldFrom):
                yf[info.name] = model.yieldfrom_preempts(node)
    assert yf["chain"] is True
    assert yf["deep"] is True
    assert yf["rec_a"] is False       # resolves to a non-yielding cycle
    assert yf["rec_b"] is False
    assert yf["computed"] is True     # yield from a bare name
    # A YieldFrom node the model never saw is conservatively preempting.
    foreign = ast.parse("def g():\n    yield from h()\n")
    node = next(n for n in ast.walk(foreign)
                if isinstance(n, ast.YieldFrom))
    assert model.yieldfrom_preempts(node) is True


DISPATCH = """\
class Fast:
    def poll(self, sim):
        return 1


class Slow:
    def poll(self, sim):
        yield sim.timeout(1)


class Widget:
    def refresh(self, sim):
        yield sim.timeout(1)

    def cycle(self, sim):
        yield from self.refresh(sim)

    def tick(self, sim):
        yield from self.poke(sim)


def drive(obj, sim):
    yield from obj.poll(sim)
"""


def test_dynamic_dispatch_unions_by_name(tmp_path):
    model = _build(tmp_path, {"disp.py": DISPATCH})
    summary = model.summary()
    # obj.poll resolves to {Fast.poll, Slow.poll}; Slow yields, so the
    # union may-yields and the delegation site preempts.
    assert summary["disp.drive"] is True
    assert summary["disp.Fast.poll"] is False
    assert summary["disp.Slow.poll"] is True
    # self.refresh resolves precisely to the enclosing class's method.
    assert summary["disp.Widget.cycle"] is True
    # self.poke resolves nowhere: unresolved delegation -> may-yield.
    assert summary["disp.Widget.tick"] is True


def test_cross_module_resolution_by_name(tmp_path):
    model = _build(tmp_path, {
        "a.py": "def pause(sim):\n    yield sim.timeout(1)\n",
        "b.py": ("def outer(sim):\n"
                 "    yield from pause(sim)\n"),
    })
    summary = model.summary()
    assert summary["b.outer"] is True


def test_process_roots_and_multiplicity(tmp_path):
    model = _build(tmp_path, {"roots.py": (
        "def once(sim):\n"
        "    yield sim.timeout(1)\n"
        "\n"
        "def many(sim):\n"
        "    yield sim.timeout(1)\n"
        "\n"
        "def main(sim):\n"
        "    sim.process(once(sim))\n"
        "    for _ in range(3):\n"
        "        sim.process(many(sim))\n"
    )})
    roots = {info.qualname: multi
             for info, multi in model.process_roots()}
    assert roots == {"roots.once": False, "roots.many": True}


def test_functions_handed_to_an_actor_are_process_roots(tmp_path):
    """``Actor(name, tick, period)`` runs ``tick`` in the actor's
    process, so the tick handed to it is a root like the generator of
    ``sim.process(gen(...))``."""
    model = _build(tmp_path, {"actors.py": (
        "from repro.sim import Actor\n"
        "\n"
        "def walk():\n"
        "    yield None\n"
        "\n"
        "class Job:\n"
        "    def __init__(self, period):\n"
        "        self.actor = Actor('job', self.tick, period)\n"
        "        self.walker = Actor('walk', walk)\n"
        "        for name in ('a', 'b'):\n"
        "            Actor(name, self.poll, period=period)\n"
        "        Actor('lambda', lambda: None, period)\n"
        "\n"
        "    def tick(self):\n"
        "        self.step()\n"
        "\n"
        "    def poll(self):\n"
        "        pass\n"
        "\n"
        "    def step(self):\n"
        "        pass\n"
    )})
    roots = {info.qualname: multi
             for info, multi in model.process_roots()}
    assert roots == {"actors.Job.tick": False, "actors.walk": False,
                     "actors.Job.poll": True}
    tick = next(info for info, _ in model.process_roots()
                if info.name == "tick")
    assert {model.functions[key].qualname
            for key in model.reachable_from(tick)} \
        == {"actors.Job.tick", "actors.Job.step"}


def test_real_tree_roots_reach_every_actor_body():
    """Over ``src/repro``: each periodic job and the chaos injector,
    now run by ``repro.sim.Actor``, is still a process root, and the
    roots still reach what its tick calls."""
    src = os.path.join(REPO_ROOT, "src", "repro")
    paths = sorted(os.path.join(folder, name)
                   for folder, _dirs, names in os.walk(src)
                   for name in names if name.endswith(".py"))
    model = build_project_model(paths)
    roots = {info.qualname for info, _multi in model.process_roots()}
    reached = {model.functions[key].qualname
               for info, _multi in model.process_roots()
               for key in model.reachable_from(info)}
    bodies = {"drill.FailoverController._poll",
              "drill.ReplicaHealthPolicy.check_now",
              "injector.ChaosInjector._walk",
              "monitor.ClusterMonitor.sample_now",
              "heartbeat.HeartbeatPlugin._beat",
              "watch.Watchboard._tick",
              "alerts.AlertEngine._tick"}
    assert bodies <= roots
    assert {"failover.promote", "injector.ChaosInjector._begin",
            "heartbeat.HeartbeatPlugin._note_position",
            "watch.Watchboard.frame_now",
            "alerts.AlertEngine.evaluate"} <= reached
