"""RACE001 fires on its canonical shape, stays silent on the
corrected shape, and honours suppressions."""


def _codes(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# RACE001: read -> yield -> write-back without a re-read.
# ---------------------------------------------------------------------------

RACE001_FIRE = """\
class Pool:
    def __init__(self, sim):
        self.sim = sim
        self.free = 5

    def worker(self):
        count = self.free
        yield self.sim.timeout(1)
        self.free = count - 1


def main(sim, pool):
    for _ in range(2):
        sim.process(pool.worker())
"""


def test_race001_fires_on_stale_write_back(race_project):
    _model, findings = race_project({"mod.py": RACE001_FIRE})
    assert _codes(findings) == ["RACE001"]
    finding = findings[0]
    assert "free" in finding.message
    # Related locations: the stale read and the yield it crossed.
    related_lines = sorted(line for _p, line, _c, _m in finding.related)
    assert related_lines == [7, 8]


def test_race001_silent_when_reread_after_yield(race_project):
    source = RACE001_FIRE.replace(
        "        self.free = count - 1",
        "        count = self.free\n"
        "        self.free = count - 1")
    _model, findings = race_project({"mod.py": source})
    assert findings == []


def test_race001_silent_without_concurrency(race_project):
    # Same function, single non-loop registration: not shared state.
    source = RACE001_FIRE.replace(
        "    for _ in range(2):\n"
        "        sim.process(pool.worker())",
        "    sim.process(pool.worker())")
    _model, findings = race_project({"mod.py": source})
    assert findings == []


def test_race001_suppressed_inline(race_project):
    source = RACE001_FIRE.replace(
        "        self.free = count - 1",
        "        self.free = count - 1  # simlint: disable=RACE001")
    _model, findings = race_project({"mod.py": source})
    assert findings == []


def test_race001_crosses_interprocedural_yield(race_project):
    # The preemption hides inside a delegated generator: the summary
    # layer must mark the `yield from` site as a crossing.
    _model, findings = race_project({"mod.py": """\
        class Pool:
            def __init__(self, sim):
                self.sim = sim
                self.free = 5

            def pause(self):
                yield self.sim.timeout(1)

            def worker(self):
                count = self.free
                yield from self.pause()
                self.free = count - 1


        def main(sim, pool):
            for _ in range(2):
                sim.process(pool.worker())
    """})
    assert _codes(findings) == ["RACE001"]
