"""The rules that stay, pinned by the bugs that justified them.

Three sources reduced from blobs this repository once committed —
the only ``src/`` findings FLW002, RACE001 and TNT004 ever produced
outside their own fixtures — each run through the whole gate
(:func:`check_paths`): the historical form must fire, the form the
next commit shipped must be silent.

* ``8122dc8`` ``cloud/instance.py`` + ``replication/pool.py``: the
  wait on a ``Resource`` request sat outside the ``try``, so an
  interrupt thrown into the queued process leaked the claim (FLW002,
  three sites; fixed in ``2432b2b``).
* ``606a985`` ``replication/failover.py``: ``promote()`` read
  ``manager.master``, polled the relay-log drain across yields, and
  overwrote it without looking again (RACE001; fixed in ``a024059``).
* ``a024059`` ``db/engine.py``: ``snapshot()`` handed out the database
  names as a ``set`` that a ``json.dumps`` caller serialized in hash
  order (TNT004; fixed in ``4a86994``).
"""

import textwrap

from repro.analysis import LintConfig, check_paths


def _check(tmp_path, source):
    path = tmp_path / "specimen.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    results = check_paths([str(path)], config=LintConfig())
    return [finding for section in ("simlint", "simrace", "simtaint")
            for finding in results[section]]


# ------------------------------------------------------- FLW002 (seed)
LEAKY_CLAIMS = """\
    class Instance:
        def compute(self, work):
            request = self.cpu.request()
            yield request
            try:
                service = self.service_time(work)
                yield self.sim.timeout(service)
                self._busy_time += service
            finally:
                self.cpu.release(request)

        def run_on_cpu(self, job):
            request = self.cpu.request()
            yield request
            try:
                result, work = job()
                service = self.service_time(work)
                yield self.sim.timeout(service)
                self._busy_time += service
                return result
            finally:
                self.cpu.release(request)


    class ConnectionPool:
        def acquire(self):
            asked_at = self.sim.now
            request = self._slots.request()
            yield request
            self.total_wait_time += self.sim.now - asked_at
            return PooledConnection(self, request,
                                    borrowed_at=self.sim.now)
"""

GUARDED_CLAIMS = """\
    class Instance:
        def run_on_cpu(self, job):
            request = self.cpu.request()
            try:
                yield request
                result, work = job()
                service = self.service_time(work)
                yield self.sim.timeout(service)
                self._busy_time += service
                return result
            finally:
                self.cpu.release(request)


    class ConnectionPool:
        def acquire(self):
            asked_at = self.sim.now
            request = self._slots.request()
            try:
                yield request
            except BaseException:
                self._slots.release(request)
                raise
            self.total_wait_time += self.sim.now - asked_at
            return PooledConnection(self, request,
                                    borrowed_at=self.sim.now)
"""


def test_flw002_fires_on_the_seed_claims_waited_on_outside_try(tmp_path):
    findings = _check(tmp_path, LEAKY_CLAIMS)
    assert [(f.rule_id, f.line) for f in findings] == \
        [("FLW002", 3), ("FLW002", 13), ("FLW002", 28)]
    for finding, function in zip(findings,
                                 ("compute", "run_on_cpu", "acquire")):
        assert f"'{function}'" in finding.message


def test_flw002_silent_once_the_wait_is_guarded(tmp_path):
    assert _check(tmp_path, GUARDED_CLAIMS) == []


# ---------------------------------------------------- RACE001 (promote)
PROMOTE = """\
    class ReplicationManager:
        def __init__(self, sim):
            self.sim = sim
            self.master = None
            self.slaves = []


    def promote(manager, candidate, drain_poll=0.05):
        old_master = manager.master
        if old_master is not None and old_master.online:
            raise RuntimeError("call fail_master first")
        while candidate.relay_backlog > 0:
            yield manager.sim.timeout(drain_poll)
        candidate.stop_replication()
        new_master = candidate.rebrand()
        manager.master = new_master
        return new_master


    def watchdog(manager):
        while True:
            yield manager.sim.timeout(1.0)
            if not manager.master.online:
                yield from promote(manager, manager.slaves[0])


    def drill(sim, manager):
        sim.process(watchdog(manager))
        sim.process(promote(manager, manager.slaves[0]))
"""

REVALIDATED = PROMOTE.replace(
    "        candidate.stop_replication()\n",
    "        current = manager.master\n"
    "        if current is not old_master and current is not None:\n"
    "            raise RuntimeError(\"re-mastered during the drain\")\n"
    "        candidate.stop_replication()\n")


def test_race001_fires_on_promote_overwriting_a_stale_master(tmp_path):
    (finding,) = _check(tmp_path, PROMOTE)
    assert (finding.rule_id, finding.line) == ("RACE001", 16)
    assert "'manager.master' read at line 9" in finding.message
    # Both halves of the race: the stale read, the yield it crossed.
    assert [(line, note) for _path, line, _col, note
            in finding.related] == [
        (9, "'manager.master' read here"),
        (13, "yield point crossed here")]


def test_race001_silent_once_promote_rereads_after_the_drain(tmp_path):
    assert REVALIDATED != PROMOTE
    assert _check(tmp_path, REVALIDATED) == []


# --------------------------------------------------- TNT004 (snapshot)
SNAPSHOT = """\
    import json


    class StorageEngine:
        def __init__(self):
            self.databases = set()
            self.tables = {}

        def snapshot(self):
            return {
                "databases": set(self.databases),
                "tables": dict(self.tables),
            }


    def trace_document(observe):
        document = {"profile": observe.profiler.snapshot()}
        return json.dumps(document, sort_keys=True)
"""

SORTED_SNAPSHOT = SNAPSHOT.replace("set(self.databases)",
                                   "sorted(self.databases)")


def test_tnt004_fires_on_snapshot_names_reaching_json_dumps(tmp_path):
    (finding,) = _check(tmp_path, SNAPSHOT)
    assert (finding.rule_id, finding.line) == ("TNT004", 18)
    assert "json.dumps()" in finding.message
    # The taint path: the call that returned it, then the set itself.
    assert [(line, note) for _path, line, _col, note
            in finding.related] == [
        (17, "source: returned by specimen.StorageEngine.snapshot()"),
        (11, "via: set() (hash order)")]


def test_tnt004_silent_once_snapshot_sorts_the_names(tmp_path):
    assert SORTED_SNAPSHOT != SNAPSHOT
    assert _check(tmp_path, SORTED_SNAPSHOT) == []
