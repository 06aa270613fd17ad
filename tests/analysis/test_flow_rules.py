"""FLW001 / FLW002: positive, suppressed, and negative cases.

The acceptance case for the family is the first test: a pooled
connection acquired in a sim process and released only on the normal
path leaks along the exception edge of the intervening ``yield``
(the kernel can throw into a waiting process), and FLW001 must say so.
"""

from repro.analysis import lint_source
from repro.analysis.flow.rules import (PoolAcquireLeakRule,
                                       ResourceRequestLeakRule,
                                       _PairingRule)


def rule_ids(source):
    return [finding.rule_id for finding in lint_source(source)]


def only(source, rule_id):
    return [finding for finding in lint_source(source)
            if finding.rule_id == rule_id]


# ------------------------------------------------------------- FLW001
def test_flw001_fires_on_exception_path_leak():
    findings = only(
        "def user(sim, pool):\n"
        "    conn = yield from pool.acquire()\n"
        "    yield sim.timeout(1.0)\n"
        "    pool.release(conn)\n",
        "FLW001")
    assert len(findings) == 1
    assert findings[0].line == 2          # reported at the acquire site
    assert "'conn'" in findings[0].message


def test_flw001_clean_with_try_finally():
    assert only(
        "def user(sim, pool):\n"
        "    conn = yield from pool.acquire()\n"
        "    try:\n"
        "        yield sim.timeout(1.0)\n"
        "    finally:\n"
        "        pool.release(conn)\n",
        "FLW001") == []


def test_flw001_fires_when_release_on_one_branch():
    assert len(only(
        "def f(pool, flag):\n"
        "    conn = pool.acquire()\n"
        "    if flag:\n"
        "        pool.release(conn)\n",
        "FLW001")) == 1


def test_flw001_return_transfers_ownership():
    assert only(
        "def f(pool):\n"
        "    conn = pool.acquire()\n"
        "    return conn\n",
        "FLW001") == []


def test_flw001_constructor_transfers_ownership():
    assert only(
        "def f(self, pool):\n"
        "    conn = pool.acquire()\n"
        "    return PooledConnection(self, conn)\n",
        "FLW001") == []


def test_flw001_attribute_store_transfers_ownership():
    assert only(
        "def f(self, pool):\n"
        "    conn = pool.acquire()\n"
        "    self.conn = conn\n",
        "FLW001") == []


def test_flw001_suppressed():
    assert only(
        "def user(sim, pool):\n"
        "    conn = yield from pool.acquire()  "
        "# simlint: disable=FLW001\n"
        "    yield sim.timeout(1.0)\n"
        "    pool.release(conn)\n",
        "FLW001") == []


# ------------------------------------------------------------- FLW002
def test_flw002_fires_on_unprotected_wait():
    findings = only(
        "def worker(sim, res):\n"
        "    req = res.request()\n"
        "    yield req\n"
        "    yield sim.timeout(1.0)\n"
        "    res.release(req)\n",
        "FLW002")
    assert len(findings) == 1
    assert findings[0].line == 2


def test_flw002_clean_with_try_finally():
    assert only(
        "def worker(sim, res):\n"
        "    req = res.request()\n"
        "    try:\n"
        "        yield req\n"
        "        yield sim.timeout(1.0)\n"
        "    finally:\n"
        "        res.release(req)\n",
        "FLW002") == []


def test_flw002_suppressed():
    assert only(
        "def worker(sim, res):\n"
        "    req = res.request()  # simlint: disable=FLW002\n"
        "    yield req\n",
        "FLW002") == []


def test_flw001_flw002_share_the_pairing_solver():
    # The family's promise: new pairing rules are one matcher away.
    assert issubclass(PoolAcquireLeakRule, _PairingRule)
    assert issubclass(ResourceRequestLeakRule, _PairingRule)
    assert PoolAcquireLeakRule.check is _PairingRule.check
    assert ResourceRequestLeakRule.check is _PairingRule.check
