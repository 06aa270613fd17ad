"""Each DET rule: one positive, one suppressed, one negative."""

from repro.analysis import lint_source


def rule_ids(source):
    return [finding.rule_id for finding in lint_source(source)]


# ------------------------------------------------------------- DET001
def test_det001_fires_on_time_time():
    assert "DET001" in rule_ids(
        "import time\n"
        "def f():\n"
        "    return time.time()\n")


def test_det001_fires_through_import_alias():
    assert "DET001" in rule_ids(
        "from time import time as wall\n"
        "def f():\n"
        "    return wall()\n")


def test_det001_fires_on_datetime_now():
    assert "DET001" in rule_ids(
        "import datetime\n"
        "stamp = datetime.datetime.now()\n")


def test_det001_suppressed():
    assert rule_ids(
        "import time\n"
        "def f():\n"
        "    return time.time()  # simlint: disable=DET001\n") == []


def test_det001_ignores_simulated_now():
    # `sim.now` / `state.now()` are the *simulated* clock.
    assert rule_ids(
        "def f(sim, state):\n"
        "    return sim.now + state.now()\n") == []


# ------------------------------------------------------------- DET002
def test_det002_fires_on_import_random():
    assert "DET002" in rule_ids("import random\n")


def test_det002_fires_on_from_random_import():
    assert "DET002" in rule_ids("from random import choice\n")


def test_det002_suppressed():
    assert rule_ids("import random  # simlint: disable=DET002\n") == []


def test_det002_ignores_numpy_random():
    assert rule_ids("import numpy.random\n") == []


# ------------------------------------------------------------- DET005
def test_det005_fires_on_for_over_set():
    assert "DET005" in rule_ids(
        "for item in {3, 1, 2}:\n    print(item)\n")


def test_det005_fires_on_comprehension_over_set_call():
    assert "DET005" in rule_ids(
        "names = [n for n in set(values)]\n")


def test_det005_fires_on_list_of_set():
    assert "DET005" in rule_ids("order = list(set(values))\n")


def test_det005_suppressed():
    assert rule_ids(
        "for item in {3, 1, 2}:  # simlint: disable=DET005\n"
        "    print(item)\n") == []


def test_det005_allows_sorted_set():
    assert rule_ids(
        "for item in sorted({3, 1, 2}):\n    print(item)\n") == []


# --------------------------------------------------- suppression forms
def test_bare_disable_suppresses_every_rule():
    assert rule_ids("import random  # simlint: disable\n") == []


def test_family_prefix_suppresses_members():
    assert rule_ids("import random  # simlint: disable=DET\n") == []


def test_unrelated_disable_does_not_suppress():
    assert "DET002" in rule_ids(
        "import random  # simlint: disable=SQL001\n")
