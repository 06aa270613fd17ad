"""Plan-cache semantics: hits, misses, eviction, fingerprinting, and
the correctness contract (cached plan ≡ fresh parse, byte for byte).
"""

import pytest

from repro.db.engine import StorageEngine
from repro.sim import RandomStreams
from repro.sql import parse, render_statement
from repro.sql.plancache import PlanCache, fingerprint
from repro.sql.render import render_literal
from repro.workloads.cloudstone.mix import MIX_50_50
from repro.workloads.cloudstone.schema import TAG_COUNT
from repro.workloads.cloudstone.state import WorkloadState


def statement_corpus(seed: int,
                     n_operations: int) -> list[tuple[str, tuple]]:
    """The ``(template, params)`` statements of ``n_operations``
    seeded Cloudstone 50/50 operations, as the driver hands them to
    the proxy: same ``(seed, n_operations)`` -> identical statements.
    """
    rng = RandomStreams(seed).stream("perf.corpus")
    state = WorkloadState(n_users=200, n_events=200, n_tags=TAG_COUNT)
    statements: list[tuple[str, tuple]] = []
    for _ in range(n_operations):
        operation = MIX_50_50.pick(rng)
        statements.extend(operation.build(state, rng))
        operation.on_complete(state)
    return statements


def literal_form(template, params):
    """The statement as a client without prepared statements would
    send it: every ``?`` replaced by its parameter's SQL literal."""
    pieces = template.split("?")
    assert len(pieces) == len(params) + 1
    text = pieces[0]
    for value, piece in zip(params, pieces[1:]):
        text += render_literal(value) + piece
    return text


# -- fingerprinting ---------------------------------------------------------
def test_literal_only_variants_share_a_template():
    a, literals_a = fingerprint("SELECT * FROM users WHERE id = 7")
    b, literals_b = fingerprint("SELECT * FROM users WHERE id = 941")
    assert a == b == "SELECT * FROM users WHERE id = ?"
    assert literals_a == ["7"]
    assert literals_b == ["941"]


def test_fingerprint_extracts_strings_and_floats():
    template, literals = fingerprint(
        "UPDATE events SET name = 'gala', score = 2.5 WHERE id = 3")
    assert template == \
        "UPDATE events SET name = ?, score = ? WHERE id = ?"
    assert literals == ["'gala'", "2.5", "3"]


def test_fingerprint_keeps_limit_and_offset_numbers_inline():
    # The grammar wants raw numbers after LIMIT/OFFSET; ``LIMIT ?``
    # would not parse, so those literals must survive templating.
    template, literals = fingerprint(
        "SELECT id FROM users WHERE age > 30 LIMIT 10 OFFSET 20")
    assert template == \
        "SELECT id FROM users WHERE age > ? LIMIT 10 OFFSET 20"
    assert literals == ["30"]


def test_fingerprint_skips_quoted_identifiers():
    template, literals = fingerprint(
        "SELECT `weird 1` FROM t WHERE `x 2` = 5")
    assert template == "SELECT `weird 1` FROM t WHERE `x 2` = ?"
    assert literals == ["5"]


# -- hit/miss/eviction ------------------------------------------------------
def test_exact_hit_returns_same_plan_object():
    cache = PlanCache()
    text = "SELECT * FROM users"  # no literals -> exact level only
    first, _ = cache.prepare(text)
    second, _ = cache.prepare(text)
    assert second is first
    assert (cache.hits, cache.misses) == (1, 1)


def test_template_hit_binds_extracted_literals():
    cache = PlanCache()
    plan_a, params_a = cache.prepare(
        "SELECT * FROM users WHERE id = 7")
    assert cache.misses == 1 and cache.hits == 0
    plan_b, params_b = cache.prepare(
        "SELECT * FROM users WHERE id = 941")
    assert cache.hits == 1 and cache.misses == 1
    assert plan_b is plan_a          # one shared templated plan
    assert list(params_a) == [7]
    assert list(params_b) == [941]


def test_caller_params_bypass_fingerprinting():
    # With explicit params the text's own ? placeholders are
    # authoritative; the fingerprint level must stay out of the way.
    cache = PlanCache()
    plan, params = cache.prepare(
        "SELECT * FROM users WHERE id = ?", [5])
    assert list(params) == [5]
    assert cache.misses == 1
    again, params = cache.prepare(
        "SELECT * FROM users WHERE id = ?", [9])
    assert again is plan and list(params) == [9]
    assert cache.hits == 1


def test_lru_eviction_bounds_the_exact_level():
    cache = PlanCache(capacity=2, fingerprint_capacity=0)
    cache.prepare("SELECT a FROM t1")
    cache.prepare("SELECT a FROM t2")
    cache.prepare("SELECT a FROM t1")   # refresh t1
    cache.prepare("SELECT a FROM t3")   # evicts t2 (least recent)
    assert cache.evictions == 1
    assert len(cache) == 2
    cache.prepare("SELECT a FROM t1")
    assert cache.hits == 2              # t1 survived the eviction
    cache.prepare("SELECT a FROM t2")
    assert cache.misses == 4            # t2 did not


def test_zero_capacity_disables_caching_but_still_parses():
    cache = PlanCache(capacity=0, fingerprint_capacity=0)
    text = "SELECT * FROM users WHERE id = 7"
    plan, params = cache.prepare(text)
    assert render_statement(plan, params) == render_statement(
        parse(text))
    cache.prepare(text)
    assert cache.hits == 0 and cache.misses == 2 and len(cache) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        PlanCache(capacity=-1)


# -- the self-proving template ---------------------------------------------
def test_unparsable_template_is_poisoned_not_fatal():
    # ``LIMIT 3, 5``: the count after the comma is not protected by
    # the LIMIT lookbehind, so the template has ``LIMIT 3, ?`` — which
    # does not parse.  The statement must still work (slow path) and
    # the template must be poisoned, not retried.
    cache = PlanCache()
    text = "SELECT id FROM users WHERE age > 30 LIMIT 3, 5"
    fresh = parse(text)
    plan, params = cache.prepare(text)
    assert render_statement(plan, params) == render_statement(fresh)
    plan, params = cache.prepare(
        "SELECT id FROM users WHERE age > 99 LIMIT 3, 5")
    assert render_statement(plan, params) == render_statement(
        parse("SELECT id FROM users WHERE age > 99 LIMIT 3, 5"))
    assert cache.hits == 0              # poisoned template never hits
    assert cache.misses == 2


def test_client_template_is_adopted_by_its_literal_form():
    # A client prepares (template, params); the master's rendered
    # binlog text — the literal form — must land on the same plan
    # object, so what is compiled on it is shared by master and slaves.
    cache = PlanCache()
    template = "INSERT INTO attendees (event_id, user_id) VALUES (?, ?)"
    plan, params = cache.prepare(template, (3, 7))
    assert (cache.hits, cache.misses) == (0, 1)
    again, values = cache.prepare(literal_form(template, (4, 9)))
    assert again is plan and list(values) == [4, 9]
    assert (cache.hits, cache.misses) == (1, 1)
    again, values = cache.prepare(literal_form(template, (5, 1)))
    assert again is plan and list(values) == [5, 1]
    assert (cache.hits, cache.misses) == (2, 1)
    assert list(cache._exact) == [template]     # no literal text kept


def test_adoption_does_not_weaken_the_template_proof():
    # Same ``LIMIT 3, 5`` hazard as above, but a client has already
    # prepared the template the regex will produce.  ``LIMIT 3, ?``
    # cannot parse, so stand in a plan that does — one whose bound
    # parameters render back differently from the literal text.
    cache = PlanCache()
    template = "SELECT id FROM users WHERE age > ? LIMIT 3, ?"
    cache._exact[template] = parse(
        "SELECT id FROM users WHERE age > ? LIMIT 3")
    for age in (30, 99):
        text = f"SELECT id FROM users WHERE age > {age} LIMIT 3, 5"
        plan, params = cache.prepare(text)
        assert not params
        assert render_statement(plan) == render_statement(parse(text))
    assert cache.hits == 0              # adopted, disproven, poisoned
    assert cache.misses == 2


def test_malformed_sql_raises_the_parsers_error():
    from repro.sql import ParseError
    cache = PlanCache()
    with pytest.raises(ParseError):
        cache.prepare("SELECT FROM WHERE")


# -- one parse per text, whichever cache asks ------------------------------
def test_caches_share_one_parse_per_text_and_each_counts_its_miss():
    one, two = PlanCache(), PlanCache()
    text = "SELECT name FROM users WHERE id = ? AND karma > ?"
    first, _ = one.prepare(text, (1, 2))
    second, _ = two.prepare(text, (3, 4))
    assert first is second
    assert (one.hits, one.misses) == (two.hits, two.misses) == (0, 1)
    # Literal-only variants: both caches bind to one template tree.
    third, _ = one.prepare("SELECT name FROM users WHERE karma = 5")
    fourth, _ = two.prepare("SELECT name FROM users WHERE karma = 9")
    assert third is fourth


def test_a_parse_error_is_not_memoised():
    from repro.sql import ParseError, plancache
    before = plancache._parse.cache_info()
    for cache in (PlanCache(), PlanCache()):
        with pytest.raises(ParseError):
            cache.prepare("SELECT FROM WHERE twice", ())
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
    after = plancache._parse.cache_info()
    # Both attempts parsed (missed the memo); neither was answered by it.
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


# -- one fingerprint per replicated text, whichever cache asks --------------
#: Literal texts as slaves receive them: quotes, doubled quotes,
#: backslash escapes, integers, floats and exponents.
_LITERAL_TEXTS = [
    "SELECT name FROM users WHERE id = 7",
    "SELECT name FROM users WHERE id = 941",
    "SELECT * FROM t WHERE a = 'it''s' AND b = \"say \"\"hi\"\"\"",
    "UPDATE t SET s = 'back\\\\slash \\'q\\' \\n' WHERE id = 2.5e3",
    "INSERT INTO t (a, b) VALUES (-3, 'x''y\\\\')",
    "DELETE FROM t WHERE s = '' AND n = 0.25 AND m = \"a'b\"",
    "SELECT name FROM users WHERE id = 7",
]


def _slow_value(raw):
    """A literal's value by the lexer's own loop, no shortcuts."""
    from repro.sql.lexer import _read_string
    if raw[0] in "'\"":
        return _read_string(raw, 0)[0]
    return float(raw) if any(c in raw for c in ".eE") else int(raw)


def test_the_bind_memo_returns_what_fingerprinting_does():
    from repro.sql import plancache
    plancache._bind.cache_clear()
    for text in _LITERAL_TEXTS + _LITERAL_TEXTS:     # cold, then warm
        template, literals = fingerprint(text)
        assert plancache._bind(text) \
            == (template, tuple(_slow_value(raw) for raw in literals))
    assert plancache._bind.cache_info().misses \
        == len(set(_LITERAL_TEXTS))


def _replay_literal_texts():
    """Counters, LRU order and bound values of one cache fed the
    literal texts twice (each returned params list is mutated, which
    must not leak into the next call)."""
    cache, bound = PlanCache(capacity=4, fingerprint_capacity=2), []
    for text in _LITERAL_TEXTS + _LITERAL_TEXTS:
        _plan, params = cache.prepare(text)
        bound.append(list(params))
        if isinstance(params, list):
            params.append("scribble")
    return (cache.hits, cache.misses, cache.evictions, list(cache._exact),
            list(cache._templates), bound)


def test_a_warm_bind_memo_leaves_every_cache_counter_as_a_cold_one(
        monkeypatch):
    from repro.sql import plancache
    plancache._bind.cache_clear()
    cold = _replay_literal_texts()
    warm = _replay_literal_texts()
    monkeypatch.setattr(plancache, "_bind", plancache._bind.__wrapped__)
    unmemoised = _replay_literal_texts()
    assert cold == warm == unmemoised
    assert cold[2] > 0  # the small cache evicted


# -- correctness over the full Cloudstone mix -------------------------------
def test_cached_plans_render_identically_over_the_full_mix():
    corpus = statement_corpus(seed=0, n_operations=60)
    cache = PlanCache()
    for _round in ("cold", "warm"):     # first sightings, then hits
        for template, params in corpus:
            fresh = render_statement(parse(literal_form(template, params)))
            plan, bound = cache.prepare(template, params)
            assert render_statement(plan, bound) == fresh
            # ... and the text a slave applies lands on the same plan.
            applied, bound = cache.prepare(fresh)
            assert render_statement(applied, bound) == fresh


def test_warm_hit_rate_exceeds_ninety_percent():
    corpus = statement_corpus(seed=0, n_operations=60)
    cache = PlanCache()
    for text, params in corpus:
        cache.prepare(text, params)
    warm_floor = cache.hits
    for text, params in corpus:
        cache.prepare(text, params)
    assert cache.hits - warm_floor == len(corpus)  # fully warm
    assert cache.hits / (cache.hits + cache.misses) > 0.9


def test_cached_engine_execution_equals_uncached():
    for seed in (0, 3):
        _check_cached_engine_execution_equals_uncached(seed)


def _check_cached_engine_execution_equals_uncached(seed):
    # Same statement stream through two engines — one parsing and
    # compiling every statement afresh, one behind a shared plan cache
    # whose templates carry their compiled plans: identical results,
    # profiles and committed binlog text, cold and warm.
    corpus = statement_corpus(seed=seed, n_operations=60)
    plain = StorageEngine(default_database="cloudstone")
    cached = StorageEngine(default_database="cloudstone",
                           plan_cache=PlanCache())
    from repro.sim import RandomStreams
    from repro.workloads.cloudstone import load_initial_data

    class _Shim:
        def __init__(self, engine):
            self.engine = engine

    load_initial_data(_Shim(plain), 40, RandomStreams(seed).stream("x"))
    load_initial_data(_Shim(cached), 40, RandomStreams(seed).stream("x"))
    plans = []
    for _round in ("cold", "warm"):
        for template, params in corpus:
            a = plain.execute(literal_form(template, params),
                              database="cloudstone")
            b = cached.execute(template, params, database="cloudstone")
            assert a.result == b.result
            assert a.profile == b.profile
            assert a.committed == b.committed
        # One plan per template, built once and kept.
        plans.append([getattr(template, "plan", None) for template
                      in cached.plan_cache._exact.values()])
    assert sum(plan is not None for plan in plans[0]) > 10
    assert all(a is b for a, b in zip(*plans, strict=True))
    assert cached.plan_cache.hits > 0
    assert plain.checksum() == cached.checksum()


# -- metrics ---------------------------------------------------------------
def test_attach_metrics_publishes_counters():
    from repro.obs.metrics import MetricsRegistry
    registry = MetricsRegistry()
    cache = PlanCache(capacity=1, fingerprint_capacity=0)
    cache.attach_metrics(registry)
    cache.prepare("SELECT a FROM t1")
    cache.prepare("SELECT a FROM t1")
    cache.prepare("SELECT a FROM t2")   # evicts t1
    assert registry.counter("sql.plancache.hits").value == 1
    assert registry.counter("sql.plancache.misses").value == 2
    assert registry.counter("sql.plancache.evictions").value == 1
