"""Prepared-statement / plan cache over the SQL front end.

Parsing is the front end's dominant cost, and the Cloudstone mix is a
small fixed statement set whose executions differ only in their
values.  SQL reaches the cache in one of two forms:

* **``(template, params)``** — what clients, the dataset loader and
  the heartbeat plug-in send: a ``?`` text with its values beside it.
  ``parse`` is a pure function of the text, so the *exact* level keys
  the frozen AST on the text itself: a hit is a dict get, an LRU touch
  and a counter.  DDL and transaction control hit the same level.
* **literal text** — what statement-format replication ships to
  slaves (and what ad-hoc CLI/test SQL looks like).  The *fingerprint*
  level strips the literals with one regex pass and binds them, as
  parameters, to the plan of the resulting ``?`` template — the very
  plan object a client prepared under that text, if one did, so master
  and slaves share whatever the executor compiled onto it.

Correctness is not taken on faith.  The first time the fingerprint
level meets a template, the original text is also parsed the slow way
and both ASTs are rendered back to SQL; any byte difference marks the
template uncacheable and the slow path is used forever after.  Numbers
after ``LIMIT``/``OFFSET`` are never parameterized (the grammar wants
raw numbers there), statements carrying ``?`` placeholders or ``--``
comments bypass fingerprinting, and only DML/queries are templated
(in DDL, ``VARCHAR(64)`` is a type argument, not a literal).

The cache is pure text-in / frozen-AST-out: same statement sequence ->
same hits, misses and plans, so cached runs stay byte-deterministic
per seed.  AST nodes are immutable (what the executor compiles from a
statement rides on its ``plan`` slot and lives as long as the tree),
which is what makes one cache shareable by a whole replication cluster
(master, every slave's apply thread, and the routing proxy), and one
parse of a text shareable by every cache in the process (``_parse``),
as is one fingerprint of a literal text (``_bind``).
Hit/miss/eviction counters can be published through a metrics
registry via :meth:`attach_metrics`; the registry is duck-typed so
this module keeps the sql layer free of obs imports.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Optional, Sequence

from .ast import Statement
from .lexer import _read_string
from .parser import parse
from .render import render_statement

__all__ = ["PlanCache", "fingerprint"]

#: Statement kinds whose literals are safe to parameterize.  All four
#: keywords are six characters, so one slice classifies the text.
_FINGERPRINTABLE = frozenset(("SELECT", "INSERT", "UPDATE", "DELETE"))

#: One pass over the text: skip quoted identifiers, capture string and
#: number literals.  Numbers directly after LIMIT/OFFSET stay inline —
#: the grammar requires raw numbers there (``LIMIT ?`` does not parse).
#: Every branch opens by consuming a quote, a backtick or a digit (the
#: number's word boundary and LIMIT/OFFSET tests look behind that first
#: digit), so the regex engine skips to such characters in one scan.
_LITERALS = r"""
      '(?:[^'\\]|\\.|'')*'                      # single-quoted string
    | "(?:[^"\\]|\\.|"")*"                      # double-quoted string
    | \d(?<!\w\d)                                # number: its first digit,
      (?<![Ll][Ii][Mm][Ii][Tt]\ \d)              # not after LIMIT
      (?<![Oo][Ff][Ff][Ss][Ee][Tt]\ \d)          # or OFFSET
      \d*(?:\.\d+)?(?:[eE][+-]?\d+)?\b          # and the rest
"""
_LITERAL_RE = re.compile(r"""
      `[^`]*`                                   # quoted identifier
    | """ + _LITERALS, re.X)
#: The same for text without a quoted identifier: every match is a
#: literal, so two C-level passes (no per-match callback) find them.
_PLAIN_LITERAL_RE = re.compile(_LITERALS, re.X)

#: Fingerprint-level sentinel: this template was tried and must not be used.
_UNCACHEABLE = object()

#: One parse per text per process, under every cache's misses: ``parse``
#: is pure and ASTs are immutable, so caches (one per cluster, many per
#: grid) share the trees; each still counts its own miss.  A text that
#: fails to parse raises again every time — exceptions are not memoised.
_parse = lru_cache(maxsize=1024)(parse)


def fingerprint(text: str) -> tuple[str, list[str]]:
    """Split ``text`` into a literal-free template and the raw literals.

    Returns ``(template, literals)`` where each literal was replaced by
    a ``?`` placeholder in source order — the same order the parser
    assigns parameter indexes in.
    """
    if "`" not in text:
        return _PLAIN_LITERAL_RE.sub("?", text), \
            _PLAIN_LITERAL_RE.findall(text)
    literals: list[str] = []
    append = literals.append

    def _replace(match: "re.Match[str]") -> str:
        raw = match.group(0)
        if raw[0] == "`":
            return raw
        append(raw)
        return "?"

    return _LITERAL_RE.sub(_replace, text), literals


def _literal_value(raw: str) -> Any:
    """Convert a raw literal exactly as the lexer+parser would."""
    first = raw[0]
    if first == "'" or first == '"':
        if "\\" in raw:
            return _read_string(raw, 0)[0]
        # No escapes: the only quotes inside are doubled ones.
        return raw[1:-1].replace(first + first, first)
    if "." in raw or "e" in raw or "E" in raw:
        return float(raw)
    return int(raw)


@lru_cache(maxsize=1024)
def _bind(text: str) -> tuple[str, tuple]:
    """``text``'s template and the values of its literals, in order.

    Pure, so memoised process-wide like ``_parse``: statement-format
    replication hands every slave of a cluster the same text, and one
    fingerprint serves them all.  Callers copy the values before
    handing them out.
    """
    template, literals = fingerprint(text)
    return template, tuple(_literal_value(raw) for raw in literals)


class PlanCache:
    """Two-level LRU from SQL text to frozen statement ASTs."""

    def __init__(self, capacity: int = 512,
                 fingerprint_capacity: int = 256):
        if capacity < 0 or fingerprint_capacity < 0:
            raise ValueError("plan cache capacities must be >= 0")
        self.capacity = capacity
        self.fingerprint_capacity = fingerprint_capacity
        self._exact: OrderedDict[str, Statement] = OrderedDict()
        self._templates: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._hit_counter = None
        self._miss_counter = None
        self._eviction_counter = None

    def __repr__(self) -> str:
        return (f"<PlanCache {len(self._exact)} plans, "
                f"{len(self._templates)} templates, "
                f"{self.hits} hits / {self.misses} misses>")

    def __len__(self) -> int:
        return len(self._exact) + len(self._templates)

    # -- metrics -----------------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Publish counters through ``registry`` (a duck-typed
        :class:`~repro.obs.metrics.MetricsRegistry`) from now on."""
        self._hit_counter = registry.counter("sql.plancache.hits")
        self._miss_counter = registry.counter("sql.plancache.misses")
        self._eviction_counter = registry.counter(
            "sql.plancache.evictions")

    # -- the front end -----------------------------------------------------
    def prepare(self, text: str,
                params: Optional[Sequence[Any]] = None
                ) -> tuple[Statement, Sequence[Any]]:
        """SQL text -> ``(statement, params)`` ready for execution.

        With caller-bound ``params`` (even an empty tuple: a prepared
        statement that takes none) the text is a template and only
        the exact level applies; otherwise literal-only variants share
        one templated plan and the extracted literals come back as the
        parameter list.
        """
        plan = self._exact.get(text)
        if plan is not None:
            self._exact.move_to_end(text)
            self._hit()
            return plan, params or ()
        if params is not None:
            return self._exact_miss(text), params
        if "?" not in text and "--" not in text \
                and text.lstrip()[:6].upper() in _FINGERPRINTABLE:
            template, values = _bind(text)
            plan = self._templates.get(template) if values \
                else _UNCACHEABLE  # nothing to bind: the exact level
            if plan is None:
                return self._build_template(text, template, list(values))
            if plan is not _UNCACHEABLE:
                self._templates.move_to_end(template)
                self._hit()
                return plan, list(values)
        return self._exact_miss(text), ()

    def credit_hits(self, texts: Sequence[str], hits: int) -> bool:
        """Account for ``hits`` exact-level hits on ``texts``, all
        already cached: what preparing them with caller-bound params
        would do, with ``texts`` in order of last use.  Every text
        moves to the MRU end and the counters (a registry's too, one
        increment per hit) advance; when one of ``texts`` is not
        cached nothing changes and the answer is False."""
        exact = self._exact
        if any(text not in exact for text in texts):
            return False
        for text in texts:
            exact.move_to_end(text)
        self.hits += hits
        counter = self._hit_counter
        if counter is not None:
            for _hit in range(hits):
                counter.inc()
        return True

    # -- internals ---------------------------------------------------------
    def _build_template(self, text: str, template: str,
                        values: list
                        ) -> tuple[Statement, Sequence[Any]]:
        """First sighting of a template: find it, then *prove* it.

        Whether the templated plan is the one a client prepared under
        the ``?`` text or a parse of the template, the original text
        is parsed the slow way too, and the template is kept only if
        binding the extracted literals renders back to exactly the
        same SQL.  A mismatch (or a template that does not parse at
        all) poisons the template so every later sighting takes the
        safe path.
        """
        plan = parse(text)
        adopted = self._exact.get(template)
        try:
            templated = _parse(template) if adopted is None else adopted
            proven = (render_statement(templated, values)
                      == render_statement(plan))
        except Exception:
            proven = False
        if proven and adopted is not None:
            self._hit()  # prepared before, in its (template, params) form
        else:
            self._store_miss(text, plan)
        if self.fingerprint_capacity > 0:
            self._templates[template] = templated if proven \
                else _UNCACHEABLE
            if len(self._templates) > self.fingerprint_capacity:
                self._templates.popitem(last=False)
                self._evict()
        if proven:
            return templated, values
        return plan, ()

    def _exact_miss(self, text: str) -> Statement:
        return self._store_miss(text, _parse(text))

    def _store_miss(self, text: str, plan: Statement) -> Statement:
        self._miss()
        if self.capacity > 0:
            self._exact[text] = plan
            if len(self._exact) > self.capacity:
                self._exact.popitem(last=False)
                self._evict()
        return plan

    def _hit(self) -> None:
        self.hits += 1
        counter = self._hit_counter
        if counter is not None:
            counter.inc()

    def _miss(self) -> None:
        self.misses += 1
        counter = self._miss_counter
        if counter is not None:
            counter.inc()

    def _evict(self) -> None:
        self.evictions += 1
        counter = self._eviction_counter
        if counter is not None:
            counter.inc()
