"""The database server: storage engine + instance CPU + cost model.

A :class:`DatabaseServer` binds a :class:`~repro.db.StorageEngine` to a
simulated :class:`~repro.cloud.Instance`.  Statement execution has two
phases: the engine runs the statement (logically instantaneous), then
the server holds a CPU core for the cost-model work — which is where
queueing, saturation and all the paper's performance phenomena arise.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..cloud.instance import Instance
from ..cloud.regions import Placement
from ..db.engine import ExecutionResult, StorageEngine
from ..db.errors import DatabaseError
from ..db.functions import standard_functions
from ..sim import Event, Simulator
from ..sql.ast import Statement
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from .cost import CostModel, DEFAULT_COST_MODEL

__all__ = ["DatabaseServer", "failed"]

_server_ids = itertools.count(1)


class DatabaseServer:
    """A MySQL-like server process on one instance."""

    def __init__(self, sim: Simulator, instance: Instance,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 default_database: str = "cloudstone",
                 server_id: Optional[int] = None,
                 read_only: bool = False,
                 rng: Optional[np.random.Generator] = None,
                 plan_cache: Optional[PlanCache] = None):
        self.sim = sim
        self.instance = instance
        #: The instance's, fixed at launch; read on every request.
        self.name: str = instance.name
        self.placement: Placement = instance.placement
        self.cost_model = cost_model
        self.server_id = server_id if server_id is not None \
            else next(_server_ids)
        self.read_only = read_only
        rand = (lambda: float(rng.random())) if rng is not None else None
        self.engine = StorageEngine(
            functions=standard_functions(instance.clock.now, rand=rand),
            default_database=default_database,
            plan_cache=plan_cache)
        self.queries_served = 0
        self.writes_served = 0
        #: False once the server has failed or been retired; client
        #: statements are rejected (connection refused).
        self.online = True

    @property
    def clock(self):
        return self.instance.clock

    # -- client path ---------------------------------------------------------
    def perform(self, statement: Union[str, Statement],
                params: Optional[Sequence[Any]] = None):
        """Process generator: prepare a client statement and
        :meth:`serve` it.

        Usage: ``result = yield from server.perform(sql)``.
        """
        if isinstance(statement, str):
            cache = self.engine.plan_cache
            if cache is None:
                statement = parse(statement)
            else:
                statement, params = cache.prepare(statement, params)
        return (yield from self.serve(statement, params))

    def serve(self, statement: Statement, params: Sequence[Any]):
        """Process generator: execute an arrived statement, charging CPU.

        It is refused at once if the server is offline, or if it is a
        write and the server a read-only slave.  Otherwise it queues for
        a core and executes at service start, so its effects (including
        binlog appends on a master) become visible only after earlier
        requests were served — faithful queueing semantics — and holds
        the core for its work.  The proxy's request generator and
        :meth:`perform` both come here.
        """
        if not self.online:
            raise DatabaseError(f"server {self.name!r} is offline")
        if self.read_only and statement.is_write:
            raise DatabaseError(
                f"server {self.name!r} is read-only (a replication "
                f"slave); writes must go to the master")
        tracer = self.sim.tracer
        span = tracer.span("db.execute", category="server",
                           server=self.name,
                           queue=self.instance.queue_length) \
            if tracer.enabled else None
        try:
            result = yield from self.instance.run_on_cpu(
                lambda: self.execute_now(statement, params))
        except BaseException as exc:
            failed(span, exc)
            raise
        finally:
            if span is not None:
                span.end()
        ack = self.served(statement, result)
        if ack is not None:
            yield ack
        return result

    def execute_now(self, statement: Statement, params: Sequence[Any]
                    ) -> tuple[ExecutionResult, float]:
        """Run a statement on reaching a core: its result and the
        reference-seconds of work it holds the core for."""
        result = self.engine.execute(statement, params)
        return result, self.cost_model.work_for(result.profile)

    def served(self, statement: Statement,
               result: ExecutionResult) -> Optional[Event]:
        """Count a statement done; an event to wait for before the
        reply (a semi-sync master's replica ack), or None."""
        self.queries_served += 1
        if statement.is_write:
            self.writes_served += 1
        return None

    # -- administrative path (no CPU accounting) -----------------------------
    def admin(self, statement: Union[str, Statement],
              params: Optional[Sequence[Any]] = None,
              database: Optional[str] = None) -> ExecutionResult:
        """Execute without charging CPU — setup, loading, inspection.

        The paper's runs start "with a pre-loaded, fully-synchronized
        database"; the loader uses this path so ramp-up measurements
        are not polluted by bulk-load CPU.
        """
        return self.engine.execute(statement, params, database=database)

    # -- introspection ----------------------------------------------------------
    def cpu_queue_length(self) -> int:
        return self.instance.queue_length

    def __repr__(self) -> str:
        role = "slave" if self.read_only else "server"
        return f"<{type(self).__name__} {self.name} ({role}) " \
               f"at {self.placement.zone}>"


def failed(span, exc: BaseException) -> None:
    """Record on ``span`` (if any) what leaving a ``with span`` block on
    ``exc`` records: the first error's type name."""
    if span is not None and "error" not in span.attributes:
        span.attributes["error"] = type(exc).__name__
