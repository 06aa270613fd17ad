"""The live telemetry plane: streaming aggregation, SLOs, alerts.

Where :mod:`repro.obs.analyze` explains a run *after* it ends, this
package watches it *while it executes* — incrementally-maintained
aggregates over the metrics bus (:mod:`.streams`), declarative SLO
rules with hysteresis (:mod:`.slo`, :mod:`.alerts`), a
byte-deterministic incident timeline (:mod:`.incidents`), detection
scoring against chaos ground truth (:mod:`.score`) and a periodic
text dashboard (:mod:`.watch`).  :class:`~repro.obs.live.session.
LiveSession` bundles it all for one run, the way
:class:`~repro.obs.Observability` bundles the recorders.

Like the rest of :mod:`repro.obs`, nothing here may import
:mod:`repro.sim` at module level — the kernel imports
:data:`NULL_LIVE` from :mod:`.streams` — except
:mod:`repro.sim.actor`: the alert engine and the watchboard are
actors.
"""

from .alerts import AlertEngine, AlertState, Incident
from .incidents import (incidents_document, render_incidents_text,
                        write_incidents)
from .score import FAULT_ALERTS, score_detection
from .session import LiveSession
from .slo import (AlertRule, SLOSpec, default_slo_spec,
                  load_slo_file)
from .streams import (Ewma, Latest, LivePipeline, Mapped,
                      Node, NullLivePipeline, NULL_LIVE, Operator,
                      WindowedMean)
from .watch import Watchboard

__all__ = [
    "LivePipeline", "NullLivePipeline", "NULL_LIVE", "Node",
    "Operator", "Latest", "Ewma", "WindowedMean", "Mapped",
    "AlertRule", "SLOSpec", "default_slo_spec", "load_slo_file",
    "AlertEngine", "AlertState", "Incident",
    "incidents_document", "render_incidents_text", "write_incidents",
    "FAULT_ALERTS", "score_detection",
    "LiveSession", "Watchboard",
]
