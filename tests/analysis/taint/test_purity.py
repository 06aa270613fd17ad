"""``taint/purity.py``: precise call resolution for the taint engine
(``resolve_targets``: the race call graph behind a precision gate)."""

import ast
import textwrap

from repro.analysis.race import build_project_model
from repro.analysis.taint.purity import resolve_targets


def _resolved(tmp_path, source):
    """``caller name -> [callee qualname, ...]`` for the one call each
    caller's body ends with."""
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    model = build_project_model([str(path)])
    resolved = {}
    for info in model.functions.values():
        calls = [node for node in ast.walk(info.node.body[-1])
                 if isinstance(node, ast.Call)]
        if calls:
            targets = resolve_targets(model, calls[0], info)
            resolved[info.name] = [t.qualname for t in targets]
    return resolved


def test_generic_method_names_need_receiver_evidence(tmp_path):
    # `sink.append(...)` must NOT dispatch to Binlog.append just
    # because the names match; `binlog.append(...)` may.
    resolved = _resolved(tmp_path, """\
        class Binlog:
            def __init__(self):
                self.events = []

            def append(self, event):
                self.events.append(event)

        def anonymous(sink, event):
            sink.append(event)

        def evidenced(binlog, event):
            binlog.append(event)
    """)
    assert resolved["anonymous"] == []
    assert resolved["evidenced"] == ["mod.Binlog.append"]
    # `self.events.append` inside the class is a list, not the class.
    assert resolved["append"] == []


def test_parameter_shadows_project_function(tmp_path):
    # Calling the callable *parameter* `job` must not resolve to the
    # module-level `def job`.
    resolved = _resolved(tmp_path, """\
        def job():
            return 1

        def run(job):
            return job()

        def direct():
            return job()
    """)
    assert resolved["run"] == []
    assert resolved["direct"] == ["mod.job"]
