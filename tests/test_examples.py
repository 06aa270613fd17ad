"""The handle's public consumers run on every tier-1 pass.

``examples/`` sits outside ``testpaths`` (CI runs all seven after
tier-1); the two quick ones run here, so an API change that breaks
them fails the suite rather than the next reader.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


#: Example -> the line its ``main()`` must end on.
VERDICTS = {
    "quickstart": "replicas consistent with master: True",
    "failover_drill": "cluster caught up: True, consistent: True",
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_example_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert VERDICTS[name] in capsys.readouterr().out
