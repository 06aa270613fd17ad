"""The repo-clean gate: ``check_paths`` runs over the repo once per
test session and the simlint / simrace / simtaint assertions each read
their section of that one result."""

import os

import pytest

from repro.analysis import check_paths, load_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def repo_check():
    config = load_config(REPO_ROOT)
    paths = [os.path.join(REPO_ROOT, path) for path in config.paths]
    return check_paths(paths, config=config)
