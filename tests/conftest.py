import importlib
import sys

import pytest

from markedgroups.presentations import parse_presentation


@pytest.fixture
def z2():
    return parse_presentation("gens: x y\nrels: [x,y]")


@pytest.fixture
def a3():
    return parse_presentation("gens: a\nrels: a^3")


@pytest.fixture
def d3():
    return parse_presentation("gens: a b\nrels: a^2; b^2; (a b)^3")


@pytest.fixture
def dinf():
    return parse_presentation("gens: a b\nrels: a^2; b^2")


@pytest.fixture
def opened_pools(monkeypatch):
    """Every pool the package builds, counted through markedgroups.dehn.ProcessPoolExecutor."""
    dehn_module = importlib.import_module("markedgroups.dehn")
    opened = []

    class CountingPool(dehn_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(dehn_module, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.fixture
def pool_at_once(monkeypatch):
    """worker_pool with no in-process budget: every search of a pool map goes to the pool."""
    monkeypatch.setattr(importlib.import_module("markedgroups.dehn"), "POOL_STATES", 0)


def run_cli(argv, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from markedgroups.cli import main

    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_subprocess(argv, timeout=None):
    """Invoke the CLI as a child process; returns (exit_code, stdout_bytes).

    Raises ``subprocess.TimeoutExpired`` after ``timeout`` seconds.
    """
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "markedgroups", *argv],
        capture_output=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout
