"""Shared fixtures for the test suite.

Everything is seeded so the suite is fully deterministic; fixtures that
are expensive to build (reference chips, evolved viruses, DRAM
populations) are session-scoped.

The per-test hang guard (the ``timeout`` ini value, or ``--timeout``)
is enforced by pytest-timeout when it is installed. Without the plugin
this conftest registers the same option and arms
:func:`faulthandler.dump_traceback_later` around each test instead: a
test that outlives the limit dumps every thread's traceback and ends the
run with a non-zero exit, rather than wedging it.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.core.executor import CampaignExecutor
from repro.core.vmin import VminSearch
from repro.dram.cells import DramDevicePopulation
from repro.soc.chip import Chip
from repro.soc.corners import ProcessCorner
from repro.soc.xgene2 import build_platform, build_reference_chips

TEST_SEED = 1234


def pytest_addoption(parser, pluginmanager):
    if pluginmanager.hasplugin("timeout"):
        return
    parser.addini("timeout", "per-test wall-clock limit in seconds "
                  "(faulthandler fallback; 0 disables)", default="0")
    parser.addoption("--timeout", type=float, default=None,
                     help="per-test wall-clock limit in seconds "
                          "(faulthandler fallback; 0 disables)")


def _fallback_timeout(config) -> float:
    if config.pluginmanager.hasplugin("timeout"):
        return 0.0
    seconds = config.getoption("--timeout")
    return float(config.getini("timeout") if seconds is None else seconds)


#: A duplicate of the real stderr, taken before output capture redirects
#: fd 2: the traceback dump must reach the terminal.
_GUARD_FD = pytest.StashKey[int]()


def pytest_configure(config):
    if _fallback_timeout(config) > 0:
        config.stash[_GUARD_FD] = os.dup(sys.stderr.fileno())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    seconds = _fallback_timeout(item.config)
    if seconds > 0:
        faulthandler.dump_traceback_later(seconds, exit=True,
                                          file=item.config.stash[_GUARD_FD])
    try:
        yield
    finally:
        if seconds > 0:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def seed() -> int:
    return TEST_SEED


@pytest.fixture(scope="session")
def reference_chips():
    """The paper's three zero-jitter sigma parts."""
    return build_reference_chips(seed=TEST_SEED)


@pytest.fixture(scope="session")
def ttt_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TTT]


@pytest.fixture(scope="session")
def tff_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TFF]


@pytest.fixture(scope="session")
def tss_chip(reference_chips) -> Chip:
    return reference_chips[ProcessCorner.TSS]


@pytest.fixture()
def ttt_executor(ttt_chip) -> CampaignExecutor:
    return CampaignExecutor(ttt_chip, seed=TEST_SEED)


@pytest.fixture()
def ttt_search(ttt_executor) -> VminSearch:
    return VminSearch(ttt_executor, repetitions=5)


@pytest.fixture(scope="session")
def ttt_platform():
    return build_platform(ProcessCorner.TTT, seed=TEST_SEED)


@pytest.fixture(scope="session")
def dram_population() -> DramDevicePopulation:
    return DramDevicePopulation(seed=TEST_SEED)


@pytest.fixture(scope="session")
def evolved_virus():
    """A small but converged GA run (session-scoped: reused everywhere)."""
    from repro.viruses.didt import evolve_didt_virus
    return evolve_didt_virus(seed=TEST_SEED, generations=8, population=16)
