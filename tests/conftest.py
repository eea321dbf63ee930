import sys

import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run long extended checks (labeled E_6, E_7)")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running extended checks")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Captured stdout of passing tests is hidden by default; re-emit the
    # acceptance verdict lines so every run shows one line per criterion.
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", []) if mod else []
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
