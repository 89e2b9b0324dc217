from pathlib import Path

import pytest

from wtps import load_corpus

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

COMMUNITY_SAMPLE = DATA_DIR / "community_sample.jsonl"
FOLLOWER_SAMPLE = DATA_DIR / "follower_sample.jsonl"


@pytest.fixture(autouse=True)
def empty_cache_home(tmp_path_factory, monkeypatch):
    """An empty ``XDG_CACHE_HOME`` for every test: no test writes the corpus
    cache under the real home directory, and each starts with a cold cache."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture(scope="session")
def community_corpus():
    """The shipped 4-repo sample with full fork/star event streams."""
    return load_corpus(COMMUNITY_SAMPLE, interval_days=30)


@pytest.fixture(scope="session")
def follower_corpus():
    """The shipped 3-repo sample carrying the follower-graph topology."""
    return load_corpus(FOLLOWER_SAMPLE, interval_days=30)


# --- acceptance criterion reporting ----------------------------------------
# One PASS/FAIL line per acceptance test is printed in the terminal summary,
# regardless of output capturing, so batch runs always show the verdicts.

_acceptance_results: list[tuple[str, str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    if report.passed:
        verdict = "PASS"
    elif report.skipped:
        verdict = "SKIP"
    else:
        verdict = "FAIL"
    doc = (item.function.__doc__ or "").strip().splitlines()
    label = doc[0] if doc else item.name
    _acceptance_results.append((item.name, verdict, label))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict, label in _acceptance_results:
        terminalreporter.write_line(f"{verdict}  {name}: {label}")
