import re

import pytest

from magma_lab.enumeration import LATIN, EnumSpec, _prefixes, _subtrees

_CRITERION = re.compile(r"::test_criterion_(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one ACCEPTANCE line per shipping criterion, after capture ends."""
    verdicts = {}
    for outcome, passed in (("passed", True), ("failed", False)):
        for rep in terminalreporter.stats.get(outcome, ()):
            if getattr(rep, "when", None) != "call":
                continue
            m = _CRITERION.search(rep.nodeid)
            if m:
                verdicts[int(m.group(1))] = passed
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(verdicts):
        terminalreporter.write_line(
            f"ACCEPTANCE {n}: {'PASS' if verdicts[n] else 'FAIL'}"
        )


@pytest.fixture(scope="session")
def latin_stream_lengths():
    """The number of Latin squares of orders 1 to 5, by collecting them all
    from the backtracker over every first row, not from the relabeled
    stream, whose one job is the count's own."""
    specs = [EnumSpec(n, LATIN) for n in range(1, 6)]
    return [sum(map(len, _subtrees(spec, _prefixes(spec), 1, counting=False))) for spec in specs]
