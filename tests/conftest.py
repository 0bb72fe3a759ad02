from __future__ import annotations

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_criterion"):
        _acceptance_results.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(_acceptance_results):
        label = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{label}  {name}")
