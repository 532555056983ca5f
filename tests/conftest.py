import sys
from pathlib import Path

# allow cross-file imports of shared test helpers (per_cell etc.)
sys.path.insert(0, str(Path(__file__).parent))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance criterion results after capture ends, so the
    one-line-per-criterion report is always visible."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)
