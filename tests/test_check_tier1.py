"""The CI gate `.github/check_tier1.py` passes a JUnit report only when its one
problem is the documented criterion 3 failure, message unchanged."""

import importlib.util
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

GATE = Path(__file__).resolve().parent.parent / ".github" / "check_tier1.py"
_spec = importlib.util.spec_from_file_location("check_tier1", GATE)
check_tier1 = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_tier1)

CLASSNAME, NAME, MESSAGE = check_tier1.EXPECTED
# pytest's message: the assertion's first line, then the rewritten assert
DOCUMENTED = ("failure", CLASSNAME, NAME, MESSAGE + "\nassert not ['faure 2^16: ...']")
OTHER = ("failure", "tests.test_media", "test_deterministic", "AssertionError: assert False")
PASSING = '<testcase classname="tests.test_ops" name="test_and" time="0.001" />'


def junit(*outcomes):
    """A pytest-style JUnit report: one passing case, then one case per
    (tag, classname, name, message) outcome."""
    cases = [PASSING]
    for tag, classname, name, message in outcomes:
        cases.append(
            f'<testcase classname="{classname}" name="{name}" time="0.1">'
            f"<{tag} message={quoteattr(message)}>traceback</{tag}></testcase>"
        )
    failures = sum(tag == "failure" for tag, *_ in outcomes)
    errors = len(outcomes) - failures
    return (
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" errors="{errors}" failures="{failures}" skipped="0" '
        f'tests="{len(cases)}">{"".join(cases)}</testsuite></testsuites>'
    )


@pytest.mark.parametrize("outcomes, code", [
    ((DOCUMENTED,), 0),
    ((DOCUMENTED, OTHER), 1),
    ((), 1),
    ((DOCUMENTED[:3] + (DOCUMENTED[3].replace("0.004974", "0.004975"),),), 1),
    ((DOCUMENTED, ("error",) + OTHER[1:]), 1),
    ((("error",) + OTHER[1:],), 1),
], ids=["documented-only", "plus-another", "none", "changed-message", "plus-error",
        "error-only"])
def test_exit_code(tmp_path, capsys, outcomes, code):
    report = tmp_path / "tier1.xml"
    report.write_text(junit(*outcomes), encoding="utf-8")
    assert check_tier1.main(str(report)) == code
    assert capsys.readouterr().out.startswith("tier-1: ")
