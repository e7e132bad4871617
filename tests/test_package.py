import re
from pathlib import Path

import mgn_divisors
from mgn_divisors import checks

README = Path(__file__).parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in mgn_divisors.__all__ if not hasattr(mgn_divisors, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(mgn_divisors.__all__)) == len(mgn_divisors.__all__)


def test_readme_tags_every_op_that_verify_all_emits():
    """The README's op table lists exactly the ops of `verify all`, each under
    its suite, and a re-evaluation names ops that the table tags symbolic."""
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| (.+) \|$", README.read_text(encoding="utf-8"),
                      re.M)
    assert sorted({op.name for run in checks.check_all(2) for op in run[0]}) == sorted(
        op for op, _, _ in rows)
    tags = {op: tag for op, _, tag in rows}
    for op, suite, tag in rows:
        assert op in {o.name for run in checks.SUITES[suite](2) for o in run[0]}, op
        assert tag.startswith(("symbolic", "re-evaluation of `", "per t", "fixed")), op
        if tag.startswith("re-evaluation"):
            named = re.findall(r"`(\w+)`", tag.partition(", except")[0])
            assert named and all(tags[name] == "symbolic" for name in named), op
