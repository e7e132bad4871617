import copy
import inspect
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import mgn_divisors
from mgn_divisors import certificates, checks, exact, picard, pullbacks

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


# one factory per value type: each call builds a new value equal to the last
VALUES = {
    "LinearSolution": lambda: exact.LinearSolution("unique", (1, Fraction(1, 2))),
    "Space": lambda: picard.Space(5, 3),
    "BoundaryIndex": lambda: picard.canonical_index(picard.Space(5, 3), 3, {2}),
    "TestCurve": lambda: picard.TestCurve(picard.Space(5, 3), 1, {2}),
    "TailAttachment": lambda: pullbacks.TailAttachment(1, 1, {7, 8}),
    "ClutchingMap": lambda: pullbacks.ClutchingMap(
        picard.Space(16, 8), picard.Space(17, 10),
        (pullbacks.TailAttachment(1, 1, {7, 8}), pullbacks.TailAttachment(2, 0, {9, 10})),
        {j: j - 2 for j in range(3, 9)}),
    "CatalogEntry": lambda: certificates.CatalogEntry(
        "BN5_3", certificates.bn_class(5), "Eisenbud-Harris"),
    "Certificate": lambda: certificates.certify(16, 8),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_immutable(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    for field in (*inspect.signature(type(value)).parameters, "other"):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name", VALUES)
def test_value_types_copy_and_pickle(name):
    # a copy and an unpickled value are rebuilt from the stored fields
    value = VALUES[name]()
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_value_repr():
    assert repr(VALUES["Space"]()) == "Space(g=5, n=3)"
    assert repr(VALUES["TestCurve"]()) == "TestCurve(space=Space(g=5, n=3), i=1, S=frozenset({2}))"
    assert repr(VALUES["BoundaryIndex"]()) == "delta_{2:{1,3}}"
