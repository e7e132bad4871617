import mgn_divisors


def test_every_export_resolves():
    missing = [name for name in mgn_divisors.__all__ if not hasattr(mgn_divisors, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(set(mgn_divisors.__all__)) == len(mgn_divisors.__all__)
