import pytest

from mgn_divisors import family


@pytest.fixture()
def quad_class_builds(monkeypatch):
    """Count quad_class builds: `quad_class_builds(*modules)` rebinds the name
    in `family` and in each given module to a counting wrapper, and returns
    the list of t values built, in call order."""
    build = family.quad_class
    built = []

    def counting(t):
        built.append(t)
        return build(t)

    def install(*modules):
        for module in (family, *modules):
            monkeypatch.setattr(module, "quad_class", counting)
        return built

    return install
