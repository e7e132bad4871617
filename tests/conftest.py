import json
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from mgn_divisors import family, picard
from mgn_divisors.exact import rat, rat_str
from mgn_divisors.picard import CANONICAL_JSON, class_from_dict, class_to_dict


def poly_eval(p, assignment) -> Fraction:
    """A Poly evaluated exactly at a point; every variable must be bound."""
    missing = [v for v in p.variables if v not in assignment]
    if missing:
        raise ValueError(f"missing variable binding(s): {', '.join(missing)}")
    total = Fraction(0)
    for expo, coef in p.terms.items():
        v = coef
        for name, e in zip(p.variables, expo):
            v *= rat(assignment[name]) ** e
        total += v
    return total


def serialize(cls) -> str:
    """A class's canonical JSON text: sorted keys, rationals as strings."""
    return CANONICAL_JSON.encode(class_to_dict(cls))


def deserialize(text):
    """The class that the JSON text `text` describes."""
    return class_from_dict(json.loads(text))


def dense_document(cls) -> dict:
    """The class document as the earlier writer produced it, kept as an
    oracle: every psi label, every non-zero orbit (walked over
    boundary_orbits) and the explicit members, with no rest and no rows.
    class_from_dict must still load it to the class.  Two classes that agree
    at every psi label and every orbit, and list the same explicit members,
    write the same dense document."""
    space = cls.space
    return {
        "space": {"g": space.g, "n": space.n},
        "lambda": cls.lam.to_json(),
        "psi": {str(j): cls.psi_coefficient(j).to_json() for j in space.labels},
        "delta_irr": cls.delta_irr.to_json(),
        "boundary": [{"i": idx.i, "S": sorted(idx.S), "c": v.to_json()}
                     for idx, v in cls.boundary_items()],
        "boundary_sym": [{"i": i, "s": s, "c": c.to_json()} for (i, s), c in nonzero_orbits(cls)],
    }


def nonzero_orbits(cls) -> list:
    """The ((i, s), coefficient) pairs of every orbit whose coefficient is
    not 0, in boundary_orbits order."""
    return [(key, c) for key in picard.boundary_orbits(cls.space)
            if not (c := cls.orbit_coefficient(*key)).is_zero]


def stored_layers(cls) -> tuple:
    """Everything a class stores: the interior, the psi rest and listed
    labels, the boundary rest, rows, orbit entries and explicit members."""
    return (cls.lam, cls.delta_irr, cls.psi_rest, cls.psi_items(),
            cls._rest, cls._rows, cls._orbits, cls._explicit)


def check_documents(cls):
    """The class document of cls loads to an equal class that stores the same
    layers and writes the same bytes, and its dense document loads to an
    equal class too.  Returns the loaded class."""
    text = serialize(cls)
    again = deserialize(text)
    assert again == cls and stored_layers(again) == stored_layers(cls)
    assert serialize(again) == text
    assert class_from_dict(dense_document(cls)) == cls
    return again


def run_records(runs):
    """The records of a sweep's runs, one (op, values, lhs, rhs, ok) tuple
    each: values in op.keys order, lhs and rhs as canonical strings."""
    def text(x):
        return x if type(x) is str else rat_str(x)

    for ops, shared, column, lhs, rhs, ok in runs:
        for k, (v, a, b, passed) in enumerate(zip(column, lhs, rhs, ok)):
            op = ops[k % len(ops)]
            values = shared[:op.vary] + (v,) + shared[op.vary:] if op.keys else ()
            yield op, values, text(a), text(b), passed


def orbit_members(space, i, s):
    """The canonical member indices of orbit (i, s): every label set of size
    s, or on a row split by label 1 (i = g/2, n >= 1) those that hold 1."""
    labels = list(space.labels)
    if picard._split_by_label_1(space, i):
        for rest in combinations(labels[1:], s - 1):
            yield picard.BoundaryIndex(i, frozenset((1,) + rest))
    else:
        for S in combinations(labels, s):
            yield picard.BoundaryIndex(i, frozenset(S))


def all_canonical_indices(space):
    """Every canonical boundary index of the space, orbit by orbit: the dense
    per-member expansion that the layered classes are checked against."""
    for (i, s) in picard.boundary_orbits(space):
        yield from orbit_members(space, i, s)


def write_catalog(path, entries):
    """Write a `--catalog` file holding the given CatalogEntry values, each
    class in its `class_to_dict` form."""
    doc = {"entries": [{"name": e.name, "class": picard.class_to_dict(e.cls), "note": e.note}
                       for e in entries]}
    path.write_text(json.dumps(doc))


def stored_boundary_entries(cls) -> int:
    """How many boundary entries a class stores below its rest: rows, orbit
    entries and explicit members."""
    return len(cls._rows) + len(cls._orbits) + sum(map(len, cls._explicit.values()))


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


def _rebind_everywhere(monkeypatch, name, wrapper):
    """Rebind `name` to `wrapper` in every package module that binds the
    `picard` function of that name (`picard` included)."""
    original = getattr(picard, name)
    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("mgn_divisors.")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, wrapper)


@pytest.fixture()
def boundary_orbit_yields(monkeypatch):
    """Count boundary-orbit enumeration: `boundary_orbit_yields()` rebinds
    `boundary_orbits` to a counting wrapper in every package module that binds
    it (`picard` included), and returns the list of (i, s) keys yielded, in
    order."""
    enumerate_orbits = picard.boundary_orbits
    yielded = []

    def counting(space):
        for key in enumerate_orbits(space):
            yielded.append(key)
            yield key

    def install():
        _rebind_everywhere(monkeypatch, "boundary_orbits", counting)
        return yielded

    return install


@pytest.fixture()
def canonical_index_calls(monkeypatch):
    """Count canonicalizations: `canonical_index_calls()` rebinds
    `canonical_index` to a counting wrapper in every package module that binds
    it (`picard` included), and returns the list of (i, S) arguments, in call
    order."""
    canonicalize = picard.canonical_index
    calls = []

    def counting(space, i, S):
        calls.append((i, frozenset(S)))
        return canonicalize(space, i, S)

    def install():
        _rebind_everywhere(monkeypatch, "canonical_index", counting)
        return calls

    return install
