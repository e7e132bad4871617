"""The benchmark's workloads and the checks on every output they produce.

Each workload is a fixed list of `mgndiv` commands.  Every output is checked
against an expectation derived independently of the program: the sweep record
counts come from closed formulas over the family's (g, n) table, and the
certificate coefficients are the published values.  A command that verifies
less, or answers differently, fails its check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

# sizes the parent commit runs in a few seconds per command; --smoke uses SMOKE_T_MAX
RECURRENCES_T_MAX = 11
GRR_T_MAX = 16
SMOKE_T_MAX = 2

PUBLISHED_CERTIFICATES = {
    (16, 8): ("13/272", [("D_16_8", "7/272"), ("Z16", "1/34")]),
    (17, 8): ("1/20", [("D_17_8", "1/20"), ("BN17", "3/5")]),
    (12, 10): ("59/4415", [("D12", "13/13245"), ("F12_10", "484/4415")]),
}


class OutputMismatch(Exception):
    """A command's output differs from what the workload expects."""


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: Callable[[str], int]  # stdout -> number of verified records; raises OutputMismatch


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    size: str  # the stated input size, recorded with every result


def marked_points(t: int) -> int:
    """n(t) = (t^2 + 3t + 2) / 2 of the balanced family."""
    return (t + 1) * (t + 2) // 2


def recurrence_record_count(t_max: int) -> int:
    """5 symbolic records, then per t: n(n+1)/2 tilde-recurrence cells, n each of
    b1_recurrence and b1_recurrence_pairing, and 2n tilde-vs-known comparisons."""
    return 5 + sum(n * (n + 1) // 2 + 4 * n for n in map(marked_points, range(t_max + 1)))


def grr_record_count(t_max: int) -> int:
    """Four records per t."""
    return 4 * (t_max + 1)


def _parse(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        raise OutputMismatch(f"output is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise OutputMismatch("output is not a JSON object")
    return doc


def sweep_check(expected: int) -> Callable[[str], int]:
    def check(stdout: str) -> int:
        doc = _parse(stdout)
        records, summary = doc.get("records"), doc.get("summary", {})
        if summary.get("all_pass") is not True:
            raise OutputMismatch("summary.all_pass is not true")
        if not isinstance(records, list) or len(records) != expected:
            got = len(records) if isinstance(records, list) else None
            raise OutputMismatch(f"{got} records, expected {expected}")
        if summary.get("total") != expected or summary.get("passed") != expected:
            raise OutputMismatch(f"summary {summary} does not count {expected} passing records")
        failing = [r for r in records if r.get("pass") is not True]
        if failing:
            raise OutputMismatch(f"{len(failing)} records fail, first {failing[0].get('op')}")
        return expected

    return check


def certificate_check(g: int, n: int) -> Callable[[str], int]:
    a_want, comps_want = PUBLISHED_CERTIFICATES[(g, n)]

    def check(stdout: str) -> int:
        doc = _parse(stdout)
        if doc.get("space") != {"g": g, "n": n}:
            raise OutputMismatch(f"space {doc.get('space')}, expected (g={g}, n={n})")
        comps = [(c.get("name"), c.get("c")) for c in doc.get("components", [])]
        if (doc.get("a"), comps) != (a_want, comps_want):
            raise OutputMismatch(f"a={doc.get('a')} c={comps}, expected a={a_want} c={comps_want}")
        return 1

    return check


def sweep_command(suite: str, t_max: int, expected: int) -> Command:
    return Command(suite, ("verify", suite, "--t-max", str(t_max), "--json"), sweep_check(expected))


def certify_commands() -> tuple:
    return tuple(Command(f"certify-{g}-{n}", ("certify", "--g", str(g), "--n", str(n), "--json"),
                         certificate_check(g, n))
                 for g, n in PUBLISHED_CERTIFICATES)


def make_workload(name: str, smoke: bool = False) -> Workload:
    if name == "recurrences-certify":
        t_max = SMOKE_T_MAX if smoke else RECURRENCES_T_MAX
        expected = recurrence_record_count(t_max)
        return Workload(name, (sweep_command("recurrences", t_max, expected), *certify_commands()),
                        f"one round, in a seeded order: mgndiv verify recurrences --t-max {t_max} "
                        f"({expected} records) and mgndiv certify on (16,8), (17,8), (12,10)")
    if name == "sweep-grr":
        t_max = SMOKE_T_MAX if smoke else GRR_T_MAX
        expected = grr_record_count(t_max)
        return Workload(name, (sweep_command("grr", t_max, expected),),
                        f"mgndiv verify grr --t-max {t_max}: {expected} records")
    raise KeyError(name)


WORKLOAD_NAMES = ("recurrences-certify", "sweep-grr")
