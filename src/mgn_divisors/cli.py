"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 on a verification failure
or an unsolvable certificate, 2 on usage errors (click's default).  With
--json the report is canonical JSON (sorted keys, rationals as strings) and is
byte-stable across runs.  The only environment knob is MGNDIV_WIDTH, the wrap
width for human-readable class expressions.
"""

from __future__ import annotations

import json
import os
import textwrap

import click

from . import checks
from .certificates import CertificateError, canonical_class, catalog_load
from .family import gn_pair, quad_class
from .picard import MalformedClassError, class_to_dict
from .presets import averaged_class_16_8, averaged_class_17_8, bn5_pullback, certify


def _width() -> int:
    try:
        return max(20, int(os.environ.get("MGNDIV_WIDTH", "100")))
    except ValueError:
        return 100


def _emit_json(doc) -> None:
    click.echo(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _emit_class(cls, as_json: bool) -> None:
    if as_json:
        _emit_json(class_to_dict(cls))
    else:
        click.echo(textwrap.fill(repr(cls), width=_width()))


@click.group()
def main():
    """Exact divisor-class computations on moduli of stable pointed curves."""


@main.command()
@click.option("--t-max", default=6, show_default=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True, help="Canonical JSON output.")
def table(t_max, as_json):
    """The (t, g, n) table of balanced family parameters."""
    rows = [{"t": t, "g": g, "n": n} for t in range(t_max + 1) for g, n in [gn_pair(t)]]
    if as_json:
        _emit_json({"rows": rows})
    else:
        click.echo(f"{'t':>3} {'g':>4} {'n':>4}")
        for r in rows:
            click.echo(f"{r['t']:>3} {r['g']:>4} {r['n']:>4}")


@main.group(name="class")
def class_():
    """Construct and print divisor classes."""


@class_.command()
@click.option("--t", "t", required=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def quad(t, as_json):
    """The family class for parameter t."""
    _emit_class(quad_class(t), as_json)


@class_.command()
@click.option("--g", "g", required=True, type=click.IntRange(min=2))
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
@click.option("--json", "as_json", is_flag=True)
def canonical(g, n, as_json):
    """The canonical class of the n-pointed genus-g space."""
    _emit_class(canonical_class(g, n), as_json)


_PRESETS = {
    "bn5-to-51": bn5_pullback,
    "quad3-to-168": averaged_class_16_8,
    "quad3-to-178": averaged_class_17_8,
}


@main.command()
@click.option("--preset", required=True, type=click.Choice(sorted(_PRESETS)))
@click.option("--json", "as_json", is_flag=True)
def pullback(preset, as_json):
    """A named pullback class (averaged over marked-point pairs where applicable)."""
    _emit_class(_PRESETS[preset](), as_json)


@main.command()
@click.argument("suite", type=click.Choice([*checks.SUITES, "all"]))
@click.option("--t-max", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def verify(suite, t_max, as_json):
    """Run a verification sweep and report structured pass/fail records."""
    records = checks.check_all(t_max) if suite == "all" else checks.SUITES[suite](t_max)
    summary = checks.summarize(records)
    if as_json:
        _emit_json({"records": records, "summary": summary})
    else:
        for r in records:
            status = "PASS" if r["pass"] else "FAIL"
            inputs = " ".join(f"{k}={v}" for k, v in r["inputs"].items())
            line = f"{status} {r['op']} {inputs}".rstrip()
            if not r["pass"]:
                line += f"  lhs={r['lhs']} rhs={r['rhs']}"
            click.echo(line)
        click.echo(f"{summary['passed']}/{summary['total']} checks passed")
    raise SystemExit(0 if summary["all_pass"] else 1)


@main.command(name="certify")
@click.option("--g", "g", required=True, type=click.IntRange(min=2))
@click.option("--n", "n", required=True, type=click.IntRange(min=1))
@click.option("--catalog", "catalog_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def certify_cmd(g, n, catalog_path, as_json):
    """Solve the general-type certificate for a supported (g, n)."""
    try:
        catalog = catalog_load(catalog_path) if catalog_path else None
        cert = certify(g, n, catalog)
    except (ValueError, MalformedClassError) as e:
        raise click.UsageError(str(e))
    except CertificateError as e:
        click.echo(f"FAIL {e}", err=True)
        raise SystemExit(1)
    doc = cert.to_json()
    if as_json:
        _emit_json(doc)
    else:
        click.echo(f"space (g={g}, n={n}):  K = a*sum(psi) + sum c_k D_k + E")
        click.echo(f"  a = {doc['a']}")
        for comp in doc["components"]:
            click.echo(f"  c[{comp['name']}] = {comp['c']}")
        click.echo("  residual interior: lambda=0, psi=0, delta_irr=0")
        for b in doc["residual"]["boundary"]:
            click.echo(f"  residual delta[{b['i']}:|S|={b['s']}]: {b['status']}")


if __name__ == "__main__":
    main()
