"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 on a verification failure
or an unsolvable certificate, 2 on usage errors (click's default), 3 when a
verify sweep raises an internal error: every run of records it yielded is
written, the JSON document is left unterminated with no summary, and the
traceback goes to stderr.  With --json the report is canonical JSON (sorted
keys, rationals as strings) and is byte-stable across runs.  The only environment knob is MGNDIV_WIDTH, the wrap
width for human-readable class expressions.
"""

from __future__ import annotations

import os
import textwrap

import click

from . import checks
from .certificates import (CertificateError, averaged_class, bn5_pullback, canonical_class,
                           catalog_load, certify)
from .family import gn_pair, quad_class
from .picard import CANONICAL_JSON, MalformedClassError, class_to_dict


def _width() -> int:
    try:
        return max(20, int(os.environ.get("MGNDIV_WIDTH", "100")))
    except ValueError:
        return 100


def _emit_json(doc) -> None:
    click.echo(CANONICAL_JSON.encode(doc))


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
@click.option("--n", "n", required=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def canonical(g, n, as_json):
    """The canonical class of the n-pointed genus-g space (n = 0: the unmarked space)."""
    _emit_class(canonical_class(g, n), as_json)


_PRESETS = {
    "bn5-to-51": bn5_pullback,
    "quad3-to-168": lambda: averaged_class(16),
    "quad3-to-178": lambda: averaged_class(17),
}


@main.command()
@click.option("--preset", required=True, type=click.Choice(sorted(_PRESETS)))
@click.option("--json", "as_json", is_flag=True)
def pullback(preset, as_json):
    """A named pullback class (averaged over marked-point pairs where applicable)."""
    _emit_class(_PRESETS[preset](), as_json)


# records per write, at least: a write per run through click's stream is slower
_BATCH = 1024


def _until_error(runs, errors):
    """The runs of a sweep up to the first exception it raises, which is
    appended to `errors` instead of propagating."""
    try:
        yield from runs
    except Exception as e:
        errors.append(e)


@main.command()
@click.argument("suite", type=click.Choice([*checks.SUITES, "all"]))
@click.option("--t-max", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--json", "as_json", is_flag=True)
def verify(suite, t_max, as_json):
    """Run a verification sweep and report structured pass/fail records.

    Each run the sweep yields is rendered by checks.json_run or text_run and
    counted, and written once _BATCH records are pending, so memory does not
    grow with the record count.  The JSON is what json.dumps would write for
    the whole report.  If the sweep raises, every run it yielded is written,
    then its traceback on stderr, and the exit code is 3.
    """
    sweep = checks.check_all(t_max) if suite == "all" else checks.SUITES[suite](t_max)
    errors = []
    render = checks.json_run if as_json else checks.text_run
    total = failed = written = 0
    texts, sep = [], "," if as_json else "\n"
    if as_json:
        click.echo('{"records":[', nl=False)
    for run in _until_error(sweep, errors):
        ok = run[5]
        total += len(ok)
        failed += ok.count(False)
        texts.append(render(run))
        if total - written >= _BATCH:
            click.echo(sep.join(texts), nl=not as_json)
            # the "" starts a JSON batch after the first with a comma
            texts, written = [""] if as_json else [], total
    if total > written:
        click.echo(sep.join(texts), nl=not as_json)
    if errors:
        import traceback  # only on this path: a cold start does not pay for it

        traceback.print_exception(errors[0])
        raise SystemExit(3)
    summary = {"total": total, "passed": total - failed, "failed": failed, "all_pass": not failed}
    if as_json:
        click.echo('],"summary":' + CANONICAL_JSON.encode(summary) + "}")
    else:
        click.echo(f"{summary['passed']}/{total} checks passed")
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
            if "s" in b:
                click.echo(f"  residual delta[{b['i']}:|S|={b['s']}]: {b['status']}")
            else:
                labels = ",".join(map(str, b["S"]))
                click.echo(f"  residual delta[{b['i']}:{{{labels}}}]: {b['status']}")


if __name__ == "__main__":
    main()
