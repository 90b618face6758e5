"""Command-line front end.

Exit codes: 0 success, 2 usage/validation error, 3 a failed cross-check
(with a machine-readable error object on stdout).  Results are
deterministic for a fixed command line and code version; the cache
(SILC_CACHE, default .silc-cache) only short-circuits the computation and
never changes the bytes written to stdout ("cached" status goes to stderr).

Each subcommand is a compute function ``(datum, **options) -> payload``
registered with ``job``.  Its options are typed click parameters, parsed and
checked against the root datum of ``--type``/``--rank`` before anything is
computed; ``job`` owns the cache key, the cache and the exit codes.

Each compute function imports the modules it calls, so that a process loads
only what its subcommand runs.
"""

from __future__ import annotations

import json
import sys

import click

from . import cache as cachemod
from .errors import (CharacterError, InconsistencyError, QuasimapError,
                     RootDataError)
from .rootdata import root_datum
from .weylgroup import AffineWeylElement, FiniteWeylElement, weyl_group

# the exit-code contract: library errors about the input exit 2; a failed
# cross-check exits 3
USAGE_ERRORS = (CharacterError, QuasimapError, RootDataError)
COMPUTATION_ERRORS = (InconsistencyError,)
# what parsing option text can raise: bad numbers, JSON, shapes and files
PARSE_ERRORS = (ValueError, KeyError, TypeError, OSError) + USAGE_ERRORS


# ---------------------------------------------------------------------------
# typed options
# ---------------------------------------------------------------------------

def datum_of(ctx):
    """The root datum of --type and --rank, which are eager, so parsed first."""
    try:
        return root_datum(ctx.params["kind"], ctx.params["rank"])
    except RootDataError as exc:
        raise click.UsageError(str(exc), ctx)


class Parsed(click.ParamType):
    """Option text read by parse(datum, text); any parse error exits 2."""

    name = "text"

    def __init__(self, parse):
        self.parse = parse

    def convert(self, value, param, ctx):
        if not isinstance(value, str):
            return value
        datum = datum_of(ctx)
        try:
            return self.parse(datum, value)
        except PARSE_ERRORS as exc:
            self.fail(str(exc), param, ctx)


def _ints(text):
    """Comma-separated integers, every letter nonempty; blank text is ()."""
    return tuple(int(t) for t in text.split(",")) if text.strip() else ()


def _vector(datum, text):
    vec = tuple(int(t) for t in text.split(","))
    if len(vec) != datum.rank:
        raise ValueError(f"needs {datum.rank} coordinates, got {len(vec)}")
    return vec


def _window(datum, text):
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError:
        raise ValueError(f"window must look like 0:4, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"window {text!r} is reversed: lo:hi needs lo <= hi")
    return lo, hi


def _dp(datum, text):
    from .quasimap import DPData
    dp = DPData.from_json(json.loads(text))
    if datum.cartan != root_datum("A", dp.rank).cartan:
        raise QuasimapError(
            f"data of rank {dp.rank} needs --type A --rank {dp.rank}"
        )
    return dp


def _dp_file(datum, path):
    with open(path, "r", encoding="utf-8") as fh:
        return _dp(datum, fh.read())


# an affine element u_word@beta; a weight or coweight; a window lo:hi; a
# finite element by its word ('e' for the identity); a list of indices
ELEMENT = Parsed(lambda datum, text: weyl_group(datum).parse(text))
VECTOR = Parsed(_vector)
WINDOW = Parsed(_window)
WORD = Parsed(lambda datum, text: weyl_group(datum).finite_from_word(
    () if text.strip() == "e" else _ints(text)))
INTS = Parsed(lambda datum, text: _ints(text))


def _one_source(ctx, param, value):
    """--data and --data-file: the second of the two to be parsed checks
    that exactly one of them was given."""
    other = "data_file" if param.name == "data" else "data"
    if other in ctx.params and (value is None) == (ctx.params[other] is None):
        raise click.UsageError("provide exactly one of --data / --data-file", ctx)
    return value


def data_options(f):
    f = click.option("--data-file", type=Parsed(_dp_file), callback=_one_source,
                     help="path to a DPData JSON file")(f)
    return click.option("--data", type=Parsed(_dp), callback=_one_source,
                        help="DPData as inline JSON")(f)


COMMON_OPTIONS = (
    click.option("--type", "kind", default="A", show_default=True,
                 is_eager=True, help="Cartan type letter"),
    click.option("--rank", type=int, required=True, is_eager=True),
    click.option("--output", type=click.Choice(["json", "csv", "pretty"]),
                 default="json", show_default=True),
    click.option("--no-cache", is_flag=True, default=False),
)


# ---------------------------------------------------------------------------
# the job runner
# ---------------------------------------------------------------------------

def _key(datum, value):
    """The JSON form of one parsed option in the cache key."""
    if isinstance(value, AffineWeylElement):
        return weyl_group(datum).format(value)
    if isinstance(value, FiniteWeylElement):
        return weyl_group(datum).reduced_word_finite(value)
    if hasattr(value, "to_json"):  # DPData
        return value.to_json()
    return value


def job(group, name, csv_rows=None):
    """Register compute(datum, **options) -> payload as the subcommand `name`
    of `group`, with the click options declared under this decorator.

    The cache key holds every option; csv_rows(payload, datum) gives the
    (header, rows) of --output csv, which commands without it reject.
    """
    command = name if group is main else f"{group.name}.{name}"

    def register(compute):
        def run(kind, rank, output, no_cache, **options):
            if output == "csv" and csv_rows is None:
                raise click.UsageError("csv output is not available for this command")
            datum = datum_of(click.get_current_context())
            key = cachemod.cache_key(command, datum.cartan.entries,
                                     {k: _key(datum, v) for k, v in options.items()})
            payload = None if no_cache else cachemod.load(key)
            if payload is not None:
                print("cached: true", file=sys.stderr)
            else:
                try:
                    payload = compute(datum, **options)
                except COMPUTATION_ERRORS as exc:
                    click.echo(json.dumps(
                        {"error": {"type": type(exc).__name__, "message": str(exc)}},
                        sort_keys=True,
                    ))
                    sys.exit(3)
                except USAGE_ERRORS as exc:
                    raise click.UsageError(str(exc))
                if not no_cache:
                    cachemod.store(key, payload)
            if output == "csv":
                header, rows = csv_rows(payload, datum)
                for row in (header, *rows):
                    click.echo(",".join(str(x) for x in row))
            else:
                indent = 2 if output == "pretty" else None
                click.echo(json.dumps(payload, sort_keys=True, indent=indent,
                                      separators=None if indent else (",", ":")))

        run.__click_params__ = list(getattr(compute, "__click_params__", ()))
        for option in COMMON_OPTIONS:
            run = option(run)
        group.command(name)(run)
        return compute

    return register


def _char_csv(payload, datum):
    return (("q", "wt", "c"),
            [(t["q"], " ".join(str(x) for x in t["wt"]), t["c"])
             for t in payload["terms"]])


@click.group()
def main():
    """Exact invariants of semi-infinite flag varieties."""


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

@main.group()
def order():
    """Semi-infinite Bruhat order queries."""


@job(order, "le")
@click.option("--w", type=ELEMENT, required=True)
@click.option("--v", type=ELEMENT, required=True)
def order_le(datum, w, v):
    from .semiinf import si_order
    return {"result": si_order(datum).si_le(w, v)}


@job(order, "covers")
@click.option("--v", type=ELEMENT, required=True)
@click.option("--height-bound", type=click.IntRange(min=1), default=2,
              show_default=True)
def order_covers(datum, v, height_bound):
    from .semiinf import si_order
    wg = weyl_group(datum)
    covers = si_order(datum).si_covers_below(v, height_bound)
    return {"height_bound": height_bound,
            "covers": [{"root": {"coords": list(alpha.root_coords),
                                 "delta": alpha.delta_coeff},
                        "element": wg.format(x)} for alpha, x in covers]}


def _interval_csv(payload, datum):
    return (("element", "si_length"),
            [(e["element"], e["si_length"]) for e in payload["elements"]])


@job(order, "interval", _interval_csv)
@click.option("--v", type=ELEMENT, required=True)
@click.option("--w", type=ELEMENT, required=True)
@click.option("--radius", type=int, default=2, show_default=True)
def order_interval(datum, v, w, radius):
    from .semiinf import si_order
    wg, so = weyl_group(datum), si_order(datum)
    return {"radius": radius,
            "elements": [{"element": wg.format(x), "si_length": so.si_length(x)}
                         for x in so.si_interval(v, w, radius)]}


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@main.group()
def char():
    """Graded characters."""


@job(char, "weyl", _char_csv)
@click.option("--lam", type=VECTOR, required=True)
def char_weyl(datum, lam):
    from .charring import weyl_character
    return weyl_character(datum, lam).to_json()


@job(char, "gweyl", _char_csv)
@click.option("--w", type=ELEMENT, required=True)
@click.option("--lam", type=VECTOR, required=True)
@click.option("--window", type=WINDOW, required=True)
def char_gweyl(datum, w, lam, window):
    from .pieri import gch_global_weyl
    return gch_global_weyl(datum, w, lam, window).to_json()


@job(char, "demazure", _char_csv)
@click.option("--word", type=INTS, required=True,
              help="comma-separated indices in {0,...,rank}")
@click.option("--lam", type=VECTOR, required=True, help="starting weight e^lam")
@click.option("--q", type=int, default=0, show_default=True,
              help="starting q-power")
@click.option("--window", type=WINDOW, required=True)
def char_demazure(datum, word, lam, q, window):
    from .charring import GradedCharacter, demazure_word
    f = GradedCharacter.monomial(q, lam, 1, window)
    return demazure_word(datum, word, f).to_json()


# ---------------------------------------------------------------------------
# twist coefficients and section dimensions
# ---------------------------------------------------------------------------

def _pieri_csv(payload, datum):
    wg = weyl_group(datum)
    return (("u", "qbar", "wt", "c"),
            [(wg.format(wg.from_json(entry["u"])), t["q"],
              " ".join(str(x) for x in t["wt"]), t["c"])
             for entry in payload["coeffs"] for t in entry["a"]["terms"]])


@job(main, "pieri", _pieri_csv)
@click.option("--w", type=ELEMENT, required=True)
@click.option("--lam", type=VECTOR, required=True)
@click.option("--window", type=WINDOW, required=True)
@click.option("--depth", type=int, default=3, help="accepted, changes nothing")
def pieri_cmd(datum, w, lam, window, depth):
    from .pieri import compute_pieri
    return compute_pieri(datum, w, lam, window, depth).to_json(weyl_group(datum))


@job(main, "h0")
@click.option("--v", type=ELEMENT, required=True)
@click.option("--w", type=ELEMENT, required=True)
@click.option("--lam", type=VECTOR, required=True)
@click.option("--window", type=WINDOW, default=None,
              help="qbar-window for the reported character (default: full)")
def h0_cmd(datum, v, w, lam, window):
    from .pieri import smt_character
    full = smt_character(datum, v, w, lam)
    payload = {"dim": full.total()}
    if window is not None:
        payload["character"] = full.truncate(window).to_json()
    return payload


# ---------------------------------------------------------------------------
# quasi-maps
# ---------------------------------------------------------------------------

@main.group()
def qmap():
    """Drinfeld-Pluecker data operations."""


@job(qmap, "validate")
@data_options
def qmap_validate(datum, data, data_file):
    from .quasimap import validate_dp
    try:
        beta = validate_dp(data or data_file)
    except QuasimapError as exc:
        return {"valid": False, "reason": str(exc)}
    return {"valid": True, "beta": list(beta)}


@job(qmap, "defect")
@data_options
def qmap_defect(datum, data, data_file):
    from .quasimap import defect_divisor
    dp = data or data_file
    div = defect_divisor(dp)
    return {**div.to_json(), "total": list(div.total())}


@job(qmap, "eval")
@data_options
@click.option("--at", type=click.Choice(["0", "inf"]), default="0",
              show_default=True)
def qmap_eval(datum, data, data_file, at):
    from .quasimap import evaluate
    coords = evaluate(data or data_file, at_infinity=(at == "inf"))
    return {"at": at, "coords": [[str(c) for c in vec] for vec in coords]}


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@main.group()
def dim():
    """Dimension calculators."""


@job(dim, "richardson")
@click.option("--v", type=ELEMENT, required=True)
@click.option("--w", type=ELEMENT, required=True)
def dim_richardson_cmd(datum, v, w):
    from .quasimap import EmptyRichardsonError, dim_richardson
    try:
        return {"empty": False, "dim": dim_richardson(datum, v, w)}
    except EmptyRichardsonError:
        return {"empty": True}


@job(dim, "parabolic")
@click.option("--j", type=INTS, default="", help="comma-separated subset of I")
@click.option("--beta", type=VECTOR, required=True)
@click.option("--w", type=WORD, required=True, help="finite word, e.g. '1,2' or 'e'")
def dim_parabolic_cmd(datum, j, beta, w):
    from .quasimap import dim_parabolic
    return {"dim": dim_parabolic(datum, j, beta, w)}


if __name__ == "__main__":
    main()
