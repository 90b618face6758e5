"""Command-line front end.

Exit codes: 0 success, 2 usage/validation error, 3 computation error (with a
machine-readable error object on stdout).  Results are deterministic for a
fixed command line and code version; the cache (SILC_CACHE, default
.silc-cache) only short-circuits the computation and never changes the bytes
written to stdout ("cached" status goes to stderr).
"""

from __future__ import annotations

import json
import sys

import click

from . import cache as cachemod
from .cache import cache_key
from .charring import (
    CharacterError,
    GradedCharacter,
    demazure_word,
    gch_global_weyl,
    weyl_character,
)
from .pieri import (
    InconsistencyError,
    WindowExhaustedError,
    compute_pieri,
    h0_dimension,
    smt_character,
)
from .quasimap import (
    DPData,
    EmptyRichardsonError,
    QuasimapError,
    defect_divisor,
    dim_parabolic,
    dim_richardson,
    evaluate,
    validate_dp,
)
from .rootdata import RootDataError, root_datum
from .semiinf import si_order
from .weylgroup import weyl_group

COMPUTATION_ERRORS = (WindowExhaustedError, InconsistencyError)
# library errors about the input itself: reported as usage errors (exit 2)
USAGE_ERRORS = (CharacterError, QuasimapError, RootDataError)


def _datum(kind, rank):
    try:
        return root_datum(kind, rank)
    except RootDataError as exc:
        raise click.UsageError(str(exc))


def _parse_element(wg, text, field):
    try:
        return wg.parse(text)
    except (RootDataError, ValueError) as exc:
        raise click.UsageError(f"{field}: {exc}")


def _parse_weight(datum, text, field="lam"):
    try:
        lam = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"{field}: {exc}")
    if len(lam) != datum.rank:
        raise click.UsageError(
            f"{field} needs {datum.rank} coordinates, got {len(lam)}"
        )
    return lam


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError:
        raise click.UsageError(f"window must look like 0:4, got {text!r}")


def _emit(payload, output, csv_rows=None):
    if output == "csv":
        if csv_rows is None:
            raise click.UsageError("csv output is not available for this command")
        header, rows = csv_rows(payload)
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(str(x) for x in row))
        return
    indent = 2 if output == "pretty" else None
    click.echo(json.dumps(payload, sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":")))


def _run(command, datum, params, compute, output, no_cache, csv_rows=None):
    key = cache_key(command, datum.cartan.entries, params)
    payload = None if no_cache else cachemod.load(key)
    if payload is None:
        try:
            payload = compute()
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
    else:
        print("cached: true", file=sys.stderr)
    _emit(payload, output, csv_rows)


def common_options(f):
    f = click.option("--type", "kind", default="A", show_default=True,
                     help="Cartan type letter")(f)
    f = click.option("--rank", type=int, required=True)(f)
    f = click.option("--output", type=click.Choice(["json", "csv", "pretty"]),
                     default="json", show_default=True)(f)
    f = click.option("--no-cache", is_flag=True, default=False)(f)
    return f


def _char_csv(payload):
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


@order.command("le")
@common_options
@click.option("--w", required=True)
@click.option("--v", required=True)
def order_le(kind, rank, output, no_cache, w, v):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    we, ve = _parse_element(wg, w, "--w"), _parse_element(wg, v, "--v")
    _run("order.le", datum, {"w": wg.format(we), "v": wg.format(ve)},
         lambda: {"result": si_order(datum).si_le(we, ve)}, output, no_cache)


@order.command("covers")
@common_options
@click.option("--v", required=True)
@click.option("--height-bound", type=click.IntRange(min=1), default=2,
              show_default=True)
def order_covers(kind, rank, output, no_cache, v, height_bound):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    ve = _parse_element(wg, v, "--v")

    def compute():
        covers = si_order(datum).si_covers_below(ve, height_bound)
        return {
            "height_bound": height_bound,
            "covers": [
                {
                    "root": {"coords": list(alpha.root_coords),
                             "delta": alpha.delta_coeff},
                    "element": wg.format(x),
                }
                for alpha, x in covers
            ],
        }

    _run("order.covers", datum,
         {"v": wg.format(ve), "height_bound": height_bound},
         compute, output, no_cache)


@order.command("interval")
@common_options
@click.option("--v", required=True)
@click.option("--w", required=True)
@click.option("--radius", type=int, default=2, show_default=True)
def order_interval(kind, rank, output, no_cache, v, w, radius):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    ve, we = _parse_element(wg, v, "--v"), _parse_element(wg, w, "--w")

    def compute():
        so = si_order(datum)
        return {
            "radius": radius,
            "elements": [
                {"element": wg.format(x), "si_length": so.si_length(x)}
                for x in so.si_interval(ve, we)
            ],
        }

    def csv_rows(payload):
        return (("element", "si_length"),
                [(e["element"], e["si_length"]) for e in payload["elements"]])

    _run("order.interval", datum,
         {"v": wg.format(ve), "w": wg.format(we), "radius": radius},
         compute, output, no_cache, csv_rows)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@main.group()
def char():
    """Graded characters."""


@char.command("weyl")
@common_options
@click.option("--lam", required=True)
def char_weyl(kind, rank, output, no_cache, lam):
    datum = _datum(kind, rank)
    lam_t = _parse_weight(datum, lam)
    _run("char.weyl", datum, {"lam": list(lam_t)},
         lambda: weyl_character(datum, lam_t).to_json(),
         output, no_cache, _char_csv)


@char.command("gweyl")
@common_options
@click.option("--w", required=True)
@click.option("--lam", required=True)
@click.option("--window", required=True)
def char_gweyl(kind, rank, output, no_cache, w, lam, window):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    we = _parse_element(wg, w, "--w")
    lam_t = _parse_weight(datum, lam)
    win = _parse_window(window)
    _run("char.gweyl", datum,
         {"w": wg.format(we), "lam": list(lam_t), "window": list(win)},
         lambda: gch_global_weyl(datum, we, lam_t, win).to_json(),
         output, no_cache, _char_csv)


@char.command("demazure")
@common_options
@click.option("--word", required=True,
              help="comma-separated indices in {0,...,rank}")
@click.option("--lam", required=True, help="starting weight e^lam")
@click.option("--q", type=int, default=0, show_default=True,
              help="starting q-power")
@click.option("--window", required=True)
def char_demazure(kind, rank, output, no_cache, word, lam, q, window):
    datum = _datum(kind, rank)
    try:
        word_t = [int(t) for t in word.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"--word: {exc}")
    lam_t = _parse_weight(datum, lam)
    win = _parse_window(window)

    def compute():
        f = GradedCharacter.monomial(q, lam_t, 1, win)
        return demazure_word(datum, word_t, f).to_json()

    _run("char.demazure", datum,
         {"word": word_t, "lam": list(lam_t), "q": q, "window": list(win)},
         compute, output, no_cache, _char_csv)


# ---------------------------------------------------------------------------
# twist coefficients and section dimensions
# ---------------------------------------------------------------------------

@main.command("pieri")
@common_options
@click.option("--w", required=True)
@click.option("--lam", required=True)
@click.option("--window", required=True)
@click.option("--depth", type=int, default=3, show_default=True)
def pieri_cmd(kind, rank, output, no_cache, w, lam, window, depth):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    we = _parse_element(wg, w, "--w")
    lam_t = _parse_weight(datum, lam)
    win = _parse_window(window)

    def compute():
        return compute_pieri(datum, we, lam_t, win, depth).to_json(wg)

    def csv_rows(payload):
        rows = []
        for entry in payload["coeffs"]:
            u = wg.format(wg.from_json(entry["u"]))
            for t in entry["a"]["terms"]:
                rows.append((u, t["q"],
                             " ".join(str(x) for x in t["wt"]), t["c"]))
        return ("u", "qbar", "wt", "c"), rows

    _run("pieri", datum,
         {"w": wg.format(we), "lam": list(lam_t), "window": list(win),
          "depth": depth},
         compute, output, no_cache, csv_rows)


@main.command("h0")
@common_options
@click.option("--v", required=True)
@click.option("--w", required=True)
@click.option("--lam", required=True)
@click.option("--window", default=None,
              help="qbar-window for the reported character (default: full)")
@click.option("--depth", type=int, default=None)
def h0_cmd(kind, rank, output, no_cache, v, w, lam, window, depth):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    ve, we = _parse_element(wg, v, "--v"), _parse_element(wg, w, "--w")
    lam_t = _parse_weight(datum, lam)

    def compute():
        payload = {"dim": h0_dimension(datum, ve, we, lam_t, depth=depth)}
        if window is not None:
            win = _parse_window(window)
            payload["character"] = smt_character(
                datum, ve, we, lam_t, win, depth
            ).to_json()
        return payload

    _run("h0", datum,
         {"v": wg.format(ve), "w": wg.format(we), "lam": list(lam_t),
          "window": window, "depth": depth},
         compute, output, no_cache)


# ---------------------------------------------------------------------------
# quasi-maps
# ---------------------------------------------------------------------------

def _load_dp(data, data_file):
    if (data is None) == (data_file is None):
        raise click.UsageError("provide exactly one of --data / --data-file")
    try:
        if data_file is not None:
            with open(data_file, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        else:
            obj = json.loads(data)
        return DPData.from_json(obj)
    except (OSError, ValueError, KeyError, QuasimapError) as exc:
        raise click.UsageError(f"Drinfeld-Pluecker data: {exc}")


@main.group()
def qmap():
    """Drinfeld-Pluecker data operations."""


@qmap.command("validate")
@common_options
@click.option("--data", default=None, help="DPData as inline JSON")
@click.option("--data-file", default=None, help="path to a DPData JSON file")
def qmap_validate(kind, rank, output, no_cache, data, data_file):
    datum = _datum(kind, rank)
    dp = _load_dp(data, data_file)

    def compute():
        try:
            beta = validate_dp(dp)
        except QuasimapError as exc:
            return {"valid": False, "reason": str(exc)}
        return {"valid": True, "beta": list(beta.beta)}

    _run("qmap.validate", datum, {"data": dp.to_json()},
         compute, output, no_cache)


@qmap.command("defect")
@common_options
@click.option("--data", default=None)
@click.option("--data-file", default=None)
def qmap_defect(kind, rank, output, no_cache, data, data_file):
    datum = _datum(kind, rank)
    dp = _load_dp(data, data_file)

    def compute():
        try:
            div = defect_divisor(dp)
        except QuasimapError as exc:
            raise click.UsageError(str(exc))
        out = div.to_json()
        out["total"] = list(div.total(dp.rank))
        return out

    _run("qmap.defect", datum, {"data": dp.to_json()},
         compute, output, no_cache)


@qmap.command("eval")
@common_options
@click.option("--data", default=None)
@click.option("--data-file", default=None)
@click.option("--at", type=click.Choice(["0", "inf"]), default="0",
              show_default=True)
def qmap_eval(kind, rank, output, no_cache, data, data_file, at):
    datum = _datum(kind, rank)
    dp = _load_dp(data, data_file)

    def compute():
        try:
            coords = evaluate(dp, at_infinity=(at == "inf"))
        except QuasimapError as exc:
            raise click.UsageError(str(exc))
        return {"at": at,
                "coords": [[str(c) for c in vec] for vec in coords]}

    _run("qmap.eval", datum, {"data": dp.to_json(), "at": at},
         compute, output, no_cache)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@main.group()
def dim():
    """Dimension calculators."""


@dim.command("richardson")
@common_options
@click.option("--v", required=True)
@click.option("--w", required=True)
def dim_richardson_cmd(kind, rank, output, no_cache, v, w):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    ve, we = _parse_element(wg, v, "--v"), _parse_element(wg, w, "--w")

    def compute():
        try:
            return {"empty": False, "dim": dim_richardson(datum, ve, we)}
        except EmptyRichardsonError:
            return {"empty": True}

    _run("dim.richardson", datum, {"v": wg.format(ve), "w": wg.format(we)},
         compute, output, no_cache)


@dim.command("parabolic")
@common_options
@click.option("--j", "j_opt", default="", help="comma-separated subset of I")
@click.option("--beta", required=True)
@click.option("--w", required=True, help="finite word, e.g. '1,2' or 'e'")
def dim_parabolic_cmd(kind, rank, output, no_cache, j_opt, beta, w):
    datum = _datum(kind, rank)
    wg = weyl_group(datum)
    try:
        J = tuple(int(t) for t in j_opt.split(",") if t.strip() != "")
        beta_t = tuple(int(t) for t in beta.split(","))
        word = [] if w.strip() in ("e", "") else [int(t) for t in w.split(",")]
        wfin = wg.finite_from_word(word)
    except (ValueError, RootDataError) as exc:
        raise click.UsageError(str(exc))
    if len(beta_t) != datum.rank:
        raise click.UsageError(
            f"--beta needs {datum.rank} coordinates, got {len(beta_t)}"
        )

    def compute():
        try:
            return {"dim": dim_parabolic(datum, J, beta_t, wfin)}
        except QuasimapError as exc:
            raise click.UsageError(str(exc))

    _run("dim.parabolic", datum,
         {"J": sorted(J), "beta": list(beta_t), "w": word},
         compute, output, no_cache)


if __name__ == "__main__":
    main()
