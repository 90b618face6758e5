"""Command-line front end, on the standard library.

Exit codes: 0 success, 2 usage/validation error, 3 a failed cross-check
(with a machine-readable error object on stdout).  Results are
deterministic for a fixed command line and code version; the cache
(SILC_CACHE, default .silc-cache) only short-circuits the computation and
never changes the bytes written to stdout ("cached" status goes to stderr).

Each subcommand is a compute function ``(datum, **options) -> payload``
registered with ``job`` with a table of its options: a parse function
``parse(datum, text)`` and a default text, or REQUIRED, for each.  ``run``
collects the text of every option first, an option's value being the
next token (so ``--window -2:2`` works) or the text after ``--flag=``,
builds the root datum of ``--type``/``--rank``, then parses each option
against it.  ``run`` owns the cache key, the cache and the exit codes.
Each compute function imports the modules it calls, so a process loads
only what it runs.
"""

from __future__ import annotations

import json
import sys
from reprlib import repr as brief  # an Error: line shortens long option text

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


# in the message of Python's int-from-str digit limit
DIGIT_LIMIT = "set_int_max_str_digits"


class UsageError(Exception):
    """A command line that cannot run; it exits 2, as USAGE_ERRORS do."""


def _clip(token):
    """A command-line token as given, or its ends around '...' when it is
    longer than the 30 letters to which reprlib.repr shortens text."""
    return token if len(token) <= 30 else f"{token[:13]}...{token[-14:]}"


# ---------------------------------------------------------------------------
# option parsers: parse(datum, text) -> value
# ---------------------------------------------------------------------------

def _int(datum, text):
    return int(text)


def _positive(datum, text):
    if int(text) < 1:
        raise ValueError(f"{brief(int(text))} is smaller than the minimum 1")
    return int(text)


def _choice(*values):
    def parse(datum, text):
        if text not in values:
            raise ValueError(f"{brief(text)} is not one of {', '.join(values)}")
        return text
    return parse


# four times the longest reduced word of a supported type (B16 and C16, 256
# letters); a longer word is refused before any product is formed
MAX_WORD_LETTERS = 1024


def _bound_word(text):
    """Refuse text of more than MAX_WORD_LETTERS comma-separated letters."""
    if text.count(",") >= MAX_WORD_LETTERS:
        raise ValueError(f"a word has more than {MAX_WORD_LETTERS} letters")


def _ints(datum, text):
    """Comma-separated integers, every letter nonempty; blank text is ()."""
    _bound_word(text)
    return tuple(int(t) for t in text.split(",")) if text.strip() else ()


def _vector(datum, text):
    vec = tuple(int(t) for t in text.split(","))
    if len(vec) != datum.rank:
        raise ValueError(f"needs {datum.rank} coordinates, got {len(vec)}")
    return vec


def _window(datum, text):
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError as exc:
        if DIGIT_LIMIT in str(exc):  # _parse names the limit
            raise
        raise ValueError(f"window must look like 0:4, got {brief(text)}") from None
    if hi < lo:
        raise ValueError(f"window {brief(text)} is reversed: lo:hi needs lo <= hi")
    return lo, hi


# pieri and char gweyl build every qbar-degree from 0 up to hi, so their cost
# follows hi, not the width: cold on 2 cores (Python 3.11.7), the A1
# lambda = 3 table takes 2.6 s and 184 MB peak RSS at 0:400
MAX_WINDOW_HI = 400


def _built_window(datum, text):
    """A window whose every degree from 0 up is computed: hi is bounded."""
    lo, hi = _window(datum, text)
    if hi > MAX_WINDOW_HI:
        raise ValueError(f"window {brief(text)} ends above the maximum {MAX_WINDOW_HI}")
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # as OSError prints itself, the path shortened
        raise OSError(f"[Errno {exc.errno}] {exc.strerror}: {brief(path)}") from None
    return _dp(datum, text)


def _element(datum, text):
    _bound_word(text.partition("@")[0])
    return weyl_group(datum).parse(text)


def _word(datum, text):
    """A finite element by its word, 'e' for the identity."""
    return weyl_group(datum).finite_from_word(
        () if text.strip() == "e" else _ints(datum, text))


REQUIRED = object()
# the options of every subcommand; --no-cache, a flag, takes no value
COMMON = {"--type": (lambda datum, text: text, "A"),
          "--rank": (_int, REQUIRED),
          "--output": (_choice("json", "csv", "pretty"), "json")}
DATA = {"--data": (_dp, None), "--data-file": (_dp_file, None)}
# parsed, then passed to no compute function and kept out of the cache key
IGNORED = {"--depth"}


# ---------------------------------------------------------------------------
# the job runner
# ---------------------------------------------------------------------------

# "group name" or "name" -> (compute, option table, csv_rows)
COMMANDS = {}
GROUPS = {"order": "Semi-infinite Bruhat order queries.", "char": "Graded characters.",
          "qmap": "Drinfeld-Pluecker data operations.", "dim": "Dimension calculators."}


def job(command, options, csv_rows=None):
    """Register compute(datum, **options) -> payload as the subcommand
    `command`, with options {flag: (parse, default text or REQUIRED)}.  The
    cache key holds those not IGNORED; csv_rows(payload, datum) gives the
    (header, rows) of --output csv, which commands without it reject."""
    def register(compute):
        COMMANDS[command] = (compute, options, csv_rows)
        return compute

    return register


def _key(datum, value):
    """The JSON form of one parsed option in the cache key."""
    if isinstance(value, AffineWeylElement):
        return weyl_group(datum).format(value)
    if isinstance(value, FiniteWeylElement):
        return weyl_group(datum).reduced_word_finite(value)
    if hasattr(value, "to_json"):  # DPData
        return value.to_json()
    return value


def _collect(command, args):
    """Stage one: {flag: raw text} and --no-cache; --help prints and exits."""
    flags = COMMON.keys() | COMMANDS[command][1].keys()
    raw, no_cache, rest = {}, False, iter(args)
    for token in rest:
        flag, eq, value = token.partition("=")  # --flag=value or --flag value
        if token == "--help":
            _help(command)
        elif token == "--no-cache":
            no_cache = True
        elif flag in flags:
            raw[flag] = value if eq else next(rest, None)
            if raw[flag] is None:
                raise UsageError(f"Option '{flag}' requires an argument.")
        else:
            raise UsageError(f"No such option: {_clip(token)}" if token.startswith("-")
                             else f"Got unexpected extra argument ({_clip(token)})")
    return raw, no_cache


def _parse(table, raw, datum):
    """Stage two: {flag: value}, each option parsed against the datum."""
    values = {}
    for flag, (parse, default) in table.items():
        text = raw.get(flag, default)
        if text is REQUIRED:
            raise UsageError(f"Missing option '{flag}'.")
        try:
            values[flag] = None if text is None else parse(datum, text)
        except PARSE_ERRORS as exc:
            if DIGIT_LIMIT in str(exc):
                exc = f"an integer of more than {sys.get_int_max_str_digits()} digits"
            raise UsageError(f"Invalid value for '{flag}': {exc}")
    return values


def run(command, args):
    """Parse args for the subcommand, then compute, cache and print."""
    compute, table, csv_rows = COMMANDS[command]
    raw, no_cache = _collect(command, args)
    if DATA.keys() <= table.keys() and len(DATA.keys() & raw.keys()) != 1:
        raise UsageError("provide exactly one of --data / --data-file")
    common = _parse(COMMON, raw, None)
    datum = root_datum(common["--type"], common["--rank"])
    options = {flag[2:].replace("-", "_"): value
               for flag, value in _parse(table, raw, datum).items()
               if flag not in IGNORED}
    output = common["--output"]
    if output == "csv" and csv_rows is None:
        raise UsageError("csv output is not available for this command")
    key = cachemod.cache_key(command.replace(" ", "."), datum.cartan.entries,
                             {k: _key(datum, v) for k, v in options.items()})
    payload = None if no_cache else cachemod.load(key)
    if payload is not None:
        print("cached: true", file=sys.stderr)
    else:
        try:
            payload = compute(datum, **options)
        except COMPUTATION_ERRORS as exc:
            print(json.dumps({"error": {"type": type(exc).__name__,
                                        "message": str(exc)}}, sort_keys=True))
            sys.exit(3)
        if not no_cache:
            cachemod.store(key, payload)
    if output == "csv":
        header, rows = csv_rows(payload, datum)
        for row in (header, *rows):
            print(",".join(str(x) for x in row))
    else:
        indent = 2 if output == "pretty" else None
        print(json.dumps(payload, sort_keys=True, indent=indent,
                         separators=None if indent else (",", ":")))


def _help(command):
    """Print what may follow `silc command`, one line each; exit 0."""
    if command in COMMANDS:
        compute, table, _ = COMMANDS[command]
        doc, lines = compute.__doc__, {
            flag: "required" if default is REQUIRED else f"default {default!r}"
            for flag, (_, default) in {**table, **COMMON}.items()}
        lines.update({"--no-cache": "", "--help": ""})
    else:
        doc, lines = GROUPS.get(command, main.__doc__), {} if command else dict(GROUPS)
        lines.update((c.split()[-1], COMMANDS[c][0].__doc__) for c in COMMANDS
                     if c.rpartition(" ")[0] == command)
    print(f"Usage: {f'silc {command}'.strip()} ...\n\n{doc}\n")
    for word, line in lines.items():
        print(f"  {word:<16}{line}".rstrip())
    sys.exit(0)


def main(argv=None):
    """Exact invariants of semi-infinite flag varieties."""
    args = sys.argv[1:] if argv is None else list(argv)
    words = args[:2 if args and args[0] in GROUPS else 1]
    command = " ".join(words)
    try:
        if "--help" in words:
            _help(" ".join(words[:words.index("--help")]))
        if command not in COMMANDS:
            raise UsageError("Missing command." if command in ("", *GROUPS)
                             else f"No such command '{_clip(command)}'.")
        run(command, args[len(words):])
    except (UsageError, *USAGE_ERRORS) as exc:
        prog = f"silc {command}" if command in (*COMMANDS, *GROUPS) else "silc"
        print(f"Usage: {prog} [OPTIONS]\nTry '{prog} --help' for help.\n\n"
              f"Error: {exc}", file=sys.stderr)
        sys.exit(2)


# the two attributes through which click.testing.CliRunner invokes a command
main.name = "silc"
main.main = lambda args=None, prog_name=None: main(args)


def _char_csv(payload, datum):
    return (("q", "wt", "c"),
            [(t["q"], " ".join(str(x) for x in t["wt"]), t["c"])
             for t in payload["terms"]])


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------

@job("order le", {"--w": (_element, REQUIRED), "--v": (_element, REQUIRED)})
def order_le(datum, w, v):
    """Whether w <= v in the semi-infinite Bruhat order."""
    from .semiinf import si_order
    return {"result": si_order(datum).si_le(w, v)}


@job("order covers", {"--v": (_element, REQUIRED), "--height-bound": (_positive, "2")})
def order_covers(datum, v, height_bound):
    """The elements one step below v (every cover, at any --height-bound >= 1)."""
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


@job("order interval", {"--v": (_element, REQUIRED), "--w": (_element, REQUIRED),
                        "--radius": (_int, "2")}, _interval_csv)
def order_interval(datum, v, w, radius):
    """Every element between v and w (--radius is echoed, changes nothing)."""
    from .semiinf import si_order
    wg, so = weyl_group(datum), si_order(datum)
    return {"radius": radius,
            "elements": [{"element": wg.format(x), "si_length": so.si_length(x)}
                         for x in so.si_interval(v, w, radius)]}


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@job("char weyl", {"--lam": (_vector, REQUIRED)}, _char_csv)
def char_weyl(datum, lam):
    """The Weyl character of the dominant weight --lam."""
    from .charring import weyl_character
    return weyl_character(datum, lam).to_json()


@job("char gweyl", {"--w": (_element, REQUIRED), "--lam": (_vector, REQUIRED),
                    "--window": (_built_window, REQUIRED)}, _char_csv)
def char_gweyl(datum, w, lam, window):
    """The graded character of the global Weyl module of --lam at --w."""
    from .pieri import gch_global_weyl
    return gch_global_weyl(datum, w, lam, window).to_json()


@job("char demazure", {"--word": (_ints, REQUIRED), "--lam": (_vector, REQUIRED),
                       "--q": (_int, "0"), "--window": (_window, REQUIRED)}, _char_csv)
def char_demazure(datum, word, lam, q, window):
    """Demazure operators along --word (indices in 0..rank) on q^--q e^--lam."""
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


@job("pieri", {"--w": (_element, REQUIRED), "--lam": (_vector, REQUIRED),
               "--window": (_built_window, REQUIRED), "--depth": (_int, "3")},
     _pieri_csv)
def pieri_cmd(datum, w, lam, window):
    """The twist coefficients of --lam at --w on --window (--depth: no effect)."""
    from .pieri import compute_pieri
    return compute_pieri(datum, w, lam, window).to_json(weyl_group(datum))


@job("h0", {"--v": (_element, REQUIRED), "--w": (_element, REQUIRED),
            "--lam": (_vector, REQUIRED), "--window": (_window, None)})
def h0_cmd(datum, v, w, lam, window):
    """The dimension of sections of --lam on [--v, --w], and their --window."""
    from .pieri import smt_character
    full = smt_character(datum, v, w, lam)
    payload = {"dim": full.total()}
    if window is not None:
        payload["character"] = full.truncate(window).to_json()
    return payload


# ---------------------------------------------------------------------------
# quasi-maps: DPData as inline JSON (--data) or a JSON file (--data-file)
# ---------------------------------------------------------------------------

@job("qmap validate", DATA)
def qmap_validate(datum, data, data_file):
    """Whether the data is valid, with its degree beta."""
    from .quasimap import validate_dp
    try:
        beta = validate_dp(data or data_file)
    except QuasimapError as exc:
        return {"valid": False, "reason": str(exc)}
    return {"valid": True, "beta": list(beta)}


@job("qmap defect", DATA)
def qmap_defect(datum, data, data_file):
    """The defect divisor of the data."""
    from .quasimap import defect_divisor
    div = defect_divisor(data or data_file)
    return {**div.to_json(), "total": list(div.total())}


@job("qmap eval", {**DATA, "--at": (_choice("0", "inf"), "0")})
def qmap_eval(datum, data, data_file, at):
    """The data evaluated at 0 or at infinity."""
    from .quasimap import evaluate
    coords = evaluate(data or data_file, at_infinity=(at == "inf"))
    return {"at": at, "coords": [[str(c) for c in vec] for vec in coords]}


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@job("dim richardson", {"--v": (_element, REQUIRED), "--w": (_element, REQUIRED)})
def dim_richardson_cmd(datum, v, w):
    """The dimension of the Richardson variety [--v, --w], or empty."""
    from .quasimap import EmptyRichardsonError, dim_richardson
    try:
        return {"empty": False, "dim": dim_richardson(datum, v, w)}
    except EmptyRichardsonError:
        return {"empty": True}


@job("dim parabolic", {"--j": (_ints, ""), "--beta": (_vector, REQUIRED),
                       "--w": (_word, REQUIRED)})
def dim_parabolic_cmd(datum, j, beta, w):
    """The parabolic quasi-map dimension at --beta, for J = --j and --w ('e')."""
    from .quasimap import dim_parabolic
    return {"dim": dim_parabolic(datum, j, beta, w)}


if __name__ == "__main__":
    main()
