"""Experiment driver.

Every library operation is a subcommand, registered once in a command
table with its flags and a runner whose result ``main`` emits.  Reports
are deterministic: sorted keys, no timestamps, atomic file writes, and
an embedded schema_version plus the fully resolved configuration, so a
rerun with identical arguments and seed is byte-identical.

Exit codes: 0 success, 2 validation or precondition failure (with a
machine-readable JSON object on stderr), 64 unknown subcommand, 65
malformed config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .errors import InvalidInputError, LacunaError
from .extremal import (
    ExtremalConfig,
    blowup_probe,
    growth_exponent,
    maximize_ratio,
    trig_family,
    walsh_family,
)
from .inverse import (
    TrigContext,
    WalshContext,
    build_summation_matrix,
    inverse_bound_experiment,
    inverse_parseval_check,
)
from .lacunary import (
    LacunarySequence,
    counterexample_sequence,
    critical_lambda,
    enumerate_index_set,
    geometric_sequence,
    head_partition,
    representations,
    validate_lacunary,
)
from .measure import IntervalSet, energy_on_set
from .trig import (
    TrigPolynomial,
    khintchine_ratio,
    lp_norm_trig,
    lp_norm_walsh,
    modulation_projection,
    riesz_product,
)
from .walsh import (
    DyadicPoint,
    WalshIndex,
    WalshPolynomial,
    find_alpha,
    recover_coefficient,
    shift_sum,
)

SCHEMA_VERSION = "1"


class _CliFailure(Exception):
    def __init__(self, code: int, payload: dict):
        super().__init__(payload.get("message", ""))
        self.code = code
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliFailure(2, {"error": "invalid-input", "message": message})


def _config_failure(message: str) -> _CliFailure:
    return _CliFailure(65, {"error": "malformed-config", "message": message})


def _parse_list(text: str, cast=int) -> list:
    return [cast(tok) for tok in text.split(",") if tok.strip() != ""]


def _list_flag(cast):
    """The type of a comma-separated flag: parses the list to check it and
    keeps the raw string, so the resolved config stays primitive."""

    def csv(text: str) -> str:  # argparse names it in errors
        _parse_list(text, cast)
        return text

    return csv


_INT_LIST, _FLOAT_LIST = _list_flag(int), _list_flag(float)


def _load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path} does not hold a JSON object")
    return data


def _load_poly(path: str, kind: str):
    decoder = WalshPolynomial if kind == "walsh" else TrigPolynomial
    return decoder.from_json_dict(_load_json_file(path))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lacuna-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(args) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in ("output", "config")}
    return {"schema_version": SCHEMA_VERSION, "config": config}


def _report_text(args, body: dict) -> str:
    # the header wins over body keys of the same name, so every report
    # carries the CLI's resolved configuration
    report = {**body, **_header(args)}
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _jsonl_text(args, rows: list) -> str:
    lines = [json.dumps(_header(args), sort_keys=True)]
    lines.extend(json.dumps(row, sort_keys=True) for row in rows)
    return "\n".join(lines) + "\n"


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, result, scalar: bool) -> None:
    """A scalar prints bare (with --output, a report's "value"); a dict
    becomes a JSON report; a CSV or JSONL string is written as is."""
    if scalar and not args.output:
        text = (repr(result) if isinstance(result, float) else str(result)) + "\n"
    elif scalar:
        value = result if isinstance(result, (int, float)) else str(result)
        text = _report_text(args, {"value": value})
    elif isinstance(result, dict):
        text = _report_text(args, result)
    else:
        text = result
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# the command table


_COMMANDS = {}


def _command(name: str, *rows, formats=("json",), scalar=False):
    """Register the runner of subcommand ``name``: ``rows`` are its (flag,
    add_argument keywords) pairs, ``formats`` its --format choices, and
    ``scalar`` marks a runner that returns a bare value."""

    def register(run):
        _COMMANDS[name] = (rows, formats, scalar, run)
        return run

    return register


def _flag(name: str, **kwargs) -> tuple:
    return (name, kwargs)


_L = _flag("--l", type=int, required=True)
_M = _flag("--m", type=int, required=True)
_P = _flag("--p", type=float, required=True)
_POLY = _flag("--poly", type=str, required=True)
_KIND = _flag("--kind", type=str, required=True, choices=("trig", "walsh"))
_SET = _flag("--set", type=str, required=True)
_VARIANT = _flag("--variant", type=str, default="signed")
_SEQUENCE = (
    _flag("--terms", type=_INT_LIST, default=None, help="comma-separated terms"),
    _flag("--lam", type=str, default=None, help="lacunarity witness, e.g. 3/2"),
    _flag("--ratio", type=int, default=None, help="geometric base instead of terms"),
    _flag("--length", type=int, default=None, help="geometric length"),
)
_CONTEXT = (
    _KIND,
    *_SEQUENCE,
    _L,
    _flag("--d", type=int, default=None, help="representation bound (trig)"),
)
_FAMILY = (
    _flag("--family", type=str, required=True, choices=("walsh", "trig")),
    _L,
    _flag("--exponent-budget", type=int, default=None),
    *_SEQUENCE,
)
_SEARCH = (
    _flag("--restarts", type=int, default=ExtremalConfig.restarts),
    _flag("--max-iter", type=int, default=ExtremalConfig.max_iter),
    _flag("--seed", type=int, default=ExtremalConfig.seed),
    _flag("--oversample", type=int, default=ExtremalConfig.oversample),
)


def _sequence_from_args(args) -> LacunarySequence:
    if args.terms is not None:
        terms = tuple(_parse_list(args.terms))
        if args.lam is None:
            raise InvalidInputError("--terms needs --lam (exact rational witness)")
        return LacunarySequence(terms, lam=Fraction(args.lam))
    if args.ratio is not None and args.length is not None:
        lam = Fraction(args.lam) if args.lam is not None else None
        return geometric_sequence(args.ratio, args.length, lam=lam)
    raise InvalidInputError("supply --terms with --lam, or --ratio with --length")


def _context_from_args(args):
    if args.kind == "trig":
        return TrigContext(sequence=_sequence_from_args(args), order=args.l, d=args.d)
    return WalshContext(order=args.l)


def _family_from_args(args):
    if args.family == "walsh":
        if args.exponent_budget is None:
            raise InvalidInputError("walsh family needs --exponent-budget")
        return walsh_family(args.l, args.exponent_budget)
    return trig_family(_sequence_from_args(args), args.l)


def _extremal_config(args) -> ExtremalConfig:
    return ExtremalConfig(
        restarts=args.restarts,
        max_iter=args.max_iter,
        seed=args.seed,
        oversample=args.oversample,
    )


@_command("lambda", _L, scalar=True)
def _run_lambda(args):
    return critical_lambda(args.l)


@_command(
    "validate",
    _flag("--terms", type=_INT_LIST, required=True),
    _flag("--lam", type=str, required=True),
)
def _run_validate(args):
    return validate_lacunary(_parse_list(args.terms), Fraction(args.lam))


@_command("enumerate", *_SEQUENCE, _L, _VARIANT)
def _run_enumerate(args):
    seq = _sequence_from_args(args)
    return enumerate_index_set(seq, args.l, args.variant).to_json_dict()


@_command("reps", *_SEQUENCE, _M, _L, _VARIANT)
def _run_reps(args):
    found = representations(_sequence_from_args(args), args.m, args.l, args.variant)
    return {
        "m": args.m,
        "count": len(found),
        "representations": [
            {"indices": list(r.indices), "signs": list(r.signs), "head": r.head}
            for r in found
        ],
    }


@_command("heads", *_SEQUENCE, _L, _VARIANT)
def _run_heads(args):
    iset = enumerate_index_set(_sequence_from_args(args), args.l, args.variant)
    return head_partition(iset).to_json_dict()


@_command("counterexample", _L, _flag("--m-max", type=int, required=True))
def _run_counterexample(args):
    seq, report = counterexample_sequence(args.l, args.m_max)
    return {**report, "terms": [str(t) for t in seq.terms]}


@_command(
    "walsh-shift",
    _flag("--n", type=int, required=True),
    _M,
    _flag("--alpha", type=str, required=True, help="dyadic point, e.g. 3/8"),
    scalar=True,
)
def _run_walsh_shift(args):
    return shift_sum(
        WalshIndex.from_value(args.n),
        WalshIndex.from_value(args.m),
        DyadicPoint.parse(args.alpha),
    )


@_command(
    "find-alpha",
    _flag("--set", type=str, required=True, help="e.g. 0/1:15/16"),
    _flag("--exponents", type=_INT_LIST, required=True),
    scalar=True,
)
def _run_find_alpha(args):
    E = IntervalSet.parse(args.set)
    point = find_alpha(E, tuple(_parse_list(args.exponents)))
    return "absent" if point is None else point.as_fraction()


@_command(
    "recover",
    _flag("--poly", type=str, required=True, help="walsh polynomial JSON file"),
    _M,
    _flag("--alpha", type=str, required=True),
    scalar=True,
)
def _run_recover(args):
    S = _load_poly(args.poly, "walsh")
    return recover_coefficient(
        S, WalshIndex.from_value(args.m), DyadicPoint.parse(args.alpha)
    )


@_command(
    "norm", _POLY, _KIND, _P, _flag("--oversample", type=int, default=8), scalar=True
)
def _run_norm(args):
    S = _load_poly(args.poly, args.kind)
    if args.kind == "trig":
        return lp_norm_trig(S, args.p, oversample=args.oversample)
    return lp_norm_walsh(S, args.p)


@_command("ratio", _POLY, _KIND, _P, scalar=True)
def _run_ratio(args):
    return khintchine_ratio(_load_poly(args.poly, args.kind), args.p)


@_command(
    "riesz",
    _flag("--freqs", type=_INT_LIST, required=True),
    _flag("--signs", type=_INT_LIST, default=None),
)
def _run_riesz(args):
    freqs = tuple(_parse_list(args.freqs))
    signs = (
        tuple(_parse_list(args.signs))
        if args.signs is not None
        else tuple(1 for _ in freqs)
    )
    return riesz_product(freqs, signs).to_json_dict()


@_command("project", _M, _flag("--freqs", type=_INT_LIST, required=True), scalar=True)
def _run_project(args):
    return modulation_projection(args.m, tuple(_parse_list(args.freqs)))


@_command("energy", _POLY, _KIND, _SET, scalar=True)
def _run_energy(args):
    S = _load_poly(args.poly, args.kind)
    return energy_on_set(S, IntervalSet.parse(args.set))


@_command("inverse-check", _POLY, _SET, *_CONTEXT)
def _run_inverse_check(args):
    S = _load_poly(args.poly, args.kind)
    report = inverse_parseval_check(
        S, IntervalSet.parse(args.set), _context_from_args(args)
    )
    return report.to_json_dict()


def _matrix_from_args(args, coeffs):
    order = sorted(coeffs) if args.order is None else _parse_list(args.order)
    data = {}
    if args.matrix_kind != "prefix-of-rearrangement":
        if args.matrix_file is None:
            raise InvalidInputError(f"{args.matrix_kind} needs --matrix-file")
        data = _load_json_file(args.matrix_file)
    return build_summation_matrix(
        args.matrix_kind,
        order=order,
        sets=data.get("sets"),
        rows=data.get("rows"),
        bound=data.get("bound", args.bound),
    )


@_command(
    "matrix-experiment",
    _flag("--coeffs", type=str, required=True, help="polynomial JSON file"),
    _SET,
    *_CONTEXT,
    _flag(
        "--matrix-kind",
        type=str,
        default="prefix-of-rearrangement",
        choices=("prefix-of-rearrangement", "nested-sets", "custom"),
    ),
    _flag("--order", type=_INT_LIST, default=None, help="prefix column order"),
    _flag("--matrix-file", type=str, default=None, help="sets/rows JSON file"),
    _flag("--bound", type=float, default=1.0),
    _flag("--n-max", type=int, default=None),
    formats=("json", "csv"),
)
def _run_matrix_experiment(args):
    poly = _load_poly(args.coeffs, args.kind)
    coeffs = dict(poly.coefficients)
    matrix = _matrix_from_args(args, coeffs)
    report = inverse_bound_experiment(
        coeffs,
        matrix,
        IntervalSet.parse(args.set),
        _context_from_args(args),
        n_max=args.n_max,
    )
    rows = [r.to_json_dict() for r in report.rows]
    if args.format == "csv":
        header = ["n", "energy", "mass", "bound", "pass"]
        return _csv_text(header, [[row[key] for key in header] for row in rows])
    summary = report.to_json_dict()
    del summary["rows"]
    return _jsonl_text(args, rows + [{"summary": summary}])


@_command("extremal", *_FAMILY, _P, *_SEARCH)
def _run_extremal(args):
    result = maximize_ratio(_family_from_args(args), args.p, _extremal_config(args))
    return result.to_json_dict()


@_command(
    "growth",
    *_FAMILY,
    _flag("--p-list", type=_FLOAT_LIST, required=True),
    *_SEARCH,
    formats=("json", "csv"),
)
def _run_growth(args):
    report = growth_exponent(
        _family_from_args(args),
        _parse_list(args.p_list, float),
        _extremal_config(args),
    )
    if args.format == "csv":
        return _csv_text(["p", "ratio"], report.to_csv_rows())
    return report.to_json_dict()


@_command(
    "blowup",
    _L,
    _P,
    _flag("--degree-list", type=_INT_LIST, required=True),
    _flag("--seed", type=int, default=0),
    formats=("json", "csv"),
)
def _run_blowup(args):
    report = blowup_probe(
        args.l, args.p, _parse_list(args.degree_list), seed=args.seed
    )
    if args.format == "csv":
        rows = [[r.budget, r.ratio_critical, r.ratio_control] for r in report.rows]
        return _csv_text(["budget", "ratio_critical", "ratio_control"], rows)
    return report.to_json_dict()


# ---------------------------------------------------------------------------
# parsing and dispatch


def _build_parser(name: str, rows: tuple, formats: tuple):
    """The subcommand's parser and its actions keyed by dest."""
    parser = _Parser(prog=f"lacuna {name}", description=None, allow_abbrev=False)
    rows += (
        _flag("--output", type=str, default=None, help="report file path"),
        _flag("--format", type=str, default="json", choices=formats),
        _flag("--config", type=str, default=None, help="key=value config file"),
    )
    actions = {}
    for flag, kwargs in rows:
        action = parser.add_argument(flag, **kwargs)
        actions[action.dest] = action
    return parser, actions


def _scan_config_path(argv: list) -> str | None:
    """The last --config value, the one argparse keeps."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config":
            path = argv[i + 1] if i + 1 < len(argv) else None
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    return path


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _config_failure(f"cannot read {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _config_failure(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(actions: dict, raw: dict) -> dict:
    """Type each config value as its flag would, and check its choices."""
    typed = {}
    for key, text in raw.items():
        action = actions.get(key)
        if action is None:
            raise _config_failure(f"unknown config key {key!r}")
        try:
            value = action.type(text)
        except (ValueError, TypeError) as exc:
            raise _config_failure(f"bad value for {key!r}: {exc}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise _config_failure(
                f"bad value for {key!r}: {value!r} is not one of {choices}"
            )
        typed[key] = value
    return typed


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write("usage: lacuna <subcommand> [flags]\nsubcommands: ")
        sys.stdout.write(", ".join(_COMMANDS) + "\n")
        return 0
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        payload = {
            "error": "unknown-subcommand",
            "message": f"unknown subcommand {command!r}; expected one of "
            + ", ".join(_COMMANDS),
        }
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 64
    rows, formats, scalar, run = _COMMANDS[command]
    rest = argv[1:]
    try:
        parser, actions = _build_parser(command, rows, formats)
        config_path = _scan_config_path(rest)
        if config_path is not None:
            typed = _apply_config(actions, _load_config_file(config_path))
            parser.set_defaults(**typed)
            for dest in typed:
                actions[dest].required = False
        args = parser.parse_args(rest)
        _emit(args, run(args), scalar)
        return 0
    except _CliFailure as exc:
        sys.stderr.write(json.dumps(exc.payload, sort_keys=True) + "\n")
        return exc.code
    except LacunaError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        payload = {"error": "invalid-input", "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
