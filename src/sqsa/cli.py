"""Config-driven experiment runner.

Subcommands: ``family``, ``pagree``, ``spectrum``, ``mixing``, ``certify``,
``oracle``.  One table, :data:`_FLAGS`, declares each command's flags (type
or choices, default, help).  A run resolves its parameters as CLI flags over
an optional JSON config file (checked against that table) over the defaults,
embeds the resolved config (plus tool version and a git-style blob hash of
any input family file) in the output, and is byte-for-byte reproducible from
``(config, seed)`` regardless of ``--jobs``.  Timing goes to stderr, not into
the output; a failure prints one JSON error line to stderr instead.

``pagree --method`` takes a key of :data:`sqsa.walk.AGREEMENT_METHODS`
(``spectral``, ``brute``, ``mc``) and reports its label (``spectral``,
``brute-force``, ``monte-carlo``).  Each ``oracle`` line is a whole
:class:`sqsa.sq.QueryRecord`, with its ``method`` and ``max_stderr``; an
``oracle`` run samples only when ``--samples`` is given, and is exact
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import operator
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .automata import (
    FamilyConfig,
    ShuffleFamily,
    build_family,
    deserialize_family,
    min_alphabet_copies,
    min_word_length,
    serialize_family,
)
from .sq import StatQuery, certify_sq_dimension, make_session, oracle_answer
from .walk import (
    AGREEMENT_METHODS,
    MixingPoint,
    agreement,
    expected_operator,
    expected_spectrum,
    fourier_matrix,
    mixing_scan,
    step_distribution,
)

__all__ = ["main"]

_UNSET = object()  # no default: ``meta.config`` holds the flag only once it is set

# command -> flag -> (type, or the choices of a string flag; default; help text).
# The parser, the resolved defaults and the config-file checks all read it.
_FLAGS: dict[str, dict[str, tuple]] = {
    "family": {
        "n": (int, 5, "number of states"),
        "k": (int, None, "alphabet copies (default: gap threshold for n>=4, else 1)"),
        "m": (int, 32, "number of members"),
        "p": (float, 0.5, "Bernoulli mask parameter"),
        "seed": (int, 0, None),
    },
    "pagree": {
        "format": (("json",), "json", None),
        "family": (str, _UNSET, "family file"),
        "members": (str, "0,1", "pair of member indices, e.g. 0,1"),
        "t": (int, 10, "word length"),
        "method": (tuple(AGREEMENT_METHODS), "spectral", None),
        "samples": (int, 100_000, "Monte Carlo inputs: ceil(samples/n) words, each read from all n starts"),
        "seed": (int, 0, "Monte Carlo seed"),
    },
    "spectrum": {
        "format": (("csv", "json"), "csv", None),
        "method": (("expected", "realized"), "expected", None),
        "n": (int, 5, "states (expected method)"),
        "p": (float, 0.5, "mask parameter (expected method)"),
        "family": (str, _UNSET, "family file (realized method)"),
        "members": (str, "0,1", "pair of member indices (realized method)"),
    },
    "mixing": {
        "format": (("csv", "json"), "csv", None),
        "family": (str, _UNSET, "family file"),
        "members": (str, "0,1", "pair of member indices"),
        "t_max": (int, 100, None),
    },
    "certify": {
        "format": (("json",), "json", None),
        "family": (str, _UNSET, "family file"),
        "t": (int, None, "word length (default: mixing length for n)"),
        "d": (int, None, "certificate dimension (default: family size)"),
    },
    "oracle": {
        "format": (("jsonl",), "jsonl", None),
        "family": (str, _UNSET, "family file"),
        "t": (int, 10, "word length"),
        "tau": (float, 0.1, "query tolerance"),
        "seed": (int, 0, "session seed for sampled statistics"),
        "samples": (int, None, "Monte Carlo inputs per query (words read from all n starts); omit for exact"),
        "queries": (str, _UNSET, "JSON file: list of {builtin, params}"),
    },
}

# command -> flag -> the one method that reads it; a run of another method leaves
# the flag out of ``meta.config`` and refuses it when a flag or config key sets it
_METHOD_FLAGS: dict[str, dict[str, str]] = {
    "spectrum": {"n": "expected", "p": "expected", "family": "realized", "members": "realized"},
}


def _float17(value: float) -> str:
    return format(float(value), ".17g")


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _git_blob_sha1(data: bytes) -> str:
    digest = hashlib.sha1()
    digest.update(b"blob %d\x00" % len(data))
    digest.update(data)
    return digest.hexdigest()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; every flag but ``--config``, ``--out``
    and ``--jobs`` is read from :data:`_FLAGS` and left ``None`` when not given."""
    parser = argparse.ArgumentParser(
        prog="sqsa",
        description="shuffle-semiautomaton agreement, spectrum, and SQ-oracle experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file; flags override its keys")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--jobs", type=int, help="worker threads (never changes results)")
        for key, (kind, _, flag_help) in _FLAGS[name].items():
            choices = kind if isinstance(kind, tuple) else None
            flag = "--" + key.replace("_", "-")
            cmd.add_argument(flag, type=None if choices else kind, choices=choices, help=flag_help)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags; the file may set the command's
    own flags except ``--out`` and ``--jobs``, and any other key is rejected.

    A file value must have its flag's type: an int flag takes an integer
    (not a boolean), a float flag a number, a string flag a string, and a
    flag with choices one of them; ``null`` is taken only where the default
    is unset.  A flag that only another method reads (:data:`_METHOD_FLAGS`)
    is refused when set and dropped otherwise.  The value that runs is then
    the value that ``meta.config`` echoes.
    """
    flags = _FLAGS[args.command]
    resolved = {key: default for key, (_, default, _) in flags.items() if default is not _UNSET}
    given = set()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        for key, value in loaded.items():
            kind, default, _ = flags[key]
            if value is None and (default is None or default is _UNSET):
                continue
            if isinstance(kind, tuple):
                wanted, fits = f"one of {list(kind)}", value in kind
            else:
                allowed = (int, float) if kind is float else (kind,)
                wanted = " or ".join(json_type.__name__ for json_type in allowed)
                fits = isinstance(value, allowed) and not isinstance(value, bool)
            if not fits:
                raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")
        resolved.update(loaded)
        given.update(loaded)
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
            given.add(key)
    for key, method in _METHOD_FLAGS.get(args.command, {}).items():
        if resolved["method"] != method:
            if key in given:
                raise ValueError(
                    f"{args.command} --method {resolved['method']} does not read {key!r}; "
                    f"only --method {method} does"
                )
            resolved.pop(key, None)
    return resolved


def _parse_members(text: str, family: ShuffleFamily) -> tuple[int, int]:
    try:
        first, second = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--members must be two comma-separated indices, got {text!r}") from exc
    for index in (first, second):
        if not 0 <= index < len(family.members):
            raise ValueError(f"member index {index} out of range (family has {len(family.members)})")
    return first, second


def _load_family(path: str | None) -> tuple[ShuffleFamily, str]:
    if not path:
        raise ValueError("this command needs --family")
    data = Path(path).read_bytes()
    return deserialize_family(data), _git_blob_sha1(data)


def _meta(command: str, config: dict, family_sha1: str | None) -> dict:
    meta = {
        "tool": "sqsa",
        "version": __version__,
        "command": command,
        "config": config,
    }
    if family_sha1 is not None:
        meta["family_blob_sha1"] = family_sha1
    return meta


def _jsonable(value):
    """``json.dumps`` hook: a dataclass becomes a dict of its fields (nested
    values come back through this hook), a Fraction ``"p/q"``."""
    if dataclasses.is_dataclass(value):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return _fraction_text(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(value, indent: int | None = None) -> str:
    return json.dumps(value, sort_keys=True, indent=indent, default=_jsonable)


def _json_payload(meta: dict, result) -> bytes:
    return (_json_text({"meta": meta, "result": result}, indent=2) + "\n").encode()


_TABLE = "\0table"  # stands in for a table in a payload until the table's text replaces it


def _table_text(keys: list[str], values: list, depth: int) -> str:
    """``json.dumps(rows, indent=2, sort_keys=True)`` of rows that map the sorted
    ``keys`` to numbers, ``values`` row after row, for a list ``depth`` levels deep.

    With ``indent`` set, ``json`` takes its pure-Python encoder; here every
    value goes through the C encoder in one call, into one ``%`` template of the rows.
    """
    texts = json.dumps(values)[1:-1].split(", ")  # numbers never hold ", "
    pad = "  " * depth
    row = "{\n" + ",\n".join(f"{pad}    {json.dumps(key)}: %s" for key in keys) + f"\n{pad}  }}"
    rows = f",\n{pad}  ".join([row] * (len(texts) // len(keys)))  # numbers never hold "%"
    return f"[\n{pad}  " + rows % tuple(texts) + f"\n{pad}]"


def _csv_payload(meta: dict, header: list[str], rows: list[list[str]]) -> bytes:
    lines = [
        f"# tool: sqsa {meta['version']}",
        f"# command: {meta['command']}",
        "# config: " + json.dumps(meta["config"], sort_keys=True),
    ]
    if "family_blob_sha1" in meta:
        lines.append(f"# family_blob_sha1: {meta['family_blob_sha1']}")
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _cmd_family(config: dict, jobs: int) -> bytes:
    n = int(config["n"])
    if config["k"] is None:
        config["k"] = min_alphabet_copies(n) if n >= 4 else 1
    family = build_family(FamilyConfig(n, int(config["k"]), int(config["m"]), float(config["p"]), int(config["seed"])))
    return serialize_family(family)


def _cmd_pagree(config: dict, jobs: int) -> bytes:
    family, sha1 = _load_family(config.get("family"))
    i, j = _parse_members(config["members"], family)
    a, b = family.members[i], family.members[j]
    samples, seed = int(config["samples"]), int(config["seed"])
    report = agreement(config["method"], a, b, int(config["t"]), samples, seed, jobs)
    return _json_payload(_meta("pagree", config, sha1), report)


def _grouped_eigenvalues(matrix: np.ndarray, tol: float = 1e-8) -> list[tuple[float, int]]:
    values = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)[::-1]
    groups: list[tuple[float, int]] = []
    for value in values:
        if groups and abs(groups[-1][0] - value) <= tol:
            top, count = groups[-1]
            groups[-1] = (top, count + 1)
        else:
            groups.append((float(value), 1))
    return groups


def _cmd_spectrum(config: dict, jobs: int) -> bytes:
    sha1, closed_forms = None, []
    if config["method"] == "expected":
        n = int(config["n"])
        matrix = expected_operator(n, float(config["p"]))
        closed_forms = expected_spectrum(n, Fraction(repr(float(config["p"])))) if n >= 4 else []
    else:
        family, sha1 = _load_family(config.get("family"))
        i, j = _parse_members(config["members"], family)
        matrix = fourier_matrix(step_distribution(family.members[i], family.members[j]))
    groups = _grouped_eigenvalues(matrix)
    # tiny p merges blocks in the grouping; pair closed forms only where the blocks line up
    matched = [count for _, count in groups] == [count for _, count in closed_forms]
    closed = [value for value, _ in closed_forms] if matched else [None] * len(groups)
    meta = _meta("spectrum", config, sha1)
    if config["format"] == "json":
        result = [
            {"eigenvalue": value, "multiplicity": count, "closed_form": frac}
            for (value, count), frac in zip(groups, closed)
        ]
        return _json_payload(meta, result)
    rows = [
        [_float17(value), str(count), "" if frac is None else _fraction_text(frac)]
        for (value, count), frac in zip(groups, closed)
    ]
    return _csv_payload(meta, ["eigenvalue", "multiplicity", "closed_form"], rows)


def _cmd_mixing(config: dict, jobs: int) -> bytes:
    family, sha1 = _load_family(config.get("family"))
    i, j = _parse_members(config["members"], family)
    scan = mixing_scan(family.members[i], family.members[j], int(config["t_max"]))
    meta = _meta("mixing", config, sha1)
    if config["format"] == "json":
        result = {key: value for key, value in vars(scan).items() if key != "n_states"}
        result["points"] = _TABLE
        fields = {"T" if name == "word_length" else name: name for name in MixingPoint._fields}
        keys = sorted(fields)
        row = operator.attrgetter(*(fields[key] for key in keys))
        values = [value for point in scan.points for value in row(point)]
        table = _table_text(keys, values, depth=2)
        return _json_payload(meta, result).replace(json.dumps(_TABLE).encode(), table.encode(), 1)
    rows = [[str(t), *map(_float17, values), "spectral"] for t, *values in scan.points]
    header = ["T", "p_agree", "residual", "upper_bound", "lower_bound", "method"]
    return _csv_payload(meta, header, rows)


def _cmd_certify(config: dict, jobs: int) -> bytes:
    family, sha1 = _load_family(config.get("family"))
    if config["t"] is None:
        config["t"] = min_word_length(family.config.n_states)
    if config["d"] is None:
        config["d"] = len(family.members)
    report = certify_sq_dimension(family.members, int(config["t"]), int(config["d"]))
    return _json_payload(_meta("certify", config, sha1), report)


def _cmd_oracle(config: dict, jobs: int) -> bytes:
    family, sha1 = _load_family(config.get("family"))
    queries_path = config.get("queries")
    if not queries_path:
        raise ValueError("oracle needs --queries (JSON list of {builtin, params})")
    with open(queries_path, "r", encoding="utf-8") as handle:
        scripted = json.load(handle)
    if not isinstance(scripted, list):
        raise ValueError("queries file must hold a JSON list")
    session = make_session(
        family,
        int(config["t"]),
        float(config["tau"]),
        seed=int(config["seed"]),
        mc_samples=None if config["samples"] is None else int(config["samples"]),
    )
    for index, entry in enumerate(scripted):
        if not isinstance(entry, dict) or not isinstance(entry.get("builtin"), str):
            raise ValueError(f"query {index} must be an object with a 'builtin' key, got {entry!r}")
        oracle_answer(session, StatQuery(entry["builtin"], entry.get("params", {})), jobs)
    lines = [_json_text(item) for item in (_meta("oracle", config, sha1), *session.ledger)]
    return ("\n".join(lines) + "\n").encode()


# command -> (handler, help text)
_COMMANDS = {
    "family": (_cmd_family, "generate a shuffle family and write the family file"),
    "pagree": (_cmd_pagree, "agreement probability of a member pair"),
    "spectrum": (_cmd_spectrum, "expected-operator or realized Fourier-matrix spectrum"),
    "mixing": (_cmd_mixing, "residual decay scan with closed-form envelopes"),
    "certify": (_cmd_certify, "pairwise-correlation certificate over family members"),
    "oracle": (_cmd_oracle, "scripted adversarial-oracle session transcript"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = _resolve_config(args)
        if args.jobs is not None and args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        jobs = args.jobs or os.cpu_count() or 1
        payload = _COMMANDS[args.command][0](config, jobs)
        if args.out:
            Path(args.out).write_bytes(payload)
            destination = args.out
        elif args.command == "family":
            raise ValueError("family output is binary; pass --out")
        else:
            sys.stdout.write(payload.decode())
            sys.stdout.flush()
            destination = "stdout"
    except Exception as exc:  # noqa: BLE001 - single machine-readable failure path
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    print(
        f"sqsa {args.command}: wrote {len(payload)} bytes to {destination} in {elapsed:.3f}s",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
