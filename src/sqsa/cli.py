"""Config-driven experiment runner.

Subcommands: ``family``, ``pagree``, ``spectrum``, ``mixing``, ``certify``,
``oracle``.  Every run resolves its parameters as CLI flags over an
optional JSON config file over built-in defaults, embeds the resolved
config (plus tool version and a git-style blob hash of any input family
file) in the output, and is byte-for-byte reproducible from
``(config, seed)`` regardless of ``--jobs``.  Timing goes to stderr, not
into the output; a failure prints one JSON error line to stderr instead.

``pagree --method`` takes a key of :data:`sqsa.walk.AGREEMENT_METHODS`
(``spectral``, ``brute``, ``mc``) and reports its label (``spectral``,
``brute-force``, ``monte-carlo``).  Each ``oracle`` line is a whole
:class:`sqsa.sq.QueryRecord`, with its ``method`` and ``max_stderr``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
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
    agreement,
    expected_operator,
    expected_spectrum,
    fourier_matrix,
    mixing_scan,
    step_distribution,
)

__all__ = ["main"]

_DEFAULTS: dict[str, dict] = {
    "family": {"n": 5, "k": None, "m": 32, "p": 0.5, "seed": 0},
    "pagree": {
        "members": "0,1",
        "t": 10,
        "method": "spectral",
        "samples": 100_000,
        "seed": 0,
        "format": "json",
    },
    "spectrum": {"method": "expected", "n": 5, "p": 0.5, "members": "0,1", "format": "csv"},
    "mixing": {"members": "0,1", "t_max": 100, "format": "csv"},
    "certify": {"t": None, "d": None, "format": "json"},
    "oracle": {"t": 10, "tau": 0.1, "seed": 0, "samples": 100_000, "format": "jsonl"},
}

_FORMATS: dict[str, set[str]] = {
    "pagree": {"json"},
    "spectrum": {"csv", "json"},
    "mixing": {"csv", "json"},
    "certify": {"json"},
    "oracle": {"jsonl"},
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqsa",
        description="shuffle-semiautomaton agreement, spectrum, and SQ-oracle experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file; flags override its keys")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--jobs", type=int, help="worker threads (never changes results)")
        if name in _FORMATS:
            cmd.add_argument("--format", choices=sorted(_FORMATS[name]))
        return cmd

    family = add("family", "generate a shuffle family and write the family file")
    family.add_argument("--n", type=int, help="number of states")
    family.add_argument("--k", type=int, help="alphabet copies (default: gap threshold for n>=4, else 1)")
    family.add_argument("--m", type=int, help="number of members")
    family.add_argument("--p", type=float, help="Bernoulli mask parameter")
    family.add_argument("--seed", type=int)

    pagree = add("pagree", "agreement probability of a member pair")
    pagree.add_argument("--family", help="family file")
    pagree.add_argument("--members", help="pair of member indices, e.g. 0,1")
    pagree.add_argument("--t", type=int, help="word length")
    pagree.add_argument("--method", choices=list(AGREEMENT_METHODS))
    pagree.add_argument("--samples", type=int, help="Monte Carlo samples")
    pagree.add_argument("--seed", type=int, help="Monte Carlo seed")

    spectrum = add("spectrum", "expected-operator or realized Fourier-matrix spectrum")
    spectrum.add_argument("--method", choices=["expected", "realized"])
    spectrum.add_argument("--n", type=int, help="states (expected method)")
    spectrum.add_argument("--p", type=float, help="mask parameter (expected method)")
    spectrum.add_argument("--family", help="family file (realized method)")
    spectrum.add_argument("--members", help="pair of member indices (realized method)")

    mixing = add("mixing", "residual decay scan with closed-form envelopes")
    mixing.add_argument("--family", help="family file")
    mixing.add_argument("--members", help="pair of member indices")
    mixing.add_argument("--t-max", dest="t_max", type=int)

    certify = add("certify", "pairwise-correlation certificate over family members")
    certify.add_argument("--family", help="family file")
    certify.add_argument("--t", type=int, help="word length (default: mixing length for n)")
    certify.add_argument("--d", type=int, help="certificate dimension (default: family size)")

    oracle = add("oracle", "scripted adversarial-oracle session transcript")
    oracle.add_argument("--family", help="family file")
    oracle.add_argument("--t", type=int, help="word length")
    oracle.add_argument("--tau", type=float, help="query tolerance")
    oracle.add_argument("--seed", type=int, help="session seed for sampled statistics")
    oracle.add_argument("--samples", type=int, help="samples when enumeration is too large")
    oracle.add_argument("--queries", help="JSON file: list of {builtin, params}")
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags; the file may set the command's
    own flags except ``--out`` and ``--jobs``, and any other key is rejected."""
    accepted = set(vars(args)) - {"command", "config", "out", "jobs"}
    resolved = dict(_DEFAULTS[args.command])
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - accepted
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        resolved.update(loaded)
    for key in accepted:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    fmt = resolved.get("format")
    if fmt is not None and fmt not in _FORMATS[args.command]:
        raise ValueError(f"format {fmt!r} not supported by {args.command}")
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
    """``json.dumps`` hook: a dataclass becomes a dict, a Fraction ``"p/q"``."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, Fraction):
        return _fraction_text(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(value, indent: int | None = None) -> str:
    return json.dumps(value, sort_keys=True, indent=indent, default=_jsonable)


def _json_payload(meta: dict, result) -> bytes:
    return (_json_text({"meta": meta, "result": result}, indent=2) + "\n").encode()


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
    k = config["k"]
    if k is None:
        k = min_alphabet_copies(n) if n >= 4 else 1
        config["k"] = k
    family = build_family(FamilyConfig(n, int(k), int(config["m"]), float(config["p"]), int(config["seed"])))
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
    sha1 = None
    closed: list[Fraction | None]
    if config["method"] == "expected":
        n = int(config["n"])
        matrix = expected_operator(n, float(config["p"]))
        groups = _grouped_eigenvalues(matrix)
        closed_forms = [entry[0] for entry in expected_spectrum(n)] if n >= 4 else []
        closed = [closed_forms[i] if i < len(closed_forms) else None for i in range(len(groups))]
    elif config["method"] == "realized":
        family, sha1 = _load_family(config.get("family"))
        i, j = _parse_members(config["members"], family)
        matrix = fourier_matrix(step_distribution(family.members[i], family.members[j]))
        groups = _grouped_eigenvalues(matrix)
        closed = [None] * len(groups)
    else:
        raise ValueError(f"unknown spectrum method {config['method']!r}")
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
        result = dataclasses.asdict(scan)
        del result["n_states"]
        for point in result["points"]:
            point["T"] = point.pop("word_length")
        return _json_payload(meta, result)
    rows = [
        [
            str(point.word_length),
            _float17(point.p_agree),
            _float17(point.residual),
            _float17(point.upper_bound),
            _float17(point.lower_bound),
            "spectral",
        ]
        for point in scan.points
    ]
    header = ["T", "p_agree", "residual", "upper_bound", "lower_bound", "method"]
    return _csv_payload(meta, header, rows)


def _cmd_certify(config: dict, jobs: int) -> bytes:
    family, sha1 = _load_family(config.get("family"))
    t = config["t"]
    if t is None:
        t = min_word_length(family.config.n_states)
        config["t"] = t
    dim = config["d"]
    if dim is None:
        dim = len(family.members)
        config["d"] = dim
    report = certify_sq_dimension(family.members, int(t), int(dim))
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
        mc_samples=int(config["samples"]),
    )
    for index, entry in enumerate(scripted):
        if not isinstance(entry, dict) or "builtin" not in entry:
            raise ValueError(f"query {index} must be an object with a 'builtin' key, got {entry!r}")
        oracle_answer(session, StatQuery(entry["builtin"], entry.get("params", {})))
    lines = [_json_text(item) for item in (_meta("oracle", config, sha1), *session.ledger)]
    return ("\n".join(lines) + "\n").encode()


_COMMANDS = {
    "family": _cmd_family,
    "pagree": _cmd_pagree,
    "spectrum": _cmd_spectrum,
    "mixing": _cmd_mixing,
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = _resolve_config(args)
        jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
        payload = _COMMANDS[args.command](config, jobs)
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
