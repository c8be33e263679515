import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sqsa.automata import (
    FamilyConfig,
    Semiautomaton,
    ShuffleFamily,
    deserialize_family,
    serialize_family,
)
from sqsa import cli
from sqsa.cli import main
from sqsa.walk import MixingPoint, MixingScan


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture()
def family_file(tmp_path):
    path = tmp_path / "family.sqsa"
    assert run_cli(["family", "--n", 4, "--k", 3, "--m", 6, "--seed", 11, "--out", path]) == 0
    return path


def test_family_file_is_loadable_and_deterministic(tmp_path, family_file):
    other = tmp_path / "again.sqsa"
    assert run_cli(["family", "--n", 4, "--k", 3, "--m", 6, "--seed", 11, "--out", other]) == 0
    assert family_file.read_bytes() == other.read_bytes()
    family = deserialize_family(family_file.read_bytes())
    assert family.config.n_states == 4
    assert len(family.members) == 6


def test_family_requires_out(capsys):
    assert run_cli(["family", "--n", 4, "--k", 1, "--m", 1]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])
    assert "binary" in error["error"]["message"]


@pytest.mark.parametrize(
    "flags", [["--n", 65536, "--k", 1, "--m", 1], ["--n", 2, "--k", 1, "--m", 2**32]]
)
def test_family_refuses_sizes_the_header_cannot_store_before_drawing(tmp_path, capsys, flags):
    # checked by the config: no 2 GB mask or 2**32 member draws before the header fails
    path = tmp_path / "f.sqsa"
    started = time.perf_counter()
    assert run_cli(["family", *flags, "--out", path]) == 1
    assert time.perf_counter() - started < 5.0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"]["type"] == "ValueError"
    assert "family header stores n in 16 bits" in json.loads(lines[0])["error"]["message"]
    assert not path.exists()


def test_family_default_copies_uses_threshold(tmp_path):
    path = tmp_path / "t.sqsa"
    assert run_cli(["family", "--n", 4, "--m", 2, "--out", path]) == 0
    assert deserialize_family(path.read_bytes()).config.n_copies == 309


def test_pagree_word_length_zero(family_file, capsys):
    assert run_cli(["pagree", "--family", family_file, "--members", "0,1", "--t", 0]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["p_agree"] == 1.0
    assert payload["meta"]["command"] == "pagree"
    assert payload["meta"]["family_blob_sha1"]


def test_pagree_methods_agree(family_file, capsys):
    assert run_cli(["pagree", "--family", family_file, "--t", 3, "--method", "spectral"]) == 0
    exact = json.loads(capsys.readouterr().out)["result"]
    assert run_cli(["pagree", "--family", family_file, "--t", 3, "--method", "brute"]) == 0
    brute = json.loads(capsys.readouterr().out)["result"]
    assert abs(exact["p_agree"] - brute["p_agree"]) < 1e-10
    assert brute["exact"] is not None


def test_pagree_monte_carlo_jobs_invariant(tmp_path, family_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["pagree", "--family", family_file, "--t", 5, "--method", "mc", "--samples", 5000, "--seed", 3]
    assert run_cli(base + ["--jobs", 1, "--out", out1]) == 0
    assert run_cli(base + ["--jobs", 4, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mixing_csv_deterministic_with_header(tmp_path, family_file):
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    base = ["mixing", "--family", family_file, "--members", "0,2", "--t-max", 12]
    assert run_cli(base + ["--out", out1]) == 0
    assert run_cli(base + ["--out", out2, "--jobs", 2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].startswith("# tool: sqsa")
    assert any(line.startswith("# family_blob_sha1: ") for line in lines)
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_index] == "T,p_agree,residual,upper_bound,lower_bound,method"
    rows = [line.split(",") for line in lines[header_index + 1 :]]
    assert len(rows) == 13
    assert float(rows[0][1]) == 1.0  # p_agree at T=0
    assert rows[0][5] == "spectral"
    # probabilities carry 17 significant digits
    assert any(len(row[1].replace("-", "").replace(".", "").lstrip("0")) >= 16 for row in rows[1:])


def test_mixing_json_format(family_file, capsys):
    assert run_cli(["mixing", "--family", family_file, "--t-max", 4, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["result"]["points"]) == 5
    assert "spectral_norm" in payload["result"]


@pytest.mark.parametrize("n", [4, 12])
def test_mixing_norm_is_the_top_realized_eigenvalue_exactly(tmp_path, capsys, n):
    # both read eigvalsh of the same symmetrised M; at the paper's copy count M is near PSD
    family = tmp_path / "f.sqsa"
    assert run_cli(["family", "--n", n, "--m", 2, "--seed", 5, "--out", family]) == 0
    common = ["--family", family, "--members", "0,1", "--format", "json"]
    assert run_cli(["mixing", *common, "--t-max", 3]) == 0
    mixing = json.loads(capsys.readouterr().out)["result"]
    assert run_cli(["spectrum", "--method", "realized", *common]) == 0
    groups = json.loads(capsys.readouterr().out)["result"]
    top, bottom = groups[0]["eigenvalue"], groups[-1]["eigenvalue"]
    assert top > abs(bottom) and mixing["spectral_norm"] == top
    # spectrum reports the largest value of its bottom cluster
    assert abs(mixing["min_eigenvalue"] - bottom) <= 1e-12


def test_spectrum_expected_matches_closed_form(capsys):
    assert run_cli(["spectrum", "--n", 5, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]
    assert [row["closed_form"] for row in rows] == ["3/4", "5/8", "11/20", "1/2"]
    assert [row["multiplicity"] for row in rows] == [1, 4, 5, 6]
    for row in rows:
        num, den = row["closed_form"].split("/")
        assert row["eigenvalue"] == pytest.approx(int(num) / int(den), abs=1e-9)


def test_spectrum_expected_closed_forms_follow_p(capsys):
    assert run_cli(["spectrum", "--n", 5, "--p", 0.3, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]
    assert [row["closed_form"] for row in rows] == ["79/100", "149/200", "359/500", "7/10"]
    for row in rows:
        num, den = row["closed_form"].split("/")
        assert row["eigenvalue"] == pytest.approx(int(num) / int(den), rel=0.0, abs=1e-12)


def test_spectrum_expected_leaves_merged_blocks_without_closed_forms(capsys):
    # at tiny p the 1e-8 grouping merges all four blocks into one row
    assert run_cli(["spectrum", "--n", 5, "--p", 1e-5]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["eigenvalue,multiplicity,closed_form", "0.99999000009999983,16,"]


def test_spectrum_expected_csv_bytes_at_half(capsys):
    assert run_cli(["spectrum", "--n", 5]) == 0
    assert capsys.readouterr().out == (
        "# tool: sqsa 0.1.0\n"
        "# command: spectrum\n"
        '# config: {"format": "csv", "method": "expected", "n": 5, "p": 0.5}\n'
        "eigenvalue,multiplicity,closed_form\n"
        "0.75000000000000011,1,3/4\n"
        "0.62500000000000044,4,5/8\n"
        "0.55000000000000027,5,11/20\n"
        "0.50000000000000044,6,1/2\n"
    )


def test_spectrum_realized(family_file, capsys):
    assert run_cli(["spectrum", "--method", "realized", "--family", family_file, "--members", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_index] == "eigenvalue,multiplicity,closed_form"
    values = [float(line.split(",")[0]) for line in lines[header_index + 1 :]]
    assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in values)
    assert sum(int(line.split(",")[1]) for line in lines[header_index + 1 :]) == 9


def test_spectrum_config_echoes_only_what_the_method_reads(tmp_path, family_file, capsys):
    assert run_cli(["spectrum", "--n", 4, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["meta"]["config"]
    assert config == {"format": "json", "method": "expected", "n": 4, "p": 0.5}
    assert run_cli(["spectrum", "--method", "realized", "--family", family_file, "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["meta"]["config"]
    assert config == {"family": str(family_file), "format": "json", "members": "0,1", "method": "realized"}


@pytest.mark.parametrize(
    "argv, config, problem",
    [
        (["--members", "0,1"], {}, "spectrum --method expected does not read 'members'; only --method realized does"),
        ([], {"family": "f.sqsa"}, "spectrum --method expected does not read 'family'; only --method realized does"),
        (["--method", "realized", "--n", 4], {}, "spectrum --method realized does not read 'n'; only --method expected does"),
        ([], {"method": "realized", "p": 0.5}, "spectrum --method realized does not read 'p'; only --method expected does"),
    ],
)
def test_spectrum_refuses_what_the_method_would_ignore(tmp_path, capsys, argv, config, problem):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli(["spectrum", "--config", path, *argv]) == 1
    assert error_message(capsys) == problem


def test_parser_is_built_once_and_keeps_help_and_errors(family_file, capsys):
    cli._build_parser.cache_clear()
    argv = ["pagree", "--family", family_file, "--t", 3, "--method", "brute"]
    outputs = []
    for _ in range(2):
        assert run_cli(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert cli._build_parser.cache_info().misses == 1
    for _ in range(2):
        assert run_cli([*argv, "--jobs", 0]) == 1
        assert capsys.readouterr().err.splitlines() == [
            '{"error": {"message": "--jobs must be >= 1, got 0", "type": "ValueError"}}'
        ]
    with pytest.raises(SystemExit):
        main(["pagree", "--help"])
    cached = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(["pagree", "--help"])
    assert capsys.readouterr().out == cached
    assert cli._build_parser.cache_info().misses == 1


def crafted_scan(t_max):
    """A scan whose residuals take every sign and range: negative, subnormal, zero."""
    specials = [-0.25, 5e-324, -2.5e-320, 0.0, -1.0000000000000002, 1e-300]
    points = tuple(
        MixingPoint(t, 0.25 + specials[t % 6], specials[t % 6], 0.9 ** t, -(0.5 ** t))
        for t in range(t_max + 1)
    )
    return MixingScan(4, 0.875, 0.125, True, False, points, (1, 3), ())


@pytest.mark.parametrize("t_max", [1, 2000])
def test_mixing_json_points_keep_the_stdlib_bytes(tmp_path, family_file, monkeypatch, t_max):
    scan = crafted_scan(t_max)
    monkeypatch.setattr(cli, "mixing_scan", lambda a, b, t: scan)
    out = tmp_path / "mixing.json"
    argv = ["mixing", "--family", family_file, "--t-max", t_max, "--format", "json", "--out", out]
    assert run_cli(argv) == 0
    result = {key: value for key, value in vars(scan).items() if key != "n_states"}
    result["points"] = [
        {"T" if key == "word_length" else key: value for key, value in point._asdict().items()}
        for point in scan.points
    ]
    meta = json.loads(out.read_text())["meta"]
    expected = json.dumps({"meta": meta, "result": result}, indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == expected.encode()


def test_certify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.sqsa"
    assert run_cli(["family", "--n", 3, "--k", 64, "--m", 8, "--seed", 8800, "--out", path]) == 0
    assert run_cli(["certify", "--family", path, "--t", 8, "--d", 8]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["passed"] is True
    assert payload["result"]["n_pairs"] == 28
    assert payload["result"]["max_abs_correlation"] <= 1 / 8


def test_certify_defaults(tmp_path, capsys):
    path = tmp_path / "small.sqsa"
    assert run_cli(["family", "--n", 3, "--k", 2, "--m", 3, "--seed", 5, "--out", path]) == 0
    assert run_cli(["certify", "--family", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["dim"] == 3
    assert payload["result"]["word_length"] == math.ceil(6 * math.log(6))


def test_oracle_transcript(tmp_path, family_file, capsys):
    queries = tmp_path / "queries.json"
    queries.write_text(
        json.dumps(
            [
                {"builtin": "constant", "params": {"value": 0.5}},
                {"builtin": "state-agreement", "params": {"member": 0}},
                {"builtin": "label-indicator", "params": {"label": 1}},
            ]
        )
    )
    out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
    base = ["oracle", "--family", family_file, "--t", 3, "--tau", 0.4, "--seed", 1, "--queries", queries]
    assert run_cli(base + ["--out", out1]) == 0
    assert run_cli(base + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["command"] == "oracle"
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 3
    for record in records:
        assert set(record) == {
            "query_id", "builtin", "params", "answer", "eliminated_ids", "survivor_count",
            "method", "max_stderr",
        }
    assert records[0]["answer"] == 0.5
    assert records[0]["eliminated_ids"] == []
    assert records[1]["eliminated_ids"] == [0]  # self-agreement kills member 0 at tau=0.4
    counts = [r["survivor_count"] for r in records]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_config_file_and_flag_precedence(tmp_path, family_file, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"family": str(family_file), "t": 2, "method": "brute"}))
    assert run_cli(["pagree", "--config", config]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["meta"]["config"]["t"] == 2
    assert first["result"]["method"] == "brute-force"
    assert run_cli(["pagree", "--config", config, "--t", 4]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["meta"]["config"]["t"] == 4
    assert second["result"]["word_length"] == 4


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"banana": 1}))
    assert run_cli(["pagree", "--config", config]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])
    assert "banana" in error["error"]["message"]


def test_missing_family_is_machine_readable(capsys):
    assert run_cli(["mixing", "--t-max", 3]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])
    assert error["error"]["type"] == "ValueError"


def test_brute_guard_error_via_cli(tmp_path, family_file, capsys):
    # 18 symbols: 18**7 * 4 ~ 2.4e9 inputs at T=7 is over the guard, 18**3 * 4 is not
    assert run_cli(["pagree", "--family", family_file, "--t", 7, "--method", "brute"]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])
    assert error["error"]["type"] == "BruteForceGuardError"
    assert run_cli(["pagree", "--family", family_file, "--t", 3, "--method", "brute"]) == 0


def test_certify_rejects_negative_word_length_without_pairs(family_file, capsys):
    assert run_cli(["certify", "--family", family_file, "--t", -1, "--d", 1]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])
    assert error["error"] == {"type": "ValueError", "message": "word length must be >= 0"}


@pytest.mark.parametrize("k", [1, 2])
def test_pagree_past_forty_states_matches_monte_carlo(tmp_path, capsys, k):
    path = tmp_path / "f50.sqsa"
    assert run_cli(["family", "--n", 50, "--k", k, "--m", 2, "--seed", 5, "--out", path]) == 0
    results = {}
    for method in ("spectral", "mc"):
        argv = ["pagree", "--family", path, "--t", 50, "--method", method, "--samples", 20000]
        assert run_cli([*argv, "--jobs", 1]) == 0
        results[method] = json.loads(capsys.readouterr().out)["result"]
    spectral, sampled = results["spectral"], results["mc"]
    assert spectral["n_states"] == 50 and spectral["method"] == "spectral"
    assert abs(spectral["p_agree"] - sampled["p_agree"]) <= 5 * sampled["stderr"]


def test_pagree_cost_does_not_grow_with_word_length(tmp_path, capsys):
    path = tmp_path / "f5.sqsa"
    assert run_cli(["family", "--n", 5, "--k", 1, "--m", 2, "--seed", 3, "--out", path]) == 0
    started = time.perf_counter()
    assert run_cli(["pagree", "--family", path, "--t", 100_000_000]) == 0
    assert time.perf_counter() - started < 1.0  # T dense matvecs took minutes
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["word_length"] == 100_000_000
    assert result["p_agree"] == pytest.approx(1 / 5, abs=1e-12)


def test_input_family_never_mutated(tmp_path, family_file):
    before = family_file.read_bytes()
    for command in (
        ["pagree", "--family", family_file, "--t", 2],
        ["mixing", "--family", family_file, "--t-max", 3],
        ["certify", "--family", family_file, "--d", 2, "--t", 2],
        ["spectrum", "--method", "realized", "--family", family_file],
    ):
        assert run_cli(command + ["--out", tmp_path / "scratch.out"]) == 0
    assert family_file.read_bytes() == before


def error_message(capsys):
    return json.loads(capsys.readouterr().err.splitlines()[0])["error"]["message"]


def test_zero_samples_fail_alike_in_pagree_and_oracle(tmp_path, capsys):
    family = tmp_path / "f5.sqsa"
    assert run_cli(["family", "--n", 5, "--m", 2, "--out", family]) == 0
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"builtin": "constant", "params": {"value": 0.5}}]))
    capsys.readouterr()
    # --samples asks the oracle for the sampled path, which needs at least one sample
    assert run_cli(["oracle", "--family", family, "--t", 8, "--queries", queries, "--samples", 0]) == 1
    oracle = error_message(capsys)
    assert run_cli(["pagree", "--family", family, "--t", 8, "--method", "mc", "--samples", 0]) == 1
    assert error_message(capsys) == oracle == "need at least one sample"
    # the count is refused before any query, on a small input space as on a large one
    small = tmp_path / "f4.sqsa"
    assert run_cli(["family", "--n", 4, "--k", 1, "--m", 2, "--out", small]) == 0
    capsys.readouterr()
    for samples in (0, -5):
        argv = ["oracle", "--family", small, "--t", 2, "--queries", queries, "--samples", samples]
        assert run_cli(argv) == 1
        assert error_message(capsys) == "need at least one sample"


@pytest.mark.parametrize(
    "command, key",
    [("pagree", "out"), ("pagree", "jobs"), ("spectrum", "queries"), ("family", "family")],
)
def test_config_keys_the_command_would_ignore_are_rejected(tmp_path, family_file, capsys, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: str(tmp_path / "x")}))
    argv = [command, "--config", config, "--out", tmp_path / "out"]
    if command == "pagree":
        argv += ["--family", family_file]
    assert run_cli(argv) == 1
    assert f"unknown config keys for {command}: ['{key}']" in error_message(capsys)


@pytest.mark.parametrize(
    "command, key, value, problem",
    [
        ("mixing", "t_max", 3.9, "config key 't_max' must be int, got 3.9"),
        ("pagree", "t", True, "config key 't' must be int, got True"),
        ("oracle", "tau", "0.5", "config key 'tau' must be int or float, got '0.5'"),
        ("pagree", "members", [0, 1], "config key 'members' must be str, got [0, 1]"),
        ("pagree", "t", None, "config key 't' must be int, got None"),
    ],
)
def test_config_values_of_the_wrong_type_fail_on_the_error_line(
    tmp_path, family_file, capsys, command, key, value, problem
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli([command, "--config", config, "--family", family_file]) == 1
    assert error_message(capsys) == problem


@pytest.mark.parametrize(
    "command, key, value, choices",
    [
        ("pagree", "format", "xml", ["json"]),
        ("spectrum", "method", "bogus", ["expected", "realized"]),
        ("pagree", "method", "bogus", ["spectral", "brute", "mc"]),
        ("certify", "format", "csv", ["json"]),
    ],
)
def test_config_values_outside_the_choices_fail_on_the_error_line(
    tmp_path, family_file, capsys, command, key, value, choices
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    assert run_cli([command, "--config", config, "--family", family_file]) == 1
    assert error_message(capsys) == f"config key {key!r} must be one of {choices}, got {value!r}"


def test_config_null_and_numbers_where_the_flag_takes_them(tmp_path, family_file, capsys):
    config = tmp_path / "config.json"
    # null certify t and d keep their computed defaults; an integral tau is a number
    config.write_text(json.dumps({"family": str(family_file), "t": None, "d": None}))
    assert run_cli(["certify", "--config", config]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["config"]["d"] == 6
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps([{"builtin": "final-state-parity"}]))
    config.write_text(json.dumps({"tau": 1, "queries": str(queries)}))
    assert run_cli(["oracle", "--config", config, "--family", family_file]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["config"]["tau"] == 1


@pytest.mark.parametrize(
    "builtin, params, problem",
    [
        ("label-indicator", {"label": 1, "bogus": 9}, "unknown 'bogus'"),
        ("state-agreement", {"member": 1.9}, "non-integer 'member': 1.9"),
        ("state-agreement", {"member": True}, "non-integer 'member': True"),
        ("label-indicator", {}, "missing 'label'"),
        ("constant", {"value": "half"}, "non-number 'value': 'half'"),
    ],
)
def test_oracle_rejects_bad_query_params(tmp_path, family_file, capsys, builtin, params, problem):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"builtin": builtin, "params": params}]))
    assert run_cli(["oracle", "--family", family_file, "--t", 2, "--queries", queries]) == 1
    assert error_message(capsys) == f"bad params for {builtin}: {problem}"


@pytest.mark.parametrize(
    "script, index",
    [
        ([1], 0),
        ([{"params": {}}], 0),
        ([{"builtin": "final-state-parity"}, "parity"], 1),
        ([{"builtin": [1]}], 0),
    ],
)
def test_oracle_rejects_query_entries_without_builtin(tmp_path, family_file, capsys, script, index):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(script))
    assert run_cli(["oracle", "--family", family_file, "--t", 2, "--queries", queries]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"query {index} must be an object with a 'builtin' key")


@pytest.mark.parametrize(
    "entry, unknown",
    [
        ({"builtin": "final-state-parity", "parms": {"x": 1}}, ["parms"]),
        ({"builtin": "state-agreement", "params": {"member": 0}, "tau": 0.9}, ["tau"]),
    ],
)
def test_oracle_rejects_query_entries_with_unknown_keys(tmp_path, family_file, capsys, entry, unknown):
    # a misspelled or misplaced key would otherwise be read as absent
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"builtin": "constant", "params": {"value": 0}}, entry]))
    assert run_cli(["oracle", "--family", family_file, "--t", 2, "--queries", queries]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"query 1 has unknown keys {unknown}")


def test_oracle_negative_word_length_fails_as_json(tmp_path, family_file, capsys):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps([{"builtin": "final-state-parity"}]))
    # exact and sampled sessions both refuse it before the first query
    for sampling in ([], ["--samples", 100]):
        argv = ["oracle", "--family", family_file, "--t", -1, "--queries", queries, *sampling]
        assert run_cli(argv) == 1
        assert error_message(capsys) == "word length must be >= 0"


def test_oracle_is_exact_at_any_length_unless_sampled(tmp_path, capsys):
    family = tmp_path / "f5.sqsa"
    assert run_cli(["family", "--n", 5, "--m", 8, "--seed", 4, "--out", family]) == 0  # threshold k
    queries = tmp_path / "q.json"
    queries.write_text(
        json.dumps(
            [
                {"builtin": "state-agreement", "params": {"member": 3}},
                {"builtin": "label-indicator", "params": {"label": 1}},
                {"builtin": "final-state-parity"},
            ]
        )
    )
    base = ["oracle", "--family", family, "--queries", queries, "--tau", 0.2]

    def transcript(argv, jobs):
        out = tmp_path / f"o{jobs}.jsonl"
        assert run_cli([*base, *argv, "--jobs", jobs, "--out", out]) == 0
        return out.read_bytes()

    started = time.perf_counter()
    exact = transcript(["--t", 1_000_000], 1)
    assert time.perf_counter() - started < 1.0  # enumeration would run |alphabet|^T * n inputs
    assert transcript(["--t", 1_000_000], 2) == exact
    meta, *records = (json.loads(line) for line in exact.decode().splitlines())
    assert meta["config"]["samples"] is None
    assert [(r["method"], r["answer"], r["max_stderr"]) for r in records] == [("exact", 0.2, None)] * 3
    assert [r["eliminated_ids"] for r in records] == [[3], [], []]

    sampled = transcript(["--t", 48, "--samples", 2000, "--seed", 9], 1)
    assert transcript(["--t", 48, "--samples", 2000, "--seed", 9], 2) == sampled
    meta, *records = (json.loads(line) for line in sampled.decode().splitlines())
    assert meta["config"]["samples"] == 2000
    assert [r["method"] for r in records] == ["monte-carlo"] * 3
    assert records[0]["max_stderr"] > 0 and 3 in records[0]["eliminated_ids"]
    assert [r["max_stderr"] for r in records[1:]] == [None, None]  # nothing sampled


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_rejected(family_file, capsys, jobs):
    argv = ["pagree", "--family", family_file, "--t", 2, "--method", "brute", "--jobs", jobs]
    assert run_cli(argv) == 1
    assert error_message(capsys) == f"--jobs must be >= 1, got {jobs}"


# SHA-256 of each output, taken before the input runs and the flag table were
# rewritten.  None of these outputs prints a Lanczos or LAPACK float, so the
# bytes are the same on every platform; relative paths keep meta.config so too.
# mc.json and sampled.jsonl were retaken when Monte Carlo began reading every
# start of ceil(samples / n) words, with the per-word standard error; the
# other four are unchanged since.
GOLDEN_SHA256 = {
    "family.sqsa": "60d93bbae4c96254488924eee310b99b6dd58c0fc23ff56c6613fe138f6977ae",
    "brute.json": "f4cb4afb530189e62692d999098dd866af70c63d610681edccc8e916831b84ba",
    "mc.json": "5cffd7c3759e5e2edabfe7be9498ccb7e8553048b4b406c829b1996d165ff6d1",
    "exact.jsonl": "869de488f690a869ea506ffb48bfb13aed843ff5b811064de81c6fefb70d43cf",
    "sampled.jsonl": "ce776c5172db0ea2376dfe294b5e6f0350a044152980f77210f950f16f4744a1",
    "config.json.out": "a2a1f682794471f71811f1b8fef5c816d77aaa50a60c9a783125fa0478a0fc9d",
}


def test_outputs_of_the_exact_routes_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    queries = [
        {"builtin": "state-agreement", "params": {"member": 2}},
        {"builtin": "label-indicator", "params": {"label": 1}},
        {"builtin": "state-agreement", "params": {"member": 0}},
        {"builtin": "final-state-parity"},
    ]
    Path("queries.json").write_text(json.dumps(queries))
    Path("config.json").write_text(
        json.dumps({"family": "family.sqsa", "members": "1,4", "t": 2, "method": "brute"})
    )
    common = ["--family", "family.sqsa"]
    commands = {
        "family.sqsa": ["family", "--n", "4", "--k", "3", "--m", "6", "--seed", "11"],
        "brute.json": ["pagree", *common, "--t", "4", "--method", "brute"],
        # 20 000 samples at T=6: 5000 words, each read from all 4 starts
        "mc.json": ["pagree", *common, "--t", "6", "--method", "mc", "--samples", "20000"],
        "exact.jsonl": ["oracle", *common, "--t", "5", "--tau", "0.3", "--queries", "queries.json"],
        "sampled.jsonl": [
            "oracle", *common, "--t", "8", "--tau", "0.3", "--queries", "queries.json",
            "--samples", "3000", "--seed", "4",
        ],
        "config.json.out": ["pagree", "--config", "config.json", "--seed", "3"],
    }
    for name, argv in commands.items():
        assert main([*argv, "--jobs", "2", "--out", name]) == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in commands}
    assert digests == GOLDEN_SHA256


@pytest.mark.parametrize("t", [2341, 10**6, 10**9])
def test_mode_that_never_decays_reaches_pagree_certify_and_oracle(tmp_path, capsys, t):
    # M has eigenvalue 1, so the residual is 1/12 at any T >= 50 (tau=0.05 eliminates
    # member 1); at large T the first Gauss estimates both underflow to 0.0 and must
    # not pass as agreeing
    masks = np.array([[1, 0, 0], [0, 0, 1]], dtype=bool)
    members = tuple(Semiautomaton(3, 1, mask) for mask in masks)
    family = tmp_path / "pair.sqsa"
    family.write_bytes(serialize_family(ShuffleFamily(FamilyConfig(3, 1, 2), members)))
    queries = tmp_path / "queries.json"
    queries.write_text(json.dumps([{"builtin": "state-agreement", "params": {"member": 0}}]))
    one_twelfth = pytest.approx(1 / 12, rel=1e-12)
    assert run_cli(["pagree", "--family", family, "--t", t]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["residual"] == one_twelfth
    assert run_cli(["certify", "--family", family, "--t", t, "--d", 2]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["max_abs_correlation"] == one_twelfth
    argv = ["oracle", "--family", family, "--t", t, "--tau", 0.05, "--queries", queries]
    assert run_cli(argv) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[1])
    assert record["eliminated_ids"] == [0, 1] and record["survivor_count"] == 0
