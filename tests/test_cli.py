import json
import math

import numpy as np
import pytest

from sqsa.automata import deserialize_family
from sqsa.cli import main


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


def test_spectrum_expected_matches_closed_form(capsys):
    assert run_cli(["spectrum", "--n", 5, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]
    assert [row["closed_form"] for row in rows] == ["3/4", "5/8", "11/20", "1/2"]
    assert [row["multiplicity"] for row in rows] == [1, 4, 5, 6]
    for row in rows:
        num, den = row["closed_form"].split("/")
        assert row["eigenvalue"] == pytest.approx(int(num) / int(den), abs=1e-9)


def test_spectrum_realized(family_file, capsys):
    assert run_cli(["spectrum", "--method", "realized", "--family", family_file, "--members", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header_index = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_index] == "eigenvalue,multiplicity,closed_form"
    values = [float(line.split(",")[0]) for line in lines[header_index + 1 :]]
    assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in values)
    assert sum(int(line.split(",")[1]) for line in lines[header_index + 1 :]) == 9


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
    # T=8 over the threshold alphabet is far beyond enumeration: the sampled path
    assert run_cli(["oracle", "--family", family, "--t", 8, "--queries", queries, "--samples", 0]) == 1
    oracle = error_message(capsys)
    assert run_cli(["pagree", "--family", family, "--t", 8, "--method", "mc", "--samples", 0]) == 1
    assert error_message(capsys) == oracle == "need at least one sample"
    # n=4, k=1, T=2 is enumerated (the exact path), which draws no sample yet still refuses
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
    [([1], 0), ([{"params": {}}], 0), ([{"builtin": "final-state-parity"}, "parity"], 1)],
)
def test_oracle_rejects_query_entries_without_builtin(tmp_path, family_file, capsys, script, index):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(script))
    assert run_cli(["oracle", "--family", family_file, "--t", 2, "--queries", queries]) == 1
    error = json.loads(capsys.readouterr().err.splitlines()[0])["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"query {index} must be an object with a 'builtin' key")
