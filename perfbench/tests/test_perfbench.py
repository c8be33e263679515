"""Tests of the benchmark itself: span arithmetic, output checks, wrappers."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import checks
from harness import tail
from layers import PER_LAYER, TARGETS, layer_metrics
from spans import Span, Target, Tracer, aggregate, covered_length, nesting_violations, self_times
from workloads import WORKLOADS, make_plan


def test_self_time_subtracts_union_of_overlapping_children_from_two_threads():
    spans = [
        Span(1, None, "outer", 0, 0.0, 10.0),
        Span(2, 1, "inner", 0, 1.0, 5.0),  # worker thread one
        Span(3, 1, "inner", 0, 3.0, 8.0),  # worker thread two, overlapping
        Span(4, 3, "leaf", 0, 4.0, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 7.0)  # union [1, 8], not 4 + 5
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(5.0 - 2.0)
    assert selfs[4] == pytest.approx(2.0)
    assert not nesting_violations(spans)
    layers = aggregate(spans)
    assert layers["inner"].calls == 2 and layers["inner"].self == pytest.approx(7.0)
    assert layers["never"].calls == 0


def test_covered_length_clips_and_merges():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered_length([], 0, 10) == 0.0


def test_nesting_violation_reported_for_child_outside_parent():
    spans = [Span(1, None, "outer", 0, 0.0, 1.0), Span(2, 1, "inner", 0, 0.5, 1.5)]
    assert nesting_violations(spans)


def test_tracer_parents_worker_thread_spans_to_the_spawning_span():
    module = types.ModuleType("fakepkg")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer():
        threads = [threading.Thread(target=module.inner, args=(0.05,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)
        return "done"

    module.inner, module.outer = inner, outer
    sys.modules["fakepkg"] = module
    try:
        tracer = Tracer((Target("fakepkg", "outer", "outer"), Target("fakepkg", "inner", "inner")),
                        package="fakepkg")
        tracer.install()
        try:
            assert module.outer() == "done"
        finally:
            tracer.uninstall()
        assert module.outer is outer and module.inner is inner
    finally:
        del sys.modules["fakepkg"]
    spans = tracer.take()
    (parent,) = [span for span in spans if span.name == "outer"]
    children = [span for span in spans if span.name == "inner"]
    assert len(children) == 2 and all(child.parent == parent.ident for child in children)
    selfs = self_times(spans)
    assert 0.0 <= selfs[parent.ident] < parent.duration - 0.04
    assert not nesting_violations(spans)


def _cli(argv: list[str]) -> bytes:
    from sqsa.cli import main

    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return Path(argv[argv.index("--out") + 1]).read_bytes()


@pytest.fixture
def small_outputs(tmp_path, monkeypatch):
    """Real CLI outputs at small sizes, with what their checks need."""
    monkeypatch.chdir(tmp_path)
    _cli(["family", "--n", "5", "--m", "6", "--seed", "3", "--out", "f5.bin"])
    _cli(["family", "--n", "4", "--k", "1", "--m", "2", "--seed", "4", "--out", "f4.bin"])
    _cli(["family", "--n", "5", "--k", "1", "--m", "6", "--seed", "5", "--out", "fx.bin"])
    script = [{"builtin": "state-agreement", "params": {"member": 2}},
              {"builtin": "label-indicator", "params": {"label": 1}},
              {"builtin": "final-state-parity", "params": {}}]
    Path("q.json").write_text(json.dumps(script))
    from sqsa.automata import deserialize_family

    members = deserialize_family(Path("f5.bin").read_bytes()).members
    spectral = _cli(["pagree", "--family", "f5.bin", "--members", "0,1", "--t", "40", "--out", "s.json"])
    brute_spectral = _cli(["pagree", "--family", "f4.bin", "--members", "0,1", "--t", "4",
                           "--out", "bs.json"])
    return {
        "spectral": spectral,
        "chain": checks.pair_chain_residual(members[0].mask, members[1].mask, 5, 40),
        "certify": _cli(["certify", "--family", "f5.bin", "--t", "60", "--d", "4", "--out", "c.json"]),
        "brute": _cli(["pagree", "--family", "f4.bin", "--members", "0,1", "--t", "4",
                       "--method", "brute", "--out", "b.json"]),
        "brute_p": json.loads(brute_spectral)["result"]["p_agree"],
        "mc": _cli(["pagree", "--family", "f5.bin", "--members", "0,1", "--t", "40", "--method", "mc",
                    "--samples", "20000", "--out", "m.json"]),
        "spectral_p": json.loads(spectral)["result"]["p_agree"],
        "spectrum": _cli(["spectrum", "--method", "realized", "--family", "f5.bin", "--members", "0,1",
                          "--out", "sp.csv"]),
        "mixing": _cli(["mixing", "--family", "f5.bin", "--members", "0,1", "--t-max", "30",
                        "--format", "json", "--out", "mx.json"]),
        "oracle": _cli(["oracle", "--family", "fx.bin", "--queries", "q.json", "--t", "3",
                        "--tau", "0.79", "--out", "o.jsonl"]),
        "script": script,
    }


def _run_check(name: str, payload: bytes, data: dict) -> None:
    if name == "spectral":
        checks.check_pagree_spectral(payload, 5, 40, data["chain"])
    elif name == "certify":
        checks.check_certify(payload, 4, 60)
    elif name == "brute":
        checks.check_pagree_brute(payload, data["brute_p"])
    elif name == "mc":
        checks.check_pagree_mc(payload, data["spectral_p"])
    elif name == "spectrum":
        checks.check_spectrum(payload, 5)
    elif name == "mixing":
        checks.check_mixing(payload, 5, 30)
    else:
        checks.check_oracle(payload, 5, 6, data["script"])


def _edit_json(payload: bytes, edit) -> bytes:
    document = json.loads(payload)
    edit(document["result"])
    return json.dumps(document).encode()


def _edit_oracle(payload: bytes, index: int, key: str, value) -> bytes:
    lines = payload.decode().splitlines()
    record = json.loads(lines[index])
    record[key] = value
    lines[index] = json.dumps(record)
    return ("\n".join(lines) + "\n").encode()


CORRUPTIONS = {
    "spectral": lambda p: _edit_json(p, lambda r: r.update(residual=r["residual"] * (1 + 1e-6))),
    "certify": lambda p: _edit_json(p, lambda r: r.update(passed=False)),
    "brute": lambda p: _edit_json(p, lambda r: r.update(exact="1/3", p_agree=1 / 3)),
    "mc": lambda p: _edit_json(p, lambda r: r.update(p_agree=r["p_agree"] + 0.05)),
    "spectrum": lambda p: p.replace(b",1,", b",2,", 1),
    "mixing": lambda p: _edit_json(p, lambda r: r.update(upper_violations=[7])),
    "oracle": lambda p: _edit_oracle(p, 2, "answer", 0.25),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_accepts_real_output_and_catches_its_corruption(small_outputs, name):
    payload = small_outputs[name]
    _run_check(name, payload, small_outputs)
    with pytest.raises(checks.CheckError):
        _run_check(name, CORRUPTIONS[name](payload), small_outputs)


def test_oracle_check_catches_bookkeeping_errors(small_outputs):
    payload = small_outputs["oracle"]
    with pytest.raises(checks.CheckError):
        _run_check("oracle", _edit_oracle(payload, 1, "survivor_count", 6), small_outputs)
    with pytest.raises(checks.CheckError):
        _run_check("oracle", _edit_oracle(payload, 1, "eliminated_ids", []), small_outputs)


def test_pair_chain_reference_matches_spectral_path():
    from sqsa.automata import FamilyConfig, build_family
    from sqsa.walk import agreement_exact

    for n, t in ((4, 3), (6, 50), (9, 120)):
        a, b = build_family(FamilyConfig(n, 2, 2, 0.5, seed=n)).members
        expected = agreement_exact(a, b, t).residual
        assert checks.pair_chain_residual(a.mask, b.mask, n, t) == pytest.approx(expected, rel=1e-10)


def test_wrappers_leave_cli_bytes_unchanged_and_record_spans(small_outputs):
    import sqsa.cli
    import sqsa.walk

    commands = [
        ["pagree", "--family", "f5.bin", "--members", "0,1", "--t", "40", "--jobs", "2", "--out", "s.json"],
        ["pagree", "--family", "f5.bin", "--members", "0,1", "--t", "40", "--method", "mc",
         "--samples", "20000", "--jobs", "2", "--out", "m.json"],
        ["certify", "--family", "f5.bin", "--t", "60", "--d", "4", "--out", "c.json"],
        ["mixing", "--family", "f5.bin", "--members", "0,1", "--t-max", "30", "--format", "json",
         "--out", "mx.json"],
        ["oracle", "--family", "fx.bin", "--queries", "q.json", "--t", "3", "--tau", "0.79",
         "--out", "o.jsonl"],
    ]
    plain = [_cli(argv) for argv in commands]
    originals = (sqsa.cli.main, sqsa.walk.fourier_matrix, sqsa.walk.run_words)
    tracer = Tracer(TARGETS)
    tracer.install()
    try:
        assert sqsa.walk.fourier_matrix is not originals[1]
        traced = [_cli(argv) for argv in commands]
    finally:
        tracer.uninstall()
    assert (sqsa.cli.main, sqsa.walk.fourier_matrix, sqsa.walk.run_words) == originals
    assert traced == plain
    spans = tracer.take()
    names = {span.name for span in spans}
    assert {"cli.main", "walk.fourier_matrix", "symrep.std_matrix", "automata.run_words",
            "sq.oracle_answer", "sq.certify_sq_dimension", "walk.agreement_monte_carlo"} <= names
    assert not nesting_violations(spans)
    values = layer_metrics([spans], [], 0.0)
    assert list(values) == list(PER_LAYER)
    assert values["walk.mc_samples"] == 20000 and values["sq.oracle_queries"] == 3


def test_plans_are_deterministic_in_the_seed():
    for workload in WORKLOADS:
        first, again, other = make_plan(workload, 7), make_plan(workload, 7), make_plan(workload, 8)
        assert first == again
        assert first.families != other.families


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail([1.0] * 10) == (None, None)
    percentile, value = tail([float(i) for i in range(1, 101)])
    assert percentile == 90 and value == 90.0
