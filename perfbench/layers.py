"""The sqsa functions the traced run wraps, and the per-layer metrics built from them.

Layers are the package's modules: ``automata``, ``walk``, ``symrep``, ``sq``
and ``cli``.  ``perm`` is reached only through ``walk.step_distribution``
and gets no span of its own.  Time metrics are seconds per pass over the
workload's op list (median over traced passes); counts are per pass; rates
divide a count by the matching time over all traced passes.  Set-up metrics
(family build and serialization) cover one set-up.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from spans import Span, Target, aggregate


def _words(arguments, result, before):
    words = arguments["words"]
    return {"symbol_steps": int(words.shape[0]) * int(words.shape[1])}


def _fourier(arguments, result, before):
    dist = arguments["dist"]
    return {"kron_count": len(dist.entries), "fourier_dim": (dist.n_states - 1) ** 2}


def _word_starts(arguments, result, before):
    a = arguments["a"]
    return {"word_starts": a.alphabet_size ** arguments["word_length"] * a.n_states}


def _survivors(arguments):
    return len(arguments["session"].survivors)


def _oracle(arguments, result, before):
    session = arguments["session"]
    record = session.ledger[-1]
    exact = record.method == "exact"
    inputs = session.distribution.n_inputs() if exact else session.mc_samples
    return {
        "queries": 1,
        "exact": int(exact),
        "sampled": int(not exact),
        "evaluations": inputs * (before + session.distribution.n_states),
        "eliminated": len(record.eliminated_ids),
    }


def _bytes_out(arguments, result, before):
    argv = list(arguments["argv"])
    return {"bytes_out": Path(argv[argv.index("--out") + 1]).stat().st_size} if result == 0 else {}


TARGETS = (
    Target("sqsa.automata", "build_family", "automata.build_family"),
    Target("sqsa.automata", "serialize_family", "automata.serialize_family"),
    Target("sqsa.automata", "deserialize_family", "automata.deserialize_family",
           counts=lambda arguments, result, before: {"bytes": len(arguments["data"])}),
    Target("sqsa.automata", "run_words", "automata.run_words", counts=_words),
    Target("sqsa.walk", "step_distribution", "walk.step_distribution",
           counts=lambda arguments, result, before: {"support_entries": len(result.entries)}),
    Target("sqsa.walk", "fourier_matrix", "walk.fourier_matrix", counts=_fourier),
    Target("sqsa.symrep", "std_matrix", "symrep.std_matrix"),
    Target("sqsa.walk", "agreement_exact", "walk.agreement_exact",
           counts=lambda arguments, result, before: {"matvecs": arguments["word_length"]}),
    Target("sqsa.walk", "agreement_brute_force", "walk.agreement_brute_force", counts=_word_starts),
    Target("sqsa.walk", "agreement_monte_carlo", "walk.agreement_monte_carlo",
           counts=lambda arguments, result, before: {"samples": arguments["samples"]}),
    Target("sqsa.walk", "spectral_norm", "walk.spectral_norm"),
    Target("sqsa.walk", "mixing_scan", "walk.mixing_scan"),
    Target("sqsa.sq", "pairwise_correlation", "sq.pairwise_correlation"),
    Target("sqsa.sq", "certify_sq_dimension", "sq.certify_sq_dimension",
           counts=lambda arguments, result, before: {"pairs": result.n_pairs}),
    Target("sqsa.sq", "oracle_answer", "sq.oracle_answer", counts=_oracle, before=_survivors),
    Target("sqsa.cli", "main", "cli.main", counts=_bytes_out),
)

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "automata.build_family_s": "s",
    "automata.serialize_s": "s",
    "automata.deserialize_s": "s",
    "automata.deserialize_mb_per_s": "MB/s",
    "automata.run_words_s": "s",
    "automata.run_words.symbol_steps": "count",
    "automata.symbol_steps_per_s": "1/s",
    "walk.step_distribution_s": "s",
    "walk.step_distribution.calls": "count",
    "walk.support_entries": "count",
    "walk.fourier_matrix_s": "s",
    "walk.fourier_matrix.calls": "count",
    "walk.kron_count": "count",
    "walk.fourier_dim": "count",
    "symrep.std_matrix_s": "s",
    "symrep.std_matrix.calls": "count",
    "walk.agreement_exact.self_s": "s",
    "walk.matvecs": "count",
    "walk.matvecs_per_s": "1/s",
    "walk.spectral_norm_s": "s",
    "walk.mixing_scan.self_s": "s",
    "walk.brute_force.self_s": "s",
    "walk.brute_word_starts": "count",
    "walk.brute_word_starts_per_s": "1/s",
    "walk.monte_carlo.self_s": "s",
    "walk.mc_samples": "count",
    "walk.mc_samples_per_s": "1/s",
    "sq.certify.self_s": "s",
    "sq.pairs_certified": "count",
    "sq.pairs_per_s": "1/s",
    "sq.pairwise_correlation.calls": "count",
    "sq.oracle_answer_s": "s",
    "sq.oracle_queries": "count",
    "sq.oracle_exact_queries": "count",
    "sq.oracle_sampled_queries": "count",
    "sq.oracle_evaluations": "count",
    "sq.oracle_eliminated_per_query": "ratio",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(passes: list[list[Span]], setup: list[Span], overhead_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from the spans of traced passes and of set-up."""
    per_pass = [aggregate(spans) for spans in passes]
    total = aggregate([span for spans in passes for span in spans])
    built = aggregate(setup)

    def median(value) -> float:
        return float(statistics.median(value(layers) for layers in per_pass))

    def inclusive(name):
        return lambda layers: layers[name].inclusive

    def own(name):
        return lambda layers: layers[name].self

    def count(name, key=None):
        return lambda layers: layers[name].counts[key] if key else layers[name].calls

    oracle = total["sq.oracle_answer"]
    words, deserialize = total["automata.run_words"], total["automata.deserialize_family"]
    exact, brute, mc = total["walk.agreement_exact"], total["walk.agreement_brute_force"], \
        total["walk.agreement_monte_carlo"]
    certify = total["sq.certify_sq_dimension"]
    values = {
        "automata.build_family_s": built["automata.build_family"].inclusive,
        "automata.serialize_s": built["automata.serialize_family"].inclusive,
        "automata.deserialize_s": median(inclusive("automata.deserialize_family")),
        "automata.deserialize_mb_per_s": _ratio(deserialize.counts["bytes"] / 1e6, deserialize.inclusive),
        "automata.run_words_s": median(own("automata.run_words")),
        "automata.run_words.symbol_steps": median(count("automata.run_words", "symbol_steps")),
        "automata.symbol_steps_per_s": _ratio(words.counts["symbol_steps"], words.self),
        "walk.step_distribution_s": median(inclusive("walk.step_distribution")),
        "walk.step_distribution.calls": median(count("walk.step_distribution")),
        "walk.support_entries": median(count("walk.step_distribution", "support_entries")),
        "walk.fourier_matrix_s": median(inclusive("walk.fourier_matrix")),
        "walk.fourier_matrix.calls": median(count("walk.fourier_matrix")),
        "walk.kron_count": median(count("walk.fourier_matrix", "kron_count")),
        "walk.fourier_dim": float(max((span.counts.get("fourier_dim", 0)
                                       for spans in passes for span in spans), default=0)),
        "symrep.std_matrix_s": median(inclusive("symrep.std_matrix")),
        "symrep.std_matrix.calls": median(count("symrep.std_matrix")),
        "walk.agreement_exact.self_s": median(own("walk.agreement_exact")),
        "walk.matvecs": median(count("walk.agreement_exact", "matvecs")),
        "walk.matvecs_per_s": _ratio(exact.counts["matvecs"], exact.self),
        "walk.spectral_norm_s": median(inclusive("walk.spectral_norm")),
        "walk.mixing_scan.self_s": median(own("walk.mixing_scan")),
        "walk.brute_force.self_s": median(own("walk.agreement_brute_force")),
        "walk.brute_word_starts": median(count("walk.agreement_brute_force", "word_starts")),
        "walk.brute_word_starts_per_s": _ratio(brute.counts["word_starts"], brute.inclusive),
        "walk.monte_carlo.self_s": median(own("walk.agreement_monte_carlo")),
        "walk.mc_samples": median(count("walk.agreement_monte_carlo", "samples")),
        "walk.mc_samples_per_s": _ratio(mc.counts["samples"], mc.inclusive),
        "sq.certify.self_s": median(own("sq.certify_sq_dimension")),
        "sq.pairs_certified": median(count("sq.certify_sq_dimension", "pairs")),
        "sq.pairs_per_s": _ratio(certify.counts["pairs"], certify.inclusive),
        "sq.pairwise_correlation.calls": median(count("sq.pairwise_correlation")),
        "sq.oracle_answer_s": float(statistics.median(oracle.durations)) if oracle.durations else 0.0,
        "sq.oracle_queries": median(count("sq.oracle_answer", "queries")),
        "sq.oracle_exact_queries": median(count("sq.oracle_answer", "exact")),
        "sq.oracle_sampled_queries": median(count("sq.oracle_answer", "sampled")),
        "sq.oracle_evaluations": median(count("sq.oracle_answer", "evaluations")),
        "sq.oracle_eliminated_per_query": _ratio(oracle.counts["eliminated"], oracle.counts["queries"]),
        "cli.main.self_s": median(own("cli.main")),
        "cli.bytes_out": median(count("cli.main", "bytes_out")),
        "trace.overhead_s": overhead_s,
    }
    return values
