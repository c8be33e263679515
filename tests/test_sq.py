import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sqsa import automata, walk
from sqsa.automata import FamilyConfig, Semiautomaton, build_family, min_alphabet_copies, run_word
from sqsa.perm import SizeMismatchError
from sqsa.sq import (
    OracleSession,
    StatQuery,
    certify_sq_dimension,
    elimination_bound,
    make_session,
    oracle_answer,
    pairwise_correlation,
    query_lower_bound,
)
from sqsa.walk import WordDistribution, agreement_brute_force, agreement_exact, agreement_monte_carlo


def family_pair(n, k, seed, m=2):
    return build_family(FamilyConfig(n, k, m, 0.5, seed))


def enumerate_inputs(alphabet_size, word_length, n_states):
    for word in itertools.product(range(alphabet_size), repeat=word_length):
        for start in range(n_states):
            yield word, start


def centered_label_vectors(automaton, word_length):
    """u_f(x) = e_{f(x)} - all-1/N vector, stacked over the enumerated inputs."""
    n = automaton.n_states
    rows = []
    for word, start in enumerate_inputs(automaton.alphabet_size, word_length, n):
        row = np.full(n, -1.0 / n)
        row[run_word(automaton, word, start)] += 1.0
        rows.append(row)
    return np.array(rows)


def test_self_correlation():
    family = family_pair(5, 2, 1)
    estimate = pairwise_correlation(family.members[0], family.members[0], 6)
    assert estimate.residual == pytest.approx(1 - 1 / 5, abs=1e-10)


def test_zero_length_correlation_is_maximal():
    family = family_pair(4, 2, 2)
    estimate = pairwise_correlation(family.members[0], family.members[1], 0)
    assert estimate.residual == pytest.approx(1 - 1 / 4, abs=1e-12)


def test_spectral_matches_enumeration():
    family = family_pair(3, 1, 3)
    a, b = family.members
    for t in range(4):
        spectral = pairwise_correlation(a, b, t, "spectral")
        exact = pairwise_correlation(a, b, t, "brute")
        assert spectral.residual == pytest.approx(exact.residual, abs=1e-12)


def test_monte_carlo_correlation_has_stderr():
    family = family_pair(4, 2, 4)
    estimate = pairwise_correlation(family.members[0], family.members[1], 5, "mc", samples=2000, seed=9)
    assert estimate.stderr is not None and estimate.stderr >= 0
    assert estimate.method == "monte-carlo"


def test_unknown_method_rejected():
    family = family_pair(3, 1, 5)
    with pytest.raises(ValueError):
        pairwise_correlation(family.members[0], family.members[1], 1, "psychic")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(3, 6),
    st.integers(1, 3),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(0, 3),
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_every_route_keeps_the_correlation_in_range(n, k, p, t, samples, seed, same):
    # a correlation lies in [-1/n, 1 - 1/n]: the spectral residual within rounding, the
    # brute-force one (a rounded exact rational) and the sampled one (sum c / (words n)) exactly
    a, b = build_family(FamilyConfig(n, k, 2, p, seed)).members
    b = a if same else b
    for method in walk.AGREEMENT_METHODS:
        report = walk.agreement(method, a, b, t, samples, seed)
        slack = 1e-9 if method == "spectral" else 0.0
        assert -1 / n - slack <= report.residual <= 1 - 1 / n + slack
        assert pairwise_correlation(a, b, t, method, samples, seed) == report


@pytest.mark.parametrize("t", range(4))
def test_inner_product_identity_exhaustive(t):
    # <u_f, u_g>_D equals the correlation, checked by direct enumeration
    family = family_pair(3, 1, 6, m=3)
    vectors = [centered_label_vectors(member, t) for member in family.members]
    for i in range(3):
        for j in range(3):
            inner = float((vectors[i] * vectors[j]).sum(axis=1).mean())
            chi = agreement_brute_force(family.members[i], family.members[j], t).residual
            assert abs(inner - chi) < 1e-12


def test_certificate_single_concept_is_vacuous():
    family = family_pair(4, 1, 7)
    report = certify_sq_dimension(family.members, 3, 1)
    assert report.passed and report.n_pairs == 0 and report.max_abs_correlation == 0.0


def test_certificate_fails_on_identical_masks():
    mask = build_family(FamilyConfig(4, 1, 1, 0.5, 8)).members[0].mask
    twins = (Semiautomaton(4, 1, mask), Semiautomaton(4, 1, mask.copy()))
    report = certify_sq_dimension(twins, 5, 2)
    assert not report.passed
    assert report.violating_pair == (0, 1)
    assert report.max_abs_correlation == pytest.approx(1 - 1 / 4, abs=1e-10)


def test_batched_certificate_matches_per_pair_agreement():
    family = family_pair(5, 2, 31, m=6)
    members = [*family.members, family.members[2]]  # member 6 is a twin of member 2
    for t, dim in ((0, 7), (1, 7), (12, 7), (40, 6)):
        report = certify_sq_dimension(members, t, dim)
        values = {
            (i, j): abs(agreement_exact(members[i], members[j], t).residual)
            for i, j in itertools.combinations(range(dim), 2)
        }
        worst = max(values.values())
        first = next(pair for pair, value in values.items() if value == worst)
        assert report.n_pairs == len(values)
        assert report.max_abs_correlation == pytest.approx(worst, rel=1e-12)
        assert report.passed == (worst <= 1 / dim)
        assert report.violating_pair == (None if report.passed else first)
    assert certify_sq_dimension(members, 0, 7).violating_pair == (0, 1)  # all tie at T=0
    assert certify_sq_dimension(members, 12, 7).violating_pair == (2, 6)


def test_certificate_rejects_negative_word_length_without_pairs():
    family = family_pair(4, 1, 7)
    with pytest.raises(ValueError, match="word length must be >= 0"):
        certify_sq_dimension(family.members, -1, 1)


def test_certificate_at_zero_length_rejects_members_of_different_shapes():
    small = family_pair(4, 1, 3).members[0]
    large = family_pair(5, 1, 3).members[0]
    with pytest.raises(SizeMismatchError):
        certify_sq_dimension([small, large], 0, 2)


def test_certificate_needs_enough_members():
    family = family_pair(3, 1, 9)
    with pytest.raises(ValueError):
        certify_sq_dimension(family.members, 2, 5)


def test_certificate_passes_on_long_words():
    family = build_family(FamilyConfig(3, 64, 8, 0.5, 8800))
    report = certify_sq_dimension(family.members, 8, 8)
    assert report.passed
    assert report.max_abs_correlation <= 1 / 8
    assert report.n_pairs == 28


def test_query_lower_bound_hand_values():
    assert query_lower_bound(120, 0.5, 5) == pytest.approx(2975 / 960)
    assert query_lower_bound(1, 0.5, 3) == 0.0
    # d * tau^2 == labels makes the bound vacuous
    assert query_lower_bound(12, 0.5, 3) == 0.0
    with pytest.raises(ValueError):
        query_lower_bound(0, 0.5, 3)
    with pytest.raises(ValueError):
        query_lower_bound(5, 0.0, 3)
    with pytest.raises(ValueError):
        query_lower_bound(5, 0.5, 1)


def test_elimination_bound_requires_precondition():
    with pytest.raises(ValueError):
        elimination_bound(8, 0.5, 3)
    assert elimination_bound(24, 0.6, 3) == pytest.approx(96 / 5.64, rel=1e-12)


def test_constant_query_answers_itself_and_eliminates_nobody():
    family = family_pair(3, 1, 10, m=4)
    session = make_session(family, 2, tolerance=0.05)
    answer = oracle_answer(session, StatQuery("constant", {"value": 0.25}))
    assert answer == 0.25
    assert session.ledger[-1].eliminated_ids == ()
    assert session.survivors == [0, 1, 2, 3]


def test_state_agreement_answer_is_baseline():
    family = family_pair(3, 1, 11, m=3)
    session = make_session(family, 2, tolerance=0.5)
    answer = oracle_answer(session, StatQuery("state-agreement", {"member": 1}))
    assert answer == pytest.approx(1 / 3, abs=1e-12)
    # the queried member's own statistic is 1 - 1/3 > tolerance, so it dies
    assert 1 in session.ledger[-1].eliminated_ids


@pytest.mark.parametrize("n", [3, 4])
def test_exact_elimination_matches_independent_computation(n):
    # all four built-ins; at even n the parity answer (n mod 2)/n is 0
    family = family_pair(n, 1, 12, m=6)
    tolerance = 0.3
    word_length = 2
    queries = [
        StatQuery("state-agreement", {"member": 0}),
        StatQuery("label-indicator", {"label": 2}),
        StatQuery("final-state-parity"),
        StatQuery("constant", {"value": -0.375}),
        StatQuery("state-agreement", {"member": 3}),
    ]
    session = make_session(family, word_length, tolerance)
    vectors = [centered_label_vectors(member, word_length) for member in family.members]
    inputs = list(enumerate_inputs(family.config.alphabet_size, word_length, n))

    def statistic_table(query):
        # H(x) per input, one value per label
        table = np.zeros((len(inputs), n))
        for row, (word, start) in enumerate(inputs):
            for label in range(n):
                if query.builtin == "state-agreement":
                    reference = run_word(family.members[query.params["member"]], word, start)
                    table[row, label] = 1.0 if label == reference else 0.0
                elif query.builtin == "label-indicator":
                    table[row, label] = 1.0 if label == query.params["label"] else 0.0
                elif query.builtin == "constant":
                    table[row, label] = query.params["value"]
                else:
                    table[row, label] = 1.0 if label % 2 == 0 else -1.0
        return table

    for query in queries:
        survivors_before = list(session.survivors)
        table = statistic_table(query)
        expected_answer = float(table.mean(axis=1).mean())
        inner = {
            i: float((table * vectors[i]).sum(axis=1).mean()) for i in survivors_before
        }
        answer = oracle_answer(session, query)
        assert answer == pytest.approx(expected_answer, abs=1e-12)
        expected_dead = {i for i in survivors_before if abs(inner[i]) > tolerance}
        assert set(session.ledger[-1].eliminated_ids) == expected_dead
        # the answer remains valid for every survivor
        for i in session.survivors:
            assert abs(inner[i]) <= tolerance + 1e-12


def test_ledger_monotone_and_reproducible():
    def run_session():
        family = family_pair(3, 1, 13, m=5)
        session = make_session(family, 3, tolerance=0.25, seed=77)
        for member in range(5):
            oracle_answer(session, StatQuery("state-agreement", {"member": member}))
        return session

    first, second = run_session(), run_session()
    counts = [record.survivor_count for record in first.ledger]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert [r.answer for r in first.ledger] == [r.answer for r in second.ledger]
    assert [r.eliminated_ids for r in first.ledger] == [r.eliminated_ids for r in second.ledger]


def test_tie_with_tolerance_is_kept():
    # n=2 makes the self-agreement statistic exactly 0.5 in floating point
    family = build_family(FamilyConfig(2, 1, 1, 0.5, 14))
    session = make_session(family, 2, tolerance=0.5)
    oracle_answer(session, StatQuery("state-agreement", {"member": 0}))
    assert session.survivors == [0]
    strict = make_session(family, 2, tolerance=0.4999)
    oracle_answer(strict, StatQuery("state-agreement", {"member": 0}))
    assert strict.survivors == []


def test_sampled_path_conservative_elimination_and_reproducible():
    family = build_family(FamilyConfig(3, 64, 24, 0.5, 8800))
    assert 192**8 * 3 > 10**7  # forces the sampled path

    def run_session():
        session = make_session(family, 8, tolerance=0.6, seed=4242, mc_samples=20_000)
        for member in range(6):
            oracle_answer(session, StatQuery("state-agreement", {"member": member}))
        oracle_answer(session, StatQuery("label-indicator", {"label": 0}))
        oracle_answer(session, StatQuery("final-state-parity"))
        return session

    session = run_session()
    # each agreement query eliminates exactly its target; the rest touch nobody
    for member in range(6):
        assert session.ledger[member].eliminated_ids == (member,)
        assert session.ledger[member].method == "monte-carlo"
    assert session.ledger[6].eliminated_ids == ()
    assert session.ledger[7].eliminated_ids == ()
    assert session.survivors == list(range(6, 24))
    again = run_session()
    assert [r.answer for r in again.ledger] == [r.answer for r in session.ledger]


def test_sampled_elimination_keeps_four_standard_errors():
    # at T=40 every non-reference residual is ~0, so a sampled residual above the
    # small tolerance is noise, which the 4-stderr slack (about 0.054) must absorb
    family = build_family(FamilyConfig(3, 64, 12, 0.5, 8800))
    samples, words = 2000, 667  # ceil(2000 / 3) words, each read from all 3 starts
    session = make_session(family, 40, tolerance=0.01, seed=3, mc_samples=samples)
    for member in range(3):
        oracle_answer(session, StatQuery("state-agreement", {"member": member}))
    assert [record.eliminated_ids for record in session.ledger] == [(0,), (1,), (2,)]
    # the standard error of a mean of 667 shares c / 3: about sqrt(1/9 / words) once mixed, the
    # fixed points of a uniform permutation having variance 1, and at most that of values in [0, 1]
    for record in session.ledger:
        assert 0.95 * math.sqrt(1 / 9 / words) < record.max_stderr <= math.sqrt(0.25 / (words - 1))


def test_elimination_cap_on_certified_family():
    family = build_family(FamilyConfig(3, 64, 24, 0.5, 8800))
    dim, tolerance = 24, 0.6
    certificate = certify_sq_dimension(family.members, 8, dim)
    assert certificate.passed
    assert dim * tolerance**2 > 3
    cap = elimination_bound(dim, tolerance, 3)
    assert cap < dim  # non-vacuous configuration
    session = make_session(family, 8, tolerance=tolerance, seed=99, mc_samples=20_000)
    for member in range(8):
        oracle_answer(session, StatQuery("state-agreement", {"member": member}))
    for record in session.ledger:
        assert len(record.eliminated_ids) <= cap


def test_unknown_builtin_rejected():
    family = family_pair(3, 1, 15)
    session = make_session(family, 1, tolerance=0.1)
    with pytest.raises(ValueError):
        oracle_answer(session, StatQuery("telepathy", {}))


def test_builtin_parameter_validation():
    family = family_pair(3, 1, 16)
    session = make_session(family, 1, tolerance=0.1)
    with pytest.raises(ValueError):
        oracle_answer(session, StatQuery("label-indicator", {"label": 7}))
    with pytest.raises(ValueError):
        oracle_answer(session, StatQuery("state-agreement", {"member": 5}))
    with pytest.raises(ValueError):
        oracle_answer(session, StatQuery("constant", {"value": 1.5}))


def test_session_validation():
    family = family_pair(3, 1, 18)
    with pytest.raises(ValueError):
        make_session(family, 1, tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        make_session(family, 1, tolerance=float("nan"))


def test_sampled_query_with_no_survivors_left():
    family = build_family(FamilyConfig(5, 30, 2, 0.5, 0))
    session = make_session(family, 8, tolerance=0.05, seed=1, mc_samples=2000)
    for member in range(2):
        oracle_answer(session, StatQuery("state-agreement", {"member": member}))
    assert session.survivors == []
    assert oracle_answer(session, StatQuery("constant", {"value": 0.5})) == 0.5
    record = session.ledger[-1]
    assert record.method == "monte-carlo"
    assert record.survivor_count == 0 and record.max_stderr is None


def test_sampled_counts_keep_no_machine_alive(monkeypatch):
    # two machines outside a family: once a Monte Carlo count and a sampled session are done
    # with them and they are dropped, nothing in the package holds them or their class stacks
    prepare, stacks = walk._prepare_walk, []

    def spy(machines):
        prepared = prepare(machines)
        stacks.append(weakref.ref(prepared.classes))
        return prepared

    monkeypatch.setattr(walk, "_prepare_walk", spy)
    rng = np.random.default_rng(12)
    a, b = (Semiautomaton(4, 2, rng.random(12) < 0.5) for _ in range(2))
    agreement_monte_carlo(a, b, 5, samples=300, seed=2)
    session = OracleSession((a, b), WordDistribution(4, 12, 5), 0.3, seed=2, mc_samples=300)
    oracle_answer(session, StatQuery("state-agreement", {"member": 0}))
    assert session.ledger[-1].method == "monte-carlo" and len(stacks) == 2
    held = [weakref.ref(a), weakref.ref(b), *stacks]
    del a, b, session
    gc.collect()
    assert [ref() for ref in held] == [None] * 4


def test_merged_draws_change_no_session(monkeypatch):
    family = build_family(FamilyConfig(5, min_alphabet_copies(5), 8, 0.5, 31))
    script = [StatQuery("state-agreement", {"member": member}) for member in (3, 1, 6)]
    script += [StatQuery("label-indicator", {"label": 2}), StatQuery("final-state-parity")]

    def outcome(jobs):
        session = make_session(family, 48, 0.2, seed=5, mc_samples=10_000)
        for query in script:
            oracle_answer(session, query, jobs)
        return session.ledger, session.survivors

    dist = WordDistribution(5, family.config.alphabet_size, 48)
    # 10 000 samples are 2000 words, each walked from 5 starts: 64 strata of 31 or 32 words,
    # 176 bytes a row, 352 kB in all
    assert len(dist.strata(2000, 5)) == 1
    merged = outcome(1)
    monkeypatch.setattr(walk, "RUN_BYTES", 0)  # every stratum runs alone
    assert len(dist.strata(2000, 5)) == 64
    # records (answers and max_stderr included) equal as floats, not approximately
    assert outcome(1) == outcome(3) == merged
    assert any(record.eliminated_ids for record in merged[0]) and merged[1]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 5),
    k=st.integers(1, 2),
    m=st.integers(2, 5),
    t=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    tolerance=st.floats(0.01, 0.99),
    value=st.floats(-1.0, 1.0),
    data=st.data(),
)
def test_exact_session_equals_enumeration(n, k, m, t, seed, tolerance, value, data):
    family = build_family(FamilyConfig(n, k, m, 0.5, seed))
    members = family.members
    script = [StatQuery("state-agreement", {"member": r}) for r in range(m)]
    script += [
        StatQuery("label-indicator", {"label": data.draw(st.integers(0, n - 1))}),
        StatQuery("final-state-parity"),
        StatQuery("constant", {"value": value}),
    ]
    closed_form = {
        "state-agreement": 1 / n,
        "label-indicator": 1 / n,
        "final-state-parity": sum(1 if y % 2 == 0 else -1 for y in range(n)) / n,
        "constant": value,
    }
    session = make_session(family, t, tolerance)
    for query in data.draw(st.permutations(script)):
        expected = set()
        if query.builtin == "state-agreement":
            reference = members[query.params["member"]]
            residuals = {
                i: agreement_brute_force(members[i], reference, t).residual
                for i in session.survivors
            }
            assume(all(abs(abs(r) - tolerance) > 1e-9 for r in residuals.values()))
            expected = {i for i, r in residuals.items() if abs(r) > tolerance}
        assert oracle_answer(session, query) == closed_form[query.builtin]
        record = session.ledger[-1]
        assert set(record.eliminated_ids) == expected  # label-only queries eliminate nobody
        assert (record.method, record.max_stderr) == ("exact", None)


def test_exact_session_reads_no_input(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exact session read an input")

    monkeypatch.setattr(automata, "run_words", refuse)
    monkeypatch.setattr(walk, "run_words", refuse)
    monkeypatch.setattr(WordDistribution, "strata", refuse)
    family = family_pair(5, 1, 21, m=6)
    session = make_session(family, 10**6, tolerance=0.5)
    oracle_answer(session, StatQuery("state-agreement", {"member": 2}))
    oracle_answer(session, StatQuery("label-indicator", {"label": 4}))
    oracle_answer(session, StatQuery("final-state-parity"))
    assert [record.method for record in session.ledger] == ["exact"] * 3
    assert [record.answer for record in session.ledger] == [0.2, 0.2, 0.2]
    assert session.ledger[0].eliminated_ids == (2,)  # self residual 1 - 1/5 > 0.5
    assert session.survivors == [0, 1, 3, 4, 5]
