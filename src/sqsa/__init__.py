"""Shuffle semiautomata, coupled-walk spectral analysis, and SQ-hardness experiments."""

from .automata import (
    FamilyConfig,
    FamilyFormatError,
    Semiautomaton,
    ShuffleFamily,
    build_family,
    deserialize_family,
    min_alphabet_copies,
    min_word_length,
    run_word,
    serialize_family,
)
from .perm import Permutation, Transposition, all_transpositions, compose, fix_count, inverse
from .sq import (
    OracleSession,
    StatQuery,
    certify_sq_dimension,
    make_session,
    oracle_answer,
    query_lower_bound,
)
from .symrep import Partition, char_ratio, irrep_dim, perm_matrix, std_matrix
from .walk import (
    AgreementReport,
    agreement_brute_force,
    agreement_exact,
    agreement_monte_carlo,
    expected_operator,
    expected_spectrum,
    fixed_point_fourier_check,
    fourier_matrix,
    mixing_scan,
    spectral_norm,
    step_distribution,
)

__version__ = "0.1.0"
