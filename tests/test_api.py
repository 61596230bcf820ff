"""The public API: adding or dropping a name is a visible edit here."""

import qcommlab

PUBLIC = [
    "AcceptanceMatrix", "CapacityError", "CommMatrix",
    "ContractViolationError", "DEFAULT_TOL", "FamilyHypothesisError",
    "FoldedPolynomial", "Gate", "IntersectionResult", "NdetProtocolBundle",
    "NdetWitness", "NumericalFailureError", "PatternMismatchError",
    "ProbabilisticFailureError", "Protocol", "ProtocolStep", "QSearchConfig",
    "QcommError", "RecursionConfig", "RegisterLayout", "SvdResult",
    "acceptance_matrix", "apply_on_qubits", "bcw_intersection",
    "build_comm_matrix", "canonical_witness", "cost_model",
    "disj_triangular_audit", "engine", "eq_fullrank_audit", "errors",
    "exact_rank", "fit_cost_envelope", "fold_to_polynomial", "grover_state",
    "is_and_dependent", "is_unitary", "lemma2_scalarize", "linalg",
    "log_star", "monomial_rank_audit", "ndet_svd_protocol",
    "nor_approx_audit", "numeric_rank", "protocol_corpus",
    "protocol_to_witness", "qsearch", "random_and_dependent_acceptance",
    "random_unitary", "rank_bound_audit", "ranklab", "recursive_intersection",
    "simulate", "svd", "trivial_exact_protocol", "verify_ndet_witness",
    "yao_kremer_decompose", "zoo",
]


def test_public_api_is_pinned():
    assert sorted(qcommlab.__all__) == PUBLIC
