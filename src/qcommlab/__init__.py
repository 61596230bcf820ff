"""Simulation and rank analysis lab for two-party quantum protocols."""

from .engine import (AcceptanceMatrix, Protocol, ProtocolStep,
                     RegisterLayout, acceptance_matrix, rank_bound_audit,
                     simulate, yao_kremer_decompose)
from .errors import (CapacityError, ContractViolationError,
                     FamilyHypothesisError, NumericalFailureError,
                     PatternMismatchError, ProbabilisticFailureError,
                     QcommError)
from .linalg import (DEFAULT_TOL, SvdResult, apply_on_qubits, exact_rank,
                     is_unitary, numeric_rank, svd)
from .ranklab import (CommMatrix, FoldedPolynomial, NdetWitness,
                      build_comm_matrix, canonical_witness,
                      disj_triangular_audit, eq_fullrank_audit,
                      fold_to_polynomial, is_and_dependent, lemma2_scalarize,
                      monomial_rank_audit, nor_approx_audit,
                      protocol_to_witness, random_and_dependent_acceptance,
                      verify_ndet_witness)
from .zoo import (IntersectionResult, NdetProtocolBundle, QSearchConfig,
                  RecursionConfig, bcw_intersection, cost_model,
                  fit_cost_envelope, log_star, ndet_svd_protocol,
                  protocol_corpus, qsearch, recursive_intersection,
                  trivial_exact_protocol)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
