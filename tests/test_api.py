"""The public API: adding or dropping a name, or a parameter of a
pinned function, is a visible edit here."""

import dataclasses
import inspect

import qcommlab

PUBLIC = [
    "AcceptanceMatrix", "CapacityError", "CommMatrix",
    "ContractViolationError", "DEFAULT_TOL", "FamilyHypothesisError",
    "FoldedPolynomial", "IntersectionResult", "NdetProtocolBundle",
    "NdetWitness", "NumericalFailureError", "PatternMismatchError",
    "ProbabilisticFailureError", "Protocol", "ProtocolStep", "QSearchConfig",
    "QcommError", "RecursionConfig", "RegisterLayout", "SvdResult",
    "acceptance_matrix", "apply_on_qubits", "bcw_intersection",
    "build_comm_matrix", "canonical_witness", "cost_model",
    "disj_triangular_audit", "engine", "eq_fullrank_audit", "errors",
    "exact_rank", "fit_cost_envelope", "fold_to_polynomial",
    "is_and_dependent", "is_unitary", "lemma2_scalarize", "linalg",
    "log_star", "monomial_rank_audit", "ndet_svd_protocol",
    "nor_approx_audit", "numeric_rank", "protocol_corpus",
    "protocol_to_witness", "qsearch", "random_and_dependent_acceptance",
    "rank_bound_audit", "ranklab", "recursive_intersection",
    "simulate", "svd", "trivial_exact_protocol", "verify_ndet_witness",
    "yao_kremer_decompose", "zoo",
]


def test_public_api_is_pinned():
    assert sorted(qcommlab.__all__) == PUBLIC


def test_rule_and_cost_model_parameters_are_pinned():
    # the one tolerance and the exact cost models are constants: a
    # tolerance or a scale parameter added back is a visible edit here
    pinned = {
        qcommlab.linalg.support: ["values"],
        qcommlab.numeric_rank: ["m"],
        qcommlab.SvdResult.rank: ["self"],
        qcommlab.is_unitary: ["u"],
        qcommlab.cost_model: ["n", "rcfg"],
        qcommlab.zoo.bcw_cost_model: ["n"],
    }
    for f, params in pinned.items():
        assert list(inspect.signature(f).parameters) == params, f.__name__


def test_audit_and_envelope_surface_is_pinned():
    # the NOR audit's error bound is a constant and the envelope reports
    # only what it measures: a parameter or field added back is an edit here
    pinned = {
        qcommlab.nor_approx_audit: ["poly"],
        qcommlab.fit_cost_envelope: ["ns"],
    }
    for f, params in pinned.items():
        assert list(inspect.signature(f).parameters) == params, f.__name__
    fields = {
        qcommlab.zoo.CostEnvelopeFit: ["ratios", "log_stars", "monotone"],
        qcommlab.ranklab.NorApproxReport: [
            "ok", "max_error", "monomials", "predicted_monomial_lower_bound"],
    }
    for cls, names in fields.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_benchmark_surface_is_pinned():
    # perfbench/workloads.py and perfbench/tracing.py read these names; a
    # change that drops one fails here, not only in a benchmark run
    qcommlab.QSearchConfig(rng_seed=0)
    qcommlab.RecursionConfig(base_threshold=16)
    qcommlab.AcceptanceMatrix(n=1, values=[[1.0, 0.0], [0.0, 1.0]])
    attributes = {
        qcommlab.IntersectionResult: [
            "index", "cost", "iterations", "measurements", "found"],
        qcommlab.zoo.CostEnvelopeFit: ["ratios", "log_stars"],
        qcommlab.NdetProtocolBundle: [
            "protocol", "per_row_norm", "source_matrix"],
        qcommlab.zoo.CorpusEntry: ["name", "protocol"],
        qcommlab.Protocol: ["input_bits"],
        qcommlab.engine.SimulationResult: [
            "accept_prob", "cost", "final_state"],
        qcommlab.engine.TranscriptDecomposition: [
            "output_components", "reconstruct"],
        qcommlab.ranklab.ScalarizationTrial: [
            "success", "witness", "v_table", "attempt"],
        qcommlab.NdetWitness: ["matrix", "rank"],
        qcommlab.ranklab.MonomialRankReport: ["ok", "monomials"],
    }
    for cls, names in attributes.items():
        fields = (cls._fields if hasattr(cls, "_fields")
                  else [f.name for f in dataclasses.fields(cls)])
        for name in names:
            assert name in fields or hasattr(cls, name), (cls.__name__, name)
    fit = qcommlab.fit_cost_envelope([16])
    assert len(fit.ratios) == len(fit.log_stars) == 1
    # perfbench/tracing.py traces step builds through the instance's
    # __dict__, so build must stay an instance field
    step = qcommlab.ProtocolStep("alice", (0,), lambda inputs: [])
    assert "build" in step.__dict__


def test_gate_surface_is_pinned():
    # GateStack is the one checked-gate type and apply_on_qubits its one
    # kernel: a second gate form or a kernel parameter is an edit here
    gate = qcommlab.linalg.GateStack([[[1.0]]], ())
    assert qcommlab.linalg.GateStack.__slots__ == (
        "unitaries", "rows", "targets")
    assert len(gate) == 1 and callable(gate.stack_rows)
    assert not hasattr(qcommlab.linalg, "Gate")
    assert list(inspect.signature(qcommlab.apply_on_qubits).parameters) == [
        "state", "u", "targets"]
