import json

import numpy as np

from qcommlab import cli, engine, linalg, ranklab, zoo


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--fn", "EQ", "--n", "2")
    assert code == 0
    assert out == "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"
    code, out, _ = run(capsys, "matrix", "--fn", "DISJ", "--n", "1")
    assert code == 0 and out == "1,1\n1,0\n"


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--fn", "INT", "--n", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "values": [[0, 0], [0, 1]]}


def test_matrix_to_file(tmp_path, capsys):
    path = tmp_path / "eq.csv"
    code, out, _ = run(capsys, "matrix", "--fn", "EQ", "--n", "1",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == "1,0\n0,1\n"


def test_ndet_agreement(capsys):
    for fn, n, cost in [("EQ", 3, 4), ("NEQ", 3, 2), ("INT", 4, 3),
                        ("DISJ", 2, 3)]:
        code, out, _ = run(capsys, "ndet", "--fn", fn, "--n", str(n))
        assert code == 0, (fn, out)
        assert f"protocol cost {cost}" in out
        assert "agree" in out and "DISAGREE" not in out


def test_intersect_simulation(capsys):
    code, out, _ = run(capsys, "intersect", "--n", "4", "--trials", "50",
                       "--seed", "7", "--x", "0010", "--y", "0010")
    assert code == 0
    assert "false_positives 0" in out
    code, out, _ = run(capsys, "intersect", "--n", "1", "--trials", "5",
                       "--seed", "3", "--x", "1", "--y", "1")
    assert code == 0 and "mean_cost 2.00" in out


def test_intersect_checks_each_cost_against_the_model(capsys, monkeypatch):
    argv = ["intersect", "--n", "64", "--seed", "5", "--trials", "40"]
    code, out, _ = run(capsys, *argv)
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert code == 0
    assert 0 < int(fields["max_cost"]) <= float(fields["cost_model"])
    # a trial that costs more than the model is a failed check
    monkeypatch.setattr(cli.zoo, "cost_model", lambda n, rcfg: 1.0)
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "cost_model 1\n" in out


def test_simulate_csv_prints_the_exact_zero_pattern(capsys):
    # rounding noise in the svd protocol's acceptance probabilities is
    # printed as 0, where support() calls it zero
    code, out, _ = run(capsys, "simulate", "--protocol", "svd", "--fn", "INT",
                       "--n", "4")
    table = np.array([[float(v) for v in row.split(",")]
                      for row in out.splitlines()])
    want = ranklab.build_comm_matrix("INT", 4).values == 1
    assert code == 0 and np.array_equal(table != 0, want)


def test_intersect_cost_only(capsys):
    code, out, _ = run(capsys, "intersect", "--n", "1048576", "--cost-only")
    assert code == 0 and out.startswith("cost_model ")


def test_intersect_cost_only_prints_every_digit(capsys):
    # 12,258,668 qubits, which a 6-digit format would round
    code, out, _ = run(capsys, "intersect", "--n", "1073741824", "--cost-only")
    assert code == 0 and out == "cost_model 12258668\n"
    assert float(out.split()[1]) == zoo.cost_model(1 << 30)


def test_intersect_cost_only_rejects_n_above_the_float_range(capsys):
    code, out, err = run(capsys, "intersect", "--n", str(10 ** 400),
                         "--cost-only")
    assert code == 2 and out == ""
    assert err == "error: n must be finite\n"


def test_intersect_rejects_n_below_one(capsys):
    for n in ("0", "-3"):
        for mode in (["--seed", "1"], ["--cost-only"]):
            code, out, err = run(capsys, "intersect", "--n", n, *mode)
            assert code == 2 and out == "", (n, mode)
            assert err == "error: n must be >= 1\n", (n, mode)


def test_intersect_requires_seed(capsys):
    code, _, err = run(capsys, "intersect", "--n", "4")
    assert code == 2 and "--seed" in err


def test_audit_commands(capsys):
    code, out, _ = run(capsys, "audit", "rank-bound", "--n", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "audit", "eq-fullrank", "--n", "4",
                       "--trials", "100", "--seed", "1")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "audit", "monomial-rank", "--n", "4",
                       "--trials", "50", "--seed", "1")
    assert code == 0 and json.loads(out)["ok"] is True
    code, _, err = run(capsys, "audit", "eq-fullrank", "--n", "4")
    assert code == 2


def test_simulate_pair_and_matrix(capsys):
    code, out, _ = run(capsys, "simulate", "--fn", "EQ", "--n", "2",
                       "--x", "01", "--y", "01")
    assert code == 0
    obj = json.loads(out)
    assert obj["accept_prob"] == 1.0 and obj["cost"] == 3
    code, out, _ = run(capsys, "simulate", "--fn", "EQ", "--n", "1",
                       "--protocol", "svd", "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 1


def test_lone_input_is_usage_error(capsys):
    for argv in (["intersect", "--n", "4", "--seed", "1", "--trials", "3",
                  "--x", "1111"],
                 ["intersect", "--n", "4", "--seed", "1", "--trials", "3",
                  "--y", "1111"],
                 ["simulate", "--fn", "EQ", "--n", "1", "--x", "1"],
                 ["simulate", "--fn", "EQ", "--n", "1", "--y", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "--x and --y" in err


def test_trials_below_one_is_usage_error(capsys):
    for cmd in (["intersect", "--n", "4", "--seed", "1"],
                ["audit", "eq-fullrank", "--n", "4", "--seed", "1"],
                ["audit", "disj-triangular", "--n", "4", "--seed", "1"],
                ["audit", "monomial-rank", "--n", "4", "--seed", "1"]):
        for trials in ("0", "-1", "-2"):
            code, out, err = run(capsys, *cmd, "--trials", trials)
            assert code == 2 and out == "", (cmd, trials)
            assert "--trials" in err and "must be >= 1" in err


def test_intersect_rejects_non_bit_inputs(capsys):
    for x, y in (("01a0", "1111"), ("1111", "0120"), ("1 11", "1111")):
        code, out, err = run(capsys, "intersect", "--n", "4", "--seed", "1",
                             "--trials", "3", "--x", x, "--y", y)
        assert code == 2 and out == "", (x, y)
        assert "inputs must be 0/1 sequences" in err


def test_intersect_rejects_inputs_of_the_wrong_length(capsys):
    for n, x, y in (("3", "0101", "0101"), ("4", "0101", "010"),
                    ("4", "01011", "01011")):
        code, out, err = run(capsys, "intersect", "--n", n, "--seed", "1",
                             "--trials", "3", "--x", x, "--y", y)
        assert code == 2 and out == "", (n, x, y)
        assert err == "input length does not match --n\n"


def test_intersect_simulates_only_up_to_64_bits(capsys):
    code, out, err = run(capsys, "intersect", "--n", "65", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "simulation capped at n = 64; use --cost-only\n"
    code, out, _ = run(capsys, "intersect", "--n", "65", "--cost-only")
    assert code == 0 and out.startswith("cost_model ")


def test_non_integer_trials_is_usage_error(capsys):
    for cmd in (["intersect", "--n", "4", "--seed", "1"],
                ["audit", "eq-fullrank", "--n", "2", "--seed", "1"]):
        code, out, err = run(capsys, *cmd, "--trials", "abc")
        assert code == 2 and out == "", cmd
        assert "argument --trials: invalid int value: 'abc'" in err


def test_simulate_above_the_acceptance_guard_is_capacity_error(capsys):
    n = engine.ACCEPTANCE_N_GUARD + 1
    for protocol in ("trivial", "svd"):
        code, out, err = run(capsys, "simulate", "--fn", "EQ", "--n", str(n),
                             "--protocol", protocol)
        assert code == 1 and out == "", protocol
        assert err == (f"error: acceptance_matrix over 2^{2 * n} pairs; "
                       f"it tabulates only n <= {n - 1}\n")


def test_deterministic_output(capsys):
    args = ["intersect", "--n", "8", "--trials", "20", "--seed", "11"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_errors_exit_two(capsys):
    code, _, _ = run(capsys, "matrix", "--fn", "BAD", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "nosuch")
    assert code == 2
    code, _, _ = run(capsys, "matrix", "--fn", "EQ", "--n", "11")
    assert code == 2
    code, out, err = run(capsys, "audit", "eq-fullrank", "--n", "-1",
                         "--seed", "1")
    assert (code, out, err) == (2, "", "error: n must be an integer in 1..8\n")


def test_unread_flags_are_usage_errors(capsys):
    for argv in (["ndet", "--fn", "EQ", "--n", "2", "--format", "json"],
                 ["matrix", "--fn", "EQ", "--n", "2", "--seed", "1"],
                 ["matrix", "--fn", "EQ", "--n", "2", "--tol", "1e-6"],
                 ["ndet", "--fn", "EQ", "--n", "2", "--seed", "1"],
                 ["intersect", "--n", "4", "--seed", "1", "--tol", "1e-6"],
                 ["intersect", "--n", "4", "--seed", "1", "--format", "json"],
                 ["audit", "rank-bound", "--n", "2", "--format", "json"],
                 ["simulate", "--fn", "EQ", "--n", "2", "--seed", "1"],
                 ["ndet", "--fn", "EQ", "--n", "2", "--tol", "1e-6"],
                 ["audit", "eq-fullrank", "--n", "2", "--seed", "1",
                  "--tol", "1e-6"],
                 ["simulate", "--fn", "EQ", "--n", "2", "--tol", "1e-6"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == "", argv


def test_mode_unread_flags_are_usage_errors(capsys):
    rank_bound = ["audit", "rank-bound", "--n", "2"]
    cost_only = ["intersect", "--n", "4", "--cost-only"]
    for argv, message in (
            (rank_bound + ["--trials", "5", "--seed", "5"],
             "audit rank-bound does not read --seed, --trials"),
            (rank_bound + ["--seed", "5"],
             "audit rank-bound does not read --seed"),
            (rank_bound + ["--trials", "100"],
             "audit rank-bound does not read --trials"),
            (cost_only + ["--seed", "1", "--trials", "9", "--x", "01",
                          "--y", "10"],
             "intersect --cost-only does not read --seed, --trials, --x, --y"),
            (cost_only + ["--trials", "200"],
             "intersect --cost-only does not read --trials"),
            (cost_only + ["--x", "0101", "--y", "0101"],
             "intersect --cost-only does not read --x, --y")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: {message}\n"
    code, out, _ = run(capsys, *rank_bound)
    assert code == 0 and json.loads(out)["trials"] == 6
    code, out, _ = run(capsys, *cost_only)
    assert code == 0 and out == "cost_model 108\n"
    # the modes that run trials keep their default counts
    code, out, _ = run(capsys, "audit", "disj-triangular", "--n", "2",
                       "--seed", "1")
    assert code == 0 and json.loads(out)["trials"] == 100
    code, out, _ = run(capsys, "intersect", "--n", "2", "--seed", "1")
    assert code == 0 and "trials 200\n" in out


def test_ndet_above_the_acceptance_guard_makes_no_gate(capsys, monkeypatch):
    n = engine.ACCEPTANCE_N_GUARD + 1
    checked = []
    is_unitary = linalg.is_unitary

    def counted(u):
        checked.append(np.shape(u))
        return is_unitary(u)

    monkeypatch.setattr(linalg, "is_unitary", counted)
    code, out, _ = run(capsys, "ndet", "--fn", "EQ", "--n", str(n))
    assert code == 0
    assert "acceptance pattern skipped" in out and "agree" in out
    assert checked == []
