"""Distribution container, information measures, and file formats."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from polytreelab.distribution import (
    DEFAULT_STATE_CAP,
    Dataset,
    Distribution,
    VariableMeta,
    bernoulli_bias_for_entropy,
    binary_entropy_bits,
    conditional_entropy,
    empirical_distribution,
    entropy,
    marginal,
    mutual_information,
    read_arity_sidecar,
    read_dataset_csv,
    read_distribution_json,
    write_dataset_csv,
    write_distribution_json,
)
from polytreelab.errors import (
    CapExceededError,
    FormatError,
    ValidationError,
)


def fair_coin() -> Distribution:
    return Distribution([VariableMeta("X1", 2)], np.array([0.5, 0.5]))


def random_distribution(arities, seed) -> Distribution:
    rng = np.random.default_rng(seed)
    table = rng.exponential(size=tuple(arities))
    table /= table.sum()
    metas = [VariableMeta(f"X{i + 1}", a) for i, a in enumerate(arities)]
    return Distribution(metas, table)


class TestDistributionValidation:
    def test_rejects_wrong_table_size(self):
        with pytest.raises(ValidationError):
            Distribution([VariableMeta("X1", 2)], np.array([0.5, 0.25, 0.25]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            Distribution([VariableMeta("X1", 2)], np.array([0.6, 0.6]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            Distribution([VariableMeta("X1", 2)], np.array([1.1, -0.1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_entries(self, bad):
        metas = [VariableMeta("A", 2), VariableMeta("B", 2)]
        with pytest.raises(ValidationError, match="finite"):
            Distribution(metas, np.array([bad, 0.5, 0.25, 0.25]))

    def test_rejects_no_variables(self):
        with pytest.raises(ValidationError, match="at least one variable"):
            Distribution([], np.array([1.0]))

    def test_rejects_bool_arity(self):
        with pytest.raises(ValidationError):
            VariableMeta("x", True)

    def test_clamps_tiny_negative_noise(self):
        dist = Distribution([VariableMeta("X1", 2)], np.array([1.0 + 1e-13, -1e-13]))
        assert dist.table[1] == 0.0

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            Distribution(
                [VariableMeta("X1", 2), VariableMeta("X1", 2)],
                np.full((2, 2), 0.25),
            )

    def test_state_cap_names_constraint(self):
        metas = [VariableMeta(f"X{i}", 2) for i in range(8)]
        with pytest.raises(CapExceededError) as exc:
            Distribution(metas, np.full((2,) * 8, 1.0 / 256), max_states=100)
        assert exc.value.constraint == "state_cap"

    def test_table_is_read_only(self):
        dist = fair_coin()
        with pytest.raises(ValueError):
            dist.table[0] = 0.9

    def test_index_of(self):
        dist = random_distribution([2, 3], seed=0)
        assert dist.index_of("X2") == 1
        with pytest.raises(ValidationError):
            dist.index_of("nope")


class TestEntropy:
    def test_fair_coin_is_one_bit(self):
        assert entropy(fair_coin()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_four_states_is_two_bits(self):
        dist = Distribution([VariableMeta("X1", 4)], np.full(4, 0.25))
        assert entropy(dist) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass_is_zero_bits(self):
        dist = Distribution([VariableMeta("X1", 3)], np.array([1.0, 0.0, 0.0]))
        assert entropy(dist) == pytest.approx(0.0, abs=1e-12)

    def test_subset_entropy_matches_marginal(self):
        dist = random_distribution([2, 3, 2], seed=1)
        assert entropy(dist, [0, 2]) == pytest.approx(
            entropy(marginal(dist, [0, 2])), abs=1e-12
        )

    def test_chain_rule(self):
        for seed in range(25):
            dist = random_distribution([2, 3, 2], seed=seed)
            joint = entropy(dist, [0, 1])
            chained = entropy(dist, [1]) + conditional_entropy(dist, 0, [1])
            assert joint == pytest.approx(chained, abs=1e-9)

    def test_conditioning_never_increases_entropy(self):
        for seed in range(25):
            dist = random_distribution([3, 2, 2], seed=100 + seed)
            assert conditional_entropy(dist, 0, [1, 2]) <= entropy(dist, [0]) + 1e-12

    @pytest.mark.parametrize(
        "variables, fragment",
        [([0, 0], "must be distinct"), ([2], "out of range"), ([-1], "out of range")],
    )
    def test_rejects_repeated_or_out_of_range_indices(self, variables, fragment):
        dist = random_distribution([2, 2], seed=2)
        with pytest.raises(ValidationError, match=fragment):
            entropy(dist, variables)

    def test_conditional_rejects_overlap(self):
        dist = random_distribution([2, 2], seed=2)
        with pytest.raises(ValidationError):
            conditional_entropy(dist, 0, [0])


class TestMutualInformation:
    def test_symmetry_is_exact(self):
        for seed in range(25):
            dist = random_distribution([3, 4], seed=seed)
            assert mutual_information(dist, 0, 1) == mutual_information(dist, 1, 0)

    def test_independent_variables_have_zero_information(self):
        outer = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        dist = Distribution(
            [VariableMeta("X1", 2), VariableMeta("X2", 3)], outer
        )
        assert mutual_information(dist, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_copy_carries_full_entropy(self):
        table = np.array([[0.5, 0.0], [0.0, 0.5]])
        dist = Distribution([VariableMeta("X1", 2), VariableMeta("X2", 2)], table)
        assert mutual_information(dist, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_one_variable_twice(self):
        dist = random_distribution([2, 3], seed=5)
        with pytest.raises(ValidationError, match="two distinct variables"):
            mutual_information(dist, 1, 1)

    def test_bounded_by_marginal_entropies(self):
        for seed in range(25):
            dist = random_distribution([2, 3], seed=200 + seed)
            mi = mutual_information(dist, 0, 1)
            assert -1e-12 <= mi <= min(entropy(dist, [0]), entropy(dist, [1])) + 1e-9


class TestMarginal:
    def test_preserves_requested_order(self):
        dist = random_distribution([2, 3, 4], seed=3)
        marg = marginal(dist, [2, 0])
        assert marg.names == ("X3", "X1")
        assert marg.arities == (4, 2)

    def test_rejects_no_variables(self):
        dist = random_distribution([2, 3], seed=6)
        with pytest.raises(ValidationError, match="at least one variable"):
            marginal(dist, [])

    def test_values_match_manual_sum(self):
        dist = random_distribution([2, 3, 2], seed=4)
        marg = marginal(dist, [1])
        manual = dist.table.sum(axis=(0, 2))
        np.testing.assert_allclose(marg.table, manual, atol=1e-12)


class TestBernoulliSolver:
    def test_matches_independent_root_finder(self):
        for bits in [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0]:
            ours = bernoulli_bias_for_entropy(bits)
            if bits == 1.0:
                assert ours == pytest.approx(0.5, abs=1e-12)
                continue
            reference = brentq(
                lambda p: binary_entropy_bits(p) - bits, 1e-16, 0.5, xtol=1e-15
            )
            assert ours == pytest.approx(reference, abs=1e-10)

    def test_half_bit_bias_window(self):
        p = bernoulli_bias_for_entropy(0.5)
        assert 0.10 < p < 0.12
        assert abs(binary_entropy_bits(p) - 0.5) < 1e-10

    def test_half_bit_bias_is_pinned_to_the_last_bit(self):
        # DEFAULT_CLAUSE_BIAS, and so every gadget fixture, is this float.
        assert bernoulli_bias_for_entropy(0.5).hex() == "0x1.c2ac93f695678p-4"

    @pytest.mark.parametrize("bits", [1e-5, 1e-8, 1e-12, 1e-15, 1e-20, 1e-100, 1e-300])
    def test_tiny_targets_are_met_to_relative_precision(self, bits):
        # A bracket 1e-17 wide in p alone misses 1e-20 by a factor of 2e4.
        p = bernoulli_bias_for_entropy(bits)
        assert abs(binary_entropy_bits(p) - bits) <= 1e-12 * bits

    def test_a_target_no_float_bias_meets_is_refused(self):
        with pytest.raises(ValidationError, match="no Bernoulli bias has entropy 5e-324"):
            bernoulli_bias_for_entropy(5e-324)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            bernoulli_bias_for_entropy(0.0)
        with pytest.raises(ValidationError):
            bernoulli_bias_for_entropy(1.5)
        with pytest.raises(ValidationError, match="Bernoulli bias"):
            binary_entropy_bits(1.5)

    def test_binary_entropy_endpoints(self):
        assert binary_entropy_bits(0.0) == 0.0
        assert binary_entropy_bits(1.0) == 0.0
        assert binary_entropy_bits(0.5) == pytest.approx(1.0, abs=1e-12)


class TestEmpirical:
    def test_counts_to_exact_atoms(self):
        metas = [VariableMeta("A", 2), VariableMeta("B", 2)]
        rows = np.array([[0, 0], [0, 0], [1, 1], [0, 1]])
        dist = empirical_distribution(Dataset(metas, rows))
        np.testing.assert_allclose(
            dist.table, np.array([[0.5, 0.25], [0.0, 0.25]]), atol=1e-12
        )

    def test_counts_match_add_at(self):
        rng = np.random.default_rng(11)
        metas = [VariableMeta("A", 3), VariableMeta("B", 2), VariableMeta("C", 4)]
        rows = np.stack([rng.integers(0, m.arity, size=5000) for m in metas], axis=1)
        counts = np.zeros(24)
        np.add.at(counts, np.ravel_multi_index(rows.T, (3, 2, 4)), 1.0)
        counts /= counts.sum()
        dist = empirical_distribution(Dataset(metas, rows))
        np.testing.assert_array_equal(dist.table.reshape(-1), counts)

    def test_rejects_out_of_range_values(self):
        metas = [VariableMeta("A", 2)]
        with pytest.raises(ValidationError):
            Dataset(metas, np.array([[2]]))


class TestFileFormats:
    def test_dataset_csv_round_trip(self, tmp_path):
        metas = [VariableMeta("A", 2), VariableMeta("B", 3)]
        rows = np.array([[0, 2], [1, 0], [0, 1]])
        path = str(tmp_path / "d.csv")
        write_dataset_csv(Dataset(metas, rows), path)
        back = read_dataset_csv(path)
        assert [m.name for m in back.variables] == ["A", "B"]
        np.testing.assert_array_equal(back.rows, rows)

    def test_csv_arity_defaults_to_max_plus_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n0,1\n1,0\n")
        back = read_dataset_csv(str(path))
        assert [m.arity for m in back.variables] == [2, 2]

    def test_sidecar_overrides_arity(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("A\n0\n0\n")
        side = tmp_path / "a.json"
        side.write_text(json.dumps({"A": 4}))
        back = read_dataset_csv(str(data), read_arity_sidecar(str(side)))
        assert back.variables[0].arity == 4

    def test_sidecar_rejects_bool_arity(self, tmp_path):
        side = tmp_path / "a.json"
        side.write_text(json.dumps({"A": True}))
        with pytest.raises(FormatError):
            read_arity_sidecar(str(side))

    def test_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(str(path))

    def test_csv_rejects_non_integer(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A\n0.5\n")
        with pytest.raises(FormatError):
            read_dataset_csv(str(path))

    @pytest.mark.parametrize("value", ["99999999999999999999", "-9223372036854775809"])
    def test_csv_rejects_values_outside_int64(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"A,B\n1,0\n{value},1\n")
        with pytest.raises(FormatError, match=r"d\.csv:3: value outside the int64 range"):
            read_dataset_csv(str(path))

    def test_csv_reads_the_largest_int64(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('A\n"9223372036854775807"\n')  # quoted: read by the row loop
        assert read_dataset_csv(str(path)).rows[0, 0] == 2**63 - 1

    @pytest.mark.parametrize("arity", ["2.7", "2.0", "true", '"2"', "null", "0"])
    def test_distribution_json_rejects_non_integer_arity(self, tmp_path, arity):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"variables": [{"name": "A", "arity": %s}], "probabilities": [0.5, 0.5]}' % arity
        )
        with pytest.raises(FormatError, match="arity for 'A' must be an integer >= 1"):
            read_distribution_json(str(path))

    @pytest.mark.parametrize("name", ["null", "7", '""'])
    def test_distribution_json_rejects_non_string_or_empty_name(self, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"variables": [{"name": %s, "arity": 2}], "probabilities": [0.5, 0.5]}' % name
        )
        with pytest.raises(FormatError, match="variable name must be a non-empty string"):
            read_distribution_json(str(path))

    def test_distribution_json_round_trip(self, tmp_path):
        dist = random_distribution([2, 3], seed=5)
        path = str(tmp_path / "dist.json")
        write_distribution_json(dist, path)
        back = read_distribution_json(path)
        assert back.names == dist.names
        np.testing.assert_allclose(back.table, dist.table, atol=1e-12)

    def test_distribution_json_rejects_bad_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"variables\": []}")
        with pytest.raises(FormatError):
            read_distribution_json(str(path))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_distribution_json_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"variables": [{"name": "A", "arity": 2}], "probabilities": [%s, 0.5]}' % bad
        )
        with pytest.raises(FormatError, match="finite"):
            read_distribution_json(str(path))

    def test_distribution_json_honours_state_cap(self, tmp_path):
        dist = random_distribution([2, 2, 2], seed=6)
        path = str(tmp_path / "dist.json")
        write_distribution_json(dist, path)
        with pytest.raises(CapExceededError) as exc:
            read_distribution_json(path, max_states=4)
        assert exc.value.constraint == "state_cap"


def test_default_state_cap_value():
    assert DEFAULT_STATE_CAP == 2**24


def test_entropy_handles_zero_probability_cells():
    table = np.array([[0.5, 0.0], [0.0, 0.5]])
    dist = Distribution([VariableMeta("A", 2), VariableMeta("B", 2)], table)
    assert entropy(dist) == pytest.approx(1.0, abs=1e-12)
    assert conditional_entropy(dist, 0, [1]) == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(conditional_entropy(dist, 1, [0]))
