"""Command-line surface: reports, artifacts, exit codes, determinism.

The one hypothesis test draws its examples with ``derandomize=True``, so
every run checks the same commands, random joints, bounds and option orders.
"""

import json
import math
import pathlib
import shutil
import sys

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import polytreelab
from polytreelab import search as search_mod
from polytreelab.branching import learn_optimal_branching, mutual_information_edges
from polytreelab.cli import main
from polytreelab.distribution import (
    binary_entropy_bits,
    empirical_distribution,
    read_arity_sidecar,
    read_dataset_csv,
    read_distribution_json,
    write_distribution_json,
)
from polytreelab.errors import ToolkitError
from polytreelab.gadget import DEFAULT_CLAUSE_BIAS
from polytreelab.generators import (
    parity_fixture,
    random_joint_distribution,
    random_polytree_instance,
)
from polytreelab.reports import canonical_json, report_schema
from polytreelab.structure import (
    read_structure_dot,
    read_structure_json,
    score,
    write_structure_dot,
    write_structure_json,
)

SCHEMA = report_schema()
CORPUS = pathlib.Path(polytreelab.__file__).parent / "data" / "cnf"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name in ("parity2", "parity3"):
        dist, generating = parity_fixture(name)
        write_distribution_json(dist, str(root / f"{name}.json"))
        write_structure_json(
            generating, list(dist.names), str(root / f"{name}_structure.json")
        )
    for path in CORPUS.glob("*.cnf"):
        shutil.copy(path, root)
    return root


def run(args, expect_exit=0):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == expect_exit, result.output
    return result


def run_json(args, expect_exit=0):
    result = run(args, expect_exit)
    doc = json.loads(result.output)
    jsonschema.validate(instance=doc, schema=SCHEMA)
    return doc


class TestLearnBranching:
    def test_parity_is_invisible(self, workdir):
        doc = run_json(["learn-branching", "--dist", str(workdir / "parity2.json")])
        assert doc["kind"] == "learn-branching"
        assert doc["score"]["total_bits"] == pytest.approx(3.0, abs=1e-9)
        assert doc["structure"]["parents"] == [[], [], []]
        assert len(doc["edges"]) == 3
        assert all(abs(e["mi_bits"]) < 1e-9 for e in doc["edges"])

    def test_writes_json_and_dot_artifacts(self, workdir, tmp_path):
        json_out = tmp_path / "learned.json"
        run_json(
            [
                "learn-branching",
                "--dist", str(workdir / "parity2.json"),
                "--out", str(json_out),
            ]
        )
        structure, names = read_structure_json(str(json_out))
        assert names == ("X1", "X2", "X3")
        assert structure.parents == ((), (), ())
        dot_out = tmp_path / "learned.dot"
        run_json(
            [
                "learn-branching",
                "--dist", str(workdir / "parity2.json"),
                "--out", str(dot_out),
                "--format", "dot",
            ]
        )
        structure2, names2 = read_structure_dot(str(dot_out))
        assert names2 == names
        assert structure2 == structure

    def test_learns_from_dataset_csv(self, workdir, tmp_path):
        data = tmp_path / "parity2.csv"
        run_json(
            [
                "gen", "example",
                "--name", "parity2",
                "--format", "csv",
                "--out", str(data),
            ]
        )
        doc = run_json(["learn-branching", "--data", str(data)])
        assert doc["score"]["total_bits"] == pytest.approx(3.0, abs=1e-9)

    def test_requires_exactly_one_input(self, workdir, tmp_path):
        data = tmp_path / "unused.csv"
        doc = run_json(
            [
                "learn-branching",
                "--dist", str(workdir / "parity2.json"),
                "--data", str(data),
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        doc = run_json(["learn-branching"], expect_exit=1)
        assert doc["kind"] == "error"

    def test_deterministic_variable_reports_positive_zero(self, tmp_path):
        path = tmp_path / "constant.json"
        path.write_text(
            '{"variables": [{"name": "A", "arity": 1}, {"name": "B", "arity": 2}],'
            ' "probabilities": [0.25, 0.75]}'
        )
        result = run(["learn-branching", "--dist", str(path)])
        assert "-0.0" not in result.output
        per_node = json.loads(result.output)["score"]["per_node"]
        assert math.copysign(1.0, per_node[0]["h_bits"]) == 1.0

    def test_computes_the_mutual_informations_once(self, workdir, monkeypatch):
        calls = []

        def counted(dist):
            calls.append(dist)
            return mutual_information_edges(dist)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("polytreelab."):
                if getattr(module, "mutual_information_edges", None) is mutual_information_edges:
                    monkeypatch.setattr(module, "mutual_information_edges", counted)
        run_json(["learn-branching", "--dist", str(workdir / "parity3.json")])
        assert len(calls) == 1

    def test_missing_file_reports_structured_error(self, workdir):
        doc = run_json(
            ["learn-branching", "--dist", str(workdir / "absent.json")],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        assert doc["error"]["type"]


class TestScoreCommand:
    def test_scores_generating_structure(self, workdir):
        doc = run_json(
            [
                "score",
                "--dist", str(workdir / "parity2.json"),
                "--structure", str(workdir / "parity2_structure.json"),
            ]
        )
        assert doc["kind"] == "score"
        assert doc["score"]["total_bits"] == pytest.approx(2.0, abs=1e-9)
        per_node = {row["name"]: row for row in doc["score"]["per_node"]}
        assert per_node["X1"]["parents"] == ["X2", "X3"]
        assert per_node["X1"]["h_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_report_shape(self, workdir):
        doc = run_json(
            [
                "score",
                "--dist", str(workdir / "parity2.json"),
                "--structure", str(workdir / "parity2_structure.json"),
            ]
        )["score"]
        assert doc["total_bits"] == pytest.approx(2.0, abs=1e-9)
        assert doc["per_node"][0]["parents"] == ["X2", "X3"]
        assert doc["per_node"][0]["h_bits"] == pytest.approx(0.0, abs=1e-9)

    def test_structure_option_is_required(self, workdir):
        result = CliRunner().invoke(
            main, ["score", "--dist", str(workdir / "parity2.json")]
        )
        assert result.exit_code == 2

    def test_name_mismatch_is_an_error(self, workdir):
        doc = run_json(
            [
                "score",
                "--dist", str(workdir / "parity3.json"),
                "--structure", str(workdir / "parity2_structure.json"),
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"

    @pytest.mark.parametrize(
        "command",
        [["score", "--structure"], ["heuristic-polytree", "--k", "2", "--seed-structure"]],
        ids=["score", "heuristic-polytree"],
    )
    @pytest.mark.parametrize(
        "structure",
        [
            {"parents": [1, [], []]},
            {"parents": [[1.9, 2], [], []]},
            {"parents": [["1"], [], []]},
            {"parents": [[True], [], []]},
            {"names": ["X1", None, "X3"], "parents": [[], [], []]},
            {"names": ["X1", "", "X3"], "parents": [[], [], []]},
            {"parents": [[1, 1], [], []]},
        ],
        ids=["entry-not-a-list", "float-index", "string-index", "bool-index", "null-name",
             "empty-name", "repeated-parent"],
    )
    def test_malformed_structure_json_is_refused(self, workdir, tmp_path, command, structure):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(structure))
        doc = run_json(
            [*command, str(path), "--dist", str(workdir / "parity2.json")], expect_exit=1
        )
        assert doc["error"]["type"] == "FormatError"

    def test_dot_structures_are_read(self, workdir, tmp_path):
        dist, generating = parity_fixture("parity2")
        path = tmp_path / "generating.dot"
        write_structure_dot(generating, list(dist.names), str(path))
        dist_path = str(workdir / "parity2.json")
        doc = run_json(["score", "--dist", dist_path, "--structure", str(path)])
        assert doc["score"]["total_bits"] == pytest.approx(2.0, abs=1e-9)
        doc = run_json(
            ["heuristic-polytree", "--dist", dist_path, "--k", "2", "--seed-structure", str(path)]
        )
        assert doc["best_score_bits"] == pytest.approx(2.0, abs=1e-9)


class TestExactPolytreeAndRatio:
    def test_parity3_unbounded(self, workdir):
        doc = run_json(["exact-polytree", "--dist", str(workdir / "parity3.json")])
        assert doc["kind"] == "exact-polytree"
        assert doc["best_score_bits"] == pytest.approx(3.0, abs=1e-9)
        assert doc["branching_score_bits"] == pytest.approx(4.0, abs=1e-9)
        assert doc["ratio"] == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_k_one_matches_branching(self, workdir):
        doc = run_json(
            ["exact-polytree", "--dist", str(workdir / "parity3.json"), "--k", "1"]
        )
        assert doc["best_score_bits"] == pytest.approx(4.0, abs=1e-9)
        assert doc["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_ratio_command(self, workdir):
        doc = run_json(["ratio", "--dist", str(workdir / "parity3.json"), "--k", "3"])
        assert doc["kind"] == "ratio"
        assert doc["ratio"] == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert doc["excess_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_jobs_do_not_change_output(self, workdir):
        args = ["exact-polytree", "--dist", str(workdir / "parity3.json")]
        one = run(args + ["--jobs", "1"]).output
        two = run(args + ["--jobs", "2"]).output
        assert one == two

    @pytest.mark.parametrize("command", ["exact-polytree", "ratio", "verify-bounds"])
    def test_zero_jobs_is_refused(self, workdir, command):
        doc = run_json(
            [command, "--dist", str(workdir / "parity3.json"), "--jobs", "0"],
            expect_exit=1,
        )
        assert doc["error"] == {
            "type": "ValidationError",
            "message": "jobs must be >= 1, got 0",
        }

    def test_exact_cap_is_enforced(self, workdir):
        doc = run_json(
            [
                "exact-polytree",
                "--dist", str(workdir / "parity3.json"),
                "--exact-cap", "3",
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        assert doc["error"]["constraint"] == "exact_search_max_nodes"


class TestHeuristicPolytree:
    def test_runs_and_reports(self, workdir):
        doc = run_json(
            ["heuristic-polytree", "--dist", str(workdir / "parity3.json"), "--k", "2"]
        )
        assert doc["kind"] == "heuristic-polytree"
        assert doc["best_score_bits"] <= doc["branching_score_bits"] + 1e-9

    def test_accepts_seed_structure(self, workdir, tmp_path):
        seed_path = tmp_path / "seed.json"
        run_json(
            [
                "exact-polytree",
                "--dist", str(workdir / "parity3.json"),
                "--out", str(seed_path),
            ]
        )
        doc = run_json(
            [
                "heuristic-polytree",
                "--dist", str(workdir / "parity3.json"),
                "--k", "3",
                "--seed-structure", str(seed_path),
            ]
        )
        assert doc["best_score_bits"] == pytest.approx(3.0, abs=1e-9)


class TestVerifyBounds:
    def test_passes_on_parity(self, workdir):
        doc = run_json(["verify-bounds", "--dist", str(workdir / "parity3.json")])
        assert doc["kind"] == "verify-bounds"
        assert doc["passed"] is True
        names = {row["name"] for row in doc["bounds"]}
        assert "log_node_count_bound" in names
        assert "entropy_spread_bound" in names

    def test_negative_tolerance_exits_one(self, workdir):
        doc = run_json(
            [
                "verify-bounds",
                "--dist", str(workdir / "parity3.json"),
                "--tolerance", "-1",
            ],
            expect_exit=1,
        )
        assert doc["passed"] is False

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_is_refused(self, workdir, tolerance):
        doc = run_json(
            [
                "verify-bounds",
                "--dist", str(workdir / "parity3.json"),
                "--tolerance", tolerance,
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        assert doc["error"]["type"] == "ValidationError"
        assert "tolerance" in doc["error"]["message"]

    @pytest.mark.parametrize("extra", [[], ["--jobs", "0"]], ids=["alone", "jobs-0"])
    def test_non_finite_tolerance_is_refused_before_the_search(
        self, workdir, monkeypatch, extra
    ):
        def entered(*args, **kwargs):
            raise AssertionError("the exact search ran")

        monkeypatch.setattr(search_mod, "exact_optimal_polytree", entered)
        doc = run_json(
            [
                "verify-bounds",
                "--dist", str(workdir / "parity3.json"),
                "--tolerance", "nan",
                *extra,
            ],
            expect_exit=1,
        )
        assert doc["error"]["type"] == "ValidationError"
        assert doc["error"]["message"] == "tolerance must be finite, got nan"

    def test_learns_the_branching_once(self, workdir, monkeypatch):
        learned = []

        def counted(dist):
            learned.append(dist)
            return learn_optimal_branching(dist)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("polytreelab."):
                if getattr(module, "learn_optimal_branching", None) is learn_optimal_branching:
                    monkeypatch.setattr(module, "learn_optimal_branching", counted)
        run_json(["verify-bounds", "--dist", str(workdir / "parity3.json"), "--k", "2"])
        assert len(learned) == 1


class TestGenXorTree:
    def test_single_depth_artifacts(self, workdir, tmp_path):
        dist_out = tmp_path / "xor.json"
        structure_out = tmp_path / "xor_structure.json"
        doc = run_json(
            [
                "gen", "xor-tree",
                "--depth", "2",
                "--eps", "0.3",
                "--out", str(dist_out),
                "--structure-out", str(structure_out),
            ]
        )
        assert doc["kind"] == "gen"
        assert doc["num_variables"] == 7
        assert doc["generating_score_bits"] == pytest.approx(1.2, abs=1e-9)
        dist = read_distribution_json(str(dist_out))
        structure, names = read_structure_json(str(structure_out))
        assert dist.n == 7
        assert score(dist, structure).total_bits == pytest.approx(1.2, abs=1e-9)
        assert names == dist.names

    def test_sweep_writes_growth_curve(self, workdir, tmp_path):
        curve = tmp_path / "curve.csv"
        doc = run_json(
            [
                "gen", "xor-tree",
                "--eps", "0.3",
                "--max-depth", "3",
                "--format", "csv",
                "--out", str(curve),
            ]
        )
        assert [row["depth"] for row in doc["sweep"]] == [1, 2, 3]
        ratios = [row["ratio"] for row in doc["sweep"]]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] - ratios[0] >= 0.2
        lines = curve.read_text().splitlines()
        assert lines[0] == "depth,branching_bits,polytree_bits,ratio"
        assert len(lines) == 4
        assert lines[1].startswith("1,")

    @pytest.mark.parametrize(
        "args, option",
        [
            (["--max-depth", "2", "--structure-out", "s.json"], "--structure-out"),
            (["--max-depth", "2", "--format", "json", "--out", "sweep.json"], "--out"),
            (["--depth", "2", "--max-depth", "1"], "--depth"),
        ],
    )
    def test_sweep_refuses_the_options_it_ignores(self, tmp_path, monkeypatch, args, option):
        monkeypatch.chdir(tmp_path)
        doc = run_json(["gen", "xor-tree", "--eps", "0.3", *args], expect_exit=1)
        assert doc["error"]["type"] == "ValidationError"
        assert option in doc["error"]["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, depth",
        [
            (["--format", "csv", "--out", "curve.csv", "--depth", "0"], 0),
            (["--format", "csv", "--out", "curve.csv", "--depth", "-1"], -1),
            (["--format", "csv", "--out", "curve.csv", "--max-depth", "0"], 0),
            (["--max-depth", "0"], 0),
            (["--max-depth", "-2"], -2),
        ],
    )
    def test_sweep_refuses_depths_below_one(self, tmp_path, monkeypatch, args, depth):
        monkeypatch.chdir(tmp_path)
        doc = run_json(["gen", "xor-tree", "--eps", "0.3", *args], expect_exit=1)
        assert doc["error"]["type"] == "ValidationError"
        assert doc["error"]["message"] == f"depth must be >= 1, got {depth}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "eps, reported",
        [
            ("1e-5", 1.99999999996e-05),
            ("1e-8", 1.99999999041e-08),
            ("1e-10", 1.99999871103e-10),
            ("1e-20", 1.96105692771e-20),
        ],
    )
    def test_tiny_eps_loses_the_one_minus_p_cell(self, eps, reported):
        # Known deviation: the dense table holds a leaf coin's 1 - p cell only
        # to one ulp of 1, so the score falls short of 2 * eps by a share that
        # grows as eps shrinks. A fix moves these pins.
        doc = run_json(["gen", "xor-tree", "--depth", "1", "--eps", eps])
        assert doc["generating_score_bits"] == reported < 2 * float(eps)

    def test_requires_depth_without_sweep(self, workdir):
        doc = run_json(["gen", "xor-tree", "--eps", "0.3"], expect_exit=1)
        assert doc["kind"] == "error"

    def test_depth_beyond_state_cap(self, workdir):
        doc = run_json(
            ["gen", "xor-tree", "--depth", "4", "--eps", "0.3"], expect_exit=1
        )
        assert doc["error"]["constraint"] == "state_cap"


class TestGenExample:
    def test_csv_support_reproduces_fixture(self, workdir, tmp_path):
        data = tmp_path / "parity3.csv"
        doc = run_json(
            [
                "gen", "example",
                "--name", "parity3",
                "--format", "csv",
                "--out", str(data),
            ]
        )
        assert doc["generating_score_bits"] == pytest.approx(3.0, abs=1e-9)
        dataset = read_dataset_csv(str(data))
        assert dataset.rows.shape == (8, 4)
        empirical = empirical_distribution(dataset)
        exact, _ = parity_fixture("parity3")
        np.testing.assert_allclose(empirical.table, exact.table, atol=1e-12)

    def test_json_artifact_is_the_fixture(self, tmp_path):
        out = tmp_path / "parity2.json"
        run_json(["gen", "example", "--name", "parity2", "--out", str(out)])
        written = read_distribution_json(str(out))
        exact, _ = parity_fixture("parity2")
        assert written.variables == exact.variables
        np.testing.assert_array_equal(written.table, exact.table)

    def test_unknown_name_is_usage_error(self, workdir):
        result = CliRunner().invoke(main, ["gen", "example", "--name", "parity9"])
        assert result.exit_code == 2


class TestGenRandom:
    def test_artifacts_round_trip(self, workdir, tmp_path):
        dist_out = tmp_path / "rand.json"
        structure_out = tmp_path / "rand_structure.json"
        doc = run_json(
            [
                "gen", "random",
                "--n", "5",
                "--k", "2",
                "--seed", "3",
                "--out", str(dist_out),
                "--structure-out", str(structure_out),
            ]
        )
        dist = read_distribution_json(str(dist_out))
        structure, _ = read_structure_json(str(structure_out))
        assert score(dist, structure).total_bits == pytest.approx(
            doc["generating_score_bits"], abs=1e-9
        )
        expected, generating = random_polytree_instance(5, 2, 2, seed=3)
        np.testing.assert_allclose(dist.table, expected.table, atol=1e-12)
        assert structure == generating

    def test_reruns_are_byte_identical(self, workdir):
        args = ["gen", "random", "--n", "4", "--seed", "9"]
        assert run(args).output == run(args).output

    @pytest.mark.parametrize("edge_prob", ["nan", "7", "-3"])
    def test_edge_prob_outside_the_unit_interval_is_refused(self, tmp_path, edge_prob):
        out = tmp_path / "x.json"
        doc = run_json(
            ["gen", "random", "--n", "4", "--edge-prob", edge_prob, "--out", str(out)],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        assert doc["error"]["type"] == "ValidationError"
        assert "edge_prob" in doc["error"]["message"]
        assert not out.exists()


class TestGenCnf:
    def test_dataset_and_sidecar(self, workdir, tmp_path):
        data = tmp_path / "gadget.csv"
        sidecar = tmp_path / "gadget_arities.json"
        doc = run_json(
            [
                "gen", "cnf", str(workdir / "two_variable.cnf"),
                "--samples", "50",
                "--seed", "1",
                "--out", str(data),
                "--arities-out", str(sidecar),
            ]
        )
        assert doc["kind"] == "gen"
        assert doc["family"] == "cnf"
        assert doc["num_variables"] == 2
        assert doc["num_clauses"] == 3
        assert len(doc["layer_entropy_bits"]) == 3
        names = [node["name"] for node in doc["nodes"]]
        assert names == ["C1", "C2", "C3", "R1", "X1", "R2", "X2", "L1"]
        arities = read_arity_sidecar(str(sidecar))
        assert set(arities) == set(names)
        dataset = read_dataset_csv(str(data), arities=arities)
        assert dataset.rows.shape == (50, len(names))

    def test_metadata_shape(self, workdir):
        meta = run_json(["gen", "cnf", str(workdir / "two_variable.cnf")])
        p = DEFAULT_CLAUSE_BIAS
        assert meta["num_clauses"] == 3
        assert meta["num_variables"] == 2
        assert meta["clause_bias"] == pytest.approx(p)
        assert meta["delta_bits"] == pytest.approx(1.0 - binary_entropy_bits(2 * p * (1 - p)))
        assert meta["include_inedge_blockers"] is False
        assert len(meta["layer_entropy_bits"]) == 3

    def test_sampling_is_deterministic(self, workdir, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["gen", "cnf", str(workdir / "single_variable.cnf"), "--samples", "20"]
        run_json(base + ["--seed", "5", "--out", str(out_a)])
        run_json(base + ["--seed", "5", "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()

    def test_blocker_knobs_require_flag(self, workdir):
        doc = run_json(
            [
                "gen", "cnf", str(workdir / "single_variable.cnf"),
                "--blocker-copies", "7",
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"

    def test_negative_samples_are_refused(self, workdir, tmp_path):
        out = tmp_path / "neg.csv"
        doc = run_json(
            [
                "gen", "cnf", str(workdir / "single_variable.cnf"),
                "--samples", "-3",
                "--out", str(out),
            ],
            expect_exit=1,
        )
        assert doc["error"]["type"] == "ValidationError"
        assert "--samples" in doc["error"]["message"]
        assert not out.exists()

    def test_negative_seed_is_refused(self, workdir, tmp_path):
        out = tmp_path / "s.csv"
        doc = run_json(
            [
                "gen", "cnf", str(workdir / "single_variable.cnf"),
                "--samples", "5",
                "--seed", "-1",
                "--out", str(out),
            ],
            expect_exit=1,
        )
        assert doc["error"]["type"] == "ValidationError"
        assert doc["error"]["message"] == "seed must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    def test_a_refused_sampling_leaves_out_untouched(self, workdir, tmp_path, existing):
        # The arguments are checked before --out is opened: a refused call
        # neither creates the CSV nor truncates one already there.
        out = tmp_path / "x.csv"
        if existing:
            out.write_text("A\n1\n")
        run_json(
            [
                "gen", "cnf", str(workdir / "single_variable.cnf"),
                "--samples", "5",
                "--seed", "-1",
                "--out", str(out),
            ],
            expect_exit=1,
        )
        assert out.exists() == existing
        if existing:
            assert out.read_text() == "A\n1\n"

    def test_samples_without_out_are_refused(self, workdir):
        doc = run_json(
            ["gen", "cnf", str(workdir / "single_variable.cnf"), "--samples", "5"],
            expect_exit=1,
        )
        assert doc["error"]["type"] == "ValidationError"
        assert "--samples" in doc["error"]["message"]
        assert "--out" in doc["error"]["message"]

    @pytest.mark.parametrize("samples", [[], ["--samples", "0"]], ids=["default", "zero"])
    def test_out_without_samples_is_refused(self, workdir, tmp_path, samples):
        out = tmp_path / "x.csv"
        doc = run_json(
            ["gen", "cnf", str(workdir / "single_variable.cnf"), *samples, "--out", str(out)],
            expect_exit=1,
        )
        assert doc["error"]["type"] == "ValidationError"
        assert doc["error"]["message"].startswith("--out needs --samples above 0")
        assert not out.exists()


class TestVerifyGadget:
    def test_corpus_file_passes(self, workdir):
        doc = run_json(["verify-gadget", str(workdir / "two_variable.cnf")])
        assert doc["kind"] == "verify-gadget"
        assert doc["passed"] is True
        assert doc["satisfied_count"] == 3
        assert doc["structure_is_polytree"] is True
        assert doc["structure_max_indegree"] <= 2

    def test_blockers_flag(self, workdir):
        doc = run_json(
            ["verify-gadget", str(workdir / "single_variable.cnf"), "--blockers"]
        )
        assert doc["passed"] is True
        assert any(row["name"] == "residual[R1|A1,B1]" for row in doc["rows"])

    def test_explicit_assignment(self, workdir):
        doc = run_json(
            [
                "verify-gadget", str(workdir / "single_variable.cnf"),
                "--assignment", "0",
            ]
        )
        assert doc["assignment"] == [0]
        assert doc["satisfied_count"] == 1

    def test_malformed_assignment(self, workdir):
        doc = run_json(
            [
                "verify-gadget", str(workdir / "single_variable.cnf"),
                "--assignment", "maybe",
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"

    def test_wrong_length_assignment(self, workdir):
        doc = run_json(
            [
                "verify-gadget", str(workdir / "single_variable.cnf"),
                "--assignment", "0,1",
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"

    def test_negative_tolerance_exits_one(self, workdir):
        doc = run_json(
            [
                "verify-gadget", str(workdir / "single_variable.cnf"),
                "--tolerance", "-1",
            ],
            expect_exit=1,
        )
        assert doc["passed"] is False

    @pytest.mark.parametrize("tolerance", ["inf", "nan"])
    def test_non_finite_tolerance_is_refused(self, workdir, tolerance):
        doc = run_json(
            [
                "verify-gadget", str(workdir / "single_variable.cnf"),
                "--tolerance", tolerance,
            ],
            expect_exit=1,
        )
        assert doc["kind"] == "error"
        assert doc["error"]["type"] == "ValidationError"
        assert "tolerance" in doc["error"]["message"]


# (files to write, arguments, error type, message fragment); "{w}" is the
# module's workdir. Each case reaches one refusal of input from outside.
REFUSALS = {
    "dimacs-non-integer-problem-line": (
        {"in.cnf": "p cnf x 1\n1 0\n"},
        ["verify-gadget", "in.cnf"],
        "FormatError", "bad problem line",
    ),
    "dimacs-problem-line-field-count": (
        {"in.cnf": "p cnf 1\n1 0\n"},
        ["verify-gadget", "in.cnf"],
        "FormatError", "bad problem line",
    ),
    "dimacs-bad-literal": (
        {"in.cnf": "p cnf 1 1\n1 y 0\n"},
        ["verify-gadget", "in.cnf"],
        "FormatError", "bad literal",
    ),
    "dimacs-missing-problem-line": (
        {"in.cnf": "c nothing else\n"},
        ["verify-gadget", "in.cnf"],
        "FormatError", "missing problem line",
    ),
    "dimacs-no-variables": (
        {"in.cnf": "p cnf 0 0\n"},
        ["verify-gadget", "in.cnf"],
        "ValidationError", "num_vars must be >= 1",
    ),
    "xor-tree-eps-no-bias-meets": (
        {},
        ["gen", "xor-tree", "--eps", "5e-324", "--depth", "1"],
        "ValidationError", "no Bernoulli bias has entropy 5e-324",
    ),
    "csv-empty": (
        {"in.csv": ""},
        ["learn-branching", "--data", "in.csv"],
        "FormatError", "empty CSV",
    ),
    "csv-blank-header-name": (
        {"in.csv": "A,,C\n0,0,0\n"},
        ["learn-branching", "--data", "in.csv"],
        "FormatError", "blank column name",
    ),
    "csv-header-only-with-sidecar": (
        {"in.csv": "A,B\n", "ar.json": '{"A": 2, "B": 2}'},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "ValidationError", "zero rows",
    ),
    "sidecar-invalid-json": (
        {"in.csv": "A,B\n0,1\n", "ar.json": "{"},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "FormatError", "invalid JSON",
    ),
    "sidecar-not-an-object": (
        {"in.csv": "A,B\n0,1\n", "ar.json": "[2, 2]"},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "FormatError", "must be a JSON object",
    ),
    "sidecar-key-names-no-column": (
        {"in.csv": "A,B\n0,1\n", "ar.json": '{"A": 2, "Bee": 5}'},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "FormatError", "arity sidecar keys ['Bee'] name no header column",
    ),
    "csv-duplicate-column-name": (
        {"in.csv": "A,A\n0,1\n"},
        ["learn-branching", "--data", "in.csv"],
        "FormatError", "in.csv: duplicate variable names: ['A', 'A']",
    ),
    "csv-value-above-sidecar-arity": (
        {"in.csv": "A,B\n2,1\n", "ar.json": '{"A": 2}'},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "FormatError", "in.csv: column 'A' has values outside 0..1",
    ),
    "arities-empty-path": (
        {"in.csv": "A,B\n0,1\n"},
        ["learn-branching", "--data", "in.csv", "--arities", ""],
        "FileNotFoundError", "No such file or directory: ''",
    ),
    "seed-structure-empty-path": (
        {},
        ["heuristic-polytree", "--dist", "{w}/parity2.json", "--k", "1", "--seed-structure", ""],
        "FileNotFoundError", "No such file or directory: ''",
    ),
    "arities-with-dist": (
        {"ar.json": '{"X1": 2}'},
        ["learn-branching", "--dist", "{w}/parity2.json", "--arities", "ar.json"],
        "ValidationError", "--arities needs --data",
    ),
    "dist-invalid-json": (
        {"d.json": "{"},
        ["learn-branching", "--dist", "d.json"],
        "FormatError", "invalid JSON",
    ),
    "dist-malformed-variable": (
        {"d.json": '{"variables": [{"name": "A"}], "probabilities": [0.5, 0.5]}'},
        ["learn-branching", "--dist", "d.json"],
        "FormatError", "malformed variable entry",
    ),
    "dist-probabilities-not-a-list": (
        {"d.json": '{"variables": [{"name": "A", "arity": 2}], "probabilities": "0.5"}'},
        ["learn-branching", "--dist", "d.json"],
        "FormatError", "must be a flat list",
    ),
    "blocker-bias-above-half": (
        {},
        ["verify-gadget", "{w}/single_variable.cnf", "--blockers", "--blocker-bias", "0.7"],
        "ValidationError", "blocker_bias must be in",
    ),
    "zero-blocker-copies": (
        {},
        ["verify-gadget", "{w}/single_variable.cnf", "--blockers", "--blocker-copies", "0"],
        "ValidationError", "blocker_copies must be >= 1",
    ),
    "heuristic-k-zero": (
        {},
        ["heuristic-polytree", "--dist", "{w}/parity2.json", "--k", "0"],
        "ValidationError", "indegree bound k >= 1",
    ),
    "heuristic-negative-budget": (
        {},
        ["heuristic-polytree", "--dist", "{w}/parity2.json", "--k", "2", "--budget", "-1"],
        "ValidationError", "budget must be >= 0",
    ),
    "learn-branching-format-without-out": (
        {},
        ["learn-branching", "--dist", "{w}/parity2.json", "--format", "dot"],
        "ValidationError", "--format dot needs --out",
    ),
    "exact-polytree-format-without-out": (
        {},
        ["exact-polytree", "--dist", "{w}/parity2.json", "--format", "dot"],
        "ValidationError", "--format dot needs --out",
    ),
    "heuristic-polytree-format-without-out": (
        {},
        ["heuristic-polytree", "--dist", "{w}/parity2.json", "--k", "2", "--format", "dot"],
        "ValidationError", "--format dot needs --out",
    ),
    "gen-example-format-without-out": (
        {},
        ["gen", "example", "--name", "parity2", "--format", "csv"],
        "ValidationError", "--format csv needs --out",
    ),
    "structure-json-without-parents": (
        {"s.json": "{}"},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.json"],
        "FormatError", "structure JSON needs a 'parents' list",
    ),
    "structure-json-name-count": (
        {"s.json": '{"names": ["X1"], "parents": [[], [], []]}'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.json"],
        "FormatError", "'names' must list exactly 3 names",
    ),
    "dot-unclosed": (
        {"s.dot": 'digraph structure {\n  "X1";\n'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "FormatError", "DOT input must end with '}'",
    ),
    "dot-duplicate-node": (
        {"s.dot": 'digraph structure {\n  "X1";\n  "X2";\n  "X1";\n}\n'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "FormatError", "duplicate DOT node 'X1'",
    ),
    "dot-unsupported-line": (
        {"s.dot": "digraph structure {\n  X1 -> X2;\n}\n"},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "FormatError", "unsupported DOT line",
    ),
    "dot-duplicate-edge": (
        {"s.dot": 'digraph structure {\n  "X2" -> "X1";\n  "X3";\n  "X2" -> "X1";\n}\n'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "FormatError", "bad DOT structure: node 2 lists a parent twice: [1, 1]",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_outside_input_is_refused(workdir, tmp_path, monkeypatch, case):
    files, args, error_type, fragment = REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    doc = run_json([arg.replace("{w}", str(workdir)) for arg in args], expect_exit=1)
    assert doc["error"]["type"] == error_type
    assert fragment in doc["error"]["message"]


# (files to write as bytes, arguments, the file that is not UTF-8); "{w}" is
# the module's workdir. Each case reaches one reader of outside files.
NOT_UTF8 = b"\xff\xfe"
NOT_UTF8_READERS = {
    "structure-json": (
        {"s.json": NOT_UTF8 + b"{}"},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.json"],
        "s.json",
    ),
    "structure-dot": (
        {"s.dot": NOT_UTF8 + b"digraph {}"},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "s.dot",
    ),
    "dataset-csv": (
        {"in.csv": NOT_UTF8 + b"A,B\n0,1\n"},
        ["learn-branching", "--data", "in.csv"],
        "in.csv",
    ),
    "distribution-json": (
        {"d.json": NOT_UTF8 + b"{}"},
        ["learn-branching", "--dist", "d.json"],
        "d.json",
    ),
    "arity-sidecar": (
        {"in.csv": b"A,B\n0,1\n", "ar.json": NOT_UTF8 + b"{}"},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "ar.json",
    ),
    "dimacs-verify-gadget": (
        {"in.cnf": NOT_UTF8 + b"p cnf 1 1\n1 0\n"},
        ["verify-gadget", "in.cnf"],
        "in.cnf",
    ),
    "dimacs-gen-cnf": (
        {"in.cnf": NOT_UTF8 + b"p cnf 1 1\n1 0\n"},
        ["gen", "cnf", "in.cnf"],
        "in.cnf",
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_UTF8_READERS))
def test_input_that_is_not_utf8_is_refused(workdir, tmp_path, monkeypatch, case):
    files, args, bad = NOT_UTF8_READERS[case]
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    doc = run_json([arg.replace("{w}", str(workdir)) for arg in args], expect_exit=1)
    assert doc["error"]["type"] == "FormatError"
    assert doc["error"]["message"].startswith(f"{bad}: not UTF-8 text")


# (files to write as bytes, arguments, the file that gets a byte-order mark);
# "{w}" is the module's workdir. Each case reaches one reader of outside files.
BOM = b"\xef\xbb\xbf"
BOM_READERS = {
    "structure-json": (
        {"s.json": b'{"names": ["X1", "X2", "X3"], "parents": [[1, 2], [], []]}'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.json"],
        "s.json",
    ),
    "structure-dot": (
        {"s.dot": b'digraph structure {\n  "X2" -> "X1";\n  "X3" -> "X1";\n}\n'},
        ["score", "--dist", "{w}/parity2.json", "--structure", "s.dot"],
        "s.dot",
    ),
    "dataset-csv": (
        {"in.csv": b"A,B\n0,1\n1,1\n1,0\n"},
        ["learn-branching", "--data", "in.csv"],
        "in.csv",
    ),
    "distribution-json": (
        {"d.json": b'{"variables": [{"name": "A", "arity": 2}], "probabilities": [0.25, 0.75]}'},
        ["learn-branching", "--dist", "d.json"],
        "d.json",
    ),
    "arity-sidecar": (
        {"in.csv": b"A,B\n0,1\n", "ar.json": b'{"A": 3, "B": 2}'},
        ["learn-branching", "--data", "in.csv", "--arities", "ar.json"],
        "ar.json",
    ),
    "dimacs": (
        {"in.cnf": b"p cnf 1 3\n1 0\n1 0\n-1 0\n"},
        ["verify-gadget", "in.cnf"],
        "in.cnf",
    ),
}


@pytest.mark.parametrize("case", sorted(BOM_READERS))
def test_a_leading_byte_order_mark_is_skipped(workdir, tmp_path, monkeypatch, case):
    files, args, marked = BOM_READERS[case]
    monkeypatch.chdir(tmp_path)
    args = [arg.replace("{w}", str(workdir)) for arg in args]
    outputs = []
    for prefix in (b"", BOM):
        for name, data in files.items():
            (tmp_path / name).write_bytes(prefix + data if name == marked else data)
        outputs.append(run(args).output)
    assert outputs[0] == outputs[1]


class TestDeterminismAndSchema:
    def test_a_non_finite_report_value_is_refused(self):
        with pytest.raises(ToolkitError, match="non-finite value inf in report"):
            canonical_json({"ratio": [1.0, float("inf")]})

    def test_a_report_that_cannot_be_encoded_is_an_error_report(self, workdir, monkeypatch):
        monkeypatch.setattr(
            polytreelab.cli, "_search_fields", lambda *args: {"kind": "ratio", "ratio": math.inf}
        )
        result = run(["ratio", "--dist", str(workdir / "parity3.json")], expect_exit=1)
        message = "non-finite value inf in report"
        error = {"kind": "error", "error": {"type": "ToolkitError", "message": message}}
        assert result.output == canonical_json(error)

    def test_reports_are_byte_identical_across_reruns(self, workdir):
        commands = [
            ["learn-branching", "--dist", str(workdir / "parity2.json")],
            ["exact-polytree", "--dist", str(workdir / "parity3.json")],
            ["ratio", "--dist", str(workdir / "parity3.json")],
            ["verify-bounds", "--dist", str(workdir / "parity2.json")],
            ["verify-gadget", str(workdir / "single_variable.cnf")],
        ]
        for args in commands:
            assert run(args).output == run(args).output

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["exact-polytree", "verify-bounds"]),
        arities=st.lists(st.integers(2, 3), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([None, 0, 1, 2]),
        data=st.data(),
    )
    def test_reports_are_byte_stable_across_reruns_and_option_orders(
        self, workdir, command, arities, seed, k, data
    ):
        path = str(workdir / "stable.json")
        write_distribution_json(random_joint_distribution(arities, seed=seed), path)
        required = [["--dist", path]] + ([] if k is None else [["--k", str(k)]])
        # Explicit defaults and --jobs 2 must print what the defaults print.
        optional = [["--jobs", "2"], ["--exact-cap", "7"]]
        if command == "verify-bounds":
            optional.append(["--tolerance", "1e-06"])
        expected = CliRunner().invoke(main, [command] + sum(required, []))
        assert expected.exit_code in (0, 1), expected.output
        options = data.draw(st.permutations(required + optional))
        for _ in range(2):
            result = CliRunner().invoke(main, [command] + sum(options, []))
            assert (result.exit_code, result.output) == (expected.exit_code, expected.output)

    def test_missing_subcommand_is_usage_error(self):
        result = CliRunner().invoke(main, ["no-such-command"])
        assert result.exit_code == 2
