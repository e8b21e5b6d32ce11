import json
import math

import numpy as np
import pytest
import scipy.linalg

import framekit as fk
import framekit.cli as cli
from framekit import fixtures
from framekit.cli import main
from framekit.io import (
    frame_file_dict,
    frame_from_data,
    load_frame_file,
    round_floats,
    save_frame_file,
)
from conftest import (
    break_solvers,
    degenerate_frame,
    near_joined_components,
    non_orthogonal_components,
    random_block_frame,
    random_parseval_frame,
    random_psd,
    reference_emit,
    spectral_systems,
)

S2 = math.sqrt(2.0)

EX1_DATA = {
    "dim": 3,
    "vectors": [[1, 0, 0], [1, 0, 0], [S2, 0, 0], [0, 1, 0]],
    "K": [[2, 0, 0], [0, 1, 0], [0, 0, 0]],
}


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1_DATA))
    return str(path)


@pytest.fixture
def ex2_file(tmp_path):
    path = tmp_path / "ex2.json"
    data = {
        "dim": 3,
        "vectors": [
            [S2, 0, 0],
            [S2, 0, 0],
            [0, 1 / S2, 1 / S2],
            [0, 1 / S2, -1 / S2],
        ],
        "K": [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
    }
    path.write_text(json.dumps(data))
    return str(path)


class TestIO:
    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = fk.Frame(rng.normal(size=(3, 5)))
        op = fk.build_operator(rng.normal(size=(3, 3)))
        path = tmp_path / "frame.json"
        save_frame_file(path, frame, op)
        loaded_frame, loaded_op, _ = load_frame_file(path)
        assert np.array_equal(loaded_frame.synthesis, frame.synthesis)
        assert np.array_equal(loaded_op.matrix, op.matrix)
        # serialize the parsed objects again: identical documents
        save_frame_file(tmp_path / "frame2.json", loaded_frame, loaded_op)
        assert (tmp_path / "frame.json").read_text() == (
            tmp_path / "frame2.json"
        ).read_text()

    def test_dim_mismatch_rejected(self):
        from framekit.io import ParseError

        bad = dict(EX1_DATA, dim=2)
        with pytest.raises(ParseError):
            frame_from_data(bad)

    def test_k_shape_rejected(self):
        from framekit.io import ParseError

        bad = dict(EX1_DATA, K=[[1, 0], [0, 1]])
        with pytest.raises(ParseError):
            frame_from_data(bad)

    def test_round_floats(self):
        doc = {"a": 1.23456789012345678, "b": [float("inf"), 2], "c": True}
        out = round_floats(doc)
        assert out["a"] == float("1.23456789012")
        assert out["b"][0] == float("inf")
        assert out["c"] is True

    def test_frame_file_dict_row_major(self, ex1):
        frame, op = ex1
        data = frame_file_dict(frame, op)
        assert data["vectors"][2][0] == pytest.approx(S2)
        assert data["K"][0][0] == 2.0


class TestExitCodes:
    def test_success(self, ex1_file, capsys):
        assert main(["analyze", "--frame", ex1_file]) == 0
        capsys.readouterr()

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--frame", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_undecodable_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"dim": 1}')
        assert main(["analyze", "--frame", str(bad)]) == 2
        assert main(["pair-bounds", "--k", str(bad), "--n-vectors", "2"]) == 2
        assert capsys.readouterr().err.count("parse error: invalid JSON") == 2

    def test_missing_file(self, capsys):
        assert main(["analyze", "--frame", "/nonexistent.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("K", [[[1, 0], [0]], "abc", [[1, "x"], [0, 1]]])
    def test_non_numeric_k_is_parse_error(self, tmp_path, capsys, K):
        frame_path, k_path = tmp_path / "frame.json", tmp_path / "k.json"
        frame_path.write_text(json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "K": K}))
        k_path.write_text(json.dumps({"K": K}))
        assert main(["analyze", "--frame", str(frame_path)]) == 2
        assert main(["pair-bounds", "--k", str(k_path), "--n-vectors", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("parse error: K is not a numeric matrix") == 2

    def test_domain_error_not_k_frame(self, tmp_path, capsys):
        data = {
            "dim": 2,
            "vectors": [[0.0, 0.0], [0.0, 0.0]],
            "K": [[1, 0], [0, 1]],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--frame", str(path)]) == 3
        assert "domain error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, flag",
        [
            ("tol", "abc", None),
            ("tol", -1, None),
            ("tol", float("nan"), None),
            ("tol", 1e300, None),
            ("dim", 3.7, None),
            (None, None, "-1"),
        ],
    )
    def test_bad_tol_or_dim_is_parse_error(self, tmp_path, capsys, field, value, flag):
        path = tmp_path / "bad.json"
        data = dict(EX1_DATA) if value is None else dict(EX1_DATA, **{field: value})
        path.write_text(json.dumps(data))
        argv = ["analyze", "--frame", str(path)]
        if flag is not None:
            argv += ["--tol", flag]
        assert main(argv) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--measure", "r1", "--max-iters", "0"],
            ["search", "--measure", "o1", "--restarts", "-1"],
            ["optimal-dual", "--measure", "spectral", "--max-iters", "0"],
            ["optimal-dual", "--measure", "opnorm", "--restarts", "-1"],
            ["pair-bounds", "--n-vectors", "0"],
            ["pair-bounds", "--n-vectors", "-3"],
        ],
    )
    def test_nonpositive_count_is_usage_error(self, ex1_file, capsys, argv):
        flag = "--k" if argv[0] == "pair-bounds" else "--frame"
        with pytest.raises(SystemExit) as exc:
            main([argv[0], flag, ex1_file, *argv[1:]])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_domain_error_not_parseval(self, tmp_path, capsys):
        data = {"dim": 2, "vectors": [[1, 0], [0, 1]], "K": [[2, 0], [0, 2]]}
        path = tmp_path / "np.json"
        path.write_text(json.dumps(data))
        assert main(["analyze", "--frame", str(path)]) == 3
        capsys.readouterr()

    def test_domain_error_canonical_dual_not_k_dual(self, tmp_path, capsys):
        # F F^T has a rounding-level eigenvalue (about 1e-15).  Its square
        # root stays in rank(K), so F passes the Parseval test while K^+ F
        # misses F G^T = K.
        frame = degenerate_frame(np.random.default_rng(18))
        K = scipy.linalg.sqrtm(frame.synthesis @ frame.synthesis.T)
        K = 0.5 * (K + K.T)
        data = {"dim": frame.dim, "vectors": frame.vectors.tolist(), "K": K.tolist()}
        path = tmp_path / "rounding.json"
        path.write_text(json.dumps(data))
        argv = ["optimal-dual", "--frame", str(path), "--measure", "spectral"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        smallest = np.linalg.svd(K, compute_uv=False)[-1]
        assert "domain error" in err and f"{smallest:.3e}" in err


class TestOversizedNumbers:
    """Literals no float holds exit 2 with a message naming their field:
    integers past the float range (OverflowError in the conversion) and
    past the interpreter's 4300-digit limit for int (ValueError in
    ``json.load``).  So does nesting past the interpreter's recursion limit
    (RecursionError in ``json.load``), with empty stdout like the rest."""

    def run(self, tmp_path, capsys, data, argv):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data) if isinstance(data, dict) else data)
        assert main([arg.format(path=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_vectors_past_float_range(self, tmp_path, capsys):
        data = dict(EX1_DATA, vectors=[[1, 0, 0], [10**400, 0, 0]])
        err = self.run(tmp_path, capsys, data, ["analyze", "--frame", "{path}"])
        assert err == "parse error: bad vectors: int too large to convert to float\n"

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--frame", "{path}"], ["pair-bounds", "--k", "{path}", "--n-vectors", "4"]],
    )
    def test_k_past_float_range(self, tmp_path, capsys, argv):
        data = dict(EX1_DATA, K=[[10**400, 0, 0], [0, 1, 0], [0, 0, 0]])
        err = self.run(tmp_path, capsys, data, argv)
        assert err == "parse error: K is not a numeric matrix: int too large to convert to float\n"

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--frame", "{path}"], ["pair-bounds", "--k", "{path}", "--n-vectors", "4"]],
    )
    def test_tol_past_float_range(self, tmp_path, capsys, argv):
        err = self.run(tmp_path, capsys, dict(EX1_DATA, tol=10**400), argv)
        assert err.startswith("parse error: tol must be a number in (0, 1), got 1000")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("vectors", '[[1, 0, 0], [-DIGITS, 0, 0]]', "bad vectors: vector 1 has a non-finite entry"),
            ("K", '[[DIGITS, 0, 0], [0, 1, 0], [0, 0, 0]]', "K has a non-finite entry"),
            ("tol", "DIGITS", "tol must be a number in (0, 1), got inf"),
            ("dim", "DIGITS", "dim must be an integer, got inf"),
        ],
    )
    def test_past_the_digit_limit(self, tmp_path, capsys, field, value, message):
        text = json.dumps(dict(EX1_DATA, **{field: "HERE"}))
        text = text.replace('"HERE"', value.replace("DIGITS", "7" * 5000))
        err = self.run(tmp_path, capsys, text, ["analyze", "--frame", "{path}"])
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "vectors, message",
        [(5, "'int' object is not iterable"),
         ([[{"a": 1}, 0, 0]], "float() argument must be a string or a real number, not 'dict'")],
    )
    def test_vectors_of_the_wrong_type(self, tmp_path, capsys, vectors, message):
        data = dict(EX1_DATA, vectors=vectors)
        err = self.run(tmp_path, capsys, data, ["analyze", "--frame", "{path}"])
        assert err == f"parse error: bad vectors: {message}\n"

    @pytest.mark.parametrize("depth", [2_000, 100_000])
    @pytest.mark.parametrize("field", ["vectors", "K"])
    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--frame", "{path}"], ["pair-bounds", "--k", "{path}", "--n-vectors", "4"]],
    )
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, depth, field, argv):
        text = json.dumps(dict(EX1_DATA, **{field: "HERE"}))
        text = text.replace('"HERE"', "[" * depth + "1" + "]" * depth)
        err = self.run(tmp_path, capsys, text, argv)
        assert err == f"parse error: invalid JSON in {tmp_path / 'big.json'}: nested too deeply\n"


class TestAnalyze:
    def test_values(self, ex1_file, capsys):
        assert main(["analyze", "--frame", ex1_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "framekit/1"
        report = doc["canonical_dual_report"]
        assert report["o1"] == pytest.approx(1.0, abs=1e-9)
        assert report["r1"] == pytest.approx(1.0, abs=1e-9)
        assert report["c"] is None
        assert doc["pair_bounds"]["o1_min"] == 0.75
        assert doc["optimal_pair_flags"]["o1_optimal"] is False
        assert doc["k_frame_bounds"]["A"] == pytest.approx(1.0)
        assert doc["k_frame_bounds"]["B"] == pytest.approx(4.0)

    def test_rm_request(self, ex1_file, capsys):
        assert main(["analyze", "--frame", ex1_file, "--rm", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "3" in doc["canonical_dual_report"]["rm"]

    def test_table_format(self, ex1_file, capsys):
        assert main(["analyze", "--frame", ex1_file, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "o1" in out and "schema" not in out

    def test_full_rank_example_flags(self, ex2_file, capsys):
        assert main(["analyze", "--frame", ex2_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimal_pair_flags"]["o1_optimal"] is True
        assert doc["optimal_pair_flags"]["r1_optimal"] is True
        assert doc["canonical_dual_report"]["c"] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["example-1", "example-2", "mercedes"])
    def test_bundled_examples(self, name, tmp_path, capsys):
        from framekit import fixtures

        path = tmp_path / f"{name}.json"
        save_frame_file(path, *fixtures.get_example(name))
        assert main(["analyze", "--frame", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimal_pair_flags"]["r2_optimal"] is (name == "mercedes")

    def test_tol_override(self, ex1_file, capsys):
        assert main(["analyze", "--frame", ex1_file, "--tol", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["canonical_dual_report"]["o1"] == pytest.approx(1.0)


class TestOtherCommands:
    def test_canonical_dual(self, ex1_file, capsys):
        assert main(["canonical-dual", "--frame", ex1_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vectors"][0] == [0.5, 0.0, 0.0]
        assert doc["vectors"][3] == [0.0, 1.0, 0.0]

    def test_pair_bounds(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"K": [[1, 0], [0, 1]]}))
        assert main(["pair-bounds", "--k", str(path), "--n-vectors", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["o1_min"] == pytest.approx(2 / 3)
        assert doc["r2_min"] == pytest.approx(1.0)
        assert doc["branch"] == "mu_nonneg"
        assert "r2_min_statement_variant" in doc

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("K", [[[1, 0], [0, -1e-3]], [[1, 1e-3], [0, 1]]])
    def test_pair_bounds_non_psd_refusal_does_not_depend_on_units(
        self, tmp_path, capsys, scale, K
    ):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"K": (scale * np.array(K)).tolist()}))
        assert main(["pair-bounds", "--k", str(path), "--n-vectors", "3"]) == 3
        assert "PSD" in capsys.readouterr().err

    def test_pair_bounds_statement_variant(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps({"K": np.eye(4).tolist()}))
        assert main(["pair-bounds", "--k", str(path), "--n-vectors", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["branch"] == "mu_neg"
        assert doc["r2_min_statement_variant"] is not None
        assert doc["r2_min_statement_variant"] != doc["r2_min"]

    def test_search_r1(self, ex1_file, capsys):
        assert (
            main(
                [
                    "search",
                    "--frame",
                    ex1_file,
                    "--measure",
                    "r1",
                    "--max-iters",
                    "300",
                    "--restarts",
                    "2",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(1.0, abs=1e-6)
        assert doc["comparisons"]["fixed_frame_minimum"]["bound"] == pytest.approx(
            1.0
        )

    def test_search_o1_and_r2u(self, ex2_file, capsys):
        assert main(["search", "--frame", ex2_file, "--measure", "o1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(1.0, abs=1e-6)
        assert main(["search", "--frame", ex2_file, "--measure", "r2u"]) == 0
        capsys.readouterr()

    def test_search_o1_reports_the_lawson_lower_bound(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        op = fk.build_operator(random_psd(rng, 3))
        frame = random_parseval_frame(rng, op, 8)
        path = str(tmp_path / "frame.json")
        save_frame_file(path, frame, op)
        assert main(["search", "--frame", path, "--measure", "o1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        lower = doc["comparisons"]["fixed_frame_lower_bound"]
        assert set(lower) == {"bound", "gap"}
        assert doc["value"] < fk.o1(fk.build_dual_system(frame, fk.canonical_k_dual(frame, op), op))
        assert 0 < lower["bound"] <= doc["value"]
        assert lower["gap"] == pytest.approx(doc["value"] - lower["bound"], abs=1e-12)
        assert lower["gap"] <= 1e-10 * lower["bound"] + 1e-12
        # r1 reports no such bound; its minimum is closed-form.
        assert main(["search", "--frame", path, "--measure", "r1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "fixed_frame_lower_bound" not in doc["comparisons"]

    def test_optimal_dual_spectral_kkt(self, ex1_file, capsys):
        assert (
            main(
                ["optimal-dual", "--frame", ex1_file, "--measure", "spectral"]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimal_value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["decomposition"]["blocks"] == [[1, 2, 3], [4]]
        assert doc["decomposition"]["deltas"] == [
            pytest.approx(2 / 3),
            pytest.approx(1.0),
        ]
        assert doc["certificate"]["verdict"] == "optimal_kkt"
        assert doc["certificate"]["evidence"]["multipliers"] == [0, 0, 0, 1]

    def test_optimal_dual_spectral_one_block_fifty_vectors(self, tmp_path, capsys):
        rng = np.random.default_rng(50)
        op = fk.build_operator(random_psd(rng, 5))
        frame = random_parseval_frame(rng, op, 50)
        path = tmp_path / "ob5x50.json"
        save_frame_file(path, frame, op)
        argv = ["optimal-dual", "--frame", str(path), "--measure", "spectral"]
        assert main(argv + ["--max-iters", "20", "--restarts", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["decomposition"]["blocks"]) == 1
        G = np.asarray(doc["optimal_dual"]).T
        diag = np.einsum("ij,ij->j", G, frame.synthesis)
        assert np.max(np.abs(diag - max(doc["decomposition"]["deltas"]))) <= 1e-9

    def test_non_orthogonal_components(self, tmp_path, capsys):
        # One orthogonality block of two matroid components.
        frame, op = non_orthogonal_components(np.random.default_rng(0))
        path = tmp_path / "mixed.json"
        save_frame_file(path, frame, op)
        assert main(["search", "--frame", str(path), "--measure", "r1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        fixed = doc["comparisons"]["fixed_frame_minimum"]
        assert fixed["bound"] == pytest.approx(1.08125553363, rel=1e-11)
        assert abs(fixed["gap"]) <= 1e-9
        assert main(["optimal-dual", "--frame", str(path), "--measure", "spectral"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimal_value"] == pytest.approx(1.08125553363, rel=1e-11)
        G = np.asarray(doc["optimal_dual"]).T
        r1 = np.max(np.abs(np.einsum("ij,ij->j", G, frame.synthesis)))
        assert r1 == pytest.approx(doc["minimal_value"], rel=1e-9)

    @pytest.mark.parametrize("weight", [1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10])
    def test_minimal_value_never_exceeds_search_value(self, tmp_path, capsys, weight):
        # Across the window where the matroid components are hard to
        # decide: one answer from both, or a numerical failure.
        path = tmp_path / "joined.json"
        save_frame_file(path, *near_joined_components(weight))
        rc = main(["optimal-dual", "--frame", str(path), "--measure", "spectral"])
        captured = capsys.readouterr()
        if rc == 4:
            assert captured.out == "" and "matroid components" in captured.err
            return
        assert rc == 0
        doc = json.loads(captured.out)
        assert doc["minimal_value"] <= doc["search_value"]
        assert doc["search_value"] == pytest.approx(doc["minimal_value"], rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e6])
    def test_search_r2u_refusal_does_not_depend_on_units(self, tmp_path, capsys, scale):
        from framekit import fixtures

        # example-1 has no 1-uniform dual at any scale.
        frame, op = fixtures.example_1()
        path = tmp_path / "ex1.json"
        save_frame_file(
            path, fk.Frame(scale * frame.synthesis), fk.build_operator(scale * op.matrix)
        )
        assert main(["search", "--frame", str(path), "--measure", "r2u"]) == 3
        assert "no 1-uniform dual" in capsys.readouterr().err

    def test_optimal_dual_opnorm_unique(self, ex2_file, capsys):
        assert (
            main(["optimal-dual", "--frame", ex2_file, "--measure", "opnorm"])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["certificate"]["verdict"] == "unique_optimal"
        assert doc["perturbation_family"]["exists"] is False


@pytest.fixture(scope="module")
def stdout_inputs(tmp_path_factory):
    """The three fixtures, a one-block frame with rank-deficient K and a
    block frame, as frame files: name -> (path, N)."""
    root = tmp_path_factory.mktemp("stdout")
    rng = np.random.default_rng(7)
    op = fk.build_operator(random_psd(rng, 3, rank=2))
    systems = {name: fixtures.get_example(name) for name in fixtures.EXAMPLE_NAMES}
    systems["one-block"] = (random_parseval_frame(rng, op, 6), op)
    systems["blocks"] = random_block_frame(np.random.default_rng(3))[:2]
    paths = {}
    for name, (frame, op) in systems.items():
        save_frame_file(root / f"{name}.json", frame, op)
        paths[name] = (str(root / f"{name}.json"), frame.n_vectors)
    return paths


STDOUT_COMMANDS = [
    ["analyze", "--rm", "2"],
    ["canonical-dual"],
    ["optimal-dual", "--measure", "opnorm"],
    ["optimal-dual", "--measure", "spectral"],
    ["pair-bounds"],
    ["search", "--measure", "o1"],
    ["search", "--measure", "r1"],
]
# r2u (Nelder-Mead) on the fixtures alone, N <= 4 as in the benchmark;
# example-1 has no 1-uniform dual and exits 3.
STDOUT_CASES = [
    (name, command)
    for name in ["example-1", "example-2", "mercedes", "one-block", "blocks"]
    for command in STDOUT_COMMANDS
] + [(name, ["search", "--measure", "r2u"]) for name in fixtures.EXAMPLE_NAMES]


class TestStdoutMatchesReferenceEmitter:
    """Every subcommand prints what it printed with ``_emit_json`` set to
    ``conftest.reference_emit``, with the same exit code."""

    def run_both(self, argv, capsys, monkeypatch):
        rc = main(argv)
        out, err = capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(
                cli, "_emit_json",
                lambda doc: print(reference_emit({"schema": cli.SCHEMA, **doc})),
            )
            ref_rc = main(argv)
        assert (rc, out, err) == (ref_rc, *capsys.readouterr())
        return rc, out

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "name, command", STDOUT_CASES, ids=[f"{n}-{' '.join(c)}" for n, c in STDOUT_CASES]
    )
    def test_frame_commands(self, stdout_inputs, name, command, fmt, capsys, monkeypatch):
        path, n_vectors = stdout_inputs[name]
        if command[0] == "pair-bounds":
            argv = [*command, "--k", path, "--n-vectors", str(n_vectors)]
        else:
            argv = [*command, "--frame", path]
        rc, out = self.run_both([*argv, "--format", fmt], capsys, monkeypatch)
        if (name, command[-1]) == ("example-1", "r2u"):
            assert (rc, out) == (3, "")
        else:
            assert rc == 0
            if fmt == "json":
                assert json.loads(out)["schema"] == "framekit/1"

    @pytest.mark.parametrize("name", ["example-1", "example-2", "mercedes"])
    def test_verify_example(self, name, capsys, monkeypatch):
        assert self.run_both(["verify-example", name], capsys, monkeypatch)[0] == 0




class TestSpectralSearchMatchesConstruction:
    """``search --measure r1`` prints the K-dual that ``optimal-dual
    --measure spectral`` constructs: the closest to the canonical dual with
    every component at its mean diagonal, also where the canonical dual is
    already optimal (all three fixtures)."""

    @pytest.mark.parametrize("name", list(spectral_systems()))
    def test_best_dual_is_the_optimal_dual(self, name, tmp_path, capsys):
        path = str(tmp_path / "frame.json")
        save_frame_file(path, *spectral_systems()[name])
        outputs = {}
        for argv in (
            ["search", "--measure", "r1"],
            ["optimal-dual", "--measure", "spectral"],
        ):
            assert main([*argv, "--frame", path]) == 0
            outputs[argv[0]] = json.loads(capsys.readouterr().out)
        search, optimal = outputs["search"], outputs["optimal-dual"]
        assert search["value"] == optimal["minimal_value"] == optimal["search_value"]
        # byte for byte, signed zeros included
        assert json.dumps(search["best_dual"]) == json.dumps(optimal["optimal_dual"])


class TestVerifyExample:
    @pytest.mark.parametrize("name", ["example-1", "example-2", "mercedes"])
    def test_passes(self, name, capsys):
        assert main(["verify-example", name]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "[PASS]" in out

    def test_assertion_counts(self, capsys):
        main(["verify-example", "example-1"])
        assert "7/7 assertions passed" in capsys.readouterr().out
        main(["verify-example", "example-2"])
        assert "6/6 assertions passed" in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, ex1_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--frame", ex1_file, "--measure", "r1", "--seed", "-3"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_get_example_accessor(self):
        from framekit import fixtures

        for name in fixtures.EXAMPLE_NAMES:
            frame, op = fixtures.get_example(name)
            assert frame.dim == op.dim
        with pytest.raises(KeyError):
            fixtures.get_example("unknown")

    def test_numerical_failure_maps_to_exit_4(self, ex1_file, capsys, monkeypatch):
        import framekit.cli as cli_mod
        from framekit.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("eigenvalue solve failed")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        assert cli_mod.main(["analyze", "--frame", ex1_file]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_missed_spectral_solve_exits_4(self, ex1_file, capsys, monkeypatch):
        # The component-mean diagonal is always reachable, so a missed
        # chart solve is a numerical failure, not a domain error.
        monkeypatch.setattr(
            fk.DualParameterization, "_diagonal_perturbation", lambda *a, **k: None
        )
        argv = ["optimal-dual", "--frame", ex1_file, "--measure", "spectral"]
        assert main(argv) == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--measure", "r1"],
            ["search", "--measure", "o1"],
            ["optimal-dual", "--measure", "spectral"],
            ["optimal-dual", "--measure", "opnorm"],
        ],
    )
    def test_solver_failure_exits_4(
        self, ex1_file, mb, tmp_path, capsys, monkeypatch, argv
    ):
        # The chart lift of the component-mean diagonal misses; the op-norm
        # Lawson step gets NaN QR factors.  Example-1's op-norm minimum is
        # the weight of a coloop, so the Lawson solve takes no step there:
        # Mercedes does.
        op_norm = argv[-1] in ("o1", "opnorm")
        path = ex1_file
        if op_norm:
            path = str(tmp_path / "mercedes.json")
            save_frame_file(path, *mb)
        break_solvers(monkeypatch)
        assert main([*argv, "--frame", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        message = "non-finite iterate" if op_norm else "missed the component-mean diagonal"
        assert message in captured.err
        assert "Traceback" not in captured.err
