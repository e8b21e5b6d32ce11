"""The one-pass JSON encoder and the frame loader against their references.

``io.dumps_rounded`` must write the bytes of ``conftest.reference_emit``
(``json.dumps(round_floats(doc), indent=2)``); ``build_frame`` must give the
Frame and the ``ParseError`` wording of its per-vector loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import framekit as fk
from framekit.io import ParseError, dumps_rounded, frame_from_data
from conftest import reference_emit

# The cases where the .12g text is not the JSON text of the rounded float,
# and their neighbours.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -2.0, 3.0e5, 123456789012.0, 999999999999.5,
    5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e-300, 1.5e-30, 9.9999999999996e-5, 1e-5, 1e-4,
    1e11, 1e12, 1.23456789012e13, 123456789012345.0, 1e15, 9.9999999999999e15,
    1e16, 1.5e16, 1e17, 1e22, 1.7976931348623157e308,
    math.nan, -math.nan, math.inf, -math.inf,
]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(10**17), 10**17).map(float),  # whole numbers
    st.floats(1e11, 1e17) | st.floats(-1e17, -1e11),
    st.floats(-1e-300, 1e-300),  # subnormals and their neighbours
)
scalars = st.one_of(
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
)
keys = st.one_of(st.text(), st.integers(), floats, st.booleans(), st.none())
arrays = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)
documents = st.recursive(
    scalars | arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.lists(floats, max_size=8),
    ),
    max_leaves=30,
)


class TestDumpsRounded:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents)
    def test_matches_reference(self, doc):
        assert dumps_rounded(doc) == reference_emit(doc)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(floats, min_size=1, max_size=30))
    def test_float_lists_match_reference(self, values):
        # one odd value among plain ones must leave the joined fast path
        assert dumps_rounded(values) == reference_emit(values)
        assert dumps_rounded([values, tuple(values)]) == reference_emit([values, values])

    @pytest.mark.parametrize("x", EDGE_FLOATS)
    def test_edge_floats(self, x):
        for value in (x, np.float64(x), [x], [1.5, x, 2.5], {"v": x}):
            assert dumps_rounded(value) == reference_emit(value)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2**64, size=(2500, 20), dtype=np.uint64)
        rows = bits.view(np.float64).tolist()
        assert dumps_rounded({"rows": rows}) == reference_emit({"rows": rows})

    def test_containers_and_numpy_scalars(self):
        doc = {
            "schema": "framekit/1",
            "empty": [[], {}, ()],
            "text": "é☃ \"q\"\n\t\\",
            "tuple": (1.0, 2, None),
            "matrix": np.arange(6.0).reshape(2, 3) / 7,
            "ints": np.arange(3),
            "scalars": [np.int64(-7), np.float32(0.1), np.float64(1e16), True, False],
            1: "int key",
            2.5: "float key",
            None: "null key",
            True: "bool key",
        }
        assert dumps_rounded(doc) == reference_emit(doc)
        assert dumps_rounded([]) == "[]" and dumps_rounded({}) == "{}"

    @pytest.mark.parametrize(
        "doc",
        [np.bool_(True), [1.0, np.bool_(False)], {"a": {1, 2}}, object(), {(1,): 2},
         {np.int64(1): 2}],
        ids=["bool_", "bool_-in-list", "set", "object", "tuple-key", "int64-key"],
    )
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError):
            reference_emit(doc)
        with pytest.raises(TypeError):
            dumps_rounded(doc)


def loop_synthesis(vectors):
    """``build_frame``'s per-vector conversion: the reference of its fast path."""
    return np.column_stack([np.asarray(v, dtype=float) for v in vectors])


class TestLoader:
    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([], "frame needs at least one vector"),
            ([[]], "frame vectors must be 1-d and nonempty"),
            ([1, 2], "frame vectors must be 1-d and nonempty"),
            ([[1, 2], [3, 4], [5], [6, 7, 8]], "vector 2 has length (1,), expected (2,)"),
            ([[1, 2], [3, math.nan]], "vector 1 has a non-finite entry"),
            ([[1, 2], [3, 4], [math.inf, 0]], "vector 2 has a non-finite entry"),
            ([[1, 2], [None, 1]], "vector 1 has a non-finite entry"),
            ([[[1, 2]], [[3, 4]]], "frame vectors must be 1-d and nonempty"),
            ([[1, 2], [[3], [4]]], "vector 1 has length (2, 1), expected (2,)"),
            ([[1, 2], ["a", 1]], "could not convert string to float: 'a'"),
            ("abc", "could not convert string to float: 'a'"),
        ],
        ids=["empty", "empty-vector", "flat", "ragged", "nan", "inf", "null",
             "three-deep", "ragged-depth", "non-numeric", "string"],
    )
    def test_parse_error_messages(self, vectors, message):
        data = {"dim": 2, "vectors": vectors, "K": [[1, 0], [0, 1]]}
        with pytest.raises(ParseError) as exc:
            frame_from_data(data)
        assert str(exc.value) == f"bad vectors: {message}"

    def test_fast_path_is_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**64, size=(40, 6), dtype=np.uint64).view(np.float64)
        vectors = np.where(np.isfinite(bits), bits, -0.0).tolist()
        vectors[0] = [0, -0.0, 5e-324, True, 2**60 + 1, "1.5"]
        frame = fk.build_frame(vectors)
        reference = loop_synthesis(vectors)
        assert frame.synthesis.tobytes() == reference.tobytes()
        assert frame.synthesis.flags.c_contiguous and not frame.synthesis.flags.writeable

    def test_array_input_is_copied(self):
        rows = np.arange(6.0).reshape(3, 2)
        frame = fk.build_frame(rows)
        rows[0, 0] = 99.0
        assert frame.synthesis[0, 0] == 0.0
        assert np.array_equal(frame.synthesis, loop_synthesis(np.arange(6.0).reshape(3, 2)))
