"""The compiled design program against its oracle, bit for bit.

:class:`repro.core.design.DesignProgram` is the one evaluator of design
columns: ``DesignMatrixBuilder.transform_matrix`` (the fit path), a
model's ``predict``, ``predict_rows``, ``predict_one`` and
``prepared_design``, and the fitness engine's basis.  The oracle is the
per-variable walk in ``tests/design_oracle.py``.  Specs are drawn at
random over the synthetic dataset —
excluded and interaction-only variables, splines whose knots collapse on
few hardware levels, intercept-only models, every ladder power — and
queried with negative rows and rows far outside the training range (the
clip), at batch sizes that are not multiples of a SIMD width.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesignMatrixBuilder,
    FitnessEngine,
    InferredModel,
    ModelSpec,
    ProfileDataset,
    ProfileRecord,
)
from repro.core.regression import accumulate_gram
from repro.core.serialize import model_from_dict, model_to_dict, payload_checksum
from repro.core.transforms import LADDER_POWERS, TransformKind
from tests import design_oracle
from tests.conftest import make_synthetic_dataset

VARIABLES = ("x1", "x2", "y1", "y2")
PAIRS = [(a, b) for i, a in enumerate(VARIABLES) for b in VARIABLES[i + 1:]]
#: Hardware levels: continuous, or few enough that spline knots collapse.
HW_LEVELS = (None, (1.0, 2.0), (1.0, 2.0, 4.0), (0.5, 1.0, 2.0, 4.0, 8.0))


def bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


def oracle_design(model: InferredModel, rows: np.ndarray) -> np.ndarray:
    """The builder's design by the per-variable walk, pruned as the fit
    recorded."""
    return design_oracle.transform_matrix(model._builder, rows)[:, model._kept_columns]


def as_dataset(rows: np.ndarray) -> ProfileDataset:
    return ProfileDataset(
        VARIABLES[:2],
        VARIABLES[2:],
        [ProfileRecord("query", row[:2], row[2:], 1.0) for row in rows],
    )


def with_powers(model: InferredModel, powers) -> InferredModel:
    """A copy of ``model`` whose stabilized views use the given powers,
    through a re-sealed serialized payload."""
    payload = model_to_dict(model)
    draw = iter(powers)
    for table in ("fitted", "linear_views"):
        for entry in payload[table].values():
            if entry["kind"] != int(TransformKind.EXCLUDED):
                entry["power"] = next(draw)
    body = {k: v for k, v in payload.items() if k not in ("schema_version", "checksum")}
    payload["checksum"] = payload_checksum(body)
    return model_from_dict(payload)


def query_rows(dataset: ProfileDataset, n: int, seed: int) -> np.ndarray:
    """Training rows, negated, scaled far outside the range, or zeroed."""
    rng = np.random.default_rng(seed)
    base = dataset.matrix()[rng.integers(0, len(dataset), n)]
    factor = rng.choice([1.0, -1.0, 1e3, -1e3, 1e-3, 0.0], size=base.shape)
    return base * factor + rng.normal(scale=0.1, size=base.shape)


@st.composite
def models(draw):
    kinds = st.sampled_from(list(TransformKind))
    spec = ModelSpec(
        transforms={name: draw(kinds) for name in VARIABLES},
        interactions=frozenset(
            draw(st.lists(st.sampled_from(PAIRS), max_size=4, unique=True))
        ),
    )
    dataset = make_synthetic_dataset(
        n_per_app=draw(st.integers(8, 30)),
        seed=draw(st.integers(0, 50)),
        nonlinear=draw(st.booleans()),
        hw_levels=draw(st.sampled_from(HW_LEVELS)),
    )
    response = draw(st.sampled_from(["log", "identity"]))
    model = InferredModel.fit(spec, dataset, response=response)
    if draw(st.booleans()):
        powers = draw(st.lists(st.sampled_from(LADDER_POWERS), min_size=8, max_size=8))
        model = with_powers(model, powers)
    return model, dataset


class TestBitIdentity:
    @given(drawn=models(), n=st.integers(1, 300), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_program_matches_oracle(self, drawn, n, seed):
        model, dataset = drawn
        rows = query_rows(dataset, n, seed)
        payload = model_to_dict(model)

        # The fit path: the builder's program over every column.
        full = model._builder.transform_matrix(rows)
        assert full.flags["C_CONTIGUOUS"]
        assert bits(full) == bits(design_oracle.transform_matrix(model._builder, rows))

        oracle = oracle_design(model, rows)
        design = model._design(rows)
        assert design.flags["C_CONTIGUOUS"]
        assert design.shape == (n, len(model.fit_column_names))
        assert bits(design) == bits(oracle)
        # The stream accumulator's Gram blocks keep their bits too.
        prepared = model.prepared_design(as_dataset(rows))
        targets = np.linspace(-1.0, 1.0, n)
        for new, old in zip(accumulate_gram(prepared, targets),
                            accumulate_gram(oracle, targets)):
            assert bits(new) == bits(old)

        batch = model.predict_rows(rows)
        assert bits(batch) == bits(model._predict_design(oracle_design(model, rows)))
        singles = np.array([model.predict_rows(row)[0] for row in rows])
        assert bits(batch) == bits(singles)
        assert bits(model.predict_one(rows[0][:2], rows[0][2:])) == bits(batch[:1])
        assert bits(model.predict(dataset)) == bits(model.predict_rows(dataset.matrix()))

        # Compiling changes nothing that is serialized, and a loaded copy
        # predicts the same bits.
        assert model_to_dict(model) == payload
        assert bits(model_from_dict(payload).predict_rows(rows)) == bits(batch)

        # The engine takes the spec's design from its basis: on the
        # training rows it is the walk of a builder fitted there.
        builder = DesignMatrixBuilder(model.spec).fit(dataset)
        taken, names = FitnessEngine(dataset, 0).design(model.spec)
        assert taken.flags["C_CONTIGUOUS"]
        assert tuple(names) == builder.column_names
        assert bits(taken) == bits(design_oracle.transform_matrix(builder, dataset.matrix()))

    @pytest.mark.parametrize("power", LADDER_POWERS)
    def test_every_ladder_power(self, power):
        # Two hardware levels collapse y1's spline to two knots.
        dataset = make_synthetic_dataset(nonlinear=True, hw_levels=(1.0, 2.0))
        spec = ModelSpec(
            transforms={
                "x1": TransformKind.SPLINE,
                "x2": TransformKind.CUBIC,
                "y1": TransformKind.SPLINE,
                "y2": TransformKind.EXCLUDED,
            },
            interactions=frozenset({("x1", "y2"), ("x2", "y1")}),
        )
        model = with_powers(InferredModel.fit(spec, dataset), [power] * 8)
        rows = query_rows(dataset, 77, power)
        assert bits(model.prepared_design(as_dataset(rows))) == bits(
            oracle_design(model, rows)
        )

    def test_intercept_only(self, synthetic_dataset):
        spec = ModelSpec(transforms={name: TransformKind.EXCLUDED for name in VARIABLES})
        model = InferredModel.fit(spec, synthetic_dataset)
        rows = query_rows(synthetic_dataset, 5, 0)
        assert model.prepared_design(as_dataset(rows)).shape == (5, 0)
        assert np.all(model.predict_rows(rows) == math.exp(model.intercept))

    def test_refit_shares_the_compiled_program(self, synthetic_dataset):
        spec = ModelSpec(
            transforms={name: TransformKind.CUBIC for name in VARIABLES},
            interactions=frozenset({("x1", "y1")}),
        )
        model = InferredModel.fit(spec, synthetic_dataset)
        model.predict(synthetic_dataset)
        refit = model.refit_from(model._fit)
        assert refit._program is model._program is not None
