"""The columnar sweep wire format against the per-point rows it replaced.

``SweepResult.to_dict()`` encodes a sweep as columns and ``sweep_rows``
expands such a document back into per-point rows.  The row builder of the
former wire format is kept here as the oracle: expanding any sweep's
columns must give exactly its rows — for every function of all 15 corpus
programs under every engine, the per-point fallback, rational branch-ratio
counts, Fraction-valued parameters and object-dtype (int64-overflow)
columns.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from repro.core import AnalysisConfig, Pipeline, sweep_source
from repro.core.sweep import _ColumnarPoints, run_model_sweep, sweep_rows
from repro.errors import ModelError, VectorizeError
from repro.workloads import available, get_source, source_path

RATIO_SRC = """
double f(double *a, int n)
{
    double acc = 0.0;
    for (int i = 0; i < n; i++) {
        #pragma @Annotation {ratio:0.25}
        if (a[i] > 0.5)
            acc = acc + a[i];
    }
    return acc;
}
"""

MULTI_SRC = """
double g(double *a, int n, int m)
{
    double acc = 0.0;
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            acc = acc + a[i + j];
    return acc;
}
"""

# COLS sizes an inner array dimension, so it cannot be late-bound: the
# sweep falls back to one analysis per point.
COLS_SRC = """
#ifndef COLS
#define COLS 4
#endif
double m[8][COLS];
double f(int r)
{
    double acc = 0.0;
    for (int i = 0; i < r; i++)
        for (int j = 0; j < COLS; j++)
            acc = acc + m[i][j];
    return acc;
}
"""


def oracle_rows(swept) -> list[dict]:
    """The per-point row builder of the former ``points`` document."""
    def jsonable(v):
        return v if isinstance(v, int) else str(v)

    return [{"params": {k: jsonable(v) for k, v in p.env.items()},
             "counts": p.metrics.as_dict(),
             "total": p.metrics.total(),
             "fp_ins": p.metrics.fp_instructions(swept.fp_categories)}
            for p in swept.points]


def assert_wire_matches(swept) -> dict:
    doc = swept.to_dict()
    assert doc["layout"] == "columns" and "points" not in doc
    assert json.loads(json.dumps(doc)) == doc      # exact through JSON
    assert sweep_rows(doc) == oracle_rows(swept)
    assert doc["columns"]["total"] == swept.totals()
    assert doc["columns"]["fp_ins"] == swept.fp_series()
    return doc


@pytest.fixture(scope="module")
def corpus():
    pipeline = Pipeline(AnalysisConfig(use_cache=False))
    return {name: pipeline.run_file(source_path(name))
            for name in available()}


@pytest.mark.parametrize("engine", ["auto", "vector", "scalar"])
def test_corpus_rows_match_the_oracle(corpus, engine):
    swept_functions = 0
    for name, result in corpus.items():
        if engine == "vector":
            try:
                result.compiled(engine="vector")
            except VectorizeError:
                continue            # minife: no vector form
        for qname in result.models:
            params = result.parameters(qname)
            grid = ([{p: b for p in params} for b in (3, 7, 13)]
                    if params else [{}])
            swept = result.sweep(qname, grid, engine=engine)
            assert_wire_matches(swept)
            swept_functions += 1
    assert swept_functions >= 15


def test_cross_product_grid_both_engines():
    result = Pipeline().run(MULTI_SRC)
    grid = {"n": [2, 3], "m": [5, 7, 9]}
    docs = [assert_wire_matches(result.sweep("g", grid, engine=engine))
            for engine in ("vector", "scalar")]
    assert sweep_rows(docs[0]) == sweep_rows(docs[1])


def test_per_point_fallback():
    swept = sweep_source(COLS_SRC, {"COLS": [2, 4]}, function="f",
                         config=AnalysisConfig(use_cache=False),
                         filename="cols.c", base={"r": 8})
    assert swept.mode == "per-point"
    doc = assert_wire_matches(swept)
    assert doc["columns"]["fp_ins"] == [8 * 2, 8 * 4]


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_fraction_branch_ratio_counts_round_like_as_dict(engine):
    result = Pipeline().run(RATIO_SRC)
    swept = result.sweep("f", {"n": [0, 7, 100]}, engine=engine)
    assert any(isinstance(v, Fraction) and v.denominator > 1
               for v in swept.points[1].metrics.counts.values())
    doc = assert_wire_matches(swept)
    for col in doc["columns"]["counts"].values():
        assert all(type(v) is int for v in col)


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_fraction_params_travel_as_strings(engine):
    result = Pipeline().run(RATIO_SRC)
    swept = result.sweep("f", {"n": [Fraction(7, 2), 4]}, engine=engine)
    doc = assert_wire_matches(swept)
    assert doc["columns"]["params"]["n"] == ["7/2", 4]


@pytest.fixture(scope="module")
def dgemm():
    return Pipeline(AnalysisConfig(use_cache=False)).run(
        get_source("dgemm"), filename="dgemm")


def test_object_dtype_columns_beyond_int64(dgemm):
    big = [2 ** 21, 2 ** 22, 10 ** 8]
    swept = dgemm.sweep("dgemm_kernel", {"n": big}, engine="vector")
    assert swept.vector_stats["object_chunks"] == 1
    doc = assert_wire_matches(swept)
    assert doc["columns"]["fp_ins"] == [2 * n ** 3 + n ** 2 for n in big]


def test_mixed_int64_and_object_chunks(dgemm):
    swept = run_model_sweep(dgemm, "dgemm_kernel", {"n": [16, 32, 2 ** 22]},
                            engine="vector", chunk=2)
    assert swept.vector_stats["int64_chunks"] == 1
    assert swept.vector_stats["object_chunks"] == 1
    assert_wire_matches(swept)


def test_heterogeneous_point_list_leaves_unbound_params_out():
    result = Pipeline().run(MULTI_SRC)
    swept = result.sweep("g", [{"n": 2, "m": 3}, {"m": 4, "n": 5, "x": 1}],
                         engine="scalar")
    doc = assert_wire_matches(swept)
    assert doc["columns"]["params"]["x"] == [None, 1]


def test_vector_encoding_builds_no_per_point_objects(dgemm, monkeypatch):
    swept = dgemm.sweep("dgemm_kernel", {"n": list(range(1, 2049))},
                        engine="vector")

    def refuse(self, i):
        raise AssertionError("a SweepPoint was materialized")

    monkeypatch.setattr(_ColumnarPoints, "_point", refuse)
    doc = swept.to_dict()
    assert doc["columns"]["fp_ins"] == swept.fp_series() == \
        [2 * n ** 3 + n ** 2 for n in range(1, 2049)]
    assert len(sweep_rows(doc)) == 2048


def test_every_engine_encodes_the_same_document(corpus):
    """Vector and scalar sweeps differ only in their ``engine`` field:
    same parameter cells (a ``Fraction(4)`` travels as ``4``) and the same
    count categories (one that is zero at every point is left out)."""
    def doc(swept):
        return {k: v for k, v in swept.to_dict().items() if k != "engine"}

    compared = 0
    for name, result in corpus.items():
        try:
            result.compiled(engine="vector")
        except VectorizeError:
            continue                # minife: no vector form
        for qname in result.models:
            params = result.parameters(qname)
            grid = ([{p: b for p in params} for b in (3, 7, 13)]
                    if params else [{}])
            assert doc(result.sweep(qname, grid, engine="vector")) == \
                doc(result.sweep(qname, grid, engine="scalar")), qname
            compared += 1
    assert compared >= 15
    result = Pipeline().run(RATIO_SRC)
    grid = {"n": [Fraction(4), 2]}
    vector, scalar = (doc(result.sweep("f", grid, engine=engine))
                      for engine in ("vector", "scalar"))
    assert vector == scalar
    assert vector["columns"]["params"]["n"] == [4, 2]


@pytest.mark.parametrize("engine", ["auto", "vector", "scalar"])
def test_two_dimensional_axis_is_a_model_error(engine):
    result = Pipeline().run(MULTI_SRC)
    with pytest.raises(ModelError,
                       match="sweep axis 'n' is not one-dimensional"):
        result.sweep("g", {"n": np.array([[1, 2], [3, 4]])}, base={"m": 2},
                     engine=engine)
