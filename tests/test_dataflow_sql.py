"""Spark SQL preference derivation (ratings ⋈ objects → stats →
product-order pairs), checked against the driver reference relations
*and* against DuckDB running the identical SQL text (via
repro.oracle.assert_equivalent)."""
import pytest

from repro.datasets import movie
from repro.dataflow.prefs_sql import derive_prefs_spark, pref_pairs_sql, stats_sql
from repro.oracle import assert_equivalent
from repro.posets.poset import transitive_closure


@pytest.fixture(scope="module")
def ds():
    return movie.generate(n_users=10, n_groups=2, n_stream=60, n_hist=120, ratings_per_user=90)


class TestDerivationSQL:
    def test_spark_prefs_match_pandas_reference(self, spark, ds):
        got = derive_prefs_spark(
            spark,
            spark.createDataFrame(ds.ratings),
            spark.createDataFrame(ds.hist_objects),
            ds.attrs,
        ).toPandas()
        got_pairs = {
            (r.user_id, r.attr, r.better, r.worse) for r in got.itertuples(index=False)
        }
        # The generator's prefs are the transitive closure of the derived
        # raw pairs; the raw product-order relation is already transitive,
        # so the sets must agree exactly.
        expect = {
            (u, d, x, y)
            for u, by_attr in ds.prefs.items()
            for d, p in by_attr.items()
            for (x, y) in p.pairs
        }
        assert got_pairs == expect

    def test_spark_prefs_match_duckdb_oracle(self, spark, ds):
        spark_df = derive_prefs_spark(
            spark,
            spark.createDataFrame(ds.ratings),
            spark.createDataFrame(ds.hist_objects),
            ds.attrs,
        )
        sql = f"WITH stats AS ({stats_sql(ds.attrs)}) {pref_pairs_sql()}"
        assert_equivalent(spark_df, sql, ratings=ds.ratings, objects=ds.hist_objects)

    def test_derived_relation_is_transitive(self, spark, ds):
        got = derive_prefs_spark(
            spark,
            spark.createDataFrame(ds.ratings),
            spark.createDataFrame(ds.hist_objects),
            ds.attrs,
        ).toPandas()
        for (u, d), grp in got.groupby(["user_id", "attr"]):
            pairs = {(r.better, r.worse) for r in grp.itertuples(index=False)}
            assert transitive_closure(pairs) == pairs, (u, d)
