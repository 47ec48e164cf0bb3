"""Preference derivation as Spark SQL.

Every query here is built as a single SQL string that runs unchanged on
Spark (Catalyst) and on DuckDB, so `repro.oracle.assert_equivalent` can
diff them row-for-row. The queries implement:

* ``stats_sql`` — ratings ⋈ objects → per (user, attr, value) (avg
  rating, count), the paper's movie statistics (Sec. VIII-A);
* ``pref_pairs_sql`` — stats → preference tuples via the strict
  product-order rule.

What the derived relations feed (cluster common relations, HAC
similarities) is computed on the driver, in ``repro.core``.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame, SparkSession


def stats_sql(attrs: Sequence[str], ratings: str = "ratings", objects: str = "objects") -> str:
    """Melted per-(user, attr, value) statistics; columns user_id, attr,
    value, s1 (avg rating), s2 (count)."""
    parts = [
        f"""
        SELECT r.user_id AS user_id, '{d}' AS attr, o.{d} AS value,
               AVG(CAST(r.rating AS DOUBLE)) AS s1,
               CAST(COUNT(*) AS BIGINT) AS s2
        FROM {ratings} r JOIN {objects} o ON r.obj_id = o.obj_id
        GROUP BY r.user_id, o.{d}
        """
        for d in attrs
    ]
    return " UNION ALL ".join(parts)


def pref_pairs_sql(stats: str = "stats") -> str:
    """Preference tuples from a stats table via the product-order rule."""
    return f"""
    SELECT a.user_id AS user_id, a.attr AS attr,
           a.value AS better, b.value AS worse
    FROM {stats} a JOIN {stats} b
      ON a.user_id = b.user_id AND a.attr = b.attr AND a.value <> b.value
    WHERE (a.s1 > b.s1 AND a.s2 >= b.s2) OR (a.s1 >= b.s1 AND a.s2 > b.s2)
    """


def derive_prefs_spark(
    spark: SparkSession, ratings: DataFrame, objects: DataFrame, attrs: Sequence[str]
) -> DataFrame:
    """ratings ⋈ objects → preference tuples DataFrame (user_id, attr,
    better, worse), fully in Catalyst."""
    ratings.createOrReplaceTempView("ratings")
    objects.createOrReplaceTempView("objects")
    spark.sql(stats_sql(attrs)).createOrReplaceTempView("stats")
    return spark.sql(pref_pairs_sql())
