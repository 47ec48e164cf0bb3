"""Preference derivation and cluster algebra as Spark SQL.

Every query here is built as a single SQL string that runs unchanged on
Spark (Catalyst) and on DuckDB, so `repro.oracle.assert_equivalent` can
diff them row-for-row. The queries implement:

* ``stats_sql`` — ratings ⋈ objects → per (user, attr, value) (avg
  rating, count), the paper's movie statistics (Sec. VIII-A);
* ``pref_pairs_sql`` — stats → preference tuples via the strict
  product-order rule;
* ``common_prefs_sql`` — per-cluster common preference relations
  (Def. 5): a tuple shared by every member of the cluster;
* ``pairwise_intersection_sql`` — per-user-pair, per-attribute
  intersection sizes, the distributed seeding for HAC.
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
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


def common_prefs_sql(prefs: str = "prefs", membership: str = "membership") -> str:
    """Common preference relation per cluster: tuples held by *all*
    members. ``membership``: (user_id, cluster_id); cluster sizes are
    derived inline."""
    return f"""
    WITH sizes AS (
        SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS n
        FROM {membership} GROUP BY cluster_id
    )
    SELECT m.cluster_id AS cluster_id, p.attr AS attr,
           p.better AS better, p.worse AS worse
    FROM {prefs} p
    JOIN {membership} m ON p.user_id = m.user_id
    JOIN sizes s ON s.cluster_id = m.cluster_id
    GROUP BY m.cluster_id, p.attr, p.better, p.worse, s.n
    HAVING COUNT(*) = s.n
    """


def pairwise_intersection_sql(prefs: str = "prefs") -> str:
    """Per user pair and attribute: |≻_a ∩ ≻_b| (u1 < u2 to halve work)."""
    return f"""
    SELECT a.user_id AS u1, b.user_id AS u2, a.attr AS attr,
           CAST(COUNT(*) AS BIGINT) AS inter
    FROM {prefs} a JOIN {prefs} b
      ON a.attr = b.attr AND a.better = b.better AND a.worse = b.worse
         AND a.user_id < b.user_id
    GROUP BY a.user_id, b.user_id, a.attr
    """


def relation_sizes_sql(prefs: str = "prefs") -> str:
    """Per (user, attr): |≻_c^d| — the other half of the Jaccard ratio."""
    return f"""
    SELECT user_id AS user_id, attr AS attr, CAST(COUNT(*) AS BIGINT) AS n
    FROM {prefs} GROUP BY user_id, attr
    """


# ---------------------------------------------------------------------------
# Spark drivers
# ---------------------------------------------------------------------------

def derive_prefs_spark(
    spark: SparkSession, ratings: DataFrame, objects: DataFrame, attrs: Sequence[str]
) -> DataFrame:
    """ratings ⋈ objects → preference tuples DataFrame (user_id, attr,
    better, worse), fully in Catalyst."""
    ratings.createOrReplaceTempView("ratings")
    objects.createOrReplaceTempView("objects")
    spark.sql(stats_sql(attrs)).createOrReplaceTempView("stats")
    return spark.sql(pref_pairs_sql())


def common_prefs_spark(
    spark: SparkSession, prefs: DataFrame, membership: DataFrame
) -> DataFrame:
    prefs.createOrReplaceTempView("prefs")
    membership.createOrReplaceTempView("membership")
    return spark.sql(common_prefs_sql())


def pairwise_jaccard_spark(
    spark: SparkSession,
    prefs: DataFrame,
    attrs: Sequence[str],
) -> dict[tuple[str, str], float]:
    """Mean-over-attributes Jaccard for every user pair, computed from two
    distributed aggregations (intersections + relation sizes). Matches the
    driver-side singleton similarity of ``repro.core.hac`` (a missing
    attribute on both sides counts as Jaccard 1, on one side as 0), so it
    can seed ``cluster_users(initial_sims=...)``."""
    prefs.createOrReplaceTempView("prefs")
    inter = spark.sql(pairwise_intersection_sql()).toPandas()
    sizes = spark.sql(relation_sizes_sql()).toPandas()
    users = sorted(sizes["user_id"].unique())
    size_of = {(r.user_id, r.attr): r.n for r in sizes.itertuples(index=False)}
    inter_of = {(r.u1, r.u2, r.attr): r.inter for r in inter.itertuples(index=False)}
    sims: dict[tuple[str, str], float] = {}
    for i, a in enumerate(users):
        for b in users[i + 1 :]:
            total = 0.0
            for d in attrs:
                na = size_of.get((a, d), 0)
                nb = size_of.get((b, d), 0)
                ix = inter_of.get((a, b, d), inter_of.get((b, a, d), 0))
                union = na + nb - ix
                total += 1.0 if union == 0 else ix / union
            sims[(a, b)] = total / len(attrs)
    return sims


def prefs_to_spark_df(spark: SparkSession, prefs_by_user: dict) -> DataFrame:
    """Driver posets → (user_id, attr, better, worse) DataFrame."""
    rows = [
        (str(u), d, str(x), str(y))
        for u, by_attr in prefs_by_user.items()
        for d, poset in by_attr.items()
        for (x, y) in sorted(poset.pairs, key=repr)
    ]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["user_id", "attr", "better", "worse"])
    )
