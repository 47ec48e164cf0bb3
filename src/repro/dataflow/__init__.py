"""Distributed dataflow: Spark SQL derivations (oracle-checked against
DuckDB with identical SQL text), batch Pareto frontiers, and the
continuous dissemination pipeline over clustered user-preference
partitions (Structured Streaming + applyInPandasWithState)."""
