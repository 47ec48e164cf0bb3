"""Distributed dataflow: Spark SQL preference derivation (oracle-checked
against DuckDB with identical SQL text) and the continuous dissemination
query over clustered user-preference partitions (Structured Streaming +
applyInPandasWithState)."""
