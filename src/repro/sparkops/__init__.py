"""Spark-facing layer: offset-value codes as a per-partition encoding.

``ovc_column.attach_ovc`` range-partitions and sorts a DataFrame and
computes the artificial ``_ovc`` column inside executors (vectorized
``mapInArrow``), mirroring F1 Query's planner-introduced OVC column
(paper Section 5). ``aggregate`` and ``joins`` are order-preserving
operators that consume and produce ``_ovc`` per partition.
``plans`` holds the single-threaded Section 6 query plans.
"""
