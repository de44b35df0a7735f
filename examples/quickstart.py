"""Quickstart: build a star schema, load data, answer queries through the
chunk cache.

Run:
    python examples/quickstart.py

This walks the full public API in ~60 lines of code:

1. define a star schema with dimension hierarchies,
2. generate synthetic fact data and bulk-load a chunked backend,
3. put a chunk-caching middle tier in front of it, and
4. answer queries — first through the typed API, then via SQL —
   watching the second, overlapping query reuse cached chunks.
"""

from repro import (
    BackendEngine,
    ChunkCache,
    ChunkCacheManager,
    ChunkSpace,
    StarQuery,
    build_star_schema,
    generate_fact_table,
    parse_query,
)


def main() -> None:
    # 1. A 3-dimensional sales schema.  Cardinalities are listed from the
    #    most aggregated hierarchy level to the leaf level: the product
    #    dimension rolls 60 products into 12 groups into 3 categories.
    schema = build_star_schema(
        [[3, 12, 60], [5, 25], [4, 16]],
        measure_names=("dollar_sales",),
        dimension_names=("product", "store", "date"),
        name="sales",
    )

    # 2. Chunk geometry shared by backend and cache (ranges cover ~20% of
    #    each level), synthetic data, and a loaded chunked backend with
    #    bitmap indexes.
    space = ChunkSpace(schema, 0.2)
    records = generate_fact_table(schema, 200_000, seed=42)
    backend = BackendEngine.build(schema, space, records)
    print(
        f"loaded {backend.num_records:,} tuples on "
        f"{backend.num_data_pages:,} pages, "
        f"{backend.chunked_file.num_nonempty_chunks} non-empty chunks"
    )

    # 3. The middle tier: a 2 MB chunk cache with the paper's
    #    benefit-weighted CLOCK replacement.
    manager = ChunkCacheManager(
        schema, space, backend, ChunkCache(2_000_000, "benefit")
    )

    # 4a. A typed query: monthly sales per product group for stores 5..14
    #     (group-by levels: product=2, store=2, date=1).
    query = StarQuery.build(
        schema,
        groupby=(2, 2, 1),
        selections={"store": (5, 15)},
    )
    answer = manager.answer(query)
    print(
        f"\nquery 1: {len(answer.rows)} result rows, "
        f"{answer.record.chunks_total} chunks, "
        f"{answer.record.chunks_hit} from cache, "
        f"simulated time {answer.record.time:.1f}"
    )

    # 4b. An overlapping query: stores 10..19.  Half of its chunks are
    #     already cached — only the new half touches the backend.
    overlapping = StarQuery.build(
        schema,
        groupby=(2, 2, 1),
        selections={"store": (10, 20)},
    )
    answer = manager.answer(overlapping)
    print(
        f"query 2 (overlaps): {answer.record.chunks_hit}/"
        f"{answer.record.chunks_total} chunks from cache, "
        f"simulated time {answer.record.time:.1f}"
    )

    # 4c. The same region once more, via SQL this time: a full cache hit.
    sql = """
        SELECT product.L2, store.L2, date.L1, SUM(dollar_sales)
        FROM sales, product, store, date
        WHERE store.L2 >= 'store/L2/10' AND store.L2 <= 'store/L2/19'
        GROUP BY product.L2, store.L2, date.L1
    """
    answer = manager.answer(parse_query(schema, sql))
    print(
        f"query 3 (SQL, repeat): {answer.record.chunks_hit}/"
        f"{answer.record.chunks_total} chunks from cache, "
        f"simulated time {answer.record.time:.1f}"
    )

    # 5. Every answer carries a per-stage execution trace: which resolver
    #    (cache / derive / prefetch / backend) served which chunks, and
    #    what each pipeline stage cost.
    print("\nquery 3 trace:")
    print(f"  resolved by: {answer.trace.resolved_by}")
    for stage in answer.trace.stages:
        print(
            f"  {stage.name:<16} {stage.wall_seconds * 1e6:8.1f} us  "
            f"partitions={stage.partitions}  pages={stage.pages_read}"
        )

    stats = manager.cache.stats
    print(
        f"\ncache: {len(manager.cache)} chunks resident, "
        f"{manager.cache.used_bytes:,} bytes, "
        f"hit ratio {stats.hit_ratio:.2f}"
    )
    print(f"stream CSR so far: {manager.metrics.cost_saving_ratio():.3f}")


if __name__ == "__main__":
    main()
