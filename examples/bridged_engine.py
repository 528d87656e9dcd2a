"""The paper's conclusion, executed: bridging the gap inside SQL.

Sec. IX-C sketches how a future generalized vector database could
match a specialized one.  ``repro.bridged`` implements that sketch —
same pgsim SQL surface, but with the buffer manager bypassed on the
hot path (Step#1), SGEMM construction (Step#2), a k-sized heap
(Step#3), local-heap parallelism (Step#4) and the tuned k-means +
optimized layouts (Step#5).

This script races three engines on the same workload:

    PASE (faithful)  ->  bridged (Sec. IX-C)  ->  Faiss (specialized)

Run:  python examples/bridged_engine.py
"""

import time

from repro.common.datasets import load_dataset
from repro.common.parallel import speedups
from repro.core.report import render_table
from repro.core.study import GeneralizedVectorDB, SpecializedVectorDB

K = 10
NPROBE = 12
PARAMS = "clusters = 45, sample_ratio = 0.2, seed = 7"


def build_generalized(dataset, am_name: str) -> tuple[GeneralizedVectorDB, float]:
    gen = GeneralizedVectorDB()
    gen.load(dataset.base)
    start = time.perf_counter()
    gen.db.execute(
        f"CREATE INDEX vec_idx ON vectors USING {am_name} (vec) WITH ({PARAMS})"
    )
    build = time.perf_counter() - start
    gen.am = gen.db.catalog.find_index("vec_idx").am
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
    return gen, build


def mean_latency(search, queries) -> float:
    search(queries[0])  # warm-up
    start = time.perf_counter()
    for q in queries:
        search(q)
    return (time.perf_counter() - start) / len(queries)


def main() -> None:
    dataset = load_dataset("sift1m", scale=2e-3)
    queries = dataset.queries[:15]
    print(f"workload: {dataset.n} x {dataset.dim}-dim vectors, top-{K}, nprobe={NPROBE}\n")

    pase, pase_build = build_generalized(dataset, "pase_ivfflat")
    bridged, bridged_build = build_generalized(dataset, "bridged_ivfflat")

    spec = SpecializedVectorDB()
    spec.load(dataset.base)
    start = time.perf_counter()
    spec.create_index("ivf_flat", clusters=45, sample_ratio=0.2, seed=7)
    faiss_build = time.perf_counter() - start

    latencies = {
        "PASE (faithful)": mean_latency(lambda q: pase.search(q, K), queries),
        "bridged (Sec. IX-C)": mean_latency(lambda q: bridged.search(q, K), queries),
        "Faiss (specialized)": mean_latency(
            lambda q: spec.search(q, K, nprobe=NPROBE), queries
        ),
    }
    builds = {
        "PASE (faithful)": pase_build,
        "bridged (Sec. IX-C)": bridged_build,
        "Faiss (specialized)": faiss_build,
    }
    faiss_lat = latencies["Faiss (specialized)"]
    rows = [
        [
            name,
            f"{builds[name] * 1e3:.0f}ms",
            f"{lat * 1e3:.2f}ms",
            f"{lat / faiss_lat:.1f}x",
        ]
        for name, lat in latencies.items()
    ]
    print(render_table(["engine", "build", "search/query", "vs Faiss"], rows))

    # Step#4: the bridged engine's parallel path uses local heaps.
    __, curve = bridged.am.parallel_search(queries[0], K, NPROBE, [1, 2, 4, 8])
    curve = speedups(curve)
    print(f"\nbridged 8-thread intra-query speedup (local heaps): {curve[8]:.1f}x")

    # Same SQL surface, same answers.
    lit = ",".join(f"{x:.6f}" for x in queries[0])
    sql = f"SELECT id FROM vectors ORDER BY vec <-> '{lit}'::PASE LIMIT {K}"
    print("\nbridged EXPLAIN:")
    print(bridged.db.explain(sql))
    assert [r[0] for r in bridged.db.query(sql)] == bridged.search(queries[0], K).ids

    print(
        "\nThe bridged engine keeps the relational surface (SQL, WAL, catalog,"
        "\ndurable pages) and still lands within a small factor of the"
        "\nspecialized engine — the paper's 'no fundamental limitation' claim."
    )


if __name__ == "__main__":
    main()
